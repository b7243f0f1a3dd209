import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from minkflow import geometry as geo
from minkflow import selfsim as ss
from minkflow.errors import (BranchContainsRoot, Inconclusive, InvalidParams,
                             NoInvariantKnown, TimeLikeBranch)
from minkflow.hyperbolic import HyperbolicNumber as HN
from minkflow.selfsim import Chart, SolitonParams, motion_law


class TestMotionLaw:
    def test_pure_expansion(self):
        m = motion_law(SolitonParams(0.0, 1.0))
        assert m.g(0.5) == pytest.approx(math.sqrt(2.0))
        assert m.f(0.5) == 0.0
        assert m.t_domain == (-0.5, math.inf)

    def test_pure_contraction_domain(self):
        m = motion_law(SolitonParams(0.0, -1.0))
        assert m.t_domain == (-math.inf, 0.5)
        assert m.g(0.3) == pytest.approx(math.sqrt(1 - 0.6))

    def test_pure_rotation(self):
        m = motion_law(SolitonParams(1.0, 0.0))
        assert m.f(0.7) == 0.7
        assert m.g(0.7) == 1.0

    def test_translation(self):
        C = HN(0.3, -1.2)
        m = motion_law(SolitonParams(0.0, 0.0, C))
        H = m.H(2.0)
        assert H.x == pytest.approx(0.6) and H.y == pytest.approx(-2.4)

    def test_screw_translation(self):
        m = motion_law(SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0)))
        assert m.diagonal_factor(0.5) == pytest.approx((2.0, 1.0))
        assert m.H(0.5).to_diagonal() == pytest.approx(
            (0.0, 0.5 * math.log(2.0)))

    def test_screw_translation_reduced_form_required(self):
        with pytest.raises(InvalidParams):
            motion_law(SolitonParams(1.0, 1.0, HN.from_diagonal(0.5, 1.0)))
        with pytest.raises(InvalidParams):
            motion_law(SolitonParams(1.0, -1.0, HN.from_diagonal(1.0, 0.5)))
        # reduced forms are accepted
        motion_law(SolitonParams(1.0, -1.0, HN.from_diagonal(1.0, 0.0)))

    def test_initial_values(self):
        for p in (SolitonParams(0.0, 1.0), SolitonParams(1.0, -0.5, HN(1, 0)),
                  SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 2.0))):
            m = motion_law(p)
            assert m.f(0.0) == 0.0
            assert m.g(0.0) == 1.0
            H0 = m.H(0.0)
            assert H0.x == 0.0 and H0.y == 0.0

    def test_offcenter_screw_translation_ode(self):
        # g e^{-hf} H' = C must hold for the recentered screw
        p = SolitonParams(1.0, 0.5, HN(0.3, -0.2))
        m = motion_law(p)
        dt = 1e-6
        for t in (0.0, 0.4):
            Hd = (m.H(t + dt) - m.H(t - dt)) / (2 * dt)
            g, f = m.g(t), m.f(t)
            ch, sh = math.cosh(f), math.sinh(f)
            lhs = (g * (ch * Hd.x - sh * Hd.y), g * (-sh * Hd.x + ch * Hd.y))
            assert lhs == pytest.approx((p.C.x, p.C.y), abs=1e-8)

    def test_family_tags(self):
        assert SolitonParams(0, 0, HN(1, 0)).family == "translation"
        assert SolitonParams(0, 1).family == "expansion"
        assert SolitonParams(0, -1).family == "contraction"
        assert SolitonParams(1, 0).family == "rotation"
        assert SolitonParams(1, 2).family == "screw-dilation"
        assert SolitonParams(1, 1).family == "degenerate-screw"
        assert SolitonParams(
            1, 1, HN.from_diagonal(0, 1)).family == "screw-translation"


class TestIntegratePhase:
    def test_expander_fixed_point(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -1.0), s_max=5.0)
        assert np.max(np.abs(traj.tau)) < 1e-10
        assert np.max(np.abs(traj.nu + 1)) < 1e-10

    def test_screw_fixed_points(self):
        # (k, l) rest states sit at (sqrt(b), -a/sqrt(b))
        traj = ss.integrate_phase(SolitonParams(1.0, 4.0), Chart.KL,
                                  (2.0, -0.5), s_max=5.0)
        assert np.max(np.abs(traj.k - 2.0)) < 1e-10
        assert np.max(np.abs(traj.l + 0.5)) < 1e-10
        traj = ss.integrate_phase(SolitonParams(1.0, 0.25), Chart.KL,
                                  (0.5, -2.0), s_max=5.0)
        assert np.max(np.abs(traj.k - 0.5)) < 1e-10

    def test_expansion_generic_branch(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=8.0)
        assert traj.s_span == (-8.0, 8.0)
        assert abs(traj.nu[0]) < 1e-6 and abs(traj.nu[-1]) < 1e-6
        axes = {c["axis"] for c in traj.events["crossings"]}
        assert axes == {"xi", "eta"}

    def test_requires_zero_translation(self):
        with pytest.raises(InvalidParams):
            ss.integrate_phase(SolitonParams(0, 0, HN(1, 0)))

    def test_kl_chart_rejected_for_degenerate(self):
        with pytest.raises(InvalidParams):
            ss.integrate_phase(SolitonParams(1.0, 1.0), Chart.KL)

    def test_chart_equivalence(self):
        p = SolitonParams(1.0, -0.5)
        tau0, nu0 = 0.4, -0.3
        k0, l0 = ss.kl_from_taunu(p, tau0, nu0)
        t1 = ss.integrate_phase(p, Chart.TAU_NU, (tau0, nu0), s_max=1.5)
        t2 = ss.integrate_phase(p, Chart.KL, (k0, l0), s_max=1.5)
        tau2 = CubicSpline(t2.s, t2.tau)
        window = (t1.s > t2.s[0]) & (t1.s < t2.s[-1])
        assert np.max(np.abs(tau2(t1.s[window]) - t1.tau[window])) < 1e-8

    def test_backward_parametrization_symmetry(self):
        p = SolitonParams(1.0, 0.0)
        a = ss.integrate_phase(p, Chart.TAU_NU, (0.3, -0.4), s_max=1.0)
        b = ss.integrate_phase(p, Chart.TAU_NU, (-0.3, 0.4), s_max=1.0)
        tau_b = CubicSpline(b.s, b.tau)
        nu_b = CubicSpline(b.s, b.nu)
        window = (a.s > -1.0) & (a.s < 1.0) & (-a.s > b.s[0]) & (-a.s < b.s[-1])
        ssel = a.s[window]
        assert np.max(np.abs(tau_b(-ssel) + a.tau[window])) < 1e-8
        assert np.max(np.abs(nu_b(-ssel) + a.nu[window])) < 1e-8

    def test_blowup_event_recorded(self):
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
        assert len(traj.events["blowups"]) == 2
        assert traj.ends["forward"]["kind"] == "blowup"
        # the blow-up parameter is located far tighter than 1e-6
        s_end = traj.events["blowups"][-1]
        assert abs(s_end - traj.s[-1]) < 1e-9


class TestReconstruct:
    def test_fixed_point_gives_unit_hyperbola(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -1.0), s_max=1.0)
        c = ss.reconstruct(traj)
        # theta = s here, and X = (sinh theta, cosh theta)
        assert np.max(np.abs(c.x - np.sinh(c.theta))) < 1e-10
        assert np.max(np.abs(c.y - np.cosh(c.theta))) < 1e-10
        assert np.max(np.abs(c.theta - traj.s)) < 1e-10

    def test_trivial_line(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 0.0), s_max=3.0)
        c = ss.reconstruct(traj)
        assert np.max(np.abs(c.y)) < 1e-12
        assert np.max(np.abs(c.x - traj.s)) < 1e-12

    def test_support_function_round_trip(self):
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
        c = ss.reconstruct(traj)
        sf = geo.support_functions(c)
        # the round trip costs ulps of |X| e^{|theta|}; bound the window
        keep = np.maximum(np.abs(c.tau), np.abs(c.nu)) < 100.0
        assert np.max(np.abs(sf[keep, 0] - c.tau[keep])) < 1e-8
        assert np.max(np.abs(sf[keep, 1] - c.nu[keep])) < 1e-8

    def test_kl_reconstruct_requires_invertible_chart(self):
        p = SolitonParams(1.0, -0.5)
        traj = ss.integrate_phase(p, Chart.KL, (0.0, 0.5), s_max=2.0)
        c = ss.reconstruct(traj)
        assert len(c) == len(traj.s)


class TestGraphRoute:
    def test_expanding_hyperbola(self):
        p = SolitonParams(0.0, 1.0)
        c = ss.integrate_graph(p, 1.0, 0.0, 5.0)
        assert np.max(np.abs(c.y - np.sqrt(c.x ** 2 + 1))) < 1e-6

    def test_translator(self):
        p = SolitonParams(0.0, 0.0, HN(0.0, 1.0))
        c = ss.integrate_graph(p, 0.0, 0.0, 5.0)
        assert np.max(np.abs(c.y - np.log(np.cosh(c.x)))) < 1e-6

    def test_contractor_cone(self):
        p = SolitonParams(0.0, -1.0)
        c = ss.integrate_graph(p, -1.0, 0.0, 25.0)
        gap = c.x - c.y
        half = gap[c.x >= 0]
        assert np.all(np.diff(half) > -1e-12)
        assert 1.0 < half[-1] < 1.0 + math.log(2.0)

    def test_entire_graph_slopes(self):
        for p, y0 in ((SolitonParams(0.0, 1.0), 0.3),
                      (SolitonParams(1.0, -2.0), 0.1),
                      (SolitonParams(0.0, -1.0), -2.0)):
            c = ss.integrate_graph(p, y0, 0.0, 8.0)
            slope = np.tanh(c.theta)
            assert np.max(np.abs(slope)) < 1.0

    def test_light_like_asymptote_event(self):
        p = SolitonParams(0.0, -1.0)
        c = ss.integrate_graph(p, -1.0, 0.0, 40.0)
        events = c.events["light_like_asymptote"]
        assert len(events) == 2
        for e in events:
            line = e["line"]
            assert line["slope"] in (-1.0, 1.0)
            # contractor hugs y = +-x - offset with offset in (1, 1+log 2)
            assert -1.0 - math.log(2.0) < line["offset"] < -1.0


class TestLightconeRoute:
    def test_rotator_blowup(self):
        p = SolitonParams(1.0, 0.0)
        c = ss.integrate_lightcone(p, 0.0, 1.0, (-3.0, 3.0))
        events = {e["event"] for e in c.events["lightcone"]}
        assert "blowup" in events
        etas = [e["eta"] for e in c.events["lightcone"]
                if e["event"] == "blowup"]
        assert max(etas) < 3.0  # finite positive blow-up
        # conservation of xi' e^{-eta xi} along the solution
        w = np.exp(2 * c.theta)
        q = w * np.exp(-c.eta * c.xi)
        finite = np.abs(c.xi) < 50
        assert np.max(np.abs(q[finite] - 1.0)) < 1e-7

    def test_unit_hyperbola_branch(self):
        p = SolitonParams(1.0, 1.0)
        c = ss.integrate_lightcone(p, -1.0, 1.0, (-0.7, 3.0))
        assert np.max(np.abs(c.xi + 1.0 / (1.0 + c.eta))) < 1e-9

    def test_tanh_solution(self):
        p = SolitonParams(-1.0, -1.0)
        c = ss.integrate_lightcone(p, 0.0, 1.0, (-5.0, 5.0))
        assert np.max(np.abs(c.xi - np.tanh(c.eta))) < 1e-9

    def test_screw_beta_gt_one_monotonicity(self):
        # xi(eta) * eta^{-(b+1)/(b-1)} decreasing for eta > 0 when b = beta^2 > 1
        p = SolitonParams(1.0, 2.0)
        c = ss.integrate_lightcone(p, 1.0, 1.0, (-0.2, 4.0))
        expo = (p.b + 1.0) / (p.b - 1.0)
        mask = c.eta > 0.3
        vals = c.xi[mask] * c.eta[mask] ** (-expo)
        assert np.all(np.diff(vals) <= 1e-12)


def _assert_stitched(grid):
    assert np.all(np.diff(grid) > 0.0)
    assert np.count_nonzero(grid == 0.0) == 1


class TestBothWays:
    """Each route solves forward, then the mirrored problem backward, and
    stitches the sides at 0; a symmetric problem gives mirror halves."""

    def test_phase(self):
        # tau' = 1 + nu^2, nu' = tau nu from tau = 0: tau and theta are odd
        # in s, nu is even
        traj = ss.integrate_phase(SolitonParams(0.0, -1.0), Chart.TAU_NU,
                                  (0.0, 1.0), s_max=20.0)
        _assert_stitched(traj.s)
        np.testing.assert_array_equal(traj.s[::-1], -traj.s)
        np.testing.assert_array_equal(traj.tau[::-1], -traj.tau)
        np.testing.assert_array_equal(traj.nu[::-1], traj.nu)
        np.testing.assert_array_equal(traj.theta[::-1], -traj.theta)
        back, fwd = traj.events["blowups"]
        assert back == -fwd < 0.0
        one_sided = ss.integrate_phase(SolitonParams(1.0, 0.0), Chart.TAU_NU,
                                       (0.0, 0.5), s_max=(0.0, 3.0))
        _assert_stitched(one_sided.s)
        assert one_sided.s[0] == 0.0

    def test_graph(self):
        c = ss.integrate_graph(SolitonParams(0.0, -1.0), -1.0, 0.0, 40.0)
        _assert_stitched(c.x)
        np.testing.assert_array_equal(c.x[::-1], -c.x)
        np.testing.assert_array_equal(c.y[::-1], c.y)
        np.testing.assert_array_equal(c.theta[::-1], -c.theta)
        np.testing.assert_array_equal(c.k[::-1], c.k)
        np.testing.assert_array_equal(c.s[::-1], -c.s)
        fwd, back = c.events["light_like_asymptote"]
        assert fwd["x"] == -back["x"] > 0.0
        assert fwd["line"]["offset"] == back["line"]["offset"]

    def test_lightcone(self):
        # xi'' = xi' (xi + eta xi') from xi = 0: xi is odd in eta
        c = ss.integrate_lightcone(SolitonParams(1.0, 0.0), 0.0, 1.0,
                                   (-3.0, 3.0))
        _assert_stitched(c.eta)
        np.testing.assert_array_equal(c.x[::-1], -c.x)
        np.testing.assert_array_equal(c.y[::-1], -c.y)
        np.testing.assert_array_equal(c.theta[::-1], c.theta)
        np.testing.assert_array_equal(c.k[::-1], -c.k)
        fwd, back = c.events["lightcone"]
        assert fwd["event"] == back["event"] == "blowup"
        assert fwd["eta"] == -back["eta"] > 0.0


class TestConservedQuantities:
    def test_expansion_separatrix_value(self):
        p = SolitonParams(0.0, 1.0)
        q = ss.conserved_quantity(p, (0.0, -1.0, 0.0))
        assert q == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rotation_normalized_zero(self):
        p = SolitonParams(1.0, 0.0)
        tau0, nu0 = 0.7, -0.4
        theta0 = 0.5 * (tau0 ** 2 - nu0 ** 2)
        assert ss.conserved_quantity(p, (tau0, nu0, theta0)) == \
            pytest.approx(0.0, abs=1e-14)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (tau0, nu0, theta0),
                                  s_max=5.0)
        d = ss.conserved_drift(p, traj)
        assert abs(d["value"]) < 1e-12
        assert d["drift"] < 1e-8

    def test_screw_translation_exp_curve(self):
        # xi = e^{2 eta} + 1 has invariant exactly 0 (the A = 0 member)
        p = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0))
        eta = 0.3
        xi = math.exp(2 * eta) + 1.0
        theta = 0.5 * math.log(2.0 * (xi - 1.0))
        x, y = (xi + eta) / 2, (xi - eta) / 2
        ch, sh = math.cosh(theta), math.sinh(theta)
        sample = geo.CurveSample(HN(x, y), 0.0, theta, 0.0,
                                 x * ch - y * sh, x * sh - y * ch)
        assert ss.conserved_quantity(p, sample) == pytest.approx(0.0,
                                                                 abs=1e-12)

    def test_no_invariant_for_general_screw(self):
        with pytest.raises(NoInvariantKnown):
            ss.conserved_quantity(SolitonParams(1.0, 2.0), (0.1, 0.1, 0.0))

    def test_drift_small_on_generic_branches(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=6.0)
        assert ss.conserved_drift(p, traj)["drift"] < 1e-8
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
        assert ss.conserved_drift(p, traj)["drift"] < 1e-8


class TestClassify:
    def test_contraction_report(self):
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
        rep = ss.classify(p, traj)
        assert rep.crosses_xi and rep.crosses_eta
        assert rep.length_finite and rep.length == pytest.approx(
            traj.s[-1] - traj.s[0])
        assert not rep.has_inflection
        for end in rep.ends.values():
            assert end.curvature_limit == "infinite"
            assert end.minkowski_finite
        assert rep.cone_slopes == pytest.approx((-1.0, 1.0), abs=1e-6)
        d = rep.to_json_dict()
        assert d["crosses_xi"] is True

    def test_expansion_branch_report(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=8.0)
        rep = ss.classify(p, traj)
        assert rep.crosses_xi and rep.crosses_eta
        assert not rep.length_finite
        assert {e.curvature_limit for e in rep.ends.values()} == {"zero"}
        lm, lp = rep.cone_slopes
        assert -1.0 < lm < 0.0 < lp < 1.0
        assert rep.conserved is not None and rep.conserved["drift"] < 1e-8

    def test_inconclusive_when_too_short(self):
        p = SolitonParams(0.0, 1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=2.0)
        with pytest.raises(Inconclusive):
            ss.classify(p, traj)  # nu has not decayed to the zero band yet


class TestScrewTranslateCurve:
    def test_a0_exponential(self):
        c = ss.screw_translate_curve(0.0, branch=-1, xi_span=(1.2, 6.0),
                                     n=801)
        shift = c.eta[0] - 0.5 * math.log(c.xi[0] - 1.0)
        assert np.max(np.abs(c.xi - (np.exp(2 * (c.eta - shift)) + 1))) < 1e-9

    def test_branch_structure(self):
        assert ss.screw_roots(0.0) == [pytest.approx(1.0)]
        r = ss.screw_roots(0.5)
        assert len(r) == 2 and r[0] < math.log(0.5) < r[1]
        assert ss.screw_roots(1.0) == [0.0]
        assert ss.screw_roots(1.5) == []
        branches = ss.screw_branches(0.5)
        assert [b["spacelike"] for b in branches] == [True, False, True]

    def test_double_root_two_branches(self):
        branches = [b for b in ss.screw_branches(1.0) if b["spacelike"]]
        assert len(branches) == 2
        left = ss.screw_translate_curve(1.0, branch=0, xi_span=(-4.0, -0.5))
        assert np.all(left.k < 0)
        right = ss.screw_translate_curve(1.0, branch=1, xi_span=(0.5, 4.0))
        assert np.all(right.k > 0)

    def test_inflection_for_large_A(self):
        c = ss.screw_translate_curve(1.5, xi_span=(-1.0, 2.0), n=2001)
        flips = np.flatnonzero(np.sign(c.k[:-1]) != np.sign(c.k[1:]))
        assert len(flips) == 1
        assert c.xi[flips[0]] == pytest.approx(math.log(1.5), abs=2e-3)

    def test_curvature_cross_check(self):
        c = ss.screw_translate_curve(0.5, branch=-1, xi_span=(1.0, 4.0),
                                     n=2001)
        fr = geo.frame_from_lightcone(c.eta, c.xi)
        sl = slice(5, -5)
        assert np.max(np.abs(fr.k[sl] - c.k[sl])) < 1e-3

    def test_branch_guard(self):
        with pytest.raises(BranchContainsRoot):
            ss.screw_translate_curve(0.5, branch=-1, xi_span=(0.0, 4.0))
        with pytest.raises(TimeLikeBranch):
            ss.screw_translate_curve(0.5, branch=5)

    def test_invariant_constant_along_curve(self):
        p = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0))
        c = ss.screw_translate_curve(0.5, branch=-1, xi_span=(1.0, 4.0))
        d = ss.conserved_drift(p, c)
        assert d["value"] == pytest.approx(0.5, rel=1e-10)
        assert d["drift"] < 1e-10


def test_soliton_normal_velocity_identity():
    # <dX/dt, N> + k = 0 at t = 0 for a generated soliton, evaluated by
    # finite-differencing the motion map.
    p = SolitonParams(1.0, -0.5)
    traj = ss.integrate_phase(p, Chart.KL, (0.0, 0.5), s_max=1.0)
    curve = ss.reconstruct(traj)
    m = motion_law(p)
    dt = 1e-6
    plus = m.apply(curve.points, dt)
    minus = m.apply(curve.points, -dt)
    vel = (plus - minus) / (2 * dt)
    Nx, Ny = np.sinh(curve.theta), np.cosh(curve.theta)
    normal_speed = vel[:, 0] * Nx - vel[:, 1] * Ny
    assert np.max(np.abs(normal_speed + curve.k)) < 1e-7
