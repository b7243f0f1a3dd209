import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from minkflow import geometry as geo
from minkflow import selfsim as ss
from minkflow.cli import main
from minkflow.errors import (BranchContainsRoot, Inconclusive, InvalidParams,
                             NoInvariantKnown, NonFiniteCurve,
                             QuadratureFailed, SolverFailed,
                             TimeLikeBranch)
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
        assert (m.H(0.5).xi, m.H(0.5).eta) == pytest.approx(
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

    @pytest.mark.parametrize("a, b, C", [
        (math.nan, 1.0, HN(0.0, 0.0)), (0.0, math.inf, HN(0.0, 0.0)),
        (1.0, 1.0, HN.from_diagonal(0.0, math.nan))])
    def test_non_finite_params_refused(self, a, b, C):
        with pytest.raises(InvalidParams, match="must be finite"):
            SolitonParams(a, b, C)

    # A NaN or infinite span used to hang the solver; test_cli runs those
    # in a child process with a timeout.
    @pytest.mark.parametrize("init, s_max", [
        ((0.0, math.inf), 8.0), ((math.nan, -0.5), 8.0),
        ((0.0, -0.5, math.nan), 8.0), ((0.0, -0.5), -3.0),
        ((0.0, -0.5), (2.0, -1.0)), ((1.0,), 8.0),
        ((0.0, -0.5, 0.0, 1.0), 8.0)])
    def test_bad_input_refused(self, init, s_max):
        with pytest.raises(InvalidParams):
            ss.integrate_phase(SolitonParams(0.0, 1.0), Chart.TAU_NU, init,
                               s_max=s_max)

    # rtol = NaN used to hang the solver; n_per_side = 0 raised numpy's
    # "need at least one array to concatenate".  (0, 1) in (tau, nu) widens
    # atol for nu, which the check comes before.
    @pytest.mark.parametrize("name, value", [
        ("rtol", math.nan), ("rtol", math.inf), ("rtol", 0.0),
        ("rtol", -1e-9), ("atol", math.nan), ("atol", math.inf),
        ("atol", -1e-12), ("n_per_side", 1), ("n_per_side", 0)])
    def test_bad_tolerance_or_count_refused(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name}.*{value}"):
            ss.integrate_phase(SolitonParams(0.0, 1.0), Chart.TAU_NU,
                               (0.0, -0.5), s_max=8.0, **{name: value})

    @pytest.mark.parametrize("method", ["LSODA", "BDF", "RK45", "radau"])
    def test_method_refused(self, method):
        with pytest.raises(InvalidParams, match=repr(method)):
            ss.integrate_phase(SolitonParams(0.0, 1.0), Chart.TAU_NU,
                               (0.0, -0.5), method=method)

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

    @pytest.mark.parametrize("chart", list(Chart))
    def test_a_zero_blowup_is_resolved(self, chart):
        # With a = 0, nu, and k = -b nu in (k, l), decays and never changes
        # sign.  Only (tau, nu) kept its error control relative, so in
        # (k, l) the blow-up after k passed under atol was rounding noise:
        # it moved by 1.7e-6 relative between rtol 1e-10 and 1e-13.
        p, init = SolitonParams(0.0, -1.1), (-0.625, 7.40625)
        if chart is Chart.TAU_NU:
            init = ss.taunu_from_kl(p, *init)
        back = [ss.integrate_phase(p, chart, init, s_max=(40.0, 0.0),
                                   rtol=rtol, atol=0.01 * rtol,
                                   blowup_threshold=1e6).events["blowups"]
                for rtol in (1e-10, 1e-13)]
        assert back[0] == pytest.approx(back[1], rel=1e-9)

    def test_blowup_event_recorded(self):
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
        assert len(traj.events["blowups"]) == 2
        assert traj.ends["forward"]["kind"] == "blowup"
        # the blow-up parameter is located far tighter than 1e-6
        s_end = traj.events["blowups"][-1]
        assert abs(s_end - traj.s[-1]) < 1e-9

    def test_large_a_leaks_no_overflow_warning(self):
        # A DOP853 trial stage overflows the rhs at a = 1e5 and is rejected;
        # under the suite's error::RuntimeWarning filter a leaked warning
        # would raise here.  Silencing it changes no bit: this blow-up s was
        # recorded while the warning still printed.
        traj = ss.integrate_phase(SolitonParams(1e5, 1.0), Chart.TAU_NU,
                                  (0.0, -0.5), s_max=1.0)
        assert traj.events["blowups"] == [-0.00022215117881894868]
        assert traj.s[-1] == 1.0

    def test_pole_next_to_start_sampled_inside_side(self):
        # The backward side blows up closer to s = 0 than the 1e-7 offsets
        # of the near-pole samples, which used to fall past s = 0: the
        # first dense piece extrapolated there, to tau ~ 1e273 at a = 1e50.
        traj = ss.integrate_phase(SolitonParams(1e12, 1.0), Chart.TAU_NU,
                                  (0.0, -0.5), s_max=1.0)
        assert traj.events["blowups"] == [-5.445346241658038e-11]
        assert np.all(np.diff(traj.s) > 0.0)
        assert np.max(np.abs(traj.tau)) <= 1.01 * ss.BLOWUP_THRESHOLD

    def test_solver_failure_raised(self):
        # Radau's first step size underflows to 0 on the backward side, so
        # the s it names lies below 0.
        with pytest.raises(SolverFailed, match=r"^LapackRadau failed at "
                           r"s=-5\.4841286688378366e-321: array must not "
                           r"contain infs or NaNs$") as exc:
            ss.integrate_phase(SolitonParams(1e200, 1.0), Chart.TAU_NU,
                               (0.0, -0.5), s_max=(1.0, 0.0))
        assert exc.value.s == -5.4841286688378366e-321

    def test_event_search_failure_raised(self, monkeypatch, capsys):
        # An inflection event whose sign at a step's end disagrees with the
        # dense output there, as rounding can make it next to a root, gives
        # brentq no sign change.  That ValueError was reported as a Radau
        # failure, or escaped and exited 2.
        phase_events = ss._phase_events

        def events(*args):
            seen = set()

            def flips(s, u):  # positive at the first look past s = 0.5
                first = s not in seen
                seen.add(s)
                return 1.0 if first and s > 0.5 else -1.0
            return phase_events(*args)[:3] + [flips]
        monkeypatch.setattr(ss, "_phase_events", events)
        with pytest.raises(SolverFailed, match=r"^event search failed at "
                           r"s=\S+: f\(a\) and f\(b\) must have different "
                           r"signs$") as exc:
            ss.integrate_phase(SolitonParams(0.0, 1.0), Chart.TAU_NU,
                               (0.0, -0.5), s_max=(0.0, 8.0))
        assert 0.5 < exc.value.s < 8.0
        assert main(["classify", "--a", "0", "--b", "1", "--init", "0,-0.5",
                     "--s-max", "8"]) == 3
        assert capsys.readouterr().err == f"SolverFailed: {exc.value}\n"

    @pytest.mark.parametrize("a", [1e5, 1e12])
    def test_near_pole_samples_kept(self, a):
        # Three samples lie 100, 10 and 1 times base short of the blow-up
        # at s_last: base is 1e-9, or 1e-3 s_last once s_last < 1e-6.  With
        # 1e-9 alone they fell past s = 0 and were dropped from a = 1e10 on
        # (7,999 samples at a = 1e12).
        traj = ss.integrate_phase(SolitonParams(a, 1.0), Chart.TAU_NU,
                                  (0.0, -0.5), s_max=1.0)
        [s_blow] = traj.events["blowups"]
        base = 1e-9 if s_blow <= -1e-6 else 1e-3 * -s_blow
        assert len(traj.s) == 8002 and traj.s[0] == s_blow
        assert np.isin(s_blow + base * np.array([100.0, 10.0, 1.0]),
                       traj.s).all()


# Blow-up parameters of the forward side, recorded when every step was
# taken in s (before the tail continuation existed).
SIG_ROT, SIG_SCREW = 1e6, 2e6
NU_ROT = -(3.0 * SIG_ROT) ** (1.0 / 3.0)
BLOWUP_RUNS = {
    "rotation trapped": (
        (SolitonParams(1.0, 0.0), Chart.TAU_NU,
         (-1.0 / NU_ROT * (1.0 - 1.0 / NU_ROT ** 4), NU_ROT), (0.0, 2e6),
         {"method": "Radau", "rtol": 1e-10, "atol": 1e-12,
          "blowup_threshold": 1e6}),
        1000003.1793964866),
    "screw beta>1 trapped": (
        (SolitonParams(1.0, -2.0), Chart.KL,
         (1.0 / (2 * SIG_SCREW), -2 * SIG_SCREW), (0.0, 5e6),
         {"method": "Radau", "rtol": 1e-10, "atol": 1e-12,
          "blowup_threshold": 1e6}),
        2000000.7532083928),
    "contraction": (
        (SolitonParams(0.0, -1.0), Chart.TAU_NU, (0.0, 1.0), 20.0, {}),
        1.2586883293483402),
}
# Steps of the creep of each stiff run along the slow manifold up to the
# switch with Radau alone, scipy's or LapackRadau.
RADAU_ONLY_STEPS = {"rotation trapped": 2583, "screw beta>1 trapped": 2759}


class TestPhaseSystem:
    """Every chart-level function is derived from ``_phase_coefficients``;
    the table is checked against the Jacobian and the diagonal field."""

    @pytest.mark.parametrize("chart", list(Chart))
    def test_jacobian_matches_differences(self, chart):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.uniform(-2.0, 2.0, 2)
            rhs, jac = ss._phase_rhs(SolitonParams(a, b), chart)
            u = rng.uniform(-3.0, 3.0, 3)
            f = np.array(rhs(0.0, u))
            h = 1e-7
            diff = np.column_stack([
                (np.array(rhs(0.0, u + h * e)) - f) / h for e in np.eye(3)])
            assert np.allclose(jac(0.0, u), diff, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("chart", list(Chart))
    def test_diagonal_field_matches_rhs(self, chart):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.uniform(-2.0, 2.0, 2)
            p = SolitonParams(a, b)
            rhs, _ = ss._phase_rhs(p, chart)
            P, Q = rng.uniform(-3.0, 3.0, 2)
            f0, f1, f2 = rhs(0.0, (0.5 * (P + Q), 0.5 * (P - Q), 0.0))
            assert np.allclose(ss._diagonal_field(p, chart)(P, Q),
                               (f0 + f1, f0 - f1, f2), rtol=1e-13,
                               atol=1e-13)


class TestArclengthTail:
    """Past |state| = SWITCH_RADIUS a side continues in the diagonal
    components against log radius (first against phase arclength, which
    gave the class its name)."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        chart = ss._tail_chart

        def wrapped(*args):
            calls.append(args)
            return chart(*args)
        monkeypatch.setattr(ss, "_tail_chart", wrapped)
        return calls

    @staticmethod
    def solves(monkeypatch):
        """(method, steps, nfev, njev, nlu) of each solve_ivp call.  A phase
        side in s is one PhaseSolver call, whose method is the list of its
        inner solvers' runs, (class name, accepted steps), in order."""
        import scipy.integrate
        runs, steps, solve_ivp = [], [], scipy.integrate.solve_ivp
        phase = ss._solvers()[1]
        step = phase._step_impl

        def stepped(self):
            ok, message = step(self)
            if ok:
                steps.append((self, type(self.inners[-1]).__name__))
            return ok, message

        def counted(*args, method, **kw):
            sol = solve_ivp(*args, method=method, **kw)
            name = getattr(method, "__name__", method)
            if method is phase:
                mine = (inner for solver, inner in steps
                        if solver is kw["made"][-1])
                name = [(inner, len(list(run)))
                        for inner, run in itertools.groupby(mine)]
            runs.append((name, len(sol.t) - 1, sol.nfev, sol.njev, sol.nlu))
            return sol
        monkeypatch.setattr(phase, "_step_impl", stepped)
        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)
        return runs

    @staticmethod
    def in_s_only(*args, **kw):
        """The same run with every step taken in s."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ss, "SWITCH_RADIUS", math.inf)
            return ss.integrate_phase(*args, **kw)

    @pytest.mark.parametrize("name", sorted(BLOWUP_RUNS))
    def test_blowup_s_unchanged(self, name, monkeypatch):
        calls = self.counted(monkeypatch)
        (p, chart, init, s_max, kw), s_blow = BLOWUP_RUNS[name]
        traj = ss.integrate_phase(p, chart, init, s_max=s_max, **kw)
        assert calls, "the run never switched chart"
        assert traj.ends["forward"]["kind"] == "blowup"
        assert traj.events["blowups"][-1] == pytest.approx(s_blow, rel=1e-9)
        assert traj.s[-1] == traj.events["blowups"][-1]

    @pytest.mark.parametrize("name", sorted(RADAU_ONLY_STEPS))
    def test_stiff_run_tail_is_explicit(self, name, monkeypatch):
        # The creep is stiff, its last stretch before the switch and the
        # tail next to the pole are not.  Radau alone took 2,583 and 2,759
        # steps to the switch and 995 and 989 over the tail.
        runs = self.solves(monkeypatch)
        (p, chart, init, s_max, kw), _ = BLOWUP_RUNS[name]
        ss.integrate_phase(p, chart, init, s_max=s_max, **kw)
        side, tail = runs  # the backward side is empty
        (creep, n_creep), (stretch, n_stretch) = side[0]
        assert creep == "LapackRadau" and n_creep <= 1500
        assert stretch == "DOP853" and n_stretch <= 300
        assert tail[0] == "DOP853" and tail[1] <= 40

    def test_contraction_tail_steps(self, monkeypatch):
        # In phase arclength each tail took 137 steps.
        runs = self.solves(monkeypatch)
        (p, chart, init, s_max, kw), _ = BLOWUP_RUNS["contraction"]
        ss.integrate_phase(p, chart, init, s_max=s_max, **kw)
        sides, tails = runs[0::2], runs[1::2]
        assert [[name for name, _ in side[0]] for side in sides] == \
            [["DOP853"]] * 2
        assert [tail[0] for tail in tails] == ["DOP853"] * 2
        for tail in tails:
            assert tail[1] <= 80

    def test_tail_failure_raised(self, monkeypatch):
        # A tail whose field turns NaN one unit of log radius in stops
        # DOP853 short of the pole; the side used to end there unresolved.
        chart = ss._tail_chart

        def broken(field, sign):
            rhs = chart(field, sign)
            return lambda r, V: (math.nan,) * 4 if r > 1.0 else rhs(r, V)
        monkeypatch.setattr(ss, "_tail_chart", broken)
        (p, chart_, init, s_max, kw), _ = BLOWUP_RUNS["contraction"]
        with pytest.raises(SolverFailed, match=r"^DOP853 failed at s=1\.255"
                           r"\d*: Required step size is less than spacing "
                           r"between numbers\.$"):
            ss.integrate_phase(p, chart_, init, s_max=s_max, **kw)

    def test_slow_manifold_never_switches(self, monkeypatch):
        # Radau along a slow manifold: max |u_i| passes SWITCH_RADIUS near
        # s = 50 at a phase speed of O(1), so the side stays in s.
        args = (SolitonParams(2.0, 1.0), Chart.KL, (0.0, -50.0))
        kw = {"s_max": (0.0, 60.0), "method": "Radau"}
        calls = self.counted(monkeypatch)
        traj = ss.integrate_phase(*args, **kw)
        ref = self.in_s_only(*args, **kw)
        assert not calls
        assert np.max(np.abs(traj.l)) > ss.SWITCH_RADIUS
        for key in ("s", "tau", "nu", "theta"):
            assert np.array_equal(getattr(traj, key), getattr(ref, key)), key
        assert traj.events == ref.events and traj.ends == ref.ends

    def test_cut_inside_tail(self, monkeypatch):
        # s_max = 1.258 ends both sides between the switch (|s| ~ 1.2489)
        # and the pole (|s| ~ 1.25869), so both sampling grids are the
        # same as in the s-only run.
        p, args = SolitonParams(0.0, -1.0), (Chart.TAU_NU, (0.0, 1.0))
        calls = self.counted(monkeypatch)
        traj = ss.integrate_phase(p, *args, s_max=1.258)
        ref = self.in_s_only(p, *args, s_max=1.258)
        assert len(calls) == 2
        assert np.array_equal(traj.s, ref.s)
        assert traj.s_span == (-1.258, 1.258)
        before = np.maximum(np.abs(ref.tau), np.abs(ref.nu)) < ss.SWITCH_RADIUS
        assert 0 < np.count_nonzero(~before) < 200
        for key in ("tau", "nu", "theta"):
            new, old = getattr(traj, key), getattr(ref, key)
            assert np.array_equal(new[before], old[before]), key
            assert np.allclose(new, old, rtol=1e-9, atol=0.0), key
        assert traj.events == ref.events
        for side, i in (("backward", 0), ("forward", -1)):
            assert traj.ends[side]["kind"] == "unresolved"
            assert math.isfinite(traj.k[i]) and 1e3 < abs(traj.k[i]) < 1e4

    def test_threshold_below_radius_never_switches(self, monkeypatch):
        p, args = SolitonParams(0.0, -1.0), (Chart.TAU_NU, (0.0, 1.0))
        kw = {"s_max": 20.0, "blowup_threshold": 0.5 * ss.SWITCH_RADIUS}
        calls = self.counted(monkeypatch)
        traj = ss.integrate_phase(p, *args, **kw)
        ref = self.in_s_only(p, *args, **kw)
        assert not calls
        assert traj.ends["forward"]["kind"] == "blowup"
        for key in ("s", "tau", "nu", "theta"):
            assert np.array_equal(getattr(traj, key), getattr(ref, key)), key
        assert traj.events == ref.events

    def test_tail_adds_no_crossing(self, monkeypatch):
        # Radau at the default tolerance on a non-stiff blow-up (the
        # backward side of `selfsim --a 1 --b 0 --init 0,0.5` with
        # method="Radau"); the crossing was recorded when every step was
        # taken in s.  A tail carried in (u0, u1) cannot hold
        # u0 - u1 ~ 1/|u| next to |u| ~ 1e8 and listed a spurious eta
        # crossing 3e-8 before the pole.
        calls = self.counted(monkeypatch)
        traj = ss.integrate_phase(SolitonParams(1.0, 0.0), Chart.TAU_NU,
                                  (0.0, 0.5), s_max=(20.0, 0.0),
                                  method="Radau")
        assert len(calls) == 1
        assert traj.events["blowups"] == [
            pytest.approx(-2.363688465357804, rel=1e-9)]
        [xi] = traj.events["crossings"]
        assert xi["axis"] == "xi"
        assert xi["s"] == pytest.approx(-0.5213569785639877, rel=1e-9)
        assert traj.events["inflections"] == [0.0]

    # Past the bound the tail's field overflows before the state gets
    # there; NaN, infinite and non-positive thresholds once ended both
    # sides "unresolved".
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0,
                                           None],
                             ids=["nan", "inf", "zero", "negative", "above"])
    def test_threshold_refused(self, threshold):
        p = SolitonParams(0.0, -1.0)
        bound = ss._max_threshold(p, Chart.TAU_NU)
        if threshold is None:
            threshold = float(np.nextafter(bound, math.inf))
        with pytest.raises(InvalidParams, match=re.escape(
                f"at most {bound:.17g}, got {threshold}")):
            ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0,
                               blowup_threshold=threshold)

    @pytest.mark.parametrize("p, chart, init", [
        (SolitonParams(0.0, -1.0), Chart.TAU_NU, (0.0, 1.0)),
        (SolitonParams(1.0, 0.0), Chart.TAU_NU, (0.0, 0.5)),
        (SolitonParams(1.0, -0.5), Chart.KL, (0.0, 0.5)),
        (SolitonParams(50.0, 0.0), Chart.TAU_NU, (0.0, 0.5)),
        (SolitonParams(0.0, -100.0), Chart.TAU_NU, (0.0, 1.0))],
        ids=["contraction", "rotation", "screw", "rotation a=50",
             "contraction b=-100"])
    def test_threshold_at_bound_blows_up(self, p, chart, init):
        # The pole sits about 1/|state| past where |state| = threshold.
        bound = ss._max_threshold(p, chart)
        ref = ss.integrate_phase(p, chart, init, s_max=(0.0, 20.0))
        traj = ss.integrate_phase(p, chart, init, s_max=(0.0, 20.0),
                                  blowup_threshold=bound)
        assert traj.ends["forward"]["kind"] == "blowup"
        [s_blow] = traj.events["blowups"]
        assert traj.s[-1] == s_blow
        assert s_blow == pytest.approx(ref.events["blowups"][0],
                                       abs=10.0 / ss.BLOWUP_THRESHOLD)

    @settings(max_examples=10, deadline=None)
    @given(st.tuples(
        st.sampled_from(["contraction", "rotation", "screw"]),
        st.floats(0.2, 3.0), st.booleans(), st.floats(0.05, 0.95),
        st.sampled_from(list(Chart)),
        st.tuples(*[st.integers(-64, 64).map(lambda i: i / 32.0)] * 2)))
    def test_tail_agrees_with_s_only(self, run):
        # The families that blow up: contraction (0, -m), rotation (+-m, 0)
        # and screw (+-m, -beta^2 m) with beta < 1, in both charts.  The
        # reference cannot hold u0 +- u1 next to |state| ~ 1e8, where it
        # lists crossings that are rounding noise, so both runs stop at
        # 1e6.  Initial states lie on a 1/32 grid: a nonzero |nu| near
        # the 1e-290 floor of nu's atol (a = 0 in (tau, nu)) keeps little
        # relative precision, and its invariant drifts far past 1e-8.
        family, m, flip, beta2, chart, init = run
        a = -m if flip else m
        p = {"contraction": SolitonParams(0.0, -m),
             "rotation": SolitonParams(a, 0.0),
             "screw": SolitonParams(a, -beta2 * m)}[family]
        kw = {"s_max": 20.0, "blowup_threshold": 1e6}
        traj = ss.integrate_phase(p, chart, init, **kw)
        ref = self.in_s_only(p, chart, init, **kw)
        _assert_same_events(traj, ref)
        (new, drift), (old, drift_ref) = map(_report, (p, p), (traj, ref))
        assert new == pytest.approx(old, rel=1e-9, nan_ok=True)
        # NaN: the run has no monitored node (nu = 0 throughout).
        for d in (drift, drift_ref):
            assert d <= 1e-8 or (math.isnan(d) and
                                 new["conserved n_monitored"] == 0)


class TestStiffHandoff:
    """A side goes on with DOP853 after NSTIFF Radau steps in a row that
    are not stiff, and with Radau after NSTIFF stiff DOP853 steps in a
    row, whichever solver it started with."""

    @staticmethod
    def radau_only(*args, **kw):
        """The same run with both handoffs off."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ss, "NSTIFF", math.inf)
            return ss.integrate_phase(*args, **kw)

    # The backward side hands off at s ~ -15 and then creeps along a
    # second slow manifold: without the hand-back, DOP853 took 997,199
    # steps there at s_max = 5000.  nfev is that of the Radau-only run
    # with the tail in phase arclength.
    @pytest.mark.parametrize("s_max, nfev", [(500.0, 16463),
                                             (5000.0, 19317)])
    def test_hand_back(self, s_max, nfev, monkeypatch):
        args = (SolitonParams(-1.929, 0.509), Chart.KL,
                (-1.1357215556815305, 2.9019949668137865))
        kw = {"s_max": s_max, "method": "Radau", "rtol": 1e-10,
              "atol": 1e-12, "blowup_threshold": 1e6}
        runs = TestArclengthTail.solves(monkeypatch)
        traj = ss.integrate_phase(*args, **kw)
        back = runs[-1][0]  # one PhaseSolver run, with no tail
        assert [name for name, _ in back] == ["LapackRadau", "DOP853",
                                              "LapackRadau"]
        assert sum(run[2] for run in runs) <= 1.25 * nfev
        _assert_same_events(traj, self.radau_only(*args, **kw))

    def test_radau_side_never_stiff_hands_off(self, monkeypatch):
        # a = 0: nu decays like e^{-b s^2/2} under relative error control,
        # and the forward side is never stiff.  A Radau side that handed
        # off only after a stiff step took 51,695 steps there (9.7 s),
        # where DOP853 takes 1,958.  From s ~ 16 |nu| is under
        # RELATIVE_FLOOR / RTOL and keeps no relative precision, so the
        # inflections there are rounding noise that moves with the steps
        # (20.3 and 38.5 from the Radau start, 23.4 from the DOP853 one);
        # ``_above_floor`` leaves them out.
        p = SolitonParams(0.0, 1.0486279386362185)
        init = tuple(map(float, ss.taunu_from_kl(p, 0.84375, -30.1875)))
        kw = {"s_max": 40.0, "rtol": 1e-10, "atol": 1e-12,
              "blowup_threshold": 1e6}
        runs = TestArclengthTail.solves(monkeypatch)
        traj = ss.integrate_phase(p, Chart.TAU_NU, init, method="Radau",
                                  **kw)
        assert sum(run[1] for run in runs) <= 2500
        ref = ss.integrate_phase(p, Chart.TAU_NU, init, **kw)
        _assert_same_events(_above_floor(traj), _above_floor(ref))

    # DOP853 alone is stiff on all three: at a = 1e8 it did not reach s = 1
    # within 20 s, and at a = 0 it took 4,082 steps a side to s = 100, its
    # steps shrinking like 1/s.  With the handoff the forward sides take
    # 6 DOP853, 3 Radau, 4 DOP853 and 10 Radau steps, and 3,404, 3, 4 and
    # 14.  The bounce after each DOP853 -> Radau handoff: Radau's error
    # test cuts the step it is handed below the stiff size while the fast
    # mode settles, and DOP853 takes the side back after NSTIFF of them.
    # At a = 1e150 the sides that restarted solve_ivp at each handoff
    # made 19,475 pieces in 40 s, each advancing s by about 4e-149.
    @pytest.mark.parametrize("p, s_max, bounds", [
        (SolitonParams(1e8, 1.0), 1.0,
         [("DOP853", 8), ("LapackRadau", 4), ("DOP853", 5),
          ("LapackRadau", 13), ("DOP853", 166), ("tail", 88)]),
        (SolitonParams(0.0, 1.0), 1000.0,
         [("DOP853", 4255), ("LapackRadau", 4), ("DOP853", 5),
          ("LapackRadau", 18)] * 2),
        (SolitonParams(1e150, 1.0), 1.0,
         [("DOP853", 220), ("LapackRadau", 206), ("DOP853", 581),
          ("tail", 88)])])
    def test_explicit_side_hands_off(self, p, s_max, bounds, monkeypatch):
        runs = TestArclengthTail.solves(monkeypatch)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=s_max)
        assert traj.s[-1] == s_max
        assert [name for name, _ in _flat(runs)] == [n for n, _ in bounds]
        for (_, steps), (_, most) in zip(_flat(runs), bounds):
            assert steps <= most

    def test_counts_are_summed(self, monkeypatch):
        # The forward side of a = 1e8 runs DOP853, LapackRadau, DOP853 and
        # LapackRadau; solve_ivp reads the side's counts once, at its end.
        phase, inners = ss._solvers()[1], []
        start = phase._start

        def started(self, *args):
            inners.append(start(self, *args))
            return inners[-1]
        monkeypatch.setattr(phase, "_start", started)
        runs = TestArclengthTail.solves(monkeypatch)
        ss.integrate_phase(SolitonParams(1e8, 1.0), Chart.TAU_NU,
                           (0.0, -0.5), s_max=(0.0, 1.0))
        [(_, _, *counts)] = runs
        assert len(inners) == 4
        assert counts == [sum(getattr(inner, key) for inner in inners)
                          for key in ("nfev", "njev", "nlu")]
        assert min(counts) > 0

    @pytest.mark.parametrize("stiff", [False, True],
                             ids=["DOP853", "Radau"])
    def test_without_handoff_is_inner_solver(self, stiff, monkeypatch):
        # NSTIFF = inf turns both handoffs off: a side is then one run of
        # the solver it starts with, step for step.  With NSTIFF = 3 both
        # starts hand off three times before s = 1e-6.
        from scipy.integrate import DOP853, solve_ivp
        monkeypatch.setattr(ss, "NSTIFF", math.inf)
        lapack_radau, phase = ss._solvers()
        p = SolitonParams(1e8, 1.0)
        rhs, jac = ss._phase_rhs(p, Chart.TAU_NU)
        events = ss._phase_events(p, Chart.TAU_NU, ss.BLOWUP_THRESHOLD)

        def run(method, **kw):
            return solve_ivp(rhs, (0.0, 1e-6), (0.0, -0.5, 0.0),
                             method=method, rtol=ss.RTOL, atol=ss.ATOL,
                             events=events + [ss._switch(rhs)],
                             dense_output=True, **kw)
        ours = run(phase, jac=jac, stiff=stiff, made=[])
        ref = run(lapack_radau, jac=jac) if stiff else run(DOP853)
        TestLapackRadau.assert_same(ours, ref)
        s = np.linspace(0.0, ours.t[-1], 101)
        assert np.array_equal(ours.sol(s), ref.sol(s))

    # Eigenvalues -5 and 3, 2 and 3, -1 +- 2i and 1 +- 2i.
    @pytest.mark.parametrize("block, rate", [
        ([[-5.0, 0.0], [0.0, 3.0]], 5.0), ([[2.0, 0.0], [0.0, 3.0]], 0.0),
        ([[-1.0, -2.0], [2.0, -1.0]], math.sqrt(5.0)),
        ([[1.0, -2.0], [2.0, 1.0]], 0.0)])
    def test_only_decaying_modes_are_stiff(self, block, rate):
        J = [[*row, 0.0] for row in block] + [[0.0, 0.0, 0.0]]
        assert ss._fast_rate(J) == pytest.approx(rate, rel=1e-15)

    def test_growing_mode_stays_explicit(self, monkeypatch):
        # nu grows like e^{s^2/2} from far below its atol floor, so DOP853's
        # steps pass h tau = 1, tau the growing eigenvalue.  Counted as
        # stiff, it sent both sides to Radau for 42,234 and 32,877 steps
        # (12 s); DOP853 alone takes 888 and 698.
        runs = TestArclengthTail.solves(monkeypatch)
        ss.integrate_phase(SolitonParams(0.0, -1.0), Chart.TAU_NU,
                           (1.0, 1e-300), blowup_threshold=1e6)
        assert [run[:2] for run in runs] == [([("DOP853", 888)], 888),
                                             ([("DOP853", 698)], 698)]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 64), st.floats(0.1, 2.0), st.booleans(),
           st.booleans(), st.sampled_from(list(Chart)),
           st.integers(-64, 64), st.integers(-1024, 1024))
    def test_agrees_with_radau_only(self, m, b, flip_a, flip_b, chart, i,
                                    j):
        # a and the initial states lie on a 1/32 grid.  A second component
        # out to +-32 starts many runs next to a slow manifold, and about
        # one in five hands off.  a stays clear of 0: for |a| ~ 1e-14 the
        # decaying component passes far under atol, so the blow-up after it
        # is rounding noise and moves by 2e-6 relative between any two
        # solvers; a = 0 floors that atol, and Radau then takes up to 50,000
        # steps a side (test_a_zero_blowup_is_resolved covers it).  At rtol
        # 1e-10 DOP853 alone locates events only to a few 1e-9: a = 1.53125,
        # b = -1, init (0, 26) has its backward inflection 1.2e-9 relative
        # off the rtol 1e-13 value with DOP853 and 3.5e-9 with the handoff.
        # At rtol 1e-12 both runs stay within 3e-11 of each other on 100
        # draws, and about a third of them still hand DOP853 back to Radau.
        p = SolitonParams(-m / 32.0 if flip_a else m / 32.0,
                          -b if flip_b else b)
        assume(chart is Chart.TAU_NU or p.a * p.a != p.b * p.b)
        init = (i / 32.0, j / 32.0)
        kw = {"s_max": 40.0, "method": "Radau", "rtol": 1e-12,
              "atol": 1e-14, "blowup_threshold": 1e6}
        traj = ss.integrate_phase(p, chart, init, **kw)
        _assert_same_events(traj, self.radau_only(p, chart, init, **kw))


def _assert_same_events(traj, ref):
    """The same ends, and the same events within 1e-9 relative."""
    assert traj.ends == ref.ends
    for key in ("blowups", "inflections"):
        assert traj.events[key] == pytest.approx(ref.events[key], rel=1e-9)
    assert [c["axis"] for c in traj.events["crossings"]] == \
        [c["axis"] for c in ref.events["crossings"]]
    assert [c["s"] for c in traj.events["crossings"]] == pytest.approx(
        [c["s"] for c in ref.events["crossings"]], rel=1e-9)


def _flat(runs):
    """(solver, steps) of every run that ``TestArclengthTail.solves``
    lists: each phase side's inner runs, and "tail" for a DOP853 run in
    log radius."""
    return [pair for method, steps, *_ in runs
            for pair in (method if isinstance(method, list) else
                         [("tail", steps)])]


def _above_floor(traj):
    """``traj`` without the inflections from the first node on where |nu|
    is under RELATIVE_FLOOR / RTOL, the cut of ``conserved_drift``."""
    s_floor = traj.s[np.abs(traj.nu) < ss.RELATIVE_FLOOR / ss.RTOL][0]
    events = dict(traj.events, inflections=[
        s for s in traj.events["inflections"] if s < s_floor])
    return dataclasses.replace(traj, events=events)


def _report(p, traj):
    """``classify``'s report as one flat dict of leaves keyed by their
    paths, or the name of the error it raised, and the conserved drift
    (0 where the family has no invariant)."""
    try:
        rep = dataclasses.asdict(ss.classify(p, traj))
    except Inconclusive as exc:
        return {"raised": type(exc).__name__}, 0.0
    conserved = rep.pop("conserved") or {"drift": 0.0}
    drift = conserved.pop("drift")
    out = {f"conserved {k}": v for k, v in conserved.items()}

    def flatten(path, v):
        items = (v.items() if isinstance(v, dict) else
                 enumerate(v) if isinstance(v, (list, tuple)) else None)
        if items is None:
            out[path] = v
        for k, x in items or ():
            flatten(f"{path}/{k}", x)
    flatten("", rep)
    return out, drift


class TestLapackRadau:
    """``LapackRadau`` is scipy's Radau with LAPACK called directly, and a
    Radau side without handoffs is one LapackRadau run."""

    @staticmethod
    def run(name, method, **kw):
        """The creep of the stiff run ``name`` with ``method``, out to the
        switch."""
        from scipy.integrate import solve_ivp
        (p, chart, init, _, opts), _ = BLOWUP_RUNS[name]
        rhs, jac = ss._phase_rhs(p, chart)
        events = ss._phase_events(p, chart, opts["blowup_threshold"])
        return solve_ivp(rhs, (0.0, 1e7), (*init, 0.0), method=method,
                         jac=jac, rtol=opts["rtol"], atol=opts["atol"],
                         events=events + [ss._switch(rhs)],
                         dense_output=True, **kw)

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)
        assert (a.nfev, a.njev, a.nlu) == (b.nfev, b.njev, b.nlu)
        for ta, tb in zip(a.t_events, b.t_events):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize("name", sorted(RADAU_ONLY_STEPS))
    def test_same_steps_as_scipy(self, name):
        from scipy.integrate import Radau
        ours = self.run(name, ss._solvers()[0])
        assert ours.status == 1 and len(ours.t) - 1 == RADAU_ONLY_STEPS[name]
        self.assert_same(ours, self.run(name, Radau))

    @pytest.mark.parametrize("name", sorted(RADAU_ONLY_STEPS))
    def test_radau_only_same_steps_as_scipy(self, name, monkeypatch):
        # With both handoffs off, a side started with Radau runs on to the
        # switch as scipy's Radau does.
        from scipy.integrate import Radau
        monkeypatch.setattr(ss, "NSTIFF", math.inf)
        ours = self.run(name, ss._solvers()[1], stiff=True, made=[])
        assert ours.status == 1 and len(ours.t) - 1 == RADAU_ONLY_STEPS[name]
        self.assert_same(ours, self.run(name, Radau))

    def test_non_finite_matrix_refused(self):
        from scipy.integrate import solve_ivp
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0],
                      method=ss._solvers()[0], jac=lambda t, y: [[math.nan]])


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
        sf = geo.reconstruct_positions(c.x, c.y, c.theta)
        # the round trip costs ulps of |X| e^{|theta|}; bound the window
        keep = np.maximum(np.abs(c.tau), np.abs(c.nu)) < 100.0
        assert np.max(np.abs(sf[keep, 0] - c.tau[keep])) < 1e-8
        assert np.max(np.abs(sf[keep, 1] - c.nu[keep])) < 1e-8

    def test_overflow_refused(self):
        # A boost by theta0 = 705 is a solution too; cosh theta overflows
        # float64 past |theta| ~ 710, which this trajectory reaches.
        traj = ss.integrate_phase(SolitonParams(1.0, 0.0), Chart.TAU_NU,
                                  (0.0, 0.5, 705.0), s_max=6.0)
        assert np.max(np.abs(traj.theta)) > 711.0
        with pytest.raises(NonFiniteCurve, match=r"at s=\S+, theta=7\d\d\."):
            ss.reconstruct(traj)

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

    # x_max = NaN used to hang; x_max = -1 returned 4,001 nodes.
    @pytest.mark.parametrize("x_max", [math.nan, math.inf, -1.0])
    def test_bad_x_max_refused(self, x_max):
        with pytest.raises(InvalidParams, match=f"x_max.*{x_max}"):
            ss.integrate_graph(SolitonParams(0.0, 1.0), 1.0, 0.0, x_max)

    # A NaN slope passed the |y'| < 1 check and reached scipy's refusal.
    @pytest.mark.parametrize("y0, yp0", [(math.nan, 0.0), (math.inf, 0.0),
                                         (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_initial_values_refused(self, y0, yp0):
        with pytest.raises(InvalidParams, match=re.escape(
                f"initial values must be finite: y0={y0}, yp0={yp0}")):
            ss.integrate_graph(SolitonParams(0.0, 1.0), y0, yp0, 5.0)

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

    # A NaN end was reported as not containing the anchor.
    @pytest.mark.parametrize("eta_span", [(-1.0, math.nan), (math.nan, 1.0),
                                          (-math.inf, 1.0)])
    def test_non_finite_span_refused(self, eta_span):
        with pytest.raises(InvalidParams, match=re.escape(
                f"eta_span must be finite, got {eta_span}")):
            ss.integrate_lightcone(SolitonParams(1.0, 0.0), 0.0, 1.0,
                                   eta_span)

    # A NaN xi' passed the xi' > 0 check and reached scipy's refusal.
    @pytest.mark.parametrize("xi0, xip0", [(math.nan, 1.0), (-math.inf, 1.0),
                                           (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_initial_values_refused(self, xi0, xip0):
        with pytest.raises(InvalidParams, match=re.escape(
                f"initial values must be finite: xi0={xi0}, xip0={xip0}")):
            ss.integrate_lightcone(SolitonParams(1.0, 0.0), xi0, xip0,
                                   (-1.0, 1.0))

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
        state = (x * ch - y * sh, x * sh - y * ch, theta)
        assert ss.conserved_quantity(p, state) == pytest.approx(0.0,
                                                                abs=1e-12)

    def test_no_invariant_for_general_screw(self):
        # Screw-translation needs C = (0, 1) exactly; 1e-15 off it is not
        # the normal form the invariant is derived for.
        for p in (SolitonParams(1.0, 2.0),
                  SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0 + 1e-15))):
            with pytest.raises(NoInvariantKnown):
                ss.conserved_quantity(p, (0.1, 0.1, 0.0))

    @pytest.mark.parametrize("eta_C, carried", [(1.0, True),
                                                (1.0 + 1e-15, False)],
                             ids=["exact", "1e-15 off"])
    def test_defect_carried_only_for_exact_normal_form(self, eta_C, carried):
        p = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, eta_C))
        xi0 = 1.0
        c = ss.integrate_lightcone(p, xi0,
                                   2 * (xi0 - 1 + 0.5 * math.exp(-xi0)),
                                   (-4.0, 3.0))
        assert ("screw_delta" in c.events) == carried
        if carried:
            assert ss.conserved_drift(p, c)["drift"] < 1e-8
        else:
            with pytest.raises(NoInvariantKnown):
                ss.conserved_drift(p, c)

    @pytest.mark.parametrize("p, value", [
        (SolitonParams(1.0, 0.0), -0.03 - 1600.0),
        (SolitonParams(0.0, 1.0), 0.04 * math.exp(-0.03))],
        ids=["rotation", "expansion"])
    def test_large_theta(self, p, value):
        # Only screw-translation reads xi = e^theta (tau - nu), which
        # overflows past theta ~ 710; rotation runs pass |theta| = 710.
        assert ss.conserved_quantity(p, (0.1, 0.2, 800.0)) == \
            pytest.approx(value, rel=1e-14)

    def test_nu_below_floor_is_not_monitored(self):
        # nu0 = 1e-300 lies below nu's atol RELATIVE_FLOOR (a = 0 in
        # (tau, nu)) and has no relative precision: its invariant would
        # read 0.0 and drift by 2.9e12.
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (1.0, 1e-300),
                                  blowup_threshold=1e6)
        d = ss.conserved_drift(p, traj)
        assert math.isnan(d["value"]) and math.isnan(d["drift"])
        assert d["n_monitored"] == 0

    @pytest.mark.filterwarnings("error")
    def test_nu_without_relative_precision_is_not_monitored(self):
        # nu0 = 1e-289 lies above nu's atol but below RELATIVE_FLOOR /
        # RTOL, where the atol still outweighs the rtol share: the drift
        # read 7.4e-3.
        p = SolitonParams(0.0, -1.0)
        traj = ss.integrate_phase(p, Chart.TAU_NU, (1.0, 1e-289),
                                  blowup_threshold=1e6)
        d = ss.conserved_drift(p, traj)
        assert math.isnan(d["value"]) and math.isnan(d["drift"])
        assert d["n_monitored"] == 0

    @pytest.mark.filterwarnings("error")
    def test_screw_defect_below_its_precision_is_skipped(self):
        # Out to eta = 5 the carried defect decays to its 1e-290 atol while
        # xi passes 2,900; the log of Q there overflowed expm1.
        p = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0))
        xi0 = 1.0
        c = ss.integrate_lightcone(p, xi0,
                                   2 * (xi0 - 1 + 0.5 * math.exp(-xi0)),
                                   (-4.0, 5.0))
        d = ss.conserved_drift(p, c)
        assert d["value"] == pytest.approx(0.5, rel=1e-12)
        assert d["drift"] < 1e-8
        assert 0 < d["n_monitored"] < len(c.s)

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
        d = dataclasses.asdict(rep)
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


def _lambert_root(A, k):
    """The root 1 + W_k(-A/e) of D at 30 digits: -A/e underflows in
    float64 for the smallest A."""
    import mpmath
    with mpmath.workdps(30):
        return float(1 + mpmath.lambertw(-mpmath.mpf(A) / mpmath.e, k).real)


class TestScrewTranslateCurve:
    def test_a0_exponential(self):
        c = ss.screw_translate_curve(0.0, branch=-1, xi_span=(1.2, 6.0),
                                     n=801)
        shift = c.eta[0] - 0.5 * math.log(c.xi[0] - 1.0)
        assert np.max(np.abs(c.xi - (np.exp(2 * (c.eta - shift)) + 1))) < 1e-9

    def test_a0_quadrature_next_to_root(self):
        # A = 0 has eta = (1/2) log((xi - 1)/(xi0 - 1)) and
        # s = sqrt(2 (xi - 1)) - sqrt(2 (xi0 - 1)); the span starts 1e-6
        # from the root xi = 1, where 1/D loses digits unless each cell
        # is integrated in its own offset.
        c = ss.screw_translate_curve(0.0, branch=-1,
                                     xi_span=(1.0 + 1e-6, 9.0), n=6001)
        d0 = c.xi[0] - 1.0
        eta = 0.5 * np.log((c.xi - 1.0) / d0)
        assert np.max(np.abs((c.eta - c.eta[0]) - eta)) < 1e-12
        s = np.sqrt(2.0 * (c.xi - 1.0)) - math.sqrt(2.0 * d0)
        assert np.max(np.abs((c.s - c.s[0]) - s)) < 1e-12

    def test_unconverged_cell_is_refused(self, monkeypatch):
        import functools
        import scipy.integrate
        monkeypatch.setattr(scipy.integrate, "tanhsinh", functools.partial(
            scipy.integrate.tanhsinh, maxlevel=3))
        with pytest.raises(QuadratureFailed,
                           match=r"cell \[1\.000000999\d*, 1\.00400"):
            ss.screw_translate_curve(0.0, branch=-1,
                                     xi_span=(1.0 + 1e-6, 9.0))

    def test_branch_structure(self):
        assert ss.screw_roots(0.0) == [pytest.approx(1.0)]
        r = ss.screw_roots(0.5)
        assert len(r) == 2 and r[0] < math.log(0.5) < r[1]
        assert ss.screw_roots(1.0) == [0.0]
        assert ss.screw_roots(1.5) == []
        branches = ss.screw_branches(0.5)
        assert [b["spacelike"] for b in branches] == [True, False, True]

    # A fixed grid on [-40, 40] lost the left root of A = 1e-17 and the
    # root of A = -1e20.
    @pytest.mark.parametrize("A", [-1e20, -1.0, -5e-324, 0.0])
    def test_one_root_up_to_zero(self, A):
        roots = ss.screw_roots(A)
        assert roots == pytest.approx([_lambert_root(A, 0)], rel=1e-14)
        assert [b["spacelike"] for b in ss.screw_branches(A)] == [False,
                                                                  True]
        c = ss.screw_translate_curve(A)
        assert c.xi[0] > roots[0] and np.all(np.diff(c.xi) > 0.0)

    @pytest.mark.parametrize("A", [5e-324, 1e-300, 1e-17, 0.5, 0.9])
    def test_two_roots_below_one(self, A):
        roots = ss.screw_roots(A)
        assert roots == pytest.approx(
            [_lambert_root(A, k) for k in (-1, 0)], rel=1e-14)
        assert roots[0] < math.log(A) < roots[1]
        assert [b["spacelike"] for b in ss.screw_branches(A)] == [True,
                                                                  False,
                                                                  True]

    def test_roots_next_to_the_double_root(self):
        # D ~ u^2 / 2 - (1 - A) about u = 0; W alone gives -3.0e-12 for
        # the left root.
        assert ss.screw_roots(1.0 - 1e-12) == pytest.approx(
            [-math.sqrt(2e-12), math.sqrt(2e-12)], rel=1e-4)

    def test_left_branch_of_tiny_A(self):
        c = ss.screw_translate_curve(1e-17, branch=0)
        lo, hi = c.events["screw_translate"]["branch_interval"]
        assert lo == -math.inf and hi == pytest.approx(-42.926463533331656,
                                                       rel=1e-14)
        assert c.xi[-1] < hi

    @pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf])
    def test_non_finite_A_refused(self, A):
        with pytest.raises(InvalidParams, match=f"^A must be finite, got "
                           f"{A}$"):
            ss.screw_translate_curve(A)

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

    def test_branch_interval(self):
        # The quadrature cells' left ends once took the left root's place.
        c = ss.screw_translate_curve(0.5, branch=-1, xi_span=(1.0, 4.0))
        lo, hi = c.events["screw_translate"]["branch_interval"]
        assert lo == pytest.approx(0.7680390470134656, rel=1e-14)
        assert hi == math.inf

    def test_branch_guard(self):
        with pytest.raises(BranchContainsRoot):
            ss.screw_translate_curve(0.5, branch=-1, xi_span=(0.0, 4.0))
        with pytest.raises(TimeLikeBranch):
            ss.screw_translate_curve(0.5, branch=5)

    @pytest.mark.parametrize("n", [1, 0])
    def test_too_few_nodes_refused(self, n):
        with pytest.raises(InvalidParams, match=f"got {n}"):
            ss.screw_translate_curve(0.5, n=n)

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
