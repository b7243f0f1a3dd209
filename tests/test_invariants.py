import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkflow import catalog, invariants, selfsim
from minkflow.errors import DegenerateSpiral, InvalidParams
from minkflow.hyperbolic import HyperbolicNumber as HN
from minkflow.invariants import (InvariantCurveSpec, InvariantKind,
                                 check_invariance, invariant_motion,
                                 make_invariant_curve, point_set_deviation)
from minkflow.selfsim import MotionLaw

T_PROBE = (0.1, 0.5, 1.0)


def rotation_motion():
    return MotionLaw(lambda t: t, lambda t: 1.0,
                     lambda t: HN(0.0, 0.0), (-math.inf, math.inf))


def dilation_motion():
    return MotionLaw(lambda t: 0.0, lambda t: 1.0 + t,
                     lambda t: HN(0.0, 0.0), (-1.0, math.inf))


class TestMakeInvariantCurve:
    def test_spiral_alpha_zero_is_ray(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL, {"alpha": 0.0}),
            (0.1, 5.0), n=101)
        # both diagonal components proportional to the parameter
        assert np.max(np.abs(c.xi - c.s)) < 1e-12
        assert np.max(np.abs(c.eta - c.s)) < 1e-12
        assert np.max(np.abs(c.y)) < 1e-12

    def test_spiral_alpha_half_diagonal_formula(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL, {"alpha": 0.5}),
            (0.5, 2.0), n=16)
        s = c.s
        assert np.allclose(c.xi, s ** 1.5 / 1.5, atol=1e-14)
        assert np.allclose(c.eta, s ** 0.5 / 0.5, atol=1e-14)

    def test_degenerate_spiral(self):
        with pytest.raises(DegenerateSpiral):
            make_invariant_curve(
                InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL,
                                   {"alpha": 1.0}), (0.1, 1.0))
        with pytest.raises(InvalidParams):
            make_invariant_curve(
                InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL,
                                   {"alpha": 0.5}), (-1.0, 1.0))

    @pytest.mark.parametrize("kind", [InvariantKind.MINK_LOG_SPIRAL])
    def test_spiral_without_alpha_refused(self, kind):
        with pytest.raises(InvalidParams, match="'alpha'"):
            make_invariant_curve(InvariantCurveSpec(kind, {"beta": 0.5}),
                                 (0.1, 1.0))

    def test_exp_diagonal_satisfies_ode(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.EXP_DIAGONAL), (-3.0, 1.5),
            n=20001)
        xip = np.gradient(c.xi, c.eta, edge_order=2)
        rel = np.max(np.abs(xip - 2 * c.xi) / np.abs(2 * c.xi))
        assert rel < 1e-6

    def test_spiral_soliton_relation(self):
        # a tau - b nu = 0 pointwise when alpha = a/b
        a, b = 1.0, 2.0
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL,
                               {"alpha": a / b}), (0.2, 6.0), n=2001)
        assert np.max(np.abs(a * c.tau - b * c.nu)) < 1e-10


class TestCheckInvariance:
    def test_line_under_dilation(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.LINE,
                               {"direction": (1.0, 0.3)}), (-10, 10))
        dev = check_invariance(c, dilation_motion(), T_PROBE,
                               probe_fraction=(0.3, 0.7))
        assert dev < 1e-10

    def test_hyperbola_under_rotation(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.HYPERBOLA, {"radius": 1.0}),
            (-4, 4))
        dev = check_invariance(c, rotation_motion(), T_PROBE,
                               probe_fraction=(0.2, 0.8))
        assert dev < 1e-10

    def test_spiral_under_combined_motion(self):
        alpha = 0.5
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL,
                               {"alpha": alpha}), (0.05, 12.0), n=40001)
        motion = MotionLaw(lambda t: alpha * math.log(1 + t),
                           lambda t: 1.0 + t, lambda t: HN(0, 0),
                           (-1.0, math.inf))
        dev = check_invariance(c, motion, T_PROBE,
                               probe_fraction=(0.05, 0.45))
        assert dev < 1e-8

    def test_exp_diagonal_under_screw_translation(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.EXP_DIAGONAL), (-6.0, 2.5),
            n=40001)
        motion = MotionLaw(lambda t: t, lambda t: math.exp(t),
                           lambda t: HN.from_diagonal(0.0, t),
                           (-math.inf, math.inf))
        dev = check_invariance(c, motion, T_PROBE,
                               probe_fraction=(0.1, 0.55))
        assert dev < 1e-8

    def test_non_invariant_curve_detected(self):
        c = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.HYPERBOLA, {"radius": 1.0}),
            (-4, 4))
        dev = check_invariance(c, dilation_motion(), (0.5,),
                               probe_fraction=(0.4, 0.6))
        assert dev > 1e-2


class TestInvariantMotion:
    # (params, span, n, probe_fraction) sampling each kind wider than the
    # window its motion maps the probes into
    SETUPS = {
        InvariantKind.LINE: ({"direction": [1, -0.4]}, (-10, 10), 20001,
                             (0.3, 0.7)),
        InvariantKind.HYPERBOLA: ({"radius": -0.7}, (-3, 3), 20001,
                                  (0.2, 0.8)),
        InvariantKind.MINK_LOG_SPIRAL: ({"alpha": -0.3}, (0.05, 12.0), 40001,
                                        (0.05, 0.45)),
        InvariantKind.EXP_DIAGONAL: ({}, (-6.0, 2.5), 40001, (0.1, 0.55)),
    }

    @pytest.mark.parametrize("kind", list(InvariantKind))
    def test_motion_fixes_its_curve(self, kind):
        params, span, n, frac = self.SETUPS[kind]
        spec = InvariantCurveSpec(kind, params)
        dev = check_invariance(make_invariant_curve(spec, span, n=n),
                               invariant_motion(spec), T_PROBE,
                               probe_fraction=frac)
        assert dev < 1e-8

    def test_defaults_filled_in(self):
        line = make_invariant_curve(InvariantCurveSpec(InvariantKind.LINE),
                                    (-1.0, 1.0), n=5)
        assert np.array_equal(line.x, np.linspace(-1.0, 1.0, 5))
        assert np.all(line.y == 0.0) and not np.any(np.signbit(line.y))
        hyp = make_invariant_curve(
            InvariantCurveSpec(InvariantKind.HYPERBOLA), (-1.0, 1.0), n=5)
        assert np.allclose(hyp.k, 1.0)

    @pytest.mark.parametrize("t", [-1.0, -2.0, math.nan, math.inf])
    def test_probe_time_outside_domain_refused(self, t):
        spec = InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL, {"alpha": 0.5})
        curve = make_invariant_curve(spec, (0.05, 12.0), n=101)
        with pytest.raises(InvalidParams,
                           match=r"probe time t=\S+ is outside the motion's "
                                 r"time domain \(-1, inf\)"):
            check_invariance(curve, invariant_motion(spec), (0.5, t))


class TestDoubleRole:
    """xi = e^{2 eta} + 1 translates rigidly and screw-translates; both
    readings must generate the same evolved point sets."""

    def setup_method(self):
        self.curve = selfsim.screw_translate_curve(
            0.0, branch=-1, xi_span=(1.0 + 1e-6, 9.0), n=6001)
        shift = self.curve.eta[0] - 0.5 * math.log(self.curve.xi[0] - 1.0)
        self.shift = shift

    def test_matches_exponential(self):
        c = self.curve
        err = np.max(np.abs(
            c.xi - (np.exp(2 * (c.eta - self.shift)) + 1.0)))
        assert err < 1e-8

    def test_two_motions_same_point_set(self):
        translation = MotionLaw(
            lambda t: 0.0, lambda t: 1.0,
            lambda t: HN.from_diagonal(2.0 * t, 0.0),
            (-math.inf, math.inf))
        screw = selfsim.motion_law(
            selfsim.SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0)))
        pts = self.curve.points
        n = len(pts)
        for t in T_PROBE:
            base = translation.apply(pts, t)
            probe = screw.apply(pts[int(0.25 * n):int(0.7 * n)], t)
            assert point_set_deviation(base, probe) < 1e-8

    def test_alignment_with_catalog_translator(self):
        # boost by log 2 then shift eta by +log(2)/2 and xi by +1 maps
        # xi = e^eta onto xi = e^{2 eta} + 1
        entry = catalog.get("translator-xi")
        etas = np.linspace(-2.0, 2.0, 4001)
        xis = entry.form(etas, 0.0)
        xi2 = 2.0 * xis          # boost: (xi, eta) -> (2 xi, eta / 2)
        eta2 = etas / 2.0
        eta3 = eta2 + math.log(2.0) / 2.0
        xi3 = xi2 + 1.0
        mapped = np.column_stack([(xi3 + eta3) / 2.0, (xi3 - eta3) / 2.0])
        base_eta = self.curve.eta - self.shift
        base = np.column_stack([(self.curve.xi + base_eta) / 2.0,
                                (self.curve.xi - base_eta) / 2.0])
        inside = (eta3 > base_eta[0] + 0.05) & (eta3 < base_eta[-1] - 0.05)
        assert point_set_deviation(base, mapped[inside]) < 1e-8


# A space-like graph: increasing x steps and slopes |dy/dx| < 1.
_GRAPHS = st.integers(3, 40).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
    st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n)))
# Probes as a sample plus an offset scaled by 0 (on the curve), 1e-3 or 1.
_PROBES = st.lists(st.tuples(st.integers(0, 39),
                             st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                             st.sampled_from([0.0, 1e-3, 1.0])),
                   min_size=1, max_size=30)


class TestNearestSample:
    @settings(max_examples=60, deadline=None)
    @given(_GRAPHS, _PROBES, st.booleans())
    def test_matches_brute_force(self, graph, probes, reverse):
        steps, slopes = map(np.array, graph)
        base = np.column_stack([np.cumsum(steps), np.cumsum(steps * slopes)])
        if reverse:
            base = base[::-1].copy()
        pts = np.array([base[i % len(base)] + scale * np.array([dx, dy])
                        for i, dx, dy, scale in probes])
        brute = np.argmin(np.sum((base[None] - pts[:, None]) ** 2, axis=-1),
                          axis=1)
        assert np.array_equal(invariants._nearest(base, pts), brute)

    def test_tie_goes_to_lowest_index(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        probes = np.array([[0.5, 0.3], [1.5, -0.2]])
        assert invariants._nearest(base, probes).tolist() == [0, 1]

    @pytest.mark.parametrize("base, words", [
        ([[0, 0], [1, 0], [0.5, 0], [2, 0]], "sample 2 breaks the strict "
         "order of the curve in x + y"),
        ([[0, 0], [1, 2], [2, 2.5]], "sample 2 breaks the strict order of "
         "the curve in x - y"),
        ([[0, 0], [1, 0], [1, 0], [2, 0]], "sample 2 breaks")])
    def test_base_out_of_light_cone_order_refused(self, base, words):
        with pytest.raises(InvalidParams, match=words.replace("+", r"\+")):
            point_set_deviation(np.array(base, float), np.zeros((1, 2)))
