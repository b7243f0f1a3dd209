import dataclasses
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from minkflow import catalog, flow, geometry
from minkflow.errors import InfiniteLength, QuadratureFailed, UnknownSolution
from minkflow.flow import FlowKind, Plane, residual, wick_transform
from minkflow.geometry import _GRAPH_FORMS

ALL_NAMES = [
    "translator-y", "translator-x", "translator-xi", "hyperbola-expander",
    "screw-tanh", "screw-tan", "screw-coth", "oval-coshcosh",
    "wave-coshsinh", "wave-sinhsinh", "wave-sinsin", "interp-tan",
    "euclid-circle", "euclid-reaper", "euclid-oval", "euclid-wave",
]


def test_registry_names():
    assert catalog.names() == ALL_NAMES
    assert sum(catalog.get(n).plane is Plane.MINKOWSKI
               for n in ALL_NAMES) == 12
    assert sum(catalog.get(n).plane is Plane.EUCLIDEAN
               for n in ALL_NAMES) == 4


def test_get_examples():
    e = catalog.get("translator-y")
    assert e.kind is FlowKind.GRAPH_Y
    assert e.t_domain == (-math.inf, math.inf)
    xs = np.array([0.0, 1.0])
    assert e.form(xs, 0.25) == pytest.approx(
        0.25 + np.log(np.cosh(xs)))
    e = catalog.get("interp-tan")
    assert e.t_domain == (0.0, math.pi / 4)
    assert e.form(np.array([0.3]), 0.2)[0] == pytest.approx(
        math.atanh(math.tan(0.3) * math.tan(0.4)))
    e = catalog.get("euclid-oval")
    assert e.plane is Plane.EUCLIDEAN
    assert e.form(np.array([0.1]), -1.0)[0] == pytest.approx(
        math.acosh(math.e * math.cos(0.1)))


def test_unknown_name():
    with pytest.raises(UnknownSolution):
        catalog.get("spiral-of-doom")


def test_verify_all_passes():
    results = catalog.verify_all()
    assert len(results) == 16
    for r in results:
        assert r["passed"], (r["name"], dataclasses.asdict(r["report"]))
        assert r["report"].observed_order == pytest.approx(2.0, abs=0.3)


def test_perturbed_candidate_fails():
    e = catalog.get("translator-y")

    def broken(pts, t):
        return e.form(pts, t) + 0.01 * np.sin(np.asarray(pts))

    rep = residual(e.kind, broken, catalog.DEFAULT_LEVELS, e.times,
                   e.window, e.plane)
    ok = rep.observed_order is not None and \
        abs(rep.observed_order - 2.0) <= 0.3
    assert not ok
    assert rep.max_abs > 1e-3


def test_curvature_profiles_identically_satisfied():
    for name in ALL_NAMES:
        rep = catalog.curvature_profile_check(name)
        assert rep.max_abs < 1e-9, name


class TestLengths:
    def test_translator_constant_pi(self):
        series = catalog.length_vs_time(
            "translator-y", np.linspace(*catalog.LENGTH_GRIDS["A"], 50))
        assert np.max(np.abs(series[:, 1] - math.pi)) <= 1e-14

    # 30-digit quadratures of each density over its whole domain, at the
    # ends and the middle of the series' time grid.
    REFERENCE_BOUND = {"interp-tan": 4e-15}

    @pytest.mark.parametrize("label", list(catalog.LENGTH_SERIES))
    def test_matches_mpmath(self, label):
        name, _ = catalog.LENGTH_SERIES[label]
        e = catalog.get(name)
        rho, node, t = e.density.symbolic
        lo, hi = catalog.LENGTH_GRIDS[label]
        for time in (lo, 0.5 * (lo + hi), hi):
            f = sp.lambdify(node, rho.subs(t, sp.Float(time, 30)), "mpmath")
            with mpmath.workdps(30):
                if e.length_bounds is None:
                    ref = mpmath.quad(f, [-mpmath.inf, -5, 0, 5, mpmath.inf])
                else:
                    end = mpmath.pi / 2 - 2 * mpmath.mpf(time)
                    ref = mpmath.quad(f, [0, end / 1000, end / 10, end])
            got = e.length(time)
            bound = self.REFERENCE_BOUND.get(name, 1e-13)
            assert abs(got - float(ref)) <= bound * float(ref), (name, time)

    def test_oval_increases_toward_pi(self):
        series = catalog.length_vs_time("oval-coshcosh",
                                        np.linspace(0.1, 3.0, 10))
        L = series[:, 1]
        assert np.all(np.diff(L) > 0)
        assert L[0] < 2.0 and L[-1] < math.pi

    def test_interp_unimodal(self):
        series = catalog.length_vs_time(
            "interp-tan", np.linspace(0.05, math.pi / 4 - 0.05, 12))
        d = np.diff(series[:, 1])
        flips = np.count_nonzero(np.diff(np.sign(d)) != 0)
        assert flips == 1 and d[0] > 0 and d[-1] < 0

    def test_batch_matches_scalar_loop(self):
        for label, (name, _) in catalog.LENGTH_SERIES.items():
            e = catalog.get(name)
            ts = np.linspace(*catalog.LENGTH_GRIDS[label], 12)
            scalar = [e.length(float(t)) for t in ts]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(e.length(ts), scalar), label

    def test_unsettled_length_is_refused(self, monkeypatch):
        # The message's last step follows from the rule's level cap: two
        # levels end at the step 2^-4.
        monkeypatch.setattr(geometry, "DE_LEVELS", 2)
        with pytest.raises(QuadratureFailed,
                           match=r"^the length of translator-y at t=-0\.5 "
                                 r"did not settle by step 2\^-4 "):
            catalog.get("translator-y").length(-0.5)

    def test_infinite_length_rejected(self):
        for name in ("screw-tan", "hyperbola-expander", "wave-sinsin",
                     "euclid-circle"):
            with pytest.raises(InfiniteLength):
                catalog.length_vs_time(name, [0.5])


def test_wick_pairing():
    for name in ALL_NAMES:
        e = catalog.get(name)
        if e.plane is not Plane.EUCLIDEAN:
            continue
        partner = catalog.get(e.wick_partner)
        probe_t = {"euclid-circle": -0.5, "euclid-oval": -1.0}.get(name, 0.0)
        out = wick_transform(FlowKind.GRAPH_Y, e.form,
                             probe_points=(0.1, 0.25, 0.4), probe_t=probe_t)
        diff = sp.simplify(out.symbolic[0] - partner.form.symbolic[0])
        assert diff == 0, (name, out.text, partner.form.text)


def test_stored_text_is_canonical():
    """Expressions, profiles and arc-length densities are stored as sstr."""
    for name in ALL_NAMES:
        e = catalog.get(name)
        density = [e.density] if e.finite_length else []
        for form in [e.form, e.curvature_profile.form, *density]:
            assert sp.sstr(form.symbolic[0]) == form.text, (name, form.text)


def test_density_squared_is_interval_of_slope():
    """density**2 is the graph form's interval of the first derivative.
    interp-tan's density is written in d = pi/2 - 2t - |x|, the distance
    from the nearer light-cone end, and stands for both halves of the
    even curve: four times the interval at x = pi/2 - 2t - d."""
    for name in ALL_NAMES:
        e = catalog.get(name)
        if not e.finite_length:
            continue
        form, x, t = e.form.symbolic
        rate = _GRAPH_FORMS[e.kind.value].interval(sp.diff(form, x))
        rho, node, _ = e.density.symbolic
        if node != x:
            rate = 4 * rate.subs(x, sp.pi / 2 - 2 * t - node)
        assert sp.simplify((rho ** 2 - rate).rewrite(sp.exp)) == 0, name


def test_compiled_samples_match_lambdify():
    """The compiled formula gives lambdify's bits on the residual probes
    of every entry and on the length grid of every finite-length one."""
    lengths = {nm: catalog.LENGTH_GRIDS[lb]
               for lb, (nm, _) in catalog.LENGTH_SERIES.items()}
    for name in ALL_NAMES:
        e = catalog.get(name)
        probes = []
        for h in catalog.DEFAULT_LEVELS:
            for t in e.times:
                lo, hi = e.window(t)
                pts = lo + h * np.arange(-1, math.floor((hi - lo) / h) + 2)
                probes += [(e.form, pts, t + dt) for dt in (-h, 0.0, h)]
        if e.finite_length:
            ts = np.linspace(*lengths[name], 50)[:, None]
            lo, hi = np.vectorize(e.length_bounds or (lambda _: (-40.0, 40.0)),
                                  otypes=[float, float])(ts)
            probes.append((e.density,
                           lo + (hi - lo) * np.linspace(0.0, 1.0, 201), ts))
        for form, pts, t in probes:
            expr, space, time = form.symbolic
            ref = sp.lambdify((space, time), expr, "numpy")
            with np.errstate(all="ignore"):
                want = np.broadcast_to(ref(pts, t), np.shape(pts))
                assert np.array_equal(form(pts, t), want, equal_nan=True), \
                    (name, form.text, t)


def test_boundary_behaviour_interp_tan():
    # near t = 0+ the solution tracks xi = 2 t tan(eta)
    e = catalog.get("interp-tan")
    etas = np.linspace(-0.9, 0.9, 101)
    for t in (0.002, 0.005, 0.01):
        exact = e.form(etas, t)
        model = 2 * t * np.tan(etas)
        rel = np.max(np.abs(exact - model) / np.maximum(np.abs(model), 1e-12))
        assert rel < 1e-3


def test_boundary_behaviour_oval():
    # near t = 0+ the oval tracks the expanding hyperbola sqrt(x^2 + 2t)
    e = catalog.get("oval-coshcosh")
    xs = np.linspace(-0.5, 0.5, 51)
    for t in (0.005, 0.02):
        exact = e.form(xs, t)
        model = np.sqrt(xs ** 2 + 2 * t)
        assert np.max(np.abs(exact - model) / model) < 2e-2


def test_length_series_tables():
    assert set(catalog.LENGTH_SERIES) == set("ABCDEF")
    for label, (name, _) in catalog.LENGTH_SERIES.items():
        assert catalog.get(name).finite_length


def test_verify_self_similar_subset():
    # three translators, the expanding arc and the three screw solutions
    subset = ["translator-y", "translator-x", "translator-xi",
              "hyperbola-expander", "screw-tanh", "screw-tan", "screw-coth"]
    results = catalog.verify_all(only=subset)
    assert len(results) == 7
    assert all(r["passed"] for r in results)
