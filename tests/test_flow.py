import math

import numpy as np
import pytest
import sympy as sp

from minkflow import flow
from minkflow.errors import (DegenerateSlope, NotEven, SignChange,
                             StabilityViolation)
from minkflow.flow import (ClosedForm, Dirichlet, FlowGrid, FlowKind, Plane,
                           ecker_crossing_time, ecker_gap, evolve, log_cosh,
                           residual, stability_dt, step, wick_transform)

X, T, TH = sp.symbols("x t theta", real=True)


def graph_grid(fn, t0, lo=-2.0, hi=2.0, h=0.01):
    nodes = np.arange(lo, hi + h / 2, h)
    return FlowGrid(FlowKind.GRAPH_Y, nodes, fn(nodes, t0), t0)


class TestStep:
    def test_expander_single_step(self):
        f = lambda x, t: np.sqrt(x * x + 2 * t)
        g = graph_grid(f, 0.5, -3, 3)
        dt = stability_dt(g)
        out = step(g, dt)
        err = np.max(np.abs(out.values - f(g.nodes, 0.5 + dt)))
        assert err < 50 * (dt ** 2 + dt * g.h ** 2)

    def test_translator_single_step(self):
        f = lambda x, t: np.log(np.cosh(x)) + t
        g = graph_grid(f, 0.3)
        dt = stability_dt(g)
        out = step(g, dt)
        err = np.max(np.abs(out.values - f(g.nodes, 0.3 + dt)))
        assert err < 50 * (dt ** 2 + dt * g.h ** 2)

    def test_curvature_profile_stationary(self):
        h = 0.01
        th = np.arange(-2, 2 + h / 2, h)
        g = FlowGrid(FlowKind.CURVATURE_ANGLE, th, np.cosh(th))
        dt = stability_dt(g)
        out = step(g, dt)
        err = np.max(np.abs(out.values - np.cosh(th)))
        assert err < 100 * dt * h * h

    def test_stability_violation(self):
        g = graph_grid(lambda x, t: np.sqrt(x * x + 2 * t), 0.5)
        with pytest.raises(StabilityViolation):
            step(g, 10 * stability_dt(g))

    def test_degenerate_slope_guard(self):
        nodes = np.linspace(-1, 1, 101)
        with pytest.raises(DegenerateSlope):
            FlowGrid(FlowKind.GRAPH_Y, nodes, 0.9999999999 * nodes)
        with pytest.raises(DegenerateSlope):
            FlowGrid(FlowKind.LIGHTCONE, nodes, -nodes)

    def test_sign_change_guard(self):
        nodes = np.linspace(-1, 1, 101)
        with pytest.raises(SignChange):
            FlowGrid(FlowKind.CURVATURE_ANGLE, nodes, nodes.copy())

    def test_non_finite_grid_rejected(self):
        nodes = np.linspace(-1, 1, 101)
        values = 0.3 * nodes
        values[50] = math.nan
        with pytest.raises(ValueError, match="values must be finite"):
            FlowGrid(FlowKind.GRAPH_Y, nodes, values)
        bad = nodes.copy()
        bad[3] = math.inf
        with pytest.raises(ValueError, match="nodes must be finite"):
            FlowGrid(FlowKind.GRAPH_Y, bad, 0.3 * nodes)
        with pytest.raises(ValueError, match="t must be finite"):
            FlowGrid(FlowKind.GRAPH_Y, nodes, 0.3 * nodes, math.nan)

    def test_nodes_and_values_lengths_checked(self):
        nodes = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError, match=r"equally long.*\(11,\).*\(9,\)"):
            FlowGrid(FlowKind.GRAPH_Y, nodes, np.zeros(9))
        with pytest.raises(ValueError, match="1-D"):
            FlowGrid(FlowKind.GRAPH_Y, nodes[:, None], np.zeros((11, 1)))


@pytest.mark.parametrize("kind, profile", [
    (FlowKind.GRAPH_Y, lambda u: np.sqrt(u * u + 1.0)),
    (FlowKind.LIGHTCONE, np.exp),
    (FlowKind.CURVATURE_ANGLE, lambda u: np.sqrt(np.cosh(2.0 * u) + 0.5)),
])
def test_stencil_bands_match_forward_differences(kind, profile):
    h, eps = 0.01, 1e-7
    v = profile(np.arange(-1, 1 + h / 2, h))
    rhs, lower, diag, upper = flow._stencil(kind, v, h)
    jac = np.empty((len(rhs), len(v)))
    for j in range(len(v)):
        bumped = v.copy()
        bumped[j] += eps
        jac[:, j] = (flow._stencil(kind, bumped, h)[0] - rhs) / eps
    rows = np.arange(len(rhs))
    for offset, band in ((0, lower), (1, diag), (2, upper)):
        fd = jac[rows, rows + offset]
        assert np.max(np.abs(fd - band)) <= 1e-4 * np.max(np.abs(band))


class TestEvolve:
    def test_bad_end_time_or_step(self):
        g = graph_grid(lambda x, t: np.sqrt(x * x + 2 * t), 0.5)
        for t_end in (0.4, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_end"):
                evolve(g, t_end)
        for max_dt in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="max_dt"):
                evolve(g, 0.6, max_dt=max_dt)

    def test_noop_at_same_time(self):
        g = graph_grid(lambda x, t: np.sqrt(x * x + 2 * t), 0.5)
        out = evolve(g, 0.5)
        assert len(out) == 1 and out[0] is g

    def test_expanding_hyperbola_to_t1(self):
        f = lambda x, t: np.sqrt(x * x + 2 * t)
        g = graph_grid(f, 0.5, -5, 5, 0.01)
        bc = Dirichlet(lambda t: float(f(-5.0, t)), lambda t: float(f(5.0, t)))
        snaps = evolve(g, 1.0, snapshot_every=0.25, boundary=bc)
        assert [round(s.t, 6) for s in snaps] == [0.5, 0.75, 1.0]
        err = np.max(np.abs(snaps[-1].values - f(g.nodes, 1.0)))
        assert err < 1e-4

    def test_periodic_wave(self):
        f = lambda x, t: np.arcsin(np.exp(-t) * np.sin(x))
        h = 0.005
        nodes = np.arange(-math.pi, math.pi + h / 2, h)
        g = FlowGrid(FlowKind.GRAPH_Y, nodes, f(nodes, 0.3), 0.3)
        bc = Dirichlet(lambda t: float(f(nodes[0], t)),
                       lambda t: float(f(nodes[-1], t)))
        out = evolve(g, 1.0, boundary=bc)[-1]
        assert np.max(np.abs(out.values - f(nodes, 1.0))) < 1e-4

    @pytest.mark.parametrize("kind, f, t0", [
        (FlowKind.GRAPH_Y, lambda x, t: np.sqrt(x * x + 2 * t), 0.5),
        (FlowKind.LIGHTCONE, lambda e, t: np.exp(e) + t, 0.0),
        (FlowKind.CURVATURE_ANGLE,
         lambda th, t: np.sqrt(np.cosh(2 * th) + np.tanh(2 * t)), 0.0),
    ])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_bdf_matches_euler_reference(self, kind, f, t0, frozen):
        # Both paths integrate the same semi-discrete system, so their
        # snapshots differ by the time-stepping error only: O(dt) for Euler.
        nodes = np.linspace(-1, 1, 51)
        g = FlowGrid(kind, nodes, f(nodes, t0), t0)
        bc = None if frozen else Dirichlet(lambda t: float(f(nodes[0], t)),
                                           lambda t: float(f(nodes[-1], t)))
        dt = stability_dt(g)
        bdf = evolve(g, t0 + 0.1, snapshot_every=0.03, boundary=bc)
        euler = evolve(g, t0 + 0.1, snapshot_every=0.03, boundary=bc,
                       max_dt=dt)
        assert [s.t for s in euler] == [s.t for s in bdf]
        for a, b in zip(bdf, euler):
            assert np.max(np.abs(a.values - b.values)) <= dt

    def test_curvature_angle_wave(self):
        f = lambda th, t: np.sqrt(np.cosh(2 * th) + np.tanh(2 * t))
        h = 0.01
        th = np.arange(-1, 1 + h / 2, h)
        g = FlowGrid(FlowKind.CURVATURE_ANGLE, th, f(th, 0.0), 0.0)
        bc = Dirichlet(lambda t: float(f(th[0], t)),
                       lambda t: float(f(th[-1], t)))
        out = evolve(g, 0.2, boundary=bc)[-1]
        assert out.t == 0.2
        err = np.max(np.abs(out.values - f(th, 0.2)))
        assert err <= 5 * (h * h + stability_dt(g))

    def test_degeneracy_reported(self):
        # |y(1) - y(-1)| < 2 on a space-like graph, so the right end 3t
        # forces the slope to the light cone near t = 2/3.
        nodes = np.linspace(-1, 1, 201)
        g = FlowGrid(FlowKind.GRAPH_Y, nodes, np.zeros(201), 0.0)
        bc = Dirichlet(lambda t: 0.0, lambda t: 3.0 * t)
        with pytest.raises(DegenerateSlope) as info:
            evolve(g, 1.0, boundary=bc)
        assert 0.5 < info.value.t < 0.7

    @pytest.mark.parametrize("max_dt", [None, 1e-4])
    def test_non_finite_state_reported(self, max_dt):
        nodes = np.linspace(-1, 1, 41)
        g = FlowGrid(FlowKind.GRAPH_Y, nodes, 0.3 * nodes, 0.0)
        bc = Dirichlet(lambda t: -0.3 if t < 0.05 else math.nan,
                       lambda t: 0.3)
        with pytest.raises(DegenerateSlope) as info:
            evolve(g, 0.1, boundary=bc, max_dt=max_dt)
        assert 0.0 <= info.value.t <= 0.0502

    def test_lightcone_translator(self):
        f = lambda e, t: np.exp(e) + t
        h = 0.01
        nodes = np.arange(-2, 2 + h / 2, h)
        g = FlowGrid(FlowKind.LIGHTCONE, nodes, f(nodes, 0.0), 0.0)
        bc = Dirichlet(lambda t: float(f(nodes[0], t)),
                       lambda t: float(f(nodes[-1], t)))
        out = evolve(g, 0.1, boundary=bc)[-1]
        assert np.max(np.abs(out.values - f(nodes, 0.1))) < 1e-5


class TestResidual:
    def test_translator_second_order(self):
        rep = residual(FlowKind.GRAPH_Y,
                       lambda p, t: t + np.log(np.cosh(p)),
                       (0.02, 0.01, 0.005), (-0.4, 0.1, 0.8), (-2, 2))
        assert rep.observed_order == pytest.approx(2.0, abs=0.1)

    def test_implicit_oval(self):
        rep = residual(FlowKind.GRAPH_Y,
                       lambda p, t: np.arccosh(np.exp(t) * np.cosh(p)),
                       (0.02, 0.01, 0.005), (0.5, 1.0, 2.0), (-2, 2))
        assert rep.observed_order == pytest.approx(2.0, abs=0.1)

    def test_lightcone_interp(self):
        rep = residual(
            FlowKind.LIGHTCONE,
            lambda p, t: np.arctanh(np.tan(p) * np.tan(2 * t)),
            (0.02, 0.01, 0.005), (math.pi / 8,),
            lambda t: (-0.75 * (math.pi / 2 - 2 * t),
                       0.75 * (math.pi / 2 - 2 * t)))
        assert rep.observed_order == pytest.approx(2.0, abs=0.15)

    def test_static_space_like_line(self):
        # A static straight line solves the flow; the slope-1 line lies on
        # the light cone where the graph equation degenerates, so the
        # space-like slope 0.3 is probed instead.
        rep = residual(FlowKind.GRAPH_Y, lambda p, t: 0.3 * p,
                       (0.02, 0.01), (0.5,), (-1, 1))
        assert rep.max_abs < 1e-10

    def test_euclidean_reaper(self):
        rep = residual(FlowKind.GRAPH_Y,
                       lambda p, t: np.log(np.cos(p)) - t,
                       (0.02, 0.01, 0.005), (-1.0, 0.0, 1.0), (-1.2, 1.2),
                       plane=Plane.EUCLIDEAN)
        assert rep.observed_order == pytest.approx(2.0, abs=0.1)

    def test_report_json_shape(self):
        rep = residual(FlowKind.GRAPH_Y, lambda p, t: t + np.log(np.cosh(p)),
                       (0.02, 0.01), (0.0,), (-1, 1))
        d = rep.to_json_dict()
        assert set(d) == {"kind", "plane", "times", "levels",
                          "observed_order"}
        assert set(d["levels"][0]) == {"h", "max_abs", "rms"}
        assert rep.max_abs >= rep.rms >= 0


class TestWick:
    def test_circle_to_hyperbola(self):
        circ = ClosedForm(sp.sqrt(-2 * T - X * X), X, T, "circle")
        out = wick_transform(FlowKind.GRAPH_Y, circ,
                             probe_points=(0.2, 0.5, 0.8), probe_t=-0.5)
        assert sp.simplify(out.expr - sp.sqrt(X * X + 2 * T)) == 0
        rep = residual(FlowKind.GRAPH_Y, out, (0.02, 0.01), (0.5, 1.0),
                       (-1.5, 1.5))
        assert rep.observed_order == pytest.approx(2.0, abs=0.2)

    def test_reaper_to_translator(self):
        reaper = ClosedForm(sp.log(sp.cos(X)) - T, X, T, "reaper")
        out = wick_transform(FlowKind.GRAPH_Y, reaper)
        assert sp.simplify(out.expr - (T + sp.log(sp.cosh(X)))) == 0

    def test_curvature_wave(self):
        k = ClosedForm(sp.sqrt(sp.cos(2 * TH) - sp.tanh(2 * T)), TH, T)
        out = wick_transform(FlowKind.CURVATURE_ANGLE, k,
                             probe_points=(0.1, 0.3), probe_t=0.0)
        target = sp.sqrt(sp.cosh(2 * TH) + sp.tanh(2 * T))
        assert sp.simplify(out.expr - target) == 0

    def test_not_even(self):
        odd = ClosedForm(sp.asinh(sp.exp(-T) * sp.sin(X)), X, T, "odd-wave")
        with pytest.raises(NotEven):
            wick_transform(FlowKind.GRAPH_Y, odd,
                           probe_points=(0.3, 0.6), probe_t=0.0)

    def test_out_of_domain_probes(self):
        circ = ClosedForm(sp.sqrt(-2 * T - X * X), X, T, "circle")
        with pytest.raises(ValueError):
            wick_transform(FlowKind.GRAPH_Y, circ, probe_t=0.5)


class TestEcker:
    def test_gap_linear_in_t(self):
        for t in np.linspace(0.1, 1.2, 12):
            assert abs(ecker_gap(t) - (t - math.log(2))) < 1e-6

    def test_crossing_time(self):
        assert abs(ecker_crossing_time() - math.log(2)) < 1e-6

    def test_initially_below_then_above(self):
        xs = np.linspace(0, 20, 2001)
        below = log_cosh(20.0) + 0.2 - math.sqrt(400 + 2 * 0.2)
        assert below < 0  # translator still under the hyperbola at x=20
        above = log_cosh(20.0) + 1.0 - math.sqrt(400 + 2 * 1.0)
        assert above > 0  # past t = log 2 the order at infinity flips
        vals = np.log(np.cosh(xs)) + 0.2 - np.sqrt(xs ** 2 + 2 * 0.2)
        assert np.all(vals < 0)


def test_cross_formulation_consistency():
    # Short evolution of the same curve in both graph forms agrees.
    from scipy.interpolate import CubicSpline
    dx, T0, Tf = 0.005, 0.5, 0.55
    xs = np.arange(-2, 2 + dx / 2, dx)
    gg = FlowGrid(FlowKind.GRAPH_Y, xs, np.sqrt(xs ** 2 + 2 * T0), T0)
    bcg = Dirichlet(lambda t: float(np.sqrt(4 + 2 * t)),
                    lambda t: float(np.sqrt(4 + 2 * t)))
    outg = evolve(gg, Tf, boundary=bcg)[-1]
    dtg = stability_dt(gg)

    lo = xs[0] - math.sqrt(xs[0] ** 2 + 2 * T0)
    hi = xs[-1] - math.sqrt(xs[-1] ** 2 + 2 * T0)
    etas = np.arange(lo, hi, dx)
    gl = FlowGrid(FlowKind.LIGHTCONE, etas, -2 * T0 / etas, T0)
    bcl = Dirichlet(lambda t: float(-2 * t / etas[0]),
                    lambda t: float(-2 * t / etas[-1]))
    outl = evolve(gl, Tf, boundary=bcl)[-1]

    xl = (outl.values + outl.nodes) / 2
    yl = (outl.values - outl.nodes) / 2
    spline = CubicSpline(xl, yl)
    mask = np.abs(outg.nodes) <= 1.0
    err = np.max(np.abs(spline(outg.nodes[mask]) - outg.values[mask]))
    assert err < 5 * (dx ** 2 + max(dtg, stability_dt(gl)))


def test_monotone_slope_preservation():
    # free-running graph evolution keeps |y_x| < 1
    f = lambda x, t: np.log(np.cosh(x)) + t
    g = graph_grid(f, 0.0, -2, 2, 0.01)
    out = evolve(g, 0.05)[-1]
    slope = np.diff(out.values) / np.diff(out.nodes)
    assert np.max(np.abs(slope)) < 1.0
    e = np.arange(-2, 2.005, 0.01)
    gl = FlowGrid(FlowKind.LIGHTCONE, e, np.exp(e) + 0.0, 0.0)
    outl = evolve(gl, 0.05)[-1]
    assert np.min(np.diff(outl.values)) > 0


def test_grid_to_curve_view():
    h = 0.01
    xs = np.arange(-2, 2 + h / 2, h)
    g = FlowGrid(FlowKind.GRAPH_Y, xs, np.sqrt(xs ** 2 + 1.0), 0.0)
    c = g.to_curve()
    assert np.max(np.abs(c.k - 1.0)) < 1e-3
    e = np.arange(-1, 1 + h / 2, h)
    gl = FlowGrid(FlowKind.LIGHTCONE, e, np.exp(e), 0.0)
    cl = gl.to_curve()
    assert abs(cl.k[len(cl) // 2] - 0.5) < 1e-4
    th = np.arange(-1, 1 + h / 2, h)
    gk = FlowGrid(FlowKind.CURVATURE_ANGLE, th, np.cosh(th), 0.0)
    with pytest.raises(ValueError):
        gk.to_curve()
