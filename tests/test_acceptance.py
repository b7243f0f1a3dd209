"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from minkflow import catalog, geometry as geo, invariants as inv, selfsim as ss
from minkflow.flow import (Dirichlet, FlowGrid, FlowKind, ecker_crossing_time,
                           ecker_gap, evolve, stability_dt)
from minkflow.hyperbolic import HyperbolicNumber as HN
from minkflow.hyperbolic import modulus, mul
from minkflow.invariants import (InvariantCurveSpec, InvariantKind,
                                 check_invariance, make_invariant_curve,
                                 point_set_deviation)
from minkflow.selfsim import Chart, MotionLaw, SolitonParams

from _solitons import build_cases, soliton_flow_error


def _report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}")


def test_criterion_1_algebra_suite():
    """Random pairs are drawn as (sign, modulus, boost) with the boost in
    [-1.5, 1.5]: a double that stores x = r cosh(theta) to half an ulp
    cannot locate the light cone better than ~eps * e^{2|theta|}
    relative, so unbounded boosts make the 1e-12 target unrepresentable
    rather than untrue.  Box-uniform pairs are checked as well, against
    the backward-relative (input-scaled) measure.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    n = 10000
    radii = rng.uniform(0.1, 10.0, size=(n, 2))
    boosts = rng.uniform(-1.5, 1.5, size=(n, 2))
    timelike = rng.integers(0, 2, size=(n, 2))
    signs = rng.choice((-1.0, 1.0), size=(n, 2))

    worst_mult = worst_conj = 0.0
    for i in range(n):
        zs = []
        for j in (0, 1):
            w = signs[i, j] * radii[i, j] * np.cosh(boosts[i, j])
            v = signs[i, j] * radii[i, j] * np.sinh(boosts[i, j])
            zs.append(HN(v, w) if timelike[i, j] else HN(w, v))
        z1, z2 = zs
        prod = mul(z1, z2)
        m_lhs, m_rhs = modulus(prod), modulus(z1) * modulus(z2)
        worst_mult = max(worst_mult, abs(m_lhs - m_rhs) / m_rhs)
        c_lhs = prod.conj()
        c_rhs = mul(z1.conj(), z2.conj())
        scale = max(abs(c_lhs.x), abs(c_lhs.y), 1.0)
        worst_conj = max(worst_conj,
                         max(abs(c_lhs.x - c_rhs.x),
                             abs(c_lhs.y - c_rhs.y)) / scale)

    # box-uniform pairs, measured against the input scale
    coords = rng.uniform(-10.0, 10.0, size=(2000, 4))
    worst_box = 0.0
    for x1, y1, x2, y2 in coords:
        z1, z2 = HN(x1, y1), HN(x2, y2)
        err = abs(modulus(mul(z1, z2)) ** 2
                  - (modulus(z1) * modulus(z2)) ** 2)
        scale = ((abs(x1) + abs(y1)) * (abs(x2) + abs(y2))) ** 2
        worst_box = max(worst_box, err / scale)

    z = mul(HN(1, 1), HN(1, -1))
    elapsed = time.perf_counter() - start
    assert worst_mult <= 1e-12
    assert worst_conj <= 1e-12
    assert worst_box <= 1e-12
    assert z.x == 0.0 and z.y == 0.0
    assert elapsed < 1.0
    _report(1, "algebra suite",
            f"mult={worst_mult:.2e} conj={worst_conj:.2e} "
            f"box={worst_box:.2e} {elapsed:.2f}s")


def test_criterion_2_registry_residuals():
    start = time.perf_counter()
    results = catalog.verify_all(levels=(0.02, 0.01, 0.005))
    elapsed = time.perf_counter() - start
    assert len(results) == 16
    for r in results:
        order = r["report"].observed_order
        assert order is not None and abs(order - 2.0) <= 0.3, \
            (r["name"], order)
    assert elapsed < 60.0
    _report(2, "exact-solution residuals",
            f"16 entries, orders within 2±0.3, {elapsed:.1f}s")


def test_criterion_3_soliton_master_property():
    dx, T = 0.005, 0.05
    failures = []
    for case in build_cases():
        lo, hi = case.window
        nodes = np.linspace(lo, hi, int(round((hi - lo) / dx)) + 1)
        grid = FlowGrid(case.kind, nodes, case.profile(nodes), 0.0)
        bound = 5.0 * (dx ** 2 + stability_dt(grid))
        err = soliton_flow_error(case, T=T, dx=dx)
        if err > bound:
            failures.append((case.name, err, bound))
    assert not failures, failures
    _report(3, "soliton flow matches closed-form motion",
            "12 representatives within 5(dx^2+dt)")


def test_criterion_4_conserved_quantities():
    checks = []
    p = SolitonParams(0.0, 1.0)
    traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, -0.5), s_max=6.0)
    checks.append(("expansion", ss.conserved_drift(p, traj)))

    p = SolitonParams(0.0, -1.0)
    traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0)
    checks.append(("contraction", ss.conserved_drift(p, traj)))

    p = SolitonParams(1.0, 0.0)
    traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 0.5), s_max=20.0)
    checks.append(("rotation", ss.conserved_drift(p, traj)))

    p = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0))
    xi0 = 1.0
    curve = ss.integrate_lightcone(p, xi0,
                                   2 * (xi0 - 1 + 0.5 * math.exp(-xi0)),
                                   (-4.0, 3.0))
    assert curve.s[-1] - curve.s[0] >= 10.0
    checks.append(("screw-translation", ss.conserved_drift(p, curve)))

    for family, d in checks:
        assert d["drift"] <= 1e-8, (family, d)
    detail = " ".join(f"{f}={d['drift']:.1e}" for f, d in checks)
    _report(4, "conserved-quantity drift", detail)


def test_criterion_5_specific_values():
    # Minkowski length pi for the y-axis translator and the tanh screw
    # at t = 0, integrated over the whole real line
    len_a = catalog.get("translator-y").length(0.0)
    len_b = catalog.get("screw-tanh").length(0.0)
    assert abs(len_a - math.pi) <= 1e-6
    assert abs(len_b - math.pi) <= 1e-6

    # curvature of the translator satisfies k cos(s) = 1 along the curve
    c = geo.curve_from_graph_fn(
        lambda x: np.abs(x) + np.log1p(np.exp(-2 * np.abs(x))) - math.log(2),
        np.tanh, lambda x: 1.0 / np.cosh(x) ** 2, (-20, 20), 200001)
    window = np.abs(c.x) <= 8.0  # float64 resolves cos(s) down to ~7e-4 here
    k_err = np.max(np.abs(c.k[window] * np.cos(c.s[window]) - 1.0))
    assert k_err <= 1e-8

    # stationary rest states over an s-span of 10
    traj = ss.integrate_phase(SolitonParams(0.0, 1.0), Chart.TAU_NU,
                              (0.0, -1.0), s_max=5.0)
    drift_exp = max(np.max(np.abs(traj.tau)), np.max(np.abs(traj.nu + 1.0)))
    beta = 2.0
    traj = ss.integrate_phase(SolitonParams(1.0, beta ** 2), Chart.KL,
                              (beta, -1.0 / beta), s_max=5.0)
    drift_screw = max(np.max(np.abs(traj.k - beta)),
                      np.max(np.abs(traj.l + 1.0 / beta)))
    # the same rest state with the coordinates of the quoted (1/beta, -beta)
    # pairing, realized by the beta -> 1/beta system
    traj = ss.integrate_phase(SolitonParams(1.0, beta ** -2), Chart.KL,
                              (1.0 / beta, -beta), s_max=5.0)
    drift_screw2 = max(np.max(np.abs(traj.k - 1.0 / beta)),
                       np.max(np.abs(traj.l + beta)))
    assert drift_exp <= 1e-10
    assert drift_screw <= 1e-10 and drift_screw2 <= 1e-10
    _report(5, "specific values",
            f"|L-pi|={max(abs(len_a - math.pi), abs(len_b - math.pi)):.1e} "
            f"k*cos(s)-1={k_err:.1e} fp drift={max(drift_exp, drift_screw):.1e}")


def test_criterion_6_ecker_crossing():
    t_star = ecker_crossing_time(x_probe=20.0)
    assert abs(t_star - math.log(2.0)) <= 1e-6
    for t in (0.3, math.log(2.0), 1.1):
        assert abs(ecker_gap(t, 20.0) - (t - math.log(2.0))) <= 1e-6
    _report(6, "asymptote race changes sign at log 2",
            f"|t*-log2|={abs(t_star - math.log(2.0)):.1e}")


def _end(rep, side):
    e = rep.ends[side]
    return (e.curvature_limit, e.minkowski_finite)


def test_criterion_7_classification_spot_checks():
    eps = 1e-6 / math.sqrt(3)
    p_exp = SolitonParams(0.0, 1.0)
    p_con = SolitonParams(0.0, -1.0)
    p_rot = SolitonParams(1.0, 0.0)

    reports = {}

    def record(name, p, traj):
        reports[name] = ss.classify(p, traj)

    record("expansion A<1/e crossing", p_exp,
           ss.integrate_phase(p_exp, Chart.TAU_NU, (0.0, -0.5), s_max=8.0))
    record("expansion A<1/e enclosed", p_exp,
           ss.integrate_phase(p_exp, Chart.TAU_NU, (0.0, -2.0), s_max=20.0))
    record("expansion A=1/e unstable", p_exp,
           ss.integrate_phase(p_exp, Chart.TAU_NU,
                              (eps * math.sqrt(2), -1 + eps),
                              s_max=(6.0, 25.0)))
    record("expansion A=1/e stable", p_exp,
           ss.integrate_phase(p_exp, Chart.TAU_NU,
                              (eps * math.sqrt(2), -1 - eps),
                              s_max=(25.0, 6.0)))
    record("expansion A>1/e", p_exp,
           ss.integrate_phase(p_exp, Chart.TAU_NU, (1.0, -1.2), s_max=10.0))
    record("contraction", p_con,
           ss.integrate_phase(p_con, Chart.TAU_NU, (0.0, 1.0), s_max=20.0))
    record("rotation inflected", p_rot,
           ss.integrate_phase(p_rot, Chart.TAU_NU, (0.0, 0.5), s_max=20.0))
    record("rotation convex", p_rot,
           ss.integrate_phase(p_rot, Chart.TAU_NU, (3.0, -1.0), s_max=20.0))
    # the trapped third kind is the boundary family; approach it from its
    # far tail where the quasi-static state is known in closed form
    sig0 = 1e6
    nu0 = -(3.0 * sig0) ** (1.0 / 3.0)
    tau0 = -1.0 / nu0 * (1.0 - 1.0 / nu0 ** 4)
    record("rotation trapped", p_rot,
           ss.integrate_phase(p_rot, Chart.TAU_NU, (tau0, nu0),
                              s_max=(0.0, 2e6), method="Radau",
                              rtol=1e-10, atol=1e-12,
                              blowup_threshold=1e6))
    p_s1 = SolitonParams(1.0, -0.5)      # beta = 1/sqrt(2)
    record("screw beta<1 inflected", p_s1,
           ss.integrate_phase(p_s1, Chart.KL, (0.0, 0.5), s_max=20.0))
    p_s2 = SolitonParams(1.0, -2.0)      # beta = sqrt(2)
    sig0 = 2e6
    record("screw beta>1 trapped", p_s2,
           ss.integrate_phase(p_s2, Chart.KL, (1.0 / (2 * sig0), -2 * sig0),
                              s_max=(0.0, 5e6), method="Radau",
                              rtol=1e-10, atol=1e-12,
                              blowup_threshold=1e6))

    expected = {
        # crosses_xi, crosses_eta, inflection,
        # backward (limit, finite), forward (limit, finite)
        "expansion A<1/e crossing":
            (True, True, False, ("zero", False), ("zero", False)),
        "expansion A<1/e enclosed":
            (False, False, False, ("infinite", True), ("infinite", True)),
        "expansion A=1/e unstable":
            (True, False, False, ("finite", False), ("zero", False)),
        "expansion A=1/e stable":
            (False, False, False, ("infinite", True), ("finite", False)),
        "expansion A>1/e":
            (True, False, False, ("infinite", True), ("zero", False)),
        "contraction":
            (True, True, False, ("infinite", True), ("infinite", True)),
        "rotation inflected":
            (True, True, True, ("infinite", True), ("infinite", True)),
        "rotation convex":
            (True, False, False, ("infinite", True), ("infinite", True)),
        "rotation trapped":
            (True, False, False, ("finite", False), ("infinite", True)),
        "screw beta<1 inflected":
            (True, True, True, ("infinite", True), ("infinite", True)),
        "screw beta>1 trapped":
            (True, True, False, ("zero", False), ("infinite", True)),
    }
    for name, (xi, eta, infl, back, fwd) in expected.items():
        rep = reports[name]
        assert rep.crosses_xi == xi, (name, "xi", rep.crosses_xi)
        assert rep.crosses_eta == eta, (name, "eta", rep.crosses_eta)
        assert rep.has_inflection == infl, (name, "inflection")
        assert _end(rep, "backward") == back, (name, "backward",
                                               _end(rep, "backward"))
        assert _end(rep, "forward") == fwd, (name, "forward",
                                             _end(rep, "forward"))
        finite = back[1] and fwd[1]
        assert rep.length_finite == finite, (name, "length")

    # the saddle-limit curvature values approach the hyperbola's k = 1
    assert reports["expansion A=1/e unstable"].ends["backward"] \
        .curvature_value == pytest.approx(1.0, abs=1e-3)
    assert reports["expansion A=1/e stable"].ends["forward"] \
        .curvature_value == pytest.approx(1.0, abs=1e-3)
    _report(7, "classification spot checks",
            f"{len(expected)} representatives match field-for-field")


def test_criterion_8_length_series_shapes():
    details = []
    for label, (name, shape) in catalog.LENGTH_SERIES.items():
        lo, hi = catalog.LENGTH_GRIDS[label]
        series = catalog.length_vs_time(name, np.linspace(lo, hi, 50))
        L = series[:, 1]
        d = np.diff(L)
        if shape == "constant":
            assert np.max(np.abs(L - math.pi)) <= 1e-6, label
        elif shape == "decreasing":
            assert np.all(d < 0), label
        elif shape == "increasing":
            assert np.all(d > 0), label
        else:
            sign = np.sign(d)
            flips = np.count_nonzero(np.diff(sign) != 0)
            assert flips == 1 and sign[0] > 0 and sign[-1] < 0, label
        details.append(f"{label}:{shape}")
    _report(8, "length-vs-time shapes", " ".join(details))


def test_criterion_9_invariant_curves():
    t_probe = (0.1, 0.5, 1.0)
    devs = {}

    line = make_invariant_curve(
        InvariantCurveSpec(InvariantKind.LINE, {"direction": (1.0, 0.3)}),
        (-10, 10))
    motion = MotionLaw(lambda t: 0.0, lambda t: 1.0 + t,
                       lambda t: HN(0, 0), (-1.0, math.inf))
    devs["line"] = check_invariance(line, motion, t_probe,
                                    probe_fraction=(0.3, 0.7))

    hyp = make_invariant_curve(
        InvariantCurveSpec(InvariantKind.HYPERBOLA, {"radius": 1.0}),
        (-4, 4))
    motion = MotionLaw(lambda t: t, lambda t: 1.0, lambda t: HN(0, 0),
                       (-math.inf, math.inf))
    devs["hyperbola"] = check_invariance(hyp, motion, t_probe,
                                         probe_fraction=(0.2, 0.8))

    alpha = 0.5
    spiral = make_invariant_curve(
        InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL, {"alpha": alpha}),
        (0.05, 12.0), n=40001)
    motion = MotionLaw(lambda t: alpha * math.log(1 + t), lambda t: 1 + t,
                       lambda t: HN(0, 0), (-1.0, math.inf))
    devs["spiral"] = check_invariance(spiral, motion, t_probe,
                                      probe_fraction=(0.05, 0.45))

    expd = make_invariant_curve(
        InvariantCurveSpec(InvariantKind.EXP_DIAGONAL), (-6.0, 2.5),
        n=40001)
    motion = MotionLaw(lambda t: t, lambda t: math.exp(t),
                       lambda t: HN.from_diagonal(0.0, t),
                       (-math.inf, math.inf))
    devs["exp-diagonal"] = check_invariance(expd, motion, t_probe,
                                            probe_fraction=(0.1, 0.55))
    for kind, dev in devs.items():
        assert dev <= 1e-8, (kind, dev)

    # double role of xi = e^{2 eta} + 1: rigid translation along the xi
    # diagonal and the screw-translation produce the same point sets
    curve = ss.screw_translate_curve(0.0, branch=-1,
                                     xi_span=(1.0 + 1e-6, 9.0), n=6001)
    translation = MotionLaw(lambda t: 0.0, lambda t: 1.0,
                            lambda t: HN.from_diagonal(2.0 * t, 0.0),
                            (-math.inf, math.inf))
    screw = ss.motion_law(
        SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0)))
    pts = curve.points
    n = len(pts)
    double_dev = 0.0
    for t in t_probe:
        base = translation.apply(pts, t)
        probe = screw.apply(pts[int(0.25 * n):int(0.7 * n)], t)
        double_dev = max(double_dev, point_set_deviation(base, probe))
    assert double_dev <= 1e-8
    detail = " ".join(f"{k}={v:.1e}" for k, v in devs.items())
    _report(9, "appendix invariance", f"{detail} double-role={double_dev:.1e}")


def test_criterion_10_oracle_cross_checks():
    # (a) graph ODE vs phase-plane reconstruction of the same contractor
    p = SolitonParams(0.0, -1.0)
    g = ss.integrate_graph(p, -1.0, 0.0, 3.0, n=4001)
    traj = ss.integrate_phase(p, Chart.TAU_NU, (0.0, 1.0), s_max=20.0,
                              n_per_side=8000)
    c = ss.reconstruct(traj)
    order = np.argsort(c.x)
    spline = CubicSpline(c.x[order], c.y[order])
    mask = np.abs(g.x) <= 2.0
    err_routes = float(np.max(np.abs(spline(g.x[mask]) - g.y[mask])))
    assert err_routes <= 1e-6

    # (b) the same curve evolved in both graph formulations
    dx, T0, Tf = 0.005, 0.5, 0.55
    xs = np.arange(-2, 2 + dx / 2, dx)
    gg = FlowGrid(FlowKind.GRAPH_Y, xs, np.sqrt(xs ** 2 + 2 * T0), T0)
    bcg = Dirichlet(lambda t: float(np.sqrt(4 + 2 * t)),
                    lambda t: float(np.sqrt(4 + 2 * t)))
    outg = evolve(gg, Tf, boundary=bcg)[-1]
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
    err_forms = float(np.max(np.abs(spline(outg.nodes[mask])
                                    - outg.values[mask])))
    bound = 5 * (dx ** 2 + max(stability_dt(gg), stability_dt(gl)))
    assert err_forms <= bound
    _report(10, "oracle cross-checks",
            f"routes={err_routes:.1e} formulations={err_forms:.1e}")
