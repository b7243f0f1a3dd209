"""The paper-atlas operations: public-call groups that regenerate the
paper's non-CLI results, each with its output gate.

``run(op)`` is the timed part and calls only minkflow's public API,
always through the module attribute so that the span wrappers see it;
``check(op, result)`` is the untimed gate against ``expected.py``.
Importing this module imports minkflow, so only the worker does.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

import expected as ex
from gates import GateError, check_length_shape
from minkflow import catalog, flow, invariants as inv, selfsim as ss
from minkflow.flow import Dirichlet, FlowGrid, FlowKind
from minkflow.hyperbolic import HyperbolicNumber as HN
from minkflow.invariants import (InvariantCurveSpec, InvariantKind,
                                 point_set_deviation)
from minkflow.selfsim import Chart, MotionLaw, SolitonParams

_CHARTS = {"taunu": Chart.TAU_NU, "kl": Chart.KL}
_SCREW_P = SolitonParams(1.0, 1.0, HN.from_diagonal(0.0, 1.0))


def _require(cond, msg):
    if not cond:
        raise GateError(msg)


def _classify(p, label):
    par = SolitonParams(*p["ab"])
    traj = ss.integrate_phase(par, _CHARTS[p["chart"]], p["init"],
                              s_max=p["s_max"], **p["kw"])
    return ss.classify(par, traj)


def _drift(p, label):
    if label == "screw-translation":
        xi0 = p["xi0"]
        curve = ss.integrate_lightcone(_SCREW_P, xi0,
                                       2 * (xi0 - 1 + 0.5 * math.exp(-xi0)),
                                       p["eta_span"])
        return curve.s[-1] - curve.s[0], ss.conserved_drift(_SCREW_P, curve)
    par = SolitonParams(*p["ab"])
    traj = ss.integrate_phase(par, Chart.TAU_NU, p["init"], s_max=p["s_max"])
    return None, ss.conserved_drift(par, traj)


def _lengths(p, label):
    name, _shape, (lo, hi) = ex.LENGTH_SERIES[label]
    return catalog.length_vs_time(name, np.linspace(lo, hi, p["points"]))


def _screw(p, label):
    if label == "double-root":
        return (ss.screw_translate_curve(1.0, branch=0, xi_span=(-4.0, -0.5)),
                ss.screw_translate_curve(1.0, branch=1, xi_span=(0.5, 4.0)))
    kw = {k: p[k] for k in ("branch", "n") if k in p}
    curve = ss.screw_translate_curve(p["A"], xi_span=p["xi_span"], **kw)
    if label == "invariant":
        return curve, ss.conserved_drift(_SCREW_P, curve)
    return curve


_INVARIANCE = {
    "line": lambda p: (
        InvariantCurveSpec(InvariantKind.LINE,
                           {"direction": p["direction"]}),
        (-10, 10), 20001, (0.3, 0.7),
        MotionLaw(lambda t: 0.0, lambda t: 1.0 + t, lambda t: HN(0, 0),
                  (-1.0, math.inf))),
    "hyperbola": lambda p: (
        InvariantCurveSpec(InvariantKind.HYPERBOLA, {"radius": p["radius"]}),
        (-4, 4), 20001, (0.2, 0.8),
        MotionLaw(lambda t: t, lambda t: 1.0, lambda t: HN(0, 0),
                  (-math.inf, math.inf))),
    "mink-log-spiral": lambda p: (
        InvariantCurveSpec(InvariantKind.MINK_LOG_SPIRAL,
                           {"alpha": p["alpha"]}),
        (0.05, 12.0), 40001, (0.05, 0.45),
        MotionLaw(lambda t: p["alpha"] * math.log(1 + t), lambda t: 1 + t,
                  lambda t: HN(0, 0), (-1.0, math.inf))),
    "exp-diagonal": lambda p: (
        InvariantCurveSpec(InvariantKind.EXP_DIAGONAL), (-6.0, 2.5), 40001,
        (0.1, 0.55),
        MotionLaw(lambda t: t, lambda t: math.exp(t),
                  lambda t: HN.from_diagonal(0.0, t),
                  (-math.inf, math.inf))),
}
_T_PROBE = (0.1, 0.5, 1.0)


def _invariance(p, label):
    spec, span, n, frac, motion = _INVARIANCE[label](p)
    curve = inv.make_invariant_curve(spec, span, n=n)
    return inv.check_invariance(curve, motion, _T_PROBE, probe_fraction=frac)


def _oracle(p, label):
    if label == "routes":
        par = SolitonParams(0.0, -1.0)
        g = ss.integrate_graph(par, -1.0, 0.0, 3.0, n=4001)
        traj = ss.integrate_phase(par, Chart.TAU_NU, (0.0, 1.0), s_max=20.0,
                                  n_per_side=8000)
        return g, ss.reconstruct(traj)
    # The same expander evolved in both graph formulations.
    dx, t0 = p["dx"], p["t0"]
    tf = t0 + 0.05
    xs = np.arange(-2, 2 + dx / 2, dx)
    gg = FlowGrid(FlowKind.GRAPH_Y, xs, np.sqrt(xs ** 2 + 2 * t0), t0)
    bcg = Dirichlet(lambda t: float(np.sqrt(4 + 2 * t)),
                    lambda t: float(np.sqrt(4 + 2 * t)))
    outg = flow.evolve(gg, tf, boundary=bcg)[-1]
    lo = xs[0] - math.sqrt(xs[0] ** 2 + 2 * t0)
    hi = xs[-1] - math.sqrt(xs[-1] ** 2 + 2 * t0)
    etas = np.arange(lo, hi, dx)
    gl = FlowGrid(FlowKind.LIGHTCONE, etas, -2 * t0 / etas, t0)
    bcl = Dirichlet(lambda t: float(-2 * t / etas[0]),
                    lambda t: float(-2 * t / etas[-1]))
    outl = flow.evolve(gl, tf, boundary=bcl)[-1]
    return gg, gl, outg, outl


_RUN = {"classify": _classify, "drift": _drift,
        "lengths": _lengths,
        "profile": lambda p, label: catalog.curvature_profile_check(label),
        "screw": _screw, "invariance": _invariance, "oracle": _oracle}


def run(op):
    """The timed public-call group of one atlas operation."""
    return _RUN[op["group"]](op["params"], op["label"])


def check(op, result):
    """Raise GateError unless the operation's result holds its answer."""
    group, label, p = op["group"], op["label"], op["params"]
    if group == "classify":
        xi, eta, infl, back, fwd = ex.CLASSIFICATION[label]
        got = (result.crosses_xi, result.crosses_eta, result.has_inflection,
               *((result.ends[s].curvature_limit,
                  result.ends[s].minkowski_finite)
                 for s in ("backward", "forward")))
        _require(got == (xi, eta, infl, back, fwd),
                 f"{label} classified as {got}")
        _require(result.length_finite == (back[1] and fwd[1]),
                 f"{label} length finiteness")
        side = ex.SADDLE_CURVATURE.get(label)
        if side:
            k = result.ends[side].curvature_value
            _require(abs(k - 1.0) <= ex.SADDLE_TOL,
                     f"{label} saddle curvature {k}")
    elif group == "drift":
        span, d = result
        _require(d["drift"] <= ex.DRIFT_TOL, f"{label} drift {d['drift']}")
        _require(span is None or span >= 10.0, f"{label} s-span {span}")
    elif group == "lengths":
        _require(len(result) == p["points"], f"series {label} size")
        check_length_shape(label, [float(v) for v in result[:, 1]])
    elif group == "profile":
        _require(result.max_abs < ex.PROFILE_TOL,
                 f"{label} profile residual {result.max_abs:.2e}")
    elif group == "screw":
        _check_screw(label, p, result)
    elif group == "invariance":
        _require(result <= ex.INVARIANCE_TOL,
                 f"{label} invariance deviation {result:.2e}")
    else:
        _check_oracle(label, result)


def _check_screw(label, p, result):
    if label == "double-root":
        left, right = result
        _require(np.all(left.k < 0) and np.all(right.k > 0),
                 "double-root branches have the wrong curvature signs")
    elif label == "invariant":
        curve, d = result
        _require(abs(d["value"] - p["A"]) <= 1e-10 * p["A"]
                 and d["drift"] < 1e-10, f"screw invariant {d}")
    elif label == "inflection":
        k = result.k
        flips = np.flatnonzero(np.sign(k[:-1]) != np.sign(k[1:]))
        _require(len(flips) == 1
                 and abs(result.xi[flips[0]] - math.log(p["A"])) <= 2e-3,
                 f"screw inflections at {result.xi[flips]}")
    else:
        # xi = e^{2 eta} + 1 is both a diagonal translation and a screw
        # orbit of the same point set.
        c = result
        shift = c.eta[0] - 0.5 * math.log(c.xi[0] - 1.0)
        shape = np.max(np.abs(c.xi - (np.exp(2 * (c.eta - shift)) + 1)))
        _require(shape < ex.SCREW_SHAPE_TOL, f"screw shape error {shape}")
        translation = MotionLaw(lambda t: 0.0, lambda t: 1.0,
                                lambda t: HN.from_diagonal(2.0 * t, 0.0),
                                (-math.inf, math.inf))
        screw = ss.motion_law(_SCREW_P)
        pts = c.points
        n = len(pts)
        dev = max(point_set_deviation(translation.apply(pts, t),
                                      screw.apply(pts[int(0.25 * n):
                                                      int(0.7 * n)], t))
                  for t in _T_PROBE)
        _require(dev <= ex.INVARIANCE_TOL, f"double-role deviation {dev}")


def _check_oracle(label, result):
    if label == "routes":
        g, c = result
        order = np.argsort(c.x)
        spline = CubicSpline(c.x[order], c.y[order])
        mask = np.abs(g.x) <= 2.0
        err = float(np.max(np.abs(spline(g.x[mask]) - g.y[mask])))
        _require(err <= ex.ROUTES_TOL, f"graph vs phase routes {err:.2e}")
        return
    gg, gl, outg, outl = result
    xl = (outl.values + outl.nodes) / 2
    yl = (outl.values - outl.nodes) / 2
    spline = CubicSpline(xl, yl)
    mask = np.abs(outg.nodes) <= 1.0
    err = float(np.max(np.abs(spline(outg.nodes[mask]) - outg.values[mask])))
    dt = max(ex.stability_dt("graph_y", gg.nodes, gg.values),
             ex.stability_dt("lightcone", gl.nodes, gl.values))
    bound = ex.evolve_bound(gg.h, dt)
    _require(err <= bound, f"graph vs lightcone {err:.2e} above {bound:.2e}")
