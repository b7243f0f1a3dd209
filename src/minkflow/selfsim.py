"""Self-similar curve families: motions, phase-plane ODEs, classification.

A curve moves self-similarly under the flow when it satisfies

    a <X,T> - b <X,N> - <C,N> = k

with a the initial boost rate, b the initial dilation rate and C the
initial translation velocity.  This module builds the motion (f, g, H)
from (a, b, C), integrates the curve equation in four forms (the
(tau, nu) and (k, l) phase planes, the graph ODE for y(x) and the
diagonal-basis ODE for xi(eta)), reconstructs curves from trajectories,
monitors the per-family conserved quantities and classifies trajectory
behaviour (blow-ups, axis crossings, curvature limits, cone slopes).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import (BranchContainsRoot, Inconclusive, InvalidParams,
                     NoInvariantKnown, TimeLikeBranch)
from .geometry import (SLOPE_TOL, Curve, CurveSample, _graph_curve,
                       _lightcone_curve, _rebase, _support_from_frame,
                       reconstruct_positions)
from .hyperbolic import HyperbolicNumber

BLOWUP_THRESHOLD = 1e8
RTOL, ATOL = 1e-12, 1e-14

# Conserved quantities are monitored only while they are representable in
# float64; outside these caps cancellation noise exceeds the drift budget.
STATE_CAP = 15.0
XI_CAP = 12.0


class Chart(enum.Enum):
    TAU_NU = "taunu"
    KL = "kl"


@dataclass(frozen=True)
class SolitonParams:
    """Triple (a, b, C): boost rate, dilation rate, translation velocity."""

    a: float
    b: float
    C: HyperbolicNumber = HyperbolicNumber(0.0, 0.0)

    @property
    def has_translation(self) -> bool:
        return self.C.x != 0.0 or self.C.y != 0.0

    @property
    def family(self) -> str:
        a, b = self.a, self.b
        if a == 0.0 and b == 0.0:
            return "translation" if self.has_translation else "static"
        if a == 0.0:
            return "expansion" if b > 0 else "contraction"
        if b == 0.0:
            return "rotation"
        if a * a == b * b:
            return "screw-translation" if self.has_translation else "degenerate-screw"
        return "screw-dilation"


@dataclass(frozen=True)
class MotionLaw:
    """Time course of the motion: boost angle f, scale g, translation H."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    H: Callable[[float], HyperbolicNumber]
    t_domain: tuple

    def diagonal_factor(self, t: float) -> tuple[float, float]:
        """(g e^f, g e^{-f}): how xi and eta scale at time t."""
        g, f = self.g(t), self.f(t)
        return (g * math.exp(f), g * math.exp(-f))

    def apply(self, points: np.ndarray, t: float) -> np.ndarray:
        """Map (n, 2) standard-basis points to g e^{h f} X + H."""
        g, f, H = self.g(t), self.f(t), self.H(t)
        ch, sh = math.cosh(f), math.sinh(f)
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([g * (ch * x + sh * y) + H.x,
                         g * (sh * x + ch * y) + H.y], axis=-1)


def motion_law(p: SolitonParams) -> MotionLaw:
    """Solve g g' = b, g^2 f' = a, g e^{-hf} H' = C with f(0)=0, g(0)=1,
    H(0)=0.

    For a^2 = b^2 != 0 the translation cannot be recentered away; the
    reduced normal form requires C purely along the remaining light-like
    direction (eta-component for a=b, xi-component for a=-b).
    """
    a, b, C = p.a, p.b, p.C

    if b == 0.0:
        g = lambda t: 1.0
        f = (lambda t: 0.0) if a == 0.0 else (lambda t: a * t)
        t_domain = (-math.inf, math.inf)
    else:
        g = lambda t: math.sqrt(2.0 * b * t + 1.0)
        f = lambda t: (a / (2.0 * b)) * math.log(2.0 * b * t + 1.0)
        t_domain = ((-1.0 / (2.0 * b), math.inf) if b > 0
                    else (-math.inf, -1.0 / (2.0 * b)))

    if not p.has_translation:
        H = lambda t: HyperbolicNumber(0.0, 0.0)
    elif a == 0.0 and b == 0.0:
        H = lambda t: HyperbolicNumber(C.x * t, C.y * t)
    elif a * a != b * b:
        # Screw about the shifted center -C/(b+ha).
        pivot = C / HyperbolicNumber(b, a)
        def H(t, pivot=pivot):
            gt, ft = g(t), f(t)
            ch, sh = math.cosh(ft), math.sinh(ft)
            return HyperbolicNumber(
                gt * (ch * pivot.x + sh * pivot.y) - pivot.x,
                gt * (sh * pivot.x + ch * pivot.y) - pivot.y,
            )
    else:
        d1, d2 = C.xi, C.eta
        scale = abs(C.xi) + abs(C.eta)
        if a == b and abs(d1) > 1e-14 * scale:
            raise InvalidParams(
                "a = b requires C with zero xi-component (reduced form)")
        if a == -b and abs(d2) > 1e-14 * scale:
            raise InvalidParams(
                "a = -b requires C with zero eta-component (reduced form)")
        if a == b:
            H = lambda t: HyperbolicNumber.from_diagonal(
                0.0, (d2 / (2.0 * b)) * math.log(2.0 * b * t + 1.0))
        else:
            H = lambda t: HyperbolicNumber.from_diagonal(
                (d1 / (2.0 * b)) * math.log(2.0 * b * t + 1.0), 0.0)

    return MotionLaw(f, g, H, t_domain)


# ---------------------------------------------------------------------------
# phase-plane integration


def kl_from_taunu(p: SolitonParams, tau, nu):
    return p.a * tau - p.b * nu, -p.b * tau + p.a * nu


def taunu_from_kl(p: SolitonParams, k, l):
    det = p.a * p.a - p.b * p.b
    if det == 0.0:
        raise InvalidParams("(k,l) chart is singular when a^2 = b^2")
    return (p.a * k + p.b * l) / det, (p.b * k + p.a * l) / det


def phase_fixed_points(p: SolitonParams, chart: Chart) -> list[tuple]:
    """Rest states of the phase system (exist only for b > 0)."""
    if p.b <= 0.0:
        return []
    if chart is Chart.TAU_NU:
        nu = 1.0 / math.sqrt(p.b)
        return [(0.0, nu), (0.0, -nu)]
    k = math.sqrt(p.b)
    return [(k, -p.a / k), (-k, p.a / k)]


@dataclass
class Trajectory:
    """Sampled phase trajectory with co-integrated tangent angle."""

    params: SolitonParams
    chart: Chart
    s: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    k: np.ndarray
    l: np.ndarray
    events: dict
    ends: dict
    blowup_threshold: float = BLOWUP_THRESHOLD

    @property
    def s_span(self) -> tuple[float, float]:
        return (float(self.s[0]), float(self.s[-1]))


def _phase_rhs(p: SolitonParams, chart: Chart):
    a, b = p.a, p.b
    if chart is Chart.TAU_NU:
        def rhs(s, u):
            tau, nu, _ = u
            k = a * tau - b * nu
            return (1.0 + nu * k, tau * k, k)

        def jac(s, u):
            tau, nu, _ = u
            k = a * tau - b * nu
            return [[a * nu, k - b * nu, 0.0],
                    [k + a * tau, -b * tau, 0.0],
                    [a, -b, 0.0]]
    else:
        def rhs(s, u):
            k, l, _ = u
            return (a + k * l, -b + k * k, k)

        def jac(s, u):
            k, l, _ = u
            return [[l, k, 0.0], [2.0 * k, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return rhs, jac


def _phase_events(p: SolitonParams, chart: Chart, threshold: float):
    a, b = p.a, p.b

    def blowup(s, u):
        return max(abs(u[0]), abs(u[1])) - threshold
    blowup.terminal = True
    blowup.direction = 1

    # Crossing the xi-axis means eta = 0, i.e. tau = -nu (k = -l scaled);
    # the eta-axis is xi = 0, i.e. tau = nu (k = l scaled).
    def xi_axis(s, u):
        return u[0] + u[1]

    def eta_axis(s, u):
        return u[0] - u[1]

    if chart is Chart.TAU_NU:
        def inflection(s, u):
            return a * u[0] - b * u[1]
    else:
        def inflection(s, u):
            return u[0]

    return [blowup, xi_axis, eta_axis, inflection]


def _sample_times(t_last: float, n: int) -> np.ndarray:
    if t_last <= 0.0:
        return np.array([0.0])
    if t_last <= 50.0:
        return np.linspace(0.0, t_last, n)
    head = np.linspace(0.0, 50.0, n // 2, endpoint=False)
    tail = np.geomspace(50.0, t_last, n - n // 2)
    return np.concatenate([head, tail])


def _both_ways(solve_side, rhs, spans, jac=None):
    """Solve u' = rhs(x, u) from x = 0 out to both ends; stitch at x = 0.

    ``solve_side(f, jac, span)`` integrates u' = f(x, u) over [0, span]
    and returns (grid, states, info).  The forward side, out to spans[1],
    is solved first; the backward side, out to -spans[0], as the mirrored
    problem u' = -rhs(-x, u).  Returns the stitched grid and states, with
    x = 0 kept once, and the forward and backward infos.
    """
    grid_f, states_f, fwd = solve_side(rhs, jac, spans[1])
    back_jac = None if jac is None else (
        lambda x, u: [[-c for c in row] for row in jac(-x, u)])
    grid_b, states_b, bwd = solve_side(
        lambda x, u: tuple(-r for r in rhs(-x, u)), back_jac, spans[0])
    grid = np.concatenate([-grid_b[::-1], grid_f[1:]])
    states = np.concatenate([states_b[:, ::-1], states_f[:, 1:]], axis=1)
    return grid, states, fwd, bwd


def _detect_fixed_point(p, chart, states_tail) -> tuple | None:
    """Tail converging onto a rest state: distance < 1e-9 and either
    still shrinking or already flat at the float noise floor."""
    for fp in phase_fixed_points(p, chart):
        d = np.hypot(states_tail[0] - fp[0], states_tail[1] - fp[1])
        if d[-1] >= 1e-9:
            continue
        shrinking = np.all(np.diff(d) <= 1e-15 + d[:-1] * 1e-6)
        if shrinking or np.max(d) < 1e-9:
            return fp
    return None


def integrate_phase(p: SolitonParams, chart: Chart = Chart.TAU_NU,
                    init: Sequence[float] = (0.0, -1.0), s_max=20.0,
                    rtol: float = RTOL, atol: float = ATOL,
                    blowup_threshold: float = BLOWUP_THRESHOLD,
                    n_per_side: int = 4000, method: str = "DOP853",
                    ) -> Trajectory:
    """Integrate the phase system both ways from s = 0.

    ``init`` is (tau0, nu0[, theta0]) or (k0, l0[, theta0]) depending on
    the chart.  Integration runs until |state| exceeds the blow-up
    threshold (a recorded event, not an error) or |s| = s_max, which may
    be a scalar or a (backward, forward) pair.  Diagonal crossings and
    curvature sign changes are recorded as events.  Trajectories hugging
    a strongly attracting slow manifold are stiff; pass method="Radau"
    for those.
    """
    if p.has_translation:
        raise InvalidParams("phase-plane form requires C = 0")
    if chart is Chart.KL and p.a * p.a == p.b * p.b:
        raise InvalidParams("(k,l) chart is singular when a^2 = b^2")
    theta0 = float(init[2]) if len(init) > 2 else 0.0
    u0 = (float(init[0]), float(init[1]), theta0)
    s_back, s_fwd = (s_max if isinstance(s_max, (tuple, list))
                     else (s_max, s_max))

    if p.a == 0.0 and chart is Chart.TAU_NU:
        # nu decays like e^{-b s^2/2} and never changes sign; keep its
        # error control relative so the conserved quantity stays exact.
        atol = np.array([atol, min(atol, 1e-290), atol])

    rhs, jac = _phase_rhs(p, chart)
    events = _phase_events(p, chart, blowup_threshold)
    if method not in ("Radau", "BDF", "LSODA"):
        jac = None

    def side(f, j, span):
        """Samples, events and end of one side, out to |s| = span."""
        # An empty side reports no events, not the ones sitting at s = 0.
        sol = None if span == 0.0 else solve_ivp(
            f, (0.0, span), u0, method=method, events=events, rtol=rtol,
            atol=atol, dense_output=True, **({} if j is None else {"jac": j}))
        s_last = 0.0 if sol is None else float(sol.t[-1])
        t_events = [()] * 4 if sol is None else sol.t_events
        ts = _sample_times(s_last, n_per_side)
        blowup, xi, eta, inflection = ([float(t) for t in t_ev]
                                       for t_ev in t_events)
        if blowup and s_last > 0:
            # Resolve the divergence for curvature-limit detection; offsets
            # are absolute (pole width is O(1/|state|)) but stay above the
            # float spacing of s_last.
            base = max(1e-9, 64.0 * np.finfo(float).eps * s_last)
            near = s_last - base * np.array([100.0, 10.0, 1.0])
            ts = np.unique(np.concatenate([ts, near, [s_last]]))
        samples = sol.sol(ts) if s_last > 0 else np.array(u0, float)[:, None]
        fp = None if blowup else _detect_fixed_point(p, chart,
                                                     samples[:2, -100:])
        end = {"kind": "blowup" if blowup else
                       "unresolved" if fp is None else "fixed_point",
               "fixed_point": fp}
        return ts, samples, {"blowup": blowup[0] if blowup else None,
                             "xi": xi, "eta": eta, "inflection": inflection,
                             "end": end}

    s, states, evf, evb = _both_ways(side, rhs, (s_back, s_fwd), jac)

    def merged(key):
        """Both sides' event parameters on the s axis, sorted, with
        repeats closer than 1e-9 dropped."""
        out = []
        for v in sorted([-t for t in evb[key]] + evf[key]):
            if not out or abs(v - out[-1]) > 1e-9:
                out.append(v)
        return out

    crossings = [{"axis": axis, "s": s_c}
                 for axis in ("xi", "eta") for s_c in merged(axis)]
    events = {
        "blowups": [sign * ev["blowup"] for sign, ev in ((-1.0, evb),
                                                          (1.0, evf))
                    if ev["blowup"] is not None],
        "crossings": sorted(crossings, key=lambda e: e["s"]),
        "inflections": merged("inflection"),
    }
    ends = {"backward": evb["end"], "forward": evf["end"]}
    if chart is Chart.TAU_NU:
        tau, nu, theta = states
        k, l = kl_from_taunu(p, tau, nu)
    else:
        k, l, theta = states
        tau, nu = taunu_from_kl(p, k, l)
    return Trajectory(p, chart, s, tau, nu, theta, k, l, events, ends,
                      blowup_threshold)


def reconstruct(traj: Trajectory) -> Curve:
    """Curve X = (tau - h nu) e^{h theta} at the trajectory's s nodes."""
    pts = reconstruct_positions(traj.tau, traj.nu, traj.theta)
    return Curve(traj.s.copy(), pts[:, 0], pts[:, 1], traj.theta.copy(),
                 traj.k.copy(), traj.tau.copy(), traj.nu.copy(),
                 events=dict(traj.events))


# ---------------------------------------------------------------------------
# graph and diagonal-basis ODE forms


def integrate_graph(p: SolitonParams, y0: float, yp0: float,
                    x_max: float, n: int = 2001,
                    rtol: float = RTOL, atol: float = ATOL) -> Curve:
    """Solve the graph form of the soliton equation on [-x_max, x_max].

    y'' = (1 - y'^2) (a (x - y y') - b (x y' - y) - (c1 y' - c2)) with
    C = c1 + h c2.  |y'| < 1 is guaranteed in exact arithmetic (light-like
    lines are themselves solutions); if the numerical slope still reaches
    1 - SLOPE_TOL the integration stops and the approach is logged as a
    light-like asymptote event.
    """
    if abs(yp0) >= 1.0:
        raise InvalidParams("initial slope must satisfy |y'| < 1")
    a, b, c1, c2 = p.a, p.b, p.C.x, p.C.y

    def ypp(x, y, v):
        return (1.0 - v * v) * (a * (x - y * v) - b * (x * v - y)
                                - (c1 * v - c2))

    def rhs(x, u):
        y, v, _ = u
        return (v, ypp(x, y, v), math.sqrt((1.0 - v) * (1.0 + v)))

    def light(x, u):
        return abs(u[1]) - (1.0 - SLOPE_TOL)
    light.terminal = True

    def side(f, _, span):
        sol = solve_ivp(f, (0.0, span), (y0, yp0, 0.0), method="DOP853",
                        events=light, rtol=rtol, atol=atol, dense_output=True)
        xs = np.linspace(0.0, float(sol.t[-1]), n)
        return xs, sol.sol(xs), sol

    # The backward co-integrated arc length is already negative.
    x, (y, v, s), fwd, bwd = _both_ways(side, rhs, (x_max, x_max))
    events = []
    for sign, sol in ((1.0, fwd), (-1.0, bwd)):
        if len(sol.t_events[0]):
            xe = sign * float(sol.t_events[0][0])
            ye, ve = sol.sol(abs(xe))[:2]
            slope = 1.0 if ve > 0 else -1.0
            events.append({"event": "light_like_asymptote", "x": xe,
                           "line": {"slope": slope,
                                    "offset": float(ye - slope * xe)}})
    curve = _graph_curve(x, y, v, ypp(x, y, v), s=s)
    curve.events["light_like_asymptote"] = events
    return curve


def integrate_lightcone(p: SolitonParams, xi0: float, xip0: float,
                        eta_span: tuple[float, float], n: int = 2001,
                        rtol: float = RTOL, atol: float = ATOL,
                        blowup_threshold: float = BLOWUP_THRESHOLD) -> Curve:
    """Solve the diagonal-basis form on eta_span (which must contain 0).

    xi'' = xi' ((a+b) xi + (a-b) eta xi' + d1 - d2 xi') with C = (d1, d2)
    in the diagonal view.  xi' > 0 is maintained; blow-up at finite eta
    is recorded as an event.
    """
    if xip0 <= 0.0:
        raise InvalidParams("initial xi' must be positive (space-like)")
    lo, hi = eta_span
    if not (lo <= 0.0 <= hi):
        raise InvalidParams("eta_span must contain the anchor eta = 0")
    a, b, d1, d2 = p.a, p.b, p.C.xi, p.C.eta

    # For the boost+dilation+translation family the conserved defect
    # delta = xi'/2 - xi + 1 decays like e^{-xi}; integrating delta itself
    # (with relative error control) keeps the invariant representable
    # where reconstructing it from (xi, xi') would cancel to noise.
    screw_trans = (a == 1.0 and b == 1.0 and d1 == 0.0 and d2 == 1.0)
    if screw_trans:
        def rhs(eta, u):
            xi, delta, _ = u
            w = 2.0 * (xi - 1.0 + delta)
            return (w, -w * delta, math.sqrt(w))

        def slope(u):
            return 2.0 * (u[0] - 1.0 + u[1])
        atol = np.array([atol, min(atol, 1e-290), atol])
    else:
        def xipp(eta, xi, w):
            return w * ((a + b) * xi + (a - b) * eta * w + d1 - d2 * w)

        def rhs(eta, u):
            xi, w, _ = u
            return (w, xipp(eta, xi, w), math.sqrt(w))

        def slope(u):
            return u[1]

    def degenerate(eta, u):
        return slope(u) - SLOPE_TOL
    degenerate.terminal = True

    def blowup(eta, u):
        return max(abs(u[0]), abs(slope(u))) - blowup_threshold
    blowup.terminal = True

    u0 = ((xi0, 0.5 * xip0 - xi0 + 1.0, 0.0) if screw_trans
          else (xi0, xip0, 0.0))

    def side(f, _, span):
        sol = solve_ivp(f, (0.0, span), u0, method="DOP853",
                        events=[degenerate, blowup], rtol=rtol, atol=atol,
                        dense_output=True)
        etas = np.linspace(0.0, float(sol.t[-1]), n)
        return etas, sol.sol(etas), sol

    eta, (xi, aux, s), fwd, bwd = _both_ways(side, rhs, (-lo, hi))
    events = []
    for sign, sol in ((1.0, fwd), (-1.0, bwd)):
        for i, name in ((1, "blowup"), (0, "degenerate_slope")):
            if len(sol.t_events[i]):
                events.append({"event": name,
                               "eta": sign * float(sol.t_events[i][0])})
    if screw_trans:
        w = 2.0 * (xi - 1.0 + aux)
        xipp_vals = 2.0 * w * (1.0 - aux)
    else:
        w = aux
        xipp_vals = xipp(eta, xi, w)
    # Keep samples strictly space-like (the terminal node may sit on it).
    keep = w > 0.0
    curve = _lightcone_curve(eta[keep], xi[keep], w[keep], xipp_vals[keep],
                             s=s[keep])
    curve.events["lightcone"] = events
    if screw_trans:
        curve.events["screw_delta"] = aux[keep]
    return curve


# ---------------------------------------------------------------------------
# conserved quantities


def _invariant_name(p: SolitonParams) -> str:
    if p.a == 0.0 and abs(p.b) > 0.0 and not p.has_translation:
        return "nu^2 exp(b(tau^2-nu^2))"
    if p.b == 0.0 and p.a != 0.0 and not p.has_translation:
        return "a(tau^2-nu^2) - 2 theta"
    if p.a == 1.0 and p.b == 1.0 and p.has_translation \
            and abs(p.C.xi) < 1e-14 and abs(p.C.eta - 1.0) < 1e-14:
        return "exp(xi)(xi'/2 - xi + 1)"
    raise NoInvariantKnown(
        f"no conserved quantity registered for family {p.family!r}")


def conserved_quantity(p: SolitonParams, state) -> float:
    """Family invariant evaluated at a CurveSample or (tau, nu, theta).

    Expansion/contraction: nu^2 e^{b(tau^2-nu^2)} (at |b|=1 this is the
    curvature-weighted interval k^2 e^{+-<X,X>}).  Rotation (C=0):
    a(tau^2-nu^2) - 2 theta.  Screw-translation a=b=1, C=(0,1):
    e^xi (xi'/2 - xi + 1), with xi' = e^{2 theta} along the curve.
    """
    name = _invariant_name(p)
    if isinstance(state, CurveSample):
        tau, nu, theta = state.tau, state.nu, state.theta
        xi = state.position.xi
    else:
        tau, nu = float(state[0]), float(state[1])
        theta = float(state[2]) if len(state) > 2 else 0.0
        xi = math.exp(theta) * (tau - nu)
    if name.startswith("nu^2"):
        return nu * nu * math.exp(p.b * (tau - nu) * (tau + nu))
    if name.startswith("a("):
        return p.a * (tau - nu) * (tau + nu) - 2.0 * theta
    xip = math.exp(2.0 * theta)
    return math.exp(xi) * (0.5 * xip - xi + 1.0)


def conserved_drift(p: SolitonParams, traj_or_curve,
                    state_cap: float = STATE_CAP,
                    xi_cap: float = XI_CAP) -> dict:
    """Invariant value at s=0 and its worst relative drift.

    Exponential-family invariants are monitored in log space, and only on
    the window where float64 can represent them: |tau|, |nu| <= state_cap,
    or xi <= xi_cap for the screw-translation invariant (beyond that the
    exponent's roundoff exceeds the 1e-8 drift budget).
    """
    name = _invariant_name(p)
    if isinstance(traj_or_curve, Trajectory):
        tau, nu, theta = traj_or_curve.tau, traj_or_curve.nu, traj_or_curve.theta
        s = traj_or_curve.s
        xi = None
        if name.startswith("exp(xi)"):
            xi = np.exp(theta) * (tau - nu)
    else:
        c = traj_or_curve
        tau, nu, theta, xi, s = c.tau, c.nu, c.theta, c.xi, c.s

    i0 = int(np.argmin(np.abs(s)))
    if name.startswith("exp(xi)"):
        delta = getattr(traj_or_curve, "events", {}).get("screw_delta") \
            if not isinstance(traj_or_curve, Trajectory) else None
        if delta is not None:
            # Exact defect carried by the integrator; representable at
            # every xi, so no window cap is needed.
            inner = np.asarray(delta, dtype=float)
            mask = inner * np.sign(inner[i0] or 1.0) > 0.0
        else:
            xip = np.exp(2.0 * theta)
            inner = 0.5 * xip - xi + 1.0
            mask = (xi <= xi_cap) & (inner * np.sign(inner[i0] or 1.0) > 0.0)
    else:
        mask = np.maximum(np.abs(tau), np.abs(nu)) <= state_cap
    if not np.any(mask) or not mask[i0]:
        return {"name": name, "value": math.nan, "drift": math.nan,
                "n_monitored": int(np.count_nonzero(mask))}

    if name.startswith("nu^2"):
        logq = 2.0 * np.log(np.abs(nu[mask])) \
            + p.b * (tau[mask] - nu[mask]) * (tau[mask] + nu[mask])
        ref = 2.0 * math.log(abs(nu[i0])) \
            + p.b * (tau[i0] - nu[i0]) * (tau[i0] + nu[i0])
        drift = float(np.max(np.abs(np.expm1(logq - ref))))
        value = nu[i0] ** 2 * math.exp(p.b * (tau[i0] - nu[i0]) * (tau[i0] + nu[i0]))
    elif name.startswith("a("):
        q = p.a * (tau[mask] - nu[mask]) * (tau[mask] + nu[mask]) - 2.0 * theta[mask]
        value = p.a * (tau[i0] - nu[i0]) * (tau[i0] + nu[i0]) - 2.0 * theta[i0]
        drift = float(np.max(np.abs(q - value)) / max(1.0, abs(value)))
    else:
        logq = xi[mask] + np.log(np.abs(inner[mask]))
        ref = xi[i0] + math.log(abs(inner[i0]))
        drift = float(np.max(np.abs(np.expm1(logq - ref))))
        value = math.exp(xi[i0]) * inner[i0]
    return {"name": name, "value": float(value), "drift": drift,
            "n_monitored": int(np.count_nonzero(mask))}


# ---------------------------------------------------------------------------
# classification


K_ZERO_THRESHOLD = 1e-6
K_INF_THRESHOLD = 1e6


@dataclass
class EndReport:
    s: float
    kind: str                    # blowup | fixed_point | unresolved
    curvature_limit: str         # zero | finite | infinite
    curvature_value: float | None
    minkowski_finite: bool

    def to_json_dict(self):
        return {"s": self.s, "kind": self.kind,
                "curvature_limit": self.curvature_limit,
                "curvature_value": self.curvature_value,
                "minkowski_finite": self.minkowski_finite}


@dataclass
class TrajectoryReport:
    s_span: tuple
    ends: dict
    crossings: list
    crosses_xi: bool
    crosses_eta: bool
    inflections: list
    has_inflection: bool
    length_finite: bool
    length: float | None
    cone_slopes: tuple | None
    conserved: dict | None

    def to_json_dict(self):
        return {
            "s_span": list(self.s_span),
            "ends": {k: v.to_json_dict() for k, v in self.ends.items()},
            "crossings": self.crossings,
            "crosses_xi": self.crosses_xi,
            "crosses_eta": self.crosses_eta,
            "inflections": self.inflections,
            "has_inflection": self.has_inflection,
            "length_finite": self.length_finite,
            "length": self.length,
            "cone_slopes": list(self.cone_slopes) if self.cone_slopes else None,
            "conserved": self.conserved,
        }


def _limit_of_tail(kvals: np.ndarray, side: str) -> tuple[str, float | None]:
    """Classify |k| at the last three nodes against the 1e-6 / 1e6 bands."""
    tail = kvals[-3:] if side == "forward" else kvals[:3][::-1]
    mags = np.abs(tail)
    if np.all(mags <= K_ZERO_THRESHOLD) and mags[-1] <= mags[0] + 1e-18:
        return "zero", None
    if np.all(mags >= K_INF_THRESHOLD) and mags[-1] >= mags[0] - 1e-6:
        return "infinite", None
    inside = np.all((mags > K_ZERO_THRESHOLD) & (mags < K_INF_THRESHOLD))
    spread = float(np.max(mags) - np.min(mags))
    if inside and spread <= 1e-3 * float(mags[-1]):
        return "finite", float(tail[-1])
    raise Inconclusive(
        f"curvature tail {tail.tolist()} on the {side} end matches no "
        "limit pattern; integrate further before classifying")


def classify(p: SolitonParams, traj: Trajectory) -> TrajectoryReport:
    """Feature report for an integrated trajectory.

    Ends are labelled with their curvature limit and Minkowski
    finiteness; diagonal crossings and curvature sign changes come from
    the recorded events.  For the pure-dilation families the asymptotic
    cone slopes are attached: a slope is exactly +1 (resp. -1) when the
    curve never meets the corresponding light-like axis, and tanh(theta)
    at the trajectory end otherwise.
    """
    ends = {}
    for side in ("backward", "forward"):
        info = traj.ends[side]
        s_end = traj.s[0] if side == "backward" else traj.s[-1]
        if info["kind"] == "blowup":
            k_term = traj.k[0] if side == "backward" else traj.k[-1]
            if abs(k_term) < 1e3:
                raise Inconclusive(
                    f"{side} end hit the blow-up threshold with |k| only "
                    f"{abs(k_term):.3g}; state diverged along l, not k")
            ends[side] = EndReport(float(s_end), "blowup", "infinite",
                                   None, True)
        elif info["kind"] == "fixed_point":
            kfp = kl_from_taunu(p, *info["fixed_point"])[0] \
                if traj.chart is Chart.TAU_NU else info["fixed_point"][0]
            ends[side] = EndReport(float(s_end), "fixed_point", "finite",
                                   float(kfp), False)
        else:
            limit, value = _limit_of_tail(traj.k, side)
            if limit == "infinite":
                raise Inconclusive(
                    f"{side} end reached s_max with |k| still growing past "
                    "1e6 but no blow-up event")
            ends[side] = EndReport(float(s_end), "unresolved", limit,
                                   value, False)

    crossings = traj.events["crossings"]
    crosses_xi = any(c["axis"] == "xi" for c in crossings)
    crosses_eta = any(c["axis"] == "eta" for c in crossings)
    inflections = traj.events["inflections"]

    length_finite = all(e.minkowski_finite for e in ends.values())
    length = float(traj.s[-1] - traj.s[0]) if length_finite else None

    cone = None
    if p.a == 0.0 and p.b != 0.0:
        l_plus = 1.0 if not crosses_xi else math.tanh(traj.theta[-1])
        l_minus = -1.0 if not crosses_eta else math.tanh(traj.theta[0])
        cone = (l_minus, l_plus)

    try:
        conserved = conserved_drift(p, traj)
    except NoInvariantKnown:
        conserved = None

    return TrajectoryReport(traj.s_span, ends, crossings, crosses_xi,
                            crosses_eta, inflections, len(inflections) > 0,
                            length_finite, length, cone, conserved)


# ---------------------------------------------------------------------------
# screw-translation curves (a = b = 1, C = (0, 1))


def _denominator(A: float):
    """D(xi) = xi - 1 + A e^{-xi}; the slope is xi' = 2 D(xi)."""
    return lambda u: u - 1.0 + A * np.exp(-u)


def screw_roots(A: float) -> list[float]:
    from scipy.optimize import brentq
    D = _denominator(A)
    if A == 1.0:
        return [0.0]  # double root
    grid = np.linspace(-40.0, 40.0, 8001)
    vals = D(grid)
    roots = [float(g) for g in grid[vals == 0.0]]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(brentq(D, grid[i], grid[i + 1], xtol=1e-14)))
    return sorted(roots)


def screw_branches(A: float) -> list[dict]:
    """Maximal intervals of one sign of D, ordered by xi.

    D > 0 intervals are space-like (xi' > 0), D < 0 time-like.
    """
    roots = screw_roots(A)
    edges = [-math.inf] + roots + [math.inf]
    D = _denominator(A)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (max(lo, -50.0) + min(hi, 50.0)) / 2.0
        if A == 1.0 and lo == -math.inf:
            mid = -1.0
        out.append({"interval": (lo, hi),
                    "spacelike": bool(D(mid) > 0.0)})
    return out


def screw_translate_curve(A: float, branch: int = -1,
                          xi_span: tuple[float, float] | None = None,
                          n: int = 2001) -> Curve:
    """Build a screw-translation curve by quadrature of d(eta)/d(xi).

    eta(xi) = (1/2) Integral d(xi) / D(xi) over one sign-definite branch
    of D(xi) = xi - 1 + A e^{-xi}; the arc length integrand is
    1/sqrt(2 D).  ``branch`` indexes the space-like branches by
    increasing xi (default: the rightmost).  The span must stay at least
    1e-8 away from every root of D.
    """
    branches = [b for b in screw_branches(A) if b["spacelike"]]
    if not branches:
        raise TimeLikeBranch(f"no space-like branch for A={A}")
    try:
        chosen = branches[branch]
    except IndexError:
        raise TimeLikeBranch(
            f"A={A} has {len(branches)} space-like branches; "
            f"index {branch} is out of range") from None
    lo, hi = chosen["interval"]
    if xi_span is None:
        left = lo + 0.05 if math.isfinite(lo) else min(hi - 8.0, -6.0)
        right = hi - 0.05 if math.isfinite(hi) else max(lo + 8.0, 2.0)
        xi_span = (left, right)
    guard = 1e-8
    if not (lo + guard <= xi_span[0] < xi_span[1] <= hi - guard):
        raise BranchContainsRoot(
            f"xi_span {xi_span} leaves the root-free interval "
            f"({lo}, {hi}) of branch {branch}")

    D = _denominator(A)
    xis = np.linspace(xi_span[0], xi_span[1], n)
    deta = np.empty(n - 1)
    ds = np.empty(n - 1)
    for i in range(n - 1):
        deta[i] = quad(lambda u: 0.5 / D(u), xis[i], xis[i + 1],
                       epsabs=1e-13, epsrel=1e-12)[0]
        ds[i] = quad(lambda u: 1.0 / math.sqrt(2.0 * D(u)), xis[i],
                     xis[i + 1], epsabs=1e-13, epsrel=1e-12)[0]
    eta = np.concatenate([[0.0], np.cumsum(deta)])
    s = np.concatenate([[0.0], np.cumsum(ds)])

    w = 2.0 * D(xis)              # xi'
    theta = 0.5 * np.log(w)
    k = (1.0 - A * np.exp(-xis)) / np.sqrt(w)
    x, y = (xis + eta) / 2.0, (xis - eta) / 2.0
    curve = Curve(_rebase(s, eta), x, y, theta, k,
                  *_support_from_frame(x, y, theta))
    curve.events["screw_translate"] = {
        "A": A, "branch_interval": (lo, hi),
        "roots": screw_roots(A),
    }
    return curve
