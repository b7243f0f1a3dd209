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
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BranchContainsRoot, Inconclusive, InvalidParams,
                     NoInvariantKnown, NonFiniteCurve, QuadratureFailed,
                     SolverFailed, TimeLikeBranch)
from .geometry import (_GRAPH_FORMS, SLOPE_TOL, Curve, _curve,
                       reconstruct_positions)
from .hyperbolic import HyperbolicNumber

BLOWUP_THRESHOLD = 1e8
RTOL, ATOL = 1e-12, 1e-14
# Past this |state| a phase side continues in log radius (see
# integrate_phase); below it nothing changes.
SWITCH_RADIUS = 100.0
# A solver step h is stiff when h |lambda_fast| reaches this, with
# lambda_fast the fast decaying eigenvalue of the phase Jacobian
# (``_fast_rate``).  A phase side in s goes to the other solver after
# NSTIFF steps in a row that are stiff on DOP853 or not stiff on Radau.
STIFF_STEP = 1.0
NSTIFF = 3

# Conserved quantities are monitored only while they are representable in
# float64; outside these caps cancellation noise exceeds the drift budget.
STATE_CAP = 15.0
XI_CAP = 12.0
# atol of the components kept under relative error control (nu when a = 0
# in (tau, nu), k = -b nu when a = 0 in (k, l), the carried screw defect).
# Only from RELATIVE_FLOOR / RTOL up is it within the rtol share of the
# error, so conserved_drift monitors no node below that.
RELATIVE_FLOOR = 1e-290


class Chart(enum.Enum):
    TAU_NU = "taunu"
    KL = "kl"


@dataclass(frozen=True)
class SolitonParams:
    """Triple (a, b, C): boost rate, dilation rate, translation velocity."""

    a: float
    b: float
    C: HyperbolicNumber = HyperbolicNumber(0.0, 0.0)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.C.x, self.C.y))):
            raise InvalidParams(
                f"soliton parameters must be finite, got a={self.a}, "
                f"b={self.b}, C=({self.C.x}, {self.C.y})")

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

    @property
    def s_span(self) -> tuple[float, float]:
        return (float(self.s[0]), float(self.s[-1]))


def _phase_coefficients(p: SolitonParams, chart: Chart) -> tuple:
    """(c0, c1, w0, w1) of the phase system in ``chart``.

    Both charts read u0' = c0 + k u1, u1' = c1 + k u0, theta' = k with
    the curvature k = w0 u0 + w1 u1: (tau, nu) has (1, 0, a, -b) and
    (k, l) has (a, -b, 1, 0).
    """
    a, b = p.a, p.b
    return (1.0, 0.0, a, -b) if chart is Chart.TAU_NU else (a, -b, 1.0, 0.0)


def _phase_rhs(p: SolitonParams, chart: Chart):
    c0, c1, w0, w1 = _phase_coefficients(p, chart)

    def rhs(s, u):
        u0, u1, _ = u
        k = w0 * u0 + w1 * u1
        return (c0 + k * u1, c1 + k * u0, k)

    def jac(s, u):
        u0, u1, _ = u
        k = w0 * u0 + w1 * u1
        return [[w0 * u1, k + w1 * u1, 0.0],
                [k + w0 * u0, w1 * u0, 0.0],
                [w0, w1, 0.0]]
    return rhs, jac


def _terminal(event):
    """``event``, made terminal on an upward zero crossing."""
    event.terminal, event.direction = True, 1
    return event


def _switch(rhs):
    """Terminal event: the state leaves the square max |u_i| < SWITCH_RADIUS
    at a phase speed |(u0', u1')| of at least SWITCH_RADIUS too, with u'
    from ``rhs``.  Next to a pole the speed is about |state|^2, so the
    event falls where the state leaves the square; on a slow manifold the
    speed is O(1) and the event never fires."""
    def event(s, u):
        r = max(abs(u[0]), abs(u[1]))
        if r >= SWITCH_RADIUS:
            r = min(r, math.hypot(*rhs(s, u)[:2]))
        return r - SWITCH_RADIUS
    return _terminal(event)


def _phase_events(p: SolitonParams, chart: Chart, threshold: float):
    """The blow-up past ``threshold``, then crossings of the xi-axis
    (eta = 0: u0 + u1 = 0), of the eta-axis (xi = 0: u0 - u1 = 0) and
    inflections (k = 0).  The axis tests hold in both charts, since
    k +- l = (a -+ b)(tau +- nu)."""
    *_, w0, w1 = _phase_coefficients(p, chart)
    return [_terminal(lambda s, u: max(abs(u[0]), abs(u[1])) - threshold),
            lambda s, u: u[0] + u[1], lambda s, u: u[0] - u[1],
            lambda s, u: w0 * u[0] + w1 * u[1]]


def _diagonal_field(p: SolitonParams, chart: Chart):
    """The phase system in the diagonal components P = u0 + u1 and
    Q = u0 - u1: returns field(P, Q) -> (P', Q', k), where theta' = k.

    In both charts P' = cP + k P and Q' = cQ - k Q, with k linear in
    (P, Q).  Near a blow-up one component grows like 1/(s_pole - s) and
    the other shrinks like 1/|k|; written this way each keeps its own
    relative precision, which u0 and u1, both of size |k|, cannot.  The
    coefficients follow from ``_phase_coefficients``: cP, cQ = c0 +- c1
    and k = kP P + kQ Q with kP, kQ = (w0 +- w1) / 2.
    """
    c0, c1, w0, w1 = _phase_coefficients(p, chart)
    cP, cQ, kP, kQ = c0 + c1, c0 - c1, 0.5 * (w0 + w1), 0.5 * (w0 - w1)

    def field(P, Q):
        k = kP * P + kQ * Q
        return cP + k * P, cQ - k * Q, k
    return field


def _max_threshold(p: SolitonParams, chart: Chart) -> float:
    """The largest blow-up threshold T whose tail field stays finite: at
    max |u_i| = T, |P| + |Q| = 2T and ``_diagonal_field`` has |P'|, |Q'|
    <= 4 kappa T^2 + O(1), kappa = max(|kP|, |kQ|) = (|w0| + |w1|) / 2.
    Keeping 8 kappa T^2 within float64 lets the step that crosses T
    overshoot it by sqrt(2); kappa >= 4 / max keeps 2T itself finite."""
    *_, w0, w1 = _phase_coefficients(p, chart)
    big = float(np.finfo(float).max)
    kappa = max(0.5 * (abs(w0) + abs(w1)), 4.0 / big)
    return math.sqrt(0.125 * big) / math.sqrt(kappa)


def _threshold_refusal(p: SolitonParams, chart: Chart, T: float,
                       bound: float) -> str:
    """Why T is refused, for a CLI user: the CLI keeps T at its default, so
    in (tau, nu) name --a, --b and |a| + |b| <= max / (4 T^2), which is
    T <= bound.  In (k, l) the bound does not depend on a or b."""
    most = float(np.finfo(float).max) / (4.0 * T * T) if T > 0.0 else 0.0
    where = (f"in the (tau, nu) chart |a| + |b| (--a, --b) must be at most "
             f"max_float / (4 T^2) = {most:.3g}, got "
             f"{abs(p.a) + abs(p.b):.6g};" if chart is Chart.TAU_NU else
             "in the (k, l) chart, where the bound does not depend on a or b,")
    return (f"blow-up threshold T = {T:g} is out of range: {where} T must "
            f"be positive and at most {bound:.17g}, got {T}")


def _tail_chart(field, sign: float):
    """The phase system, run forward (sign +1) or mirrored (sign -1), in
    the diagonal components and reparametrised by log radius rho.

    The state is V = (P, Q, theta, s) and dV/drho = |V| (sign F, 1) / |F|,
    with F = (P', Q', theta'), |F| over (P', Q') and |V| = hypot(P, Q).
    Near a blow-up F grows like |V|^2, so in s the steps shrink like
    1/|V|^2; in rho |V| grows at most like e^rho, the growing component
    like e^rho and the shrinking one like e^-rho, and the steps keep one
    size.
    """
    def rhs(r, V):
        dP, dQ, k = field(V[0], V[1])
        inv = math.hypot(V[0], V[1]) / math.hypot(dP, dQ)
        return (sign * dP * inv, sign * dQ * inv, sign * k * inv, inv)
    return rhs


def _tail_events(field, threshold: float, span: float):
    """``_phase_events`` on the tail state V, each read off the diagonal
    components directly (max |u_i| is (|P| + |Q|) / 2), and a terminal
    stop at s = span."""
    return [_terminal(lambda r, V: 0.5 * (abs(V[0]) + abs(V[1])) - threshold),
            lambda r, V: V[0], lambda r, V: V[1],
            lambda r, V: field(V[0], V[1])[2],
            _terminal(lambda r, V: V[3] - span)]


def _at_s(tail, field, s):
    """Phase states (u0, u1, theta) of the tail-chart solution ``tail`` at
    the parameters ``s``: Newton on the increasing s(rho), whose slope is
    |V|/|F|, started by linear interpolation between the solver's steps."""
    r = np.interp(s, tail.y[3], tail.t)
    for _ in range(8):
        V = tail.sol(r)
        dP, dQ, _ = field(V[0], V[1])
        dr = (s - V[3]) * np.hypot(dP, dQ) / np.hypot(V[0], V[1])
        r = np.clip(r + dr, 0.0, tail.t[-1])
        if np.all(np.abs(dr) <= 4.0 * np.finfo(float).eps * r):
            break
    P, Q, theta, _ = tail.sol(r)
    return np.array([0.5 * (P + Q), 0.5 * (P - Q), theta])


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


def _fast_rate(J) -> float:
    """|lambda_fast|, the largest modulus of an eigenvalue with negative
    real part of the (u0, u1) block of the phase Jacobian J, or 0: only a
    decaying mode bounds an explicit step by stability, a growing one
    bounds every solver by accuracy.  h |lambda_fast| >= STIFF_STEP marks
    a step h as stiff; the backward side's J is the mirrored system's."""
    (a, b, _), (c, d, _) = J[0], J[1]
    a, b, c, d = float(a), float(b), float(c), float(d)
    half, det = 0.5 * (a + d), a * d - b * c
    disc = half * half - det
    if disc >= 0.0:
        return max(0.0, math.sqrt(disc) - half)
    return math.sqrt(det) if half < 0.0 else 0.0


def _handing_off(solver, stiff: bool):
    """scipy's ``solver``, given the phase ``jac``, ending its run after
    NSTIFF steps in a row whose verdict (stiff: h |lambda_fast| >=
    STIFF_STEP, ``_fast_rate`` at the step's end) is not ``stiff``, so
    that ``integrate_phase`` hands the rest to the other solver: the
    NSTIFF test of Hairer's dop853.f, both ways.  Every step is the same
    as scipy's up to there."""
    class HandingOff(solver):
        def __init__(self, fun, t0, y0, t_bound, jac, **kw):
            # Radau steps with jac; DOP853 would warn that it takes none.
            super().__init__(fun, t0, y0, t_bound, **kw,
                             **({"jac": jac} if stiff else {}))
            self.phase_jac, self.strays = jac, 0

        def _step_impl(self):
            t = self.t
            ok, message = super()._step_impl()
            if ok:
                rate = _fast_rate(self.phase_jac(self.t, self.y))
                own = (abs(self.t - t) * rate >= STIFF_STEP) == stiff
                self.strays = 0 if own else self.strays + 1
                if self.strays == NSTIFF:
                    self.t_bound = self.t
            return ok, message
    return HandingOff


@functools.cache
def _radau():
    """``_handing_off`` Radau, with its 3x3 factorisations and solves
    calling LAPACK's getrf and getrs directly: ``lu_factor`` and
    ``lu_solve`` spend most of their time on input checks and array
    wrapping, about a third of a stiff phase run.  A non-finite matrix is
    still refused, as ``lu_factor`` refuses it.  Built on first use, so
    importing this module imports no scipy."""
    from scipy.integrate import Radau
    from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

    class LapackRadau(_handing_off(Radau, True)):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            # Radau binds its scipy.linalg pair to each instance.
            self.lu, self.solve_lu = self._getrf, self._getrs

        def _getrf(self, A):
            self.nlu += 1
            if not np.isfinite(A).all():
                raise ValueError("array must not contain infs or NaNs")
            getrf = zgetrf if A.dtype.kind == "c" else dgetrf
            return getrf(A, overwrite_a=True)[:2]

        @staticmethod
        def _getrs(LU, b):
            getrs = zgetrs if LU[0].dtype.kind == "c" else dgetrs
            return getrs(*LU, b, overwrite_b=True)[0]
    return LapackRadau


@functools.cache
def _dop853():
    """``_handing_off`` DOP853, built on first use like ``_radau()``."""
    from scipy.integrate import DOP853
    return type("StiffnessDOP853", (_handing_off(DOP853, False),), {})


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
    curvature sign changes are recorded as events.  ``method``, "DOP853"
    or "Radau", names the solver each side starts with.

    A side switches solver as its stiffness changes, at the same
    tolerances and events: each hands the side over after NSTIFF steps in
    a row that are stiff on DOP853, or not stiff on Radau
    (``_handing_off``), so ``method`` decides at most NSTIFF steps.
    Samples come from whichever solver covers each s, and the events of
    all of them are kept.  A failed solver raises SolverFailed (solver,
    message, last s).

    A side whose state climbs through |state| = SWITCH_RADIUS at a pole
    continues from there, with DOP853 whatever ``method`` is, at the same
    rtol and with the same events, in the chart of ``_tail_chart``: the
    diagonal components u0 +- u1, which keep the small one's relative
    precision, against log radius, in which the approach to the pole
    costs steps logarithmic in |state| rather than quadratic; next to a
    pole that chart is not stiff.  The switch needs a phase
    speed |(u0', u1')| of SWITCH_RADIUS too (``_switch``), about 1e4 at a
    pole and O(1) on a slow manifold, so a side creeping along one past
    |state| = SWITCH_RADIUS stays in s.  Samples up to the switch come
    from the solvers in s; later ones, and the event locations, are
    mapped back to s through the s state the chart carries.  A blow-up
    threshold at or below SWITCH_RADIUS never switches.  One above
    ``_max_threshold`` is refused: the tail's field would overflow before
    the state got there (6.7e153 in (tau, nu) for a = 0, b = -1; 6.7e152
    for b = -100).
    """
    from scipy.integrate import solve_ivp
    if p.has_translation:
        raise InvalidParams("phase-plane form requires C = 0")
    if chart is Chart.KL and p.a * p.a == p.b * p.b:
        raise InvalidParams("(k,l) chart is singular when a^2 = b^2")
    if len(init) not in (2, 3):
        raise InvalidParams(f"initial state must hold 2 or 3 numbers, got "
                            f"{len(init)}: {tuple(init)}")
    if not all(map(math.isfinite, init)):
        raise InvalidParams(f"initial state must be finite, got {tuple(init)}")
    if method not in ("DOP853", "Radau"):
        raise InvalidParams(
            f"method must be DOP853 or Radau, not {method!r}")
    theta0 = float(init[2]) if len(init) > 2 else 0.0
    u0 = (float(init[0]), float(init[1]), theta0)
    s_back, s_fwd = (s_max if isinstance(s_max, (tuple, list))
                     else (s_max, s_max))
    if not all(math.isfinite(v) and v >= 0.0 for v in (s_back, s_fwd)):
        raise InvalidParams(
            f"s_max must be finite and non-negative, got {s_max}")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise InvalidParams(f"tolerances must be finite, rtol positive and "
                            f"atol non-negative, got {rtol=}, {atol=}")
    if n_per_side < 2:
        raise InvalidParams(f"n_per_side must be at least 2, got {n_per_side}")
    bound = _max_threshold(p, chart)
    if not 0.0 < blowup_threshold <= bound:
        raise InvalidParams(_threshold_refusal(p, chart, blowup_threshold,
                                               bound))

    # The tail keeps the scalar atol: drift is monitored only below
    # STATE_CAP, far under the switch.
    tail_atol = atol
    if p.a == 0.0:
        # nu, and k = -b nu in (k, l), decays like e^{-b s^2/2} and never
        # changes sign; keep its error control relative so the conserved
        # quantity and the blow-up after it stay exact.
        floor = min(atol, RELATIVE_FLOOR)
        atol = np.array([atol, floor, atol] if chart is Chart.TAU_NU
                        else [floor, atol, atol])

    rhs, jac = _phase_rhs(p, chart)
    events = _phase_events(p, chart, blowup_threshold)
    field = _diagonal_field(p, chart)
    first = _radau() if method == "Radau" else _dop853()

    def solve(f, span, state, evs, tol, how, **kw):
        return solve_ivp(f, span, state, method=how, events=evs,
                         rtol=rtol, atol=tol, dense_output=True, **kw)

    def side(f, j, span):
        """Samples, events and end of one side, out to |s| = span."""
        sign = 1.0 if f is rhs else -1.0  # backward: the mirrored rhs
        # Solver pieces in s, kept as (last s, dense solution); each ends
        # itself where it hands the side to the other solver.  An empty
        # side reports no events, not the ones sitting at s = 0.
        pieces, found = [], [[], [], [], []]
        s_last, state, how, sol = 0.0, u0, first, None
        while s_last < span:
            # Past |a| ~ 1e5 a DOP853 trial stage can overflow the rhs (then
            # meet inf - inf); the solver rejects that step, so ignore both.
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    sol = solve(f, (s_last, span), state,
                                events + [_switch(f)], atol, how, jac=j)
            except ValueError as exc:  # _radau() refuses a non-finite matrix
                raise SolverFailed(how.__name__, exc, sign * s_last) from None
            if sol.status < 0:
                raise SolverFailed(how.__name__, sol.message, sign * sol.t[-1])
            for seen, t_ev in zip(found, sol.t_events):
                seen += map(float, t_ev)
            s_last, state = float(sol.t[-1]), sol.y[:, -1]
            pieces.append((s_last, sol.sol))
            if sol.status:
                break
            how = _radau() if how is _dop853() else _dop853()
        if sol is not None and sol.t_events[4].size and not found[0]:
            # Next to a pole the chart is not stiff.
            tail = solve(_tail_chart(field, sign), (0.0, math.inf),
                         (state[0] + state[1], state[0] - state[1], state[2],
                          s_last),
                         _tail_events(field, blowup_threshold, span),
                         tail_atol, "DOP853")
            if tail.status < 0:
                raise SolverFailed("DOP853", tail.message,
                                   sign * tail.y[3, -1])
            for seen, y_ev in zip(found, tail.y_events):
                seen += [float(y[3]) for y in y_ev]
            s_last = span if tail.t_events[4].size else float(tail.y[3, -1])
            pieces.append((s_last, functools.partial(_at_s, tail, field)))
        blowup, xi, eta, inflection = found
        ts = _sample_times(s_last, n_per_side)
        if blowup and s_last > 0:
            # Resolve the divergence for curvature-limit detection; offsets
            # are absolute (pole width is O(1/|state|)) but stay above the
            # float spacing of s_last; any that fall past s = 0 are dropped.
            base = max(1e-9, 64.0 * np.finfo(float).eps * s_last)
            near = s_last - base * np.array([100.0, 10.0, 1.0])
            ts = np.unique(np.concatenate([ts, near[near > 0.0], [s_last]]))
        if s_last <= 0:
            samples = np.array(u0, float)[:, None]
        else:
            # Each s from the first piece that reaches it.
            which = np.searchsorted([end for end, _ in pieces], ts)
            samples = np.empty((3, len(ts)))
            for i, (_, at_s) in enumerate(pieces):
                if np.any(mine := which == i):
                    samples[:, mine] = at_s(ts[mine])
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
    return Trajectory(p, chart, s, tau, nu, theta, k, l, events, ends)


def reconstruct(traj: Trajectory) -> Curve:
    """Curve X = (tau - h nu) e^{h theta} at the trajectory's s nodes.

    Raises NonFiniteCurve, naming the first such node, when a position
    overflows float64 (cosh theta does once |theta| passes about 710).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pts = reconstruct_positions(traj.tau, traj.nu, traj.theta)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        i = bad[0]
        raise NonFiniteCurve(
            f"reconstructed position is not finite at s={traj.s[i]:.17g}, "
            f"theta={traj.theta[i]:.17g} (the first such node)")
    return Curve(traj.s.copy(), pts[:, 0], pts[:, 1], traj.theta.copy(),
                 traj.k.copy(), traj.tau.copy(), traj.nu.copy(),
                 events=dict(traj.events))


# ---------------------------------------------------------------------------
# graph and diagonal-basis ODE forms


def _dense_side(u0, events, n: int, atol=ATOL):
    """A ``solve_side`` for ``_both_ways``: DOP853 with dense output from
    u0 over [0, span], sampled at n evenly spaced nodes up to where it
    stopped; the solution comes back as the side's info."""
    from scipy.integrate import solve_ivp

    def side(f, _, span):
        sol = solve_ivp(f, (0.0, span), u0, method="DOP853", events=events,
                        rtol=RTOL, atol=atol, dense_output=True)
        xs = np.linspace(0.0, float(sol.t[-1]), n)
        return xs, sol.sol(xs), sol
    return side


def integrate_graph(p: SolitonParams, y0: float, yp0: float,
                    x_max: float, n: int = 2001) -> Curve:
    """Solve the graph form of the soliton equation on [-x_max, x_max].

    y'' = (1 - y'^2) (a (x - y y') - b (x y' - y) - (c1 y' - c2)) with
    C = c1 + h c2.  |y'| < 1 is guaranteed in exact arithmetic (light-like
    lines are themselves solutions); if the numerical slope still reaches
    1 - SLOPE_TOL the integration stops and the approach is logged as a
    light-like asymptote event.
    """
    if not all(map(math.isfinite, (y0, yp0))):
        raise InvalidParams(f"initial values must be finite: {y0=}, {yp0=}")
    if abs(yp0) >= 1.0:
        raise InvalidParams("initial slope must satisfy |y'| < 1")
    if not 0.0 <= x_max < math.inf:
        raise InvalidParams(
            f"x_max must be finite and non-negative, got {x_max}")
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

    # The backward co-integrated arc length is already negative.
    x, (y, v, s), fwd, bwd = _both_ways(
        _dense_side((y0, yp0, 0.0), [light], n), rhs, (x_max, x_max))
    events = []
    for sign, sol in ((1.0, fwd), (-1.0, bwd)):
        if len(sol.t_events[0]):
            xe = sign * float(sol.t_events[0][0])
            ye, ve = sol.sol(abs(xe))[:2]
            slope = 1.0 if ve > 0 else -1.0
            events.append({"event": "light_like_asymptote", "x": xe,
                           "line": {"slope": slope,
                                    "offset": float(ye - slope * xe)}})
    form = _GRAPH_FORMS["graph_y"]
    curve = _curve(form, x, y, v, form.curvature(v, ypp(x, y, v)), s)
    curve.events["light_like_asymptote"] = events
    return curve


def integrate_lightcone(p: SolitonParams, xi0: float, xip0: float,
                        eta_span: tuple[float, float], n: int = 2001) -> Curve:
    """Solve the diagonal-basis form on eta_span (which must contain 0).

    xi'' = xi' ((a+b) xi + (a-b) eta xi' + d1 - d2 xi') with C = (d1, d2)
    in the diagonal view.  xi' > 0 is maintained; blow-up at finite eta
    is recorded as an event.
    """
    if not all(map(math.isfinite, (xi0, xip0))):
        raise InvalidParams(f"initial values must be finite: {xi0=}, {xip0=}")
    if xip0 <= 0.0:
        raise InvalidParams("initial xi' must be positive (space-like)")
    lo, hi = eta_span
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParams(f"eta_span must be finite, got {tuple(eta_span)}")
    if not (lo <= 0.0 <= hi):
        raise InvalidParams("eta_span must contain the anchor eta = 0")
    a, b, d1, d2 = p.a, p.b, p.C.xi, p.C.eta

    # For the boost+dilation+translation family the conserved defect
    # delta = xi'/2 - xi + 1 decays like e^{-xi}; integrating delta itself
    # (with relative error control) keeps the invariant representable
    # where reconstructing it from (xi, xi') would cancel to noise.
    carried = _SCREW_TRANSLATION.applies(p)
    if carried:
        def slope(u):
            return 2.0 * (u[0] - 1.0 + u[1])

        def rhs(eta, u):
            w = slope(u)
            return (w, -w * u[1], math.sqrt(w))
        u0 = (xi0, 0.5 * xip0 - xi0 + 1.0, 0.0)
        atol = np.array([ATOL, RELATIVE_FLOOR, ATOL])
    else:
        def xipp(eta, xi, w):
            return w * ((a + b) * xi + (a - b) * eta * w + d1 - d2 * w)

        def rhs(eta, u):
            xi, w, _ = u
            return (w, xipp(eta, xi, w), math.sqrt(w))

        def slope(u):
            return u[1]
        u0, atol = (xi0, xip0, 0.0), ATOL

    def degenerate(eta, u):
        return slope(u) - SLOPE_TOL
    degenerate.terminal = True

    def blowup(eta, u):
        return max(abs(u[0]), abs(slope(u))) - BLOWUP_THRESHOLD
    blowup.terminal = True

    eta, (xi, aux, s), fwd, bwd = _both_ways(
        _dense_side(u0, [degenerate, blowup], n, atol), rhs, (-lo, hi))
    events = []
    for sign, sol in ((1.0, fwd), (-1.0, bwd)):
        for i, name in ((1, "blowup"), (0, "degenerate_slope")):
            if len(sol.t_events[i]):
                events.append({"event": name,
                               "eta": sign * float(sol.t_events[i][0])})
    w = slope((xi, aux))
    xipp_vals = 2.0 * w * (1.0 - aux) if carried else xipp(eta, xi, w)
    # Keep samples strictly space-like (the terminal node may sit on it).
    form = _GRAPH_FORMS["lightcone"]
    keep = form.spacelike(w, 0.0)
    curve = _curve(form, eta[keep], xi[keep], w[keep],
                   form.curvature(w[keep], xipp_vals[keep]), s[keep])
    curve.events["lightcone"] = events
    if carried:
        curve.events["screw_delta"] = aux[keep]
    return curve


# ---------------------------------------------------------------------------
# conserved quantities


@dataclass(frozen=True)
class _Conserved:
    """A family's first integral Q = r^m e^E, or Q = E alone when m = 0.

    ``terms(p, xp, tau, nu, theta, xi)`` gives (r, E), with exp taken
    from ``xp``: math at one state, numpy along a run.  xi is None unless
    the state holds it.
    """

    name: str
    applies: Callable[[SolitonParams], bool]
    m: int
    terms: Callable

    def value(self, r, E):
        return E if self.m == 0 else r ** self.m * math.exp(E)


def _screw_terms(p, xp, tau, nu, theta, xi):
    xi = xp.exp(theta) * (tau - nu) if xi is None else xi
    return 0.5 * xp.exp(2.0 * theta) - xi + 1.0, xi


# C = (0, 1) exactly: integrate_lightcone's carried defect is derived for it.
_SCREW_TRANSLATION = _Conserved(
    "exp(xi)(xi'/2 - xi + 1)",
    lambda p: p.a == p.b == 1.0 and p.C.xi == 0.0 and p.C.eta == 1.0, 1,
    _screw_terms)
_CONSERVED = (
    _Conserved("nu^2 exp(b(tau^2-nu^2))",
               lambda p: p.a == 0.0 and p.b != 0.0 and not p.has_translation,
               2, lambda p, xp, tau, nu, theta, xi:
               (nu, p.b * (tau - nu) * (tau + nu))),
    _Conserved("a(tau^2-nu^2) - 2 theta",
               lambda p: p.b == 0.0 and p.a != 0.0 and not p.has_translation,
               0, lambda p, xp, tau, nu, theta, xi:
               (None, p.a * (tau - nu) * (tau + nu) - 2.0 * theta)),
    _SCREW_TRANSLATION)


def _conserved(p: SolitonParams) -> _Conserved:
    for fam in _CONSERVED:
        if fam.applies(p):
            return fam
    raise NoInvariantKnown(
        f"no conserved quantity registered for family {p.family!r}")


def conserved_quantity(p: SolitonParams, state) -> float:
    """Family invariant at a (tau, nu[, theta]) state; theta defaults to 0.

    Expansion/contraction (a = 0, C = 0): nu^2 e^{b(tau^2-nu^2)} (at
    |b| = 1 the curvature-weighted interval k^2 e^{+-<X,X>}).  Rotation
    (b = 0, C = 0): a(tau^2-nu^2) - 2 theta.  Screw-translation (a = b = 1,
    C = (0, 1) exactly): e^xi (xi'/2 - xi + 1), with xi' = e^{2 theta} and
    xi = e^theta (tau - nu), the diagonal component of the position.
    """
    fam = _conserved(p)
    tau, nu = float(state[0]), float(state[1])
    theta = float(state[2]) if len(state) > 2 else 0.0
    return fam.value(*fam.terms(p, math, tau, nu, theta, None))


def conserved_drift(p: SolitonParams, traj_or_curve) -> dict:
    """Invariant value at s=0 and its worst relative drift, Q = r^m e^E
    compared in log space.  Nodes count where float64 represents Q
    (|tau|, |nu| <= STATE_CAP, or xi <= XI_CAP for screw-translation
    unless integrate_lightcone carried the exact defect) and r has its
    s = 0 sign and reaches RELATIVE_FLOOR / RTOL; if the s = 0 node does
    not, value and drift are NaN and n_monitored is 0.  The log of Q is
    taken on the monitored nodes only.
    """
    fam, c = _conserved(p), traj_or_curve
    tau, nu, theta = c.tau, c.nu, c.theta
    xi, delta = getattr(c, "xi", None), c.events.get("screw_delta")
    if fam is _SCREW_TRANSLATION and delta is not None:
        r, E, mask = np.asarray(delta, dtype=float), xi, True
    else:
        r, E = fam.terms(p, np, tau, nu, theta, xi)
        mask = (E <= XI_CAP if fam is _SCREW_TRANSLATION
                else np.maximum(np.abs(tau), np.abs(nu)) <= STATE_CAP)
    i0 = int(np.argmin(np.abs(c.s)))
    if fam.m:
        mask = mask & (r * np.sign(r[i0]) >= RELATIVE_FLOOR / RTOL)
    if not mask[i0]:
        return {"name": fam.name, "value": math.nan, "drift": math.nan,
                "n_monitored": 0}
    value = fam.value(r[i0] if fam.m else None, E[i0])
    if fam.m:
        ref = fam.m * math.log(abs(r[i0])) + E[i0]
        logq = fam.m * np.log(np.abs(r[mask])) + E[mask]
        drift = np.max(np.abs(np.expm1(logq - ref)))
    else:
        drift = np.max(np.abs(E[mask] - value)) / max(1.0, abs(value))
    return {"name": fam.name, "value": float(value), "drift": float(drift),
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
            *_, w0, w1 = _phase_coefficients(p, traj.chart)
            kfp = w0 * info["fixed_point"][0] + w1 * info["fixed_point"][1]
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
    """The roots 1 + W_k(-A/e) of D in increasing order: one for A <= 0,
    two for 0 < A < 1, the double root 0 at A = 1, none above.  brentq
    finds each in closed-form bounds, the left one on ln A - u - ln(1 - u),
    of D's sign for u < ln A and finite where A e^{-u} overflows."""
    from scipy.optimize import brentq
    if not math.isfinite(A):
        raise InvalidParams(f"A must be finite, got {A}")
    if A >= 1.0:
        return [0.0] if A == 1.0 else []
    D = _denominator(A)
    if A <= 0.0:  # D rises from A / e at 1
        return [brentq(D, 1.0, 1.0 + math.log1p(-A), xtol=1e-14)]
    ln_a = math.log(A)  # min D = D(ln A) = ln A; D(0) < 0 < D(1)
    return [brentq(lambda u: ln_a - u - math.log1p(-u), 2.0 * ln_a - 2.0,
                   ln_a, xtol=1e-14), brentq(D, 0.0, 1.0, xtol=1e-14)]


def screw_branches(A: float) -> list[dict]:
    """Maximal intervals of one sign of D, ordered by xi.

    D > 0 intervals are space-like (xi' > 0), D < 0 time-like.
    """
    roots = screw_roots(A)
    edges = [-math.inf] + roots + [math.inf]
    D = _denominator(A)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (0.5 * (lo + hi) if math.isfinite(lo + hi)
               else min(max(0.0, lo + 1.0), hi - 1.0))
        with np.errstate(over="ignore"):  # D is +inf left of u ~ -709
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
    from scipy.integrate import tanhsinh
    if n < 2:
        raise InvalidParams(f"n must be at least 2, got {n}")
    every = screw_branches(A)
    branches = [b for b in every if b["spacelike"]]
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
    left, width = xis[:-1], np.diff(xis)

    def cumulative(g):
        """Integral of g(D) from xis[0] to each node: vectorized quadrature
        over 512 cells a call (which bounds tanhsinh's work arrays), in the
        offset t from each cell's left end x.  D(x + t) = D(x) + t +
        A e^{-x} expm1(-t) keeps D's relative precision next to a root,
        which x + t would round off."""
        cells = []
        for i in range(0, n - 1, 512):
            x = left[i:i + 512]
            res = tanhsinh(lambda t, d, c: g(d + t + c * np.expm1(-t)), 0.0,
                           width[i:i + 512], args=(D(x), A * np.exp(-x)),
                           atol=1e-13, rtol=1e-12)
            if not np.all(res.success):
                j = i + int(np.argmin(res.success))
                raise QuadratureFailed(
                    f"screw quadrature did not converge on the cell "
                    f"[{xis[j]:.17g}, {xis[j + 1]:.17g}] of xi (the first "
                    f"such cell; status {int(res.status[j - i])})")
            cells.append(res.integral)
        return np.concatenate([[0.0], np.cumsum(np.concatenate(cells))])

    eta = cumulative(lambda d: 0.5 / d)
    s = cumulative(lambda d: 1.0 / np.sqrt(2.0 * d))

    w = 2.0 * D(xis)              # xi'
    # k = xi'' / (2 xi'^{3/2}) with xi'' = 2 D'(xi) xi', in closed form
    curve = _curve(_GRAPH_FORMS["lightcone"], eta, xis, w,
                   (1.0 - A * np.exp(-xis)) / np.sqrt(w), s)
    curve.events["screw_translate"] = {
        "A": A, "branch_interval": (lo, hi),
        "roots": [b["interval"][1] for b in every[:-1]],
    }
    return curve
