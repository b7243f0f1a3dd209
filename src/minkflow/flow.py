"""Time evolution of space-like curves and residual verification.

Three equivalent quasilinear formulations are solved on a fixed uniform
grid:

    graph_y:          y_t  = y_xx / (1 - y_x^2)
    lightcone:        xi_t = xi_etaeta / xi_eta
    curvature_angle:  k_t  = k^2 k_thetatheta - k^3   (convex curves)

Each is a heat equation u_t = D u_xx + R with state-dependent diffusivity
D = 1/(1 - y_x^2), 1/xi_eta and k^2 respectively, and each is discretised
by one 3-point centered stencil (``_stencil``) that also gives the
tridiagonal Jacobian of the interior right-hand side.  ``evolve`` is a
method-of-lines solver: the interior nodes are advanced by the stiff BDF
integrator with that analytic Jacobian, at fixed tolerances
rtol = 1e-6 and atol = 1e-3 h^2, far below the O(h^2) spatial error.
With ``max_dt`` it takes explicit Euler steps instead, the reference
scheme, stable for dt <= 0.4 h^2 / max D.  Candidate exact solutions are
verified independently by centered-difference residuals on refinement
ladders, with the observed convergence order reported (about 2 for a true
solution).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import sympy as sp
from scipy.integrate import BDF
from scipy.sparse import diags

from .errors import DegenerateSlope, NotEven, SignChange, StabilityViolation
from .geometry import SLOPE_TOL, Curve, frame_from_graph, frame_from_lightcone

CFL = 0.4
RTOL = 1e-6
ATOL_PER_H2 = 1e-3


class FlowKind(enum.Enum):
    GRAPH_Y = "graph_y"
    LIGHTCONE = "lightcone"
    CURVATURE_ANGLE = "curvature_angle"


class Plane(enum.Enum):
    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class FlowGrid:
    """One PDE unknown sampled on a uniform spatial grid at time t."""

    kind: FlowKind
    nodes: np.ndarray
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.nodes.ndim != 1 or self.values.shape != self.nodes.shape:
            raise ValueError(
                "flow grid nodes and values must be 1-D and equally long, "
                f"got shapes {self.nodes.shape} and {self.values.shape}")
        if len(self.nodes) < 5:
            raise ValueError("flow grid needs at least 5 nodes")
        for name in ("nodes", "values", "t"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"flow grid {name} must be finite")
        d = np.diff(self.nodes)
        if not np.allclose(d, d[0], rtol=1e-9, atol=0):
            raise ValueError("flow grid must be uniform")
        _check_invariants(self.kind, self.nodes, self.values, self.t)

    @property
    def h(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def to_curve(self) -> Curve:
        if self.kind is FlowKind.GRAPH_Y:
            return frame_from_graph(self.nodes, self.values)
        if self.kind is FlowKind.LIGHTCONE:
            return frame_from_lightcone(self.nodes, self.values)
        raise ValueError("curvature_angle grids have no direct curve view")


def _check_invariants(kind, nodes, values, t):
    if not np.all(np.isfinite(values)):
        raise DegenerateSlope("the flow state became non-finite", t=t)
    slope = (values[2:] - values[:-2]) / (nodes[2:] - nodes[:-2])
    if kind is FlowKind.GRAPH_Y:
        if np.max(np.abs(slope)) >= 1.0 - SLOPE_TOL:
            raise DegenerateSlope("|y_x| reached the light-like bound", t=t)
    elif kind is FlowKind.LIGHTCONE:
        if np.min(slope) <= SLOPE_TOL:
            raise DegenerateSlope("xi_eta reached the degenerate bound", t=t)
    elif kind is FlowKind.CURVATURE_ANGLE:
        if np.min(values) < 0.0 < np.max(values) or np.any(values == 0.0):
            raise SignChange("curvature grid is not single-signed", t=t)


def _stencil(kind: FlowKind, v: np.ndarray, h: float):
    """Interior right-hand side of the full grid ``v`` and its Jacobian.

    Returns ``(rhs, lower, diag, upper)``: the bands are d rhs_i / d v_j
    for j = i-1, i, i+1.  Writing each formulation as u_t = D u_xx + R,
    the off-diagonal bands are D/h^2 -+ u_xx D'(u_x)/(2h) and the
    diagonal is -2 D/h^2 + R'(u).
    """
    um, uc, up = v[:-2], v[1:-1], v[2:]
    uxx = (up - 2.0 * uc + um) / (h * h)
    if kind is FlowKind.CURVATURE_ANGLE:
        diff = uc * uc
        off = diff / (h * h)
        return (diff * uxx - diff * uc, off,
                2.0 * uc * uxx - 3.0 * diff - 2.0 * off, off)
    ux = (up - um) / (2.0 * h)
    if kind is FlowKind.GRAPH_Y:
        diff = 1.0 / ((1.0 - ux) * (1.0 + ux))
        ddiff = 2.0 * ux * diff * diff
    else:
        diff = 1.0 / ux
        ddiff = -diff * diff
    off = diff / (h * h)
    via_slope = uxx * ddiff / (2.0 * h)
    return diff * uxx, off - via_slope, -2.0 * off, off + via_slope


# ---------------------------------------------------------------------------
# boundary policies


@dataclass(frozen=True)
class FrozenSlope:
    """Linear extrapolation with end slopes pinned at their initial values."""

    left: float
    right: float
    # d(end value) / d(adjacent interior value), folded into the Jacobian
    coupling = 1.0

    @staticmethod
    def from_grid(grid: FlowGrid) -> "FrozenSlope":
        v, h = grid.values, grid.h
        return FrozenSlope(
            float((v[1] - v[0]) / h), float((v[-1] - v[-2]) / h)
        )

    def fill(self, t: float, interior: np.ndarray, h: float) -> np.ndarray:
        """Full grid from the interior values: ghost ends on frozen slopes."""
        return np.concatenate(([interior[0] - self.left * h], interior,
                               [interior[-1] + self.right * h]))


@dataclass(frozen=True)
class Dirichlet:
    """End values supplied as functions of time (verification mode)."""

    left: Callable[[float], float]
    right: Callable[[float], float]
    coupling = 0.0

    def fill(self, t: float, interior: np.ndarray, h: float) -> np.ndarray:
        """Full grid from the interior values and the end values at t."""
        return np.concatenate(([self.left(t)], interior, [self.right(t)]))


def stability_dt(grid: FlowGrid) -> float:
    """Largest admissible explicit step 0.4 h^2 / max D.

    For y and xi, D is read off the stencil's off-diagonal bands, which
    sum to 2 D / h^2; for k, D = k^2 is taken over every node, ends
    included.
    """
    v, h = grid.values, grid.h
    if grid.kind is FlowKind.CURVATURE_ANGLE:
        return CFL * h * h * float(1.0 / np.max(v ** 2))
    _, lower, _, upper = _stencil(grid.kind, v, h)
    return float(np.min(2.0 * CFL / (lower + upper)))


def step(grid: FlowGrid, dt: float, boundary=None) -> FlowGrid:
    """One explicit Euler step; boundary defaults to frozen end slopes.

    A step past stability_dt raises StabilityViolation; one that leaves a
    degenerate or non-finite state raises DegenerateSlope at the new time.
    """
    bound = stability_dt(grid)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityViolation(
            f"dt={dt:.3e} exceeds the stability bound {bound:.3e} at t={grid.t}"
        )
    if boundary is None:
        boundary = FrozenSlope.from_grid(grid)
    t_new = grid.t + dt
    rhs = _stencil(grid.kind, grid.values, grid.h)[0]
    new = boundary.fill(t_new, grid.values[1:-1] + dt * rhs, grid.h)
    _check_invariants(grid.kind, grid.nodes, new, t_new)
    return FlowGrid(grid.kind, grid.nodes, new, t_new)


def _bdf_steps(kind, boundary, h, t0, y0, t_end):
    """Accepted BDF steps as (t, interior, dense output on the step)."""

    def fun(t, y):
        return _stencil(kind, boundary.fill(t, y, h), h)[0]

    def jac(t, y):
        _, lower, diag, upper = _stencil(kind, boundary.fill(t, y, h), h)
        diag[0] += boundary.coupling * lower[0]
        diag[-1] += boundary.coupling * upper[-1]
        return diags([lower[1:], diag, upper[:-1]], [-1, 0, 1], format="csc")

    solver = BDF(fun, t0, y0, t_end, rtol=RTOL, atol=ATOL_PER_H2 * h * h,
                 jac=jac)
    while solver.status == "running":
        try:
            message = solver.step()
        except RuntimeError as exc:  # splu of a non-finite Jacobian
            raise DegenerateSlope(f"BDF step failed: {exc}",
                                  t=solver.t) from exc
        if solver.status == "failed":
            raise DegenerateSlope(f"BDF step failed: {message}", t=solver.t)
        yield solver.t, solver.y, solver.dense_output()


def _euler_steps(grid, boundary, t_end, max_dt):
    """Accepted step() calls of dt = min(max_dt, stability_dt, time left).

    Yields (t, interior, dense output); an Euler step's dense output at
    ts is the shorter step to ts.
    """
    while grid.t < t_end:
        dt = min(max_dt, stability_dt(grid), t_end - grid.t)
        new = step(grid, dt, boundary)
        yield new.t, new.values[1:-1], (
            lambda ts, g=grid: step(g, ts - g.t, boundary).values[1:-1])
        grid = new


def evolve(grid: FlowGrid, t_end: float, snapshot_every: float | None = None,
           boundary=None, max_dt: float | None = None) -> list[FlowGrid]:
    """Solve the flow to t_end, returning snapshots.

    The interior nodes are integrated by BDF (method of lines) with the
    stencil's tridiagonal Jacobian and fixed tolerances rtol = 1e-6,
    atol = 1e-3 h^2.  With ``max_dt`` the reference explicit Euler scheme
    is used instead: step() with dt = min(max_dt, stability_dt, time
    left).  Boundary values follow ``boundary`` (frozen end slopes by
    default) at every solver time.  Grid invariants are checked on every
    accepted step; a degenerate or non-finite state, or a failed solver
    step, raises DegenerateSlope carrying its time.  Snapshot times are
    grid.t, grid.t + snapshot_every, ... plus t_end itself, with values
    from the step's dense output (for Euler, the shorter step to the
    snapshot time).  With snapshot_every=None only the initial and final
    states are returned.
    """
    if not math.isfinite(t_end) or t_end < grid.t:
        raise ValueError("t_end must be finite and not precede the grid time")
    if max_dt is not None and not max_dt > 0.0:
        raise ValueError("max_dt must be positive")
    if t_end == grid.t:
        return [grid]
    if boundary is None:
        boundary = FrozenSlope.from_grid(grid)
    wanted = [grid.t]
    if snapshot_every:
        k, tk = 1, grid.t + snapshot_every
        while tk < t_end - 1e-12 * max(1.0, abs(t_end)):
            wanted.append(tk)
            k += 1
            tk = grid.t + k * snapshot_every
    wanted.append(t_end)

    out = [grid]
    pending = wanted[1:]
    kind, nodes, h = grid.kind, grid.nodes, grid.h
    if max_dt is None:
        steps = _bdf_steps(kind, boundary, h, grid.t,
                           grid.values[1:-1].copy(), t_end)
    else:
        steps = _euler_steps(grid, boundary, t_end, max_dt)
    for t, y, dense in steps:
        v = boundary.fill(t, y, h)
        _check_invariants(kind, nodes, v, t)
        while pending and pending[0] <= t + 1e-15:
            ts = pending.pop(0)
            snap = v if ts >= t else boundary.fill(ts, dense(ts), h)
            out.append(FlowGrid(kind, nodes, snap, ts))
    return out


# ---------------------------------------------------------------------------
# residual verification of candidate solutions


@dataclass
class ResidualReport:
    kind: str
    plane: str
    times: list
    levels: list  # [{"h": float, "max_abs": float, "rms": float}, ...]
    observed_order: float | None = None

    @property
    def max_abs(self) -> float:
        return max(lv["max_abs"] for lv in self.levels)

    @property
    def rms(self) -> float:
        return max(lv["rms"] for lv in self.levels)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "plane": self.plane,
            "times": list(self.times),
            "levels": self.levels,
            "observed_order": self.observed_order,
        }


def _pde_residual(kind, plane, ut, u, ux, uxx):
    if kind is FlowKind.GRAPH_Y:
        if plane is Plane.MINKOWSKI:
            return ut - uxx / ((1.0 - ux) * (1.0 + ux))
        return ut - uxx / (1.0 + ux * ux)
    if kind is FlowKind.LIGHTCONE:
        return ut - uxx / ux
    if plane is Plane.MINKOWSKI:
        return ut - (u * u * uxx - u ** 3)
    return ut - (u * u * uxx + u ** 3)


def residual(kind: FlowKind, candidate: Callable, levels: Sequence[float],
             times: Sequence[float], window, plane: Plane = Plane.MINKOWSKI,
             ) -> ResidualReport:
    """Centered-difference PDE residual of candidate(points, t).

    ``window`` is a pair (lo, hi) or a callable t -> (lo, hi).  The time
    derivative uses the same spacing h as the spatial ones, so the
    residual of a true solution shrinks at second order along ``levels``.
    """
    lv_out = []
    for h in levels:
        worst, sumsq, count = 0.0, 0.0, 0
        for t in times:
            lo, hi = window(t) if callable(window) else window
            m = int(math.floor((hi - lo) / h)) + 1
            ext = lo + h * np.arange(-1, m + 1)
            u = np.asarray(candidate(ext, t), dtype=float)
            um, uc, up = u[:-2], u[1:-1], u[2:]
            inner = ext[1:-1]
            ut = (np.asarray(candidate(inner, t + h), dtype=float)
                  - np.asarray(candidate(inner, t - h), dtype=float)) / (2 * h)
            ux = (up - um) / (2.0 * h)
            uxx = (up - 2.0 * uc + um) / (h * h)
            r = _pde_residual(kind, plane, ut, uc, ux, uxx)
            worst = max(worst, float(np.max(np.abs(r))))
            sumsq += float(np.sum(r * r))
            count += len(r)
        lv_out.append({"h": float(h), "max_abs": worst,
                       "rms": math.sqrt(sumsq / count)})
    order = _observed_order([lv["h"] for lv in lv_out],
                            [lv["max_abs"] for lv in lv_out])
    return ResidualReport(kind.value, plane.value, list(times), lv_out, order)


def _observed_order(hs, errs) -> float | None:
    if min(errs) <= 1e-13:
        return None  # residual at the roundoff floor; order undefined
    lo, le = np.log(np.asarray(hs)), np.log(np.asarray(errs))
    return float(np.polyfit(lo, le, 1)[0])


# ---------------------------------------------------------------------------
# closed forms and the Euclidean <-> Minkowski substitution


class ClosedForm:
    """A sympy expression in (space, time) usable as a vectorized sampler."""

    def __init__(self, expr, space: sp.Symbol, time: sp.Symbol, name: str = ""):
        self.expr = expr
        self.space = space
        self.time = time
        self.name = name
        self._fn = sp.lambdify((space, time), expr, modules="numpy")
        self._dfns = {}

    def __call__(self, pts, t):
        out = self._fn(np.asarray(pts, dtype=float), t)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.shape(pts)).copy()

    def derivative(self, order: int = 1) -> "ClosedForm":
        """Exact spatial derivative, built once per order."""
        if order not in self._dfns:
            self._dfns[order] = ClosedForm(
                sp.diff(self.expr, self.space, order), self.space, self.time)
        return self._dfns[order]

    def __repr__(self):
        return f"ClosedForm({self.name or self.expr})"


def wick_transform(kind: FlowKind, euclid: ClosedForm,
                   probe_points=(0.25, 0.6, 1.1), probe_t=0.5) -> ClosedForm:
    """Map an even analytic Euclidean solution to a Minkowski one.

    Substitutes space -> i*space and time -> -time symbolically; on the
    catalog function basis (cos, sin, cosh, sinh, exp, polynomials) the
    result simplifies back to a real closed form.  Evenness in the
    spatial variable is spot-checked numerically first.
    """
    if kind not in (FlowKind.GRAPH_Y, FlowKind.CURVATURE_ANGLE):
        raise ValueError("transform applies to graph_y or curvature_angle")
    pts = np.asarray(probe_points, dtype=float)
    with np.errstate(invalid="ignore"):
        left = euclid(pts, probe_t)
        right = euclid(-pts, probe_t)
    finite = np.isfinite(left) & np.isfinite(right)
    if np.count_nonzero(finite) < 2:
        raise ValueError(
            "evenness probes fall outside the sampler's domain; pass "
            "probe_points/probe_t inside it")
    scale = np.max(np.abs(left[finite])) + 1.0
    if np.max(np.abs(left[finite] - right[finite])) > 1e-9 * scale:
        raise NotEven(f"{euclid!r} is not even in its spatial argument")
    expr = euclid.expr.subs(euclid.space, sp.I * euclid.space, simultaneous=True)
    expr = expr.subs(euclid.time, -euclid.time, simultaneous=True)
    expr = sp.simplify(expr)
    if expr.has(sp.I):
        expr = sp.simplify(sp.re(expr))
    return ClosedForm(expr, euclid.space, euclid.time,
                      name=f"wick({euclid.name})")


# ---------------------------------------------------------------------------
# the translator / expander asymptote race


def log_cosh(x: float) -> float:
    """log(cosh x), stable for large |x|."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def ecker_gap(t: float, x_probe: float = 20.0) -> float:
    """Offset between the asymptotes of the two racing solutions.

    y = log(cosh x) + t approaches the line y = x + (t - log 2); the
    expanding hyperbola y = sqrt(x^2 + 2t) approaches y = x exactly.  The
    translator's offset is measured at x_probe (error ~ e^{-2 x_probe});
    the hyperbola's limit offset is 0.  The sign flips at t = log 2: the
    curves swap order at spatial infinity.
    """
    return (log_cosh(x_probe) + t - x_probe) - 0.0


def ecker_crossing_time(x_probe: float = 20.0) -> float:
    """Time at which the asymptotic gap changes sign (= log 2)."""
    from scipy.optimize import brentq
    return float(brentq(lambda t: ecker_gap(t, x_probe), 0.3, 1.2, xtol=1e-14))
