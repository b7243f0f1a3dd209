"""Time evolution of space-like curves and residual verification.

Three equivalent quasilinear formulations are solved on a fixed uniform
grid:

    graph_y:          y_t  = y_xx / (1 - y_x^2)
    lightcone:        xi_t = xi_etaeta / xi_eta
    curvature_angle:  k_t  = k^2 k_thetatheta - k^3   (convex curves)

Each is a heat equation u_t = D u_xx + R with state-dependent diffusivity
D = 1/(1 - y_x^2), 1/xi_eta and k^2 respectively.  Each right-hand side
F(u, u_x, u_xx) is written once, with its partial derivatives, in
``_operator``; the Euclidean curve-shortening counterparts differ by one
sign.  ``_stencil`` evaluates it at 3-point centered differences and
gets the tridiagonal Jacobian of the interior right-hand side by the
chain rule.  ``evolve`` is a method-of-lines solver: the interior nodes
are advanced by the stiff BDF integrator with that analytic Jacobian, at
fixed tolerances rtol = 1e-6 and atol = 1e-3 h^2, far below the O(h^2)
spatial error.  With ``max_dt`` it takes explicit Euler steps instead,
the reference scheme, stable for dt <= 0.4 h^2 / max D.  Candidate exact
solutions are verified by the residual of the same stencil on refinement
ladders, with the observed convergence order reported (about 2 for a
true solution); the catalog's curvature-profile check applies
``_operator`` to exact symbolic derivatives.  A ``ClosedForm`` is its
formula text, sampled through ``compile_formula``; sympy parses it only
where a derivative is taken or the Wick substitution is made.
"""

from __future__ import annotations

import ast
import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateSlope, InvalidParams, NotEven, SignChange,
                     StabilityViolation)
from .geometry import _GRAPH_FORMS, SLOPE_TOL

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


def _check_invariants(kind, nodes, values, t):
    if not np.all(np.isfinite(values)):
        raise DegenerateSlope("the flow state became non-finite", t=t)
    form = _GRAPH_FORMS.get(kind.value)
    if form is not None:
        slope = (values[2:] - values[:-2]) / (nodes[2:] - nodes[:-2])
        if not np.all(form.spacelike(slope, SLOPE_TOL)):
            raise DegenerateSlope(form.degenerate, t=t)
    elif np.min(values) < 0.0 < np.max(values) or np.any(values == 0.0):
        raise SignChange("curvature grid is not single-signed", t=t)


def _operator(kind: FlowKind, u, ux, uxx, plane: Plane):
    """Right-hand side F of u_t = F(u, u_x, u_xx) and its partials.

    Returns ``(F, F_u, F_ux, F_uxx)``.  With s = 1 in the Minkowski plane
    and s = -1 in the Euclidean one, F is u_xx / (1 - s u_x^2) for y,
    u_xx / u_x for xi and u^2 u_xx - s u^3 for k.  Only plain arithmetic
    is used, so the arguments may be numpy arrays or sympy expressions.
    """
    s = 1 if plane is Plane.MINKOWSKI else -1
    if kind is FlowKind.CURVATURE_ANGLE:
        diff = u * u
        return (diff * uxx - s * (diff * u), 2.0 * u * uxx - 3.0 * s * diff,
                0.0, diff)
    if kind is FlowKind.GRAPH_Y:
        # Factored, so 1 - u_x^2 keeps its digits as |u_x| nears 1.
        diff = 1.0 / ((1.0 - ux) * (1.0 + ux) if s > 0 else 1.0 + ux * ux)
        ddiff = 2.0 * s * ux * diff * diff
    else:
        diff = 1.0 / ux
        ddiff = -diff * diff
    return diff * uxx, 0.0, uxx * ddiff, diff


def _stencil(kind: FlowKind, v: np.ndarray, h: float,
             plane: Plane = Plane.MINKOWSKI):
    """Interior right-hand side of the full grid ``v`` and its Jacobian.

    Returns ``(rhs, lower, diag, upper)``: ``_operator`` at centered
    differences, and the bands d rhs_i / d v_j for j = i-1, i, i+1 by the
    chain rule: F_uxx/h^2 -+ F_ux/(2h) off the diagonal, F_u - 2 F_uxx/h^2
    on it.
    """
    um, uc, up = v[:-2], v[1:-1], v[2:]
    f, f_u, f_ux, f_uxx = _operator(kind, uc, (up - um) / (2.0 * h),
                                    (up - 2.0 * uc + um) / (h * h), plane)
    off = f_uxx / (h * h)
    via_slope = f_ux / (2.0 * h)
    return f, off - via_slope, f_u - 2.0 * off, off + via_slope


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
    from scipy.integrate import BDF
    from scipy.sparse import diags

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
    wanted, last = [grid.t], t_end - 1e-12 * max(1.0, abs(t_end))
    while snapshot_every and grid.t + len(wanted) * snapshot_every < last:
        wanted.append(grid.t + len(wanted) * snapshot_every)
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
        return float(np.max([lv["max_abs"] for lv in self.levels]))

    @property
    def rms(self) -> float:
        return float(np.max([lv["rms"] for lv in self.levels]))


def residual(kind: FlowKind, candidate: Callable, levels: Sequence[float],
             times: Sequence[float], window, plane: Plane = Plane.MINKOWSKI,
             ) -> ResidualReport:
    """Centered-difference PDE residual of candidate(points, t).

    The spatial terms are the solver's own stencil (``_stencil``) on the
    candidate's samples.  ``window`` is a pair (lo, hi) or a callable
    t -> (lo, hi).  The time derivative uses the same spacing h as the
    spatial ones, so the residual of a true solution shrinks at second
    order along ``levels``.
    """
    lv_out = []
    for h in levels:
        rs = []
        for t in times:
            lo, hi = window(t) if callable(window) else window
            m = int(math.floor((hi - lo) / h)) + 1
            ext = lo + h * np.arange(-1, m + 1)
            u = np.asarray(candidate(ext, t), dtype=float)
            inner = ext[1:-1]
            ut = (np.asarray(candidate(inner, t + h), dtype=float)
                  - np.asarray(candidate(inner, t - h), dtype=float)) / (2 * h)
            rs.append(ut - _stencil(kind, u, h, plane)[0])
        lv_out.append(_level(h, rs))
    order = _observed_order([lv["h"] for lv in lv_out],
                            [lv["max_abs"] for lv in lv_out])
    return ResidualReport(kind.value, plane.value, list(times), lv_out, order)


def _level(h: float, residuals) -> dict:
    """One ``ResidualReport`` level: max |r| and rms over residual arrays;
    a NaN anywhere makes both NaN."""
    worst, sumsq, count = 0.0, 0.0, 0
    for r in residuals:
        worst = float(np.maximum(worst, np.max(np.abs(r))))
        sumsq += float(np.sum(r * r))
        count += len(r)
    return {"h": float(h), "max_abs": worst, "rms": math.sqrt(sumsq / count)}


def _observed_order(hs, errs) -> float | None:
    if not all(map(math.isfinite, errs)) or min(errs) <= 1e-13:
        return None  # residual not finite or at the roundoff floor
    lo, le = np.log(np.asarray(hs)), np.log(np.asarray(errs))
    return float(np.polyfit(lo, le, 1)[0])


# ---------------------------------------------------------------------------
# closed forms: formulas compiled to numpy, and the Euclidean <-> Minkowski
# substitution


# name -> (numpy callable, argument counts); coth in sympy's numpy form
_FUNCS = {
    **{name: (getattr(np, name), (1,)) for name in
       ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "sqrt")},
    **{name: (getattr(np, "arc" + name[1:]), (1,)) for name in
       ("asin", "acos", "atan", "asinh", "acosh", "atanh")},
    "coth": (lambda v: (np.exp(v) + np.exp(-v)) / (np.exp(v) - np.exp(-v)),
             (1,)),
    "log": (lambda v, *b: np.log(v) / np.log(*b) if b else np.log(v), (1, 2)),
    "Abs": (np.abs, (1,)),
}
_CONSTANTS = {"pi": np.float64(np.pi), "E": np.float64(np.e)}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow,
        ast.UAdd: operator.pos, ast.USub: operator.neg}


def compile_formula(text: str, space: str, time: str):
    """The formula ``text`` as a numpy function f(space, time).

    Allowed are numbers, ``space``, ``time``, pi, E, + - * / ** ^ (read as
    **, as sympy does) and keyword-free calls to the functions of
    ``_FUNCS``.  One walk of the ``ast`` checks the text (InvalidParams
    names what it refuses) and builds a tree of closures.  Numbers are
    float64: 1/0 gives inf and (-1)**0.5 nan, never an error or a complex.
    """
    bad, free = set(), set()

    def build(node, depth):
        if depth > 100:  # so evaluation stays far inside the recursion limit
            raise InvalidParams("expression nests more than 100 levels deep")
        if isinstance(node, ast.Name) and node.id in (space, time):
            return (lambda x, t: x) if node.id == space else (lambda x, t: t)
        if isinstance(node, ast.Name):  # pi, E or an unknown symbol
            free.update({node.id} - _CONSTANTS.keys())
            value = _CONSTANTS.get(node.id)
            return lambda x, t: value
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = np.float64(node.value)
            return lambda x, t: value
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPS:
            fn = _OPS[type(node.op)]
            args = ((node.operand,) if isinstance(node, ast.UnaryOp)
                    else (node.left, node.right))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and not node.keywords:
            fn, arity = _FUNCS.get(node.func.id, (None, None))
            if fn is None:
                bad.add(node.func.id)
            elif len(node.args) not in arity:
                raise InvalidParams(
                    f"expression does not parse: {node.func.id} takes "
                    f"{' or '.join(map(str, arity))} argument(s), "
                    f"got {len(node.args)}")
            args = node.args
        else:
            if isinstance(node, (ast.BinOp, ast.UnaryOp)):
                node = node.op
            raise InvalidParams(
                f"expression uses unsupported syntax ({type(node).__name__});"
                f" allowed are numbers, pi, E, {space}, {time}, + - * / ** ^ "
                "and calls to the supported functions")
        parts = [build(arg, depth + 1) for arg in args]
        return lambda x, t: fn(*[part(x, t) for part in parts])

    try:
        fn = build(ast.parse(text.replace("^", "**"), mode="eval").body, 0)
    except (SyntaxError, ValueError, RecursionError, OverflowError) as exc:
        raise InvalidParams(f"expression is not a formula: {exc}") from None
    if bad:
        raise InvalidParams(
            f"functions {sorted(bad)} are outside the supported basis")
    if free:
        raise InvalidParams(
            f"unknown symbols in expression: {{{', '.join(sorted(free))}}}")
    return fn


class ClosedForm:
    """A closed form in (space, time), held as its formula text.

    ``text`` is ``compile_formula`` text in the variables named ``space``
    and ``time``.  ``sampler`` compiles it on first use, and calling the
    form samples it.  ``symbolic`` parses it into sympy on first use, for
    the checks that derive; ``of`` is the one way from a sympy result back
    to a ClosedForm.
    """

    def __init__(self, text: str, space: str, time: str, name: str = ""):
        self.text, self.name = text, name
        self._variables = (space, time)

    @classmethod
    def of(cls, expr, space, time, name: str = "") -> "ClosedForm":
        """The form of sympy ``expr`` in the symbols ``space`` and ``time``.

        Its text is sympy's ``sstr``, except that each ``Float`` is printed
        as the float64 it rounds to, so the form samples those bits.
        """
        from sympy.printing.str import StrPrinter

        class Printer(StrPrinter):
            def _print_Float(self, expr):
                return repr(float(expr))
        text = Printer({"full_prec": True}).doprint(expr)
        return cls(text, str(space), str(time), name)

    @functools.cached_property
    def sampler(self):
        """The compiled numpy function of (space, time)."""
        return compile_formula(self.text, *self._variables)

    @functools.cached_property
    def symbolic(self):
        """(expr, space, time) as sympy objects, parsed once."""
        import sympy as sp
        space, time = (sp.Symbol(v, real=True) for v in self._variables)
        return sp.sympify(self.text, locals={space.name: space,
                                             time.name: time,
                                             "coth": sp.coth}), space, time

    def __call__(self, pts, t):
        with np.errstate(all="ignore"):  # inf and nan: the caller refuses
            out = self.sampler(np.asarray(pts, dtype=float),
                               np.asarray(t, dtype=float))
        return np.broadcast_to(out, np.shape(pts)).copy()

    def __repr__(self):
        return f"ClosedForm({self.name or self.text})"


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
    left, right = euclid(pts, probe_t), euclid(-pts, probe_t)
    finite = np.isfinite(left) & np.isfinite(right)
    if np.count_nonzero(finite) < 2:
        raise ValueError(
            "evenness probes fall outside the sampler's domain; pass "
            "probe_points/probe_t inside it")
    scale = np.max(np.abs(left[finite])) + 1.0
    if np.max(np.abs(left[finite] - right[finite])) > 1e-9 * scale:
        raise NotEven(f"{euclid!r} is not even in its spatial argument")
    import sympy as sp
    expr, space, time = euclid.symbolic
    expr = expr.subs(space, sp.I * space, simultaneous=True)
    expr = sp.simplify(expr.subs(time, -time, simultaneous=True))
    if expr.has(sp.I):
        expr = sp.simplify(sp.re(expr))
    return ClosedForm.of(expr, space, time, name=f"wick({euclid.name})")


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
    """Time at which the asymptotic gap changes sign (= log 2); the gap is
    linear in t, so this is its root in closed form."""
    return x_probe - log_cosh(x_probe)
