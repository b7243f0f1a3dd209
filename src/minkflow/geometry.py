"""Discrete space-like curves with frame data.

A curve is stored as arc-length-ordered samples carrying position, the
hyperbolic tangent angle theta (unit tangent T = e^{h*theta}, normal
N = h*T), signed curvature k and the support functions tau = <X,T>,
nu = <X,N>.  Two graph forms are supported: y as a function of x with
|y'| < 1, and xi as an increasing function of eta in the diagonal basis.
Each is defined once, in ``_GRAPH_FORMS``: its interval, tangent angle,
curvature, space-like test, map to (x, y) and graph view of a Curve.

Infinite curves are represented by truncation.  Within float64 a slope
saturates at +-1 once 1 - |y'| drops below one ulp, so the closed-form
builder trims those saturated tail samples; for the catalog curves the
discarded Minkowski length is below 1e-7.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridTooCoarse, NotSpaceLike, QuadratureFailed

# Slopes closer to light-like than this are rejected by the frame ops.
SLOPE_TOL = 1e-8

CSV_HEADER = "s,x,y,xi,eta,theta,k,tau,nu"


@dataclass
class Curve:
    """Arc-length-ordered samples of a space-like curve (always open)."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    k: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    events: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.s)

    @property
    def xi(self) -> np.ndarray:
        return self.x + self.y

    @property
    def eta(self) -> np.ndarray:
        return self.x - self.y

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


# ---------------------------------------------------------------------------
# finite differences (second order; one-sided at the ends)


def fd_first(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.gradient(f, x, edge_order=2)


def fd_second(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    n = len(x)
    out = np.empty(n)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    out[1:-1] = 2.0 * (h1 * f[2:] - (h1 + h2) * f[1:-1] + h2 * f[:-2]) / (
        h1 * h2 * (h1 + h2)
    )
    # Ends: second derivative of the cubic through the first/last 4 nodes
    # (np.polyfit returns the highest-degree coefficient first).
    for idx, sl in ((0, slice(0, 4)), (n - 1, slice(n - 4, n))):
        c = np.polyfit(x[sl] - x[idx], f[sl], 3)
        out[idx] = 2.0 * c[1]
    return out


def _check_grid(nodes: np.ndarray, values: np.ndarray, names: tuple):
    for name, arr in zip(names, (nodes, values)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"curve {name}s must be finite")
    if len(nodes) < 5:
        raise GridTooCoarse(f"need at least 5 nodes, got {len(nodes)}")
    if not np.all(np.diff(nodes) > 0):
        raise NotSpaceLike("grid must be strictly increasing")


# ---------------------------------------------------------------------------
# frame construction


def _support_from_frame(x, y, theta):
    ch, sh = np.cosh(theta), np.sinh(theta)
    tau = x * ch - y * sh
    nu = x * sh - y * ch
    return tau, nu


def _cumulative(cells):
    """Integrals from the first node to each node, from the integrals over
    the cells between nodes (on the last axis)."""
    return np.cumsum(np.insert(cells, 0, 0.0, axis=-1), axis=-1)


def _rebase(s: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Shift arc length so the sample nearest anchor=0 sits at s=0."""
    return s - s[int(np.argmin(np.abs(anchor)))]


class _GraphForm(NamedTuple):
    """One graph form of a space-like curve: values over strictly
    increasing nodes, with the slope v = d(value)/d(node)."""

    names: tuple          # (node, value)
    interval: Callable    # v -> (ds/dnode)^2
    theta: Callable       # v -> the tangent angle
    k_factor: float       # k = k_factor v' / interval^{3/2}
    spacelike: Callable   # (v, tol) -> where v keeps the margin tol
    to_xy: Callable       # (nodes, values) -> (x, y)
    view: Callable        # Curve -> (nodes, values)
    refusal: Callable     # v -> why a frame refuses it
    degenerate: str       # why a flow grid refuses it

    def curvature(self, v, vp):
        return self.k_factor * vp / self.interval(v) ** 1.5


# The two graph forms of the paper, keyed by their FlowKind values: y(x)
# with |y'| < 1, and xi(eta) with xi' > 0 in the diagonal basis, where
# T = (sqrt(xi'), 1/sqrt(xi')).  The graph interval is factored, so
# 1 - y'^2 keeps its digits as |y'| nears 1.
_GRAPH_FORMS = {
    "graph_y": _GraphForm(
        ("x", "y"), lambda v: (1.0 - v) * (1.0 + v), np.arctanh, 1.0,
        lambda v, tol: np.abs(v) < 1.0 - tol,
        lambda x, y: (x.copy(), y.copy()), lambda c: (c.x, c.y),
        lambda v: f"|y'| reaches {np.max(np.abs(v)):.17g}; curve is not "
                  "uniformly space-like",
        "|y_x| reached the light-like bound"),
    "lightcone": _GraphForm(
        ("eta", "xi"), lambda v: v, lambda v: 0.5 * np.log(v), 0.5,
        lambda v, tol: v > tol,
        lambda eta, xi: ((xi + eta) / 2.0, (xi - eta) / 2.0),
        lambda c: (c.eta, c.xi),
        lambda v: f"xi' reaches {np.min(v):.17g}; curve is not space-like",
        "xi_eta reached the degenerate bound"),
}


def _curve(form: _GraphForm, nodes, values, v, k, s=None) -> Curve:
    """The Curve of a graph form from its slope v and curvature k; s
    defaults to the trapezoidal arc length.  Arc length is rebased to the
    node nearest 0."""
    theta = form.theta(v)
    if s is None:  # by the trapezoidal rule
        ds = np.sqrt(form.interval(v))
        s = _cumulative(0.5 * (ds[1:] + ds[:-1]) * np.diff(nodes))
    x, y = form.to_xy(nodes, values)
    tau, nu = _support_from_frame(x, y, theta)
    return Curve(_rebase(s, nodes), x, y, theta, k, tau, nu)


def _frame(form: _GraphForm, nodes, values, slope_tol: float) -> Curve:
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_grid(nodes, values, form.names)
    v = fd_first(nodes, values)
    if not np.all(form.spacelike(v, slope_tol)):
        raise NotSpaceLike(form.refusal(v))
    return _curve(form, nodes, values, v,
                  form.curvature(v, fd_second(nodes, values)))


def frame_from_graph(xs, ys, slope_tol: float = SLOPE_TOL) -> Curve:
    """Frame a graph y(x) sampled on a strictly increasing grid.

    Derivatives are centered second-order differences (one-sided at the
    ends), theta = artanh(y'), k = y'' / (1 - y'^2)^{3/2}, and s is the
    trapezoidal integral of sqrt(1 - y'^2) rebased to the node nearest
    x = 0.

    Raises ValueError on non-finite input, and NotSpaceLike when |y'|
    reaches 1 - slope_tol anywhere; pass slope_tol=0.0 to accept
    everything strictly below the light cone.
    """
    return _frame(_GRAPH_FORMS["graph_y"], xs, ys, slope_tol)


def frame_from_lightcone(etas, xis, slope_tol: float = SLOPE_TOL) -> Curve:
    """Frame a diagonal-basis graph xi(eta) with xi' > slope_tol.

    theta = log(xi')/2, k = xi'' / (2 xi'^{3/2}) and ds = sqrt(xi') deta.
    """
    return _frame(_GRAPH_FORMS["lightcone"], etas, xis, slope_tol)


# ---------------------------------------------------------------------------
# closed-form builder (exact derivatives, Simpson arc length, tail trim)


def _simpson_arclength(nodes, integrand: Callable) -> np.ndarray:
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    fa, fm, fb = integrand(nodes[:-1]), integrand(mid), integrand(nodes[1:])
    return _cumulative(np.diff(nodes) / 6.0 * (fa + 4.0 * fm + fb))


DE_LEVELS = 8  # levels of the double-exponential rule, to the step 2^-10


@functools.cache
def _de_nodes(finite: bool, level: int) -> tuple:
    """The abscissae, and weights times the step, that level ``level`` of
    the double-exponential rule adds: every multiple of the step 1/8 at
    level 0, then the odd multiples of the halved step.  Tanh-sinh
    (``finite``) gives fractions of an interval, measured from its lower
    end so that they stay exact near it; the nodes stop where the weight
    underflows.  Sinh-sinh gives points of the real line; the nodes stop
    where the weight would overflow.
    """
    h = 0.5 ** (3 + level)
    u = np.arange(-7.0, 7.0 + h / 2, h)[1::2 if level else 1]
    z = 0.5 * np.pi * np.sinh(u)
    if not finite:
        keep = np.abs(z) < 700.0
        u, z = u[keep], z[keep]
        return np.sinh(z), 0.5 * np.pi * h * np.cosh(u) * np.cosh(z)
    e = np.exp(-2.0 * np.abs(z))  # so that 1 - tanh|z| = 2e / (1 + e)
    w = np.pi * h * np.cosh(u) * e / (1.0 + e) ** 2
    keep = w >= np.finfo(float).tiny
    return (np.where(z < 0.0, e, 1.0) / (1.0 + e))[keep], w[keep]


def _double_exponential(f, bounds, where: Callable[[int], str]):
    """The integral of f over the real line (``bounds`` None), or over
    each interval of ``bounds`` = (lo, hi), floats or arrays, where f may
    be singular at lo.  f takes one row of abscissae per interval and may
    return a leading axis of integrands sharing the evaluation, which the
    result keeps.

    Takahasi and Mori's double-exponential rule (Publ. RIMS 9, 1974),
    with the level doubling of Bailey, Jeyabalan and Li (Experimental
    Math. 14, 2005): each level halves the step.  The error roughly
    squares from one level to the next, so once two levels agree to
    1e-10 on every interval the later one is good to rounding.
    """
    lo, hi = (0.0, 1.0) if bounds is None else bounds
    lo, h = np.asarray(lo)[..., None], np.subtract(hi, lo)[..., None]
    total = 0.0
    for level in range(DE_LEVELS):
        x, w = _de_nodes(bounds is not None, level)
        # One dot product per interval, as w @ f(x) sums it.
        part = (f(lo + h * x)[..., None, :] @ (h * w)[..., None])[..., 0, 0]
        previous, total = total, 0.5 * total + part
        settled = abs(total - previous) <= 1e-10 * abs(total)
        if level and settled.all():
            return total
    settled = settled.reshape(-1, h.size).all(axis=0)
    raise QuadratureFailed(f"{where(int(np.argmin(settled)))} did not settle "
                           f"by step 2^-{DE_LEVELS + 2} of the "
                           "double-exponential rule")


def curve_from_graph_fn(f: Callable, df: Callable, d2f: Callable,
                        x_range=(-20.0, 20.0), n: int = 20001) -> Curve:
    """Build a Curve from y = f(x) with exact first/second derivatives.

    Tail samples whose exact slope saturates to +-1 in float64 are
    trimmed; everything kept gets machine-accurate theta, k and a
    Simpson-rule arc length.
    """
    form = _GRAPH_FORMS["graph_y"]
    nodes = np.linspace(x_range[0], x_range[1], n)
    v = df(nodes)
    keep = np.flatnonzero(form.spacelike(v, 0.0))
    if len(keep) == 0:
        raise NotSpaceLike("no space-like samples in the requested window")
    if keep[-1] - keep[0] + 1 != len(keep):
        raise NotSpaceLike("space-like condition fails in the interior")
    nodes, v = nodes[keep[0]:keep[-1] + 1], v[keep[0]:keep[-1] + 1]
    s = _simpson_arclength(nodes, lambda u: np.sqrt(form.interval(df(u))))
    return _curve(form, nodes, f(nodes), v, form.curvature(v, d2f(nodes)), s)


# ---------------------------------------------------------------------------
# derived quantities


def reconstruct_positions(tau, nu, theta) -> np.ndarray:
    """Positions X = (tau - h*nu) e^{h*theta}; shape (n, 2).  The support
    map (x, y) -> (tau, nu) is its own inverse."""
    return np.column_stack(_support_from_frame(tau, nu, theta))


# ---------------------------------------------------------------------------
# CSV interchange


def _atomic_write(path: str, data: str):
    """Write ``path`` whole or not at all, making its directory."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".minkflow-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, header: str, cols):
    """``header``, then one ``%.17g`` row per index of the ``cols`` arrays."""
    row = ",".join(["%.17g"] * len(cols))
    rows = [row % vals for vals in zip(*[c.tolist() for c in cols])]
    _atomic_write(path, "\n".join([header, *rows]) + "\n")


def write_curve_csv(curve: Curve, path):
    _write_csv(path, CSV_HEADER,
               [getattr(curve, name) for name in CSV_HEADER.split(",")])


def read_curve_csv(path) -> Curve:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    if data.shape[1] != 9:
        raise ValueError(f"expected 9 columns ({CSV_HEADER}), got {data.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: data row {bad[0] + 1} has a non-finite "
                         "value (the first such row)")
    s, x, y = data[:, 0], data[:, 1], data[:, 2]
    theta, k, tau, nu = data[:, 5], data[:, 6], data[:, 7], data[:, 8]
    return Curve(s, x, y, theta, k, tau, nu)
