"""Discrete space-like curves with frame data.

A curve is stored as arc-length-ordered samples carrying position, the
hyperbolic tangent angle theta (unit tangent T = e^{h*theta}, normal
N = h*T), signed curvature k and the support functions tau = <X,T>,
nu = <X,N>.  Two graph parametrizations are supported: y as a function
of x with |y'| < 1, and xi as an increasing function of eta in the
diagonal basis.

Infinite curves are represented by truncation.  Within float64 a slope
saturates at +-1 once 1 - |y'| drops below one ulp, so the closed-form
builders trim those saturated tail samples; for the catalog curves the
discarded Minkowski length is below 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridTooCoarse, NotSpaceLike
from .hyperbolic import CausalClass, HyperbolicNumber

# Slopes closer to light-like than this are rejected by the frame ops.
SLOPE_TOL = 1e-8

CSV_HEADER = "s,x,y,xi,eta,theta,k,tau,nu"


@dataclass(frozen=True)
class CurveSample:
    position: HyperbolicNumber
    s: float
    theta: float
    k: float
    tau: float
    nu: float


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
    causal: CausalClass = CausalClass.SPACE_LIKE
    closed: bool = False
    events: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.s)

    def __getitem__(self, i) -> CurveSample:
        return CurveSample(
            HyperbolicNumber(float(self.x[i]), float(self.y[i])),
            float(self.s[i]), float(self.theta[i]), float(self.k[i]),
            float(self.tau[i]), float(self.nu[i]),
        )

    @property
    def xi(self) -> np.ndarray:
        return self.x + self.y

    @property
    def eta(self) -> np.ndarray:
        return self.x - self.y

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def chord_intervals(self) -> np.ndarray:
        """Squared Minkowski interval of each chord, factored form."""
        dx = np.diff(self.x)
        dy = np.diff(self.y)
        return (dx - dy) * (dx + dy)


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


def _check_grid(nodes: np.ndarray):
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


def _cumulative_trapezoid(values, nodes):
    out = np.zeros(len(nodes))
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes))
    return out


def _rebase(s: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Shift arc length so the sample nearest anchor=0 sits at s=0."""
    return s - s[int(np.argmin(np.abs(anchor)))]


def frame_from_graph(xs, ys, resample: bool = False,
                     slope_tol: float = SLOPE_TOL) -> Curve:
    """Frame a graph y(x) sampled on a strictly increasing grid.

    Derivatives are centered second-order differences (one-sided at the
    ends), theta = artanh(y'), k = y'' / (1 - y'^2)^{3/2}, and s is the
    trapezoidal integral of sqrt(1 - y'^2) rebased to the node nearest
    x = 0.  Set ``resample`` to interpolate onto a uniform grid first.

    Raises NotSpaceLike when |y'| reaches 1 - slope_tol anywhere; pass
    slope_tol=0.0 to accept everything strictly below the light cone.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _check_grid(xs)
    if resample:
        from scipy.interpolate import CubicSpline
        u = np.linspace(xs[0], xs[-1], len(xs))
        ys = CubicSpline(xs, ys)(u)
        xs = u
    yp = fd_first(xs, ys)
    if np.max(np.abs(yp)) >= 1.0 - slope_tol:
        raise NotSpaceLike(
            f"|y'| reaches {np.max(np.abs(yp)):.17g}; curve is not "
            "uniformly space-like"
        )
    ypp = fd_second(xs, ys)
    return _graph_curve(xs, ys, yp, ypp)


def _graph_curve(xs, ys, yp, ypp, s=None) -> Curve:
    one_minus = (1.0 - yp) * (1.0 + yp)
    theta = np.arctanh(yp)
    k = ypp / one_minus ** 1.5
    if s is None:
        s = _cumulative_trapezoid(np.sqrt(one_minus), xs)
    s = _rebase(s, xs)
    tau, nu = _support_from_frame(xs, ys, theta)
    return Curve(s, xs.copy(), ys.copy(), theta, k, tau, nu)


def frame_from_lightcone(etas, xis, slope_tol: float = SLOPE_TOL) -> Curve:
    """Frame a diagonal-basis graph xi(eta) with xi' > 0.

    T = (sqrt(xi'), 1/sqrt(xi')) in the diagonal view, so
    theta = log(xi')/2; k = xi'' / (2 xi'^{3/2}) and ds = sqrt(xi') deta.
    """
    etas = np.asarray(etas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    _check_grid(etas)
    xip = fd_first(etas, xis)
    if np.min(xip) <= slope_tol:
        raise NotSpaceLike(
            f"xi' reaches {np.min(xip):.17g}; curve is not space-like"
        )
    xipp = fd_second(etas, xis)
    return _lightcone_curve(etas, xis, xip, xipp)


def _lightcone_curve(etas, xis, xip, xipp, s=None) -> Curve:
    theta = 0.5 * np.log(xip)
    k = xipp / (2.0 * xip ** 1.5)
    if s is None:
        s = _cumulative_trapezoid(np.sqrt(xip), etas)
    s = _rebase(s, etas)
    x = (xis + etas) / 2.0
    y = (xis - etas) / 2.0
    tau, nu = _support_from_frame(x, y, theta)
    return Curve(s, x, y, theta, k, tau, nu)


# ---------------------------------------------------------------------------
# closed-form builders (exact derivatives, Simpson arc length, tail trim)


def _simpson_arclength(nodes, integrand: Callable) -> np.ndarray:
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    fa, fm, fb = integrand(nodes[:-1]), integrand(mid), integrand(nodes[1:])
    cell = np.diff(nodes) / 6.0 * (fa + 4.0 * fm + fb)
    s = np.zeros(len(nodes))
    s[1:] = np.cumsum(cell)
    return s


def _trim_mask(mask: np.ndarray) -> slice:
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        raise NotSpaceLike("no space-like samples in the requested window")
    lo, hi = idx[0], idx[-1]
    if not mask[lo:hi + 1].all():
        raise NotSpaceLike("space-like condition fails in the interior")
    return slice(lo, hi + 1)


def curve_from_graph_fn(f: Callable, df: Callable, d2f: Callable,
                        x_range=(-20.0, 20.0), n: int = 20001) -> Curve:
    """Build a Curve from y = f(x) with exact first/second derivatives.

    Tail samples whose exact slope saturates to +-1 in float64 are
    trimmed; everything kept gets machine-accurate theta, k and a
    Simpson-rule arc length.
    """
    xs = np.linspace(x_range[0], x_range[1], n)
    sl = _trim_mask(np.abs(df(xs)) < 1.0)
    xs = xs[sl]
    ys, yp, ypp = f(xs), df(xs), d2f(xs)
    s = _simpson_arclength(xs, lambda u: np.sqrt((1.0 - df(u)) * (1.0 + df(u))))
    return _graph_curve(xs, ys, yp, ypp, s=s)


def curve_from_lightcone_fn(g: Callable, dg: Callable, d2g: Callable,
                            eta_range=(-20.0, 20.0), n: int = 20001) -> Curve:
    """Diagonal-basis analogue of curve_from_graph_fn (needs g' > 0)."""
    etas = np.linspace(eta_range[0], eta_range[1], n)
    sl = _trim_mask(dg(etas) > 0.0)
    etas = etas[sl]
    xis, xip, xipp = g(etas), dg(etas), d2g(etas)
    s = _simpson_arclength(etas, lambda u: np.sqrt(dg(u)))
    return _lightcone_curve(etas, xis, xip, xipp, s=s)


# ---------------------------------------------------------------------------
# derived quantities


def minkowski_length(curve: Curve) -> float:
    """Total Minkowski arc length s_last - s_first."""
    return float(curve.s[-1] - curve.s[0])


def support_functions(curve: Curve) -> np.ndarray:
    """(tau, nu) per sample, tau = <X,T>, nu = <X,N>; shape (n, 2)."""
    tau, nu = _support_from_frame(curve.x, curve.y, curve.theta)
    return np.column_stack([tau, nu])


def reconstruct_positions(tau, nu, theta) -> np.ndarray:
    """Positions X = (tau - h*nu) e^{h*theta}; shape (n, 2).  The support
    map (x, y) -> (tau, nu) is its own inverse."""
    return np.column_stack(_support_from_frame(tau, nu, theta))


def reflect_swap(curve: Curve) -> np.ndarray:
    """Positions reflected across y = x (maps space-like to time-like)."""
    return np.column_stack([curve.y, curve.x])


def check_consistency(curve: Curve) -> dict:
    """Discrete invariants of a curve: chord causal type and arc length.

    Returns the minimum squared chord interval (positive for a space-like
    curve) and the worst mismatch between s-increments and chord moduli
    (first-order agreement: O(ds^3) per step on smooth data).
    """
    q = curve.chord_intervals()
    ds = np.diff(curve.s)
    chord = np.sqrt(np.abs(q))
    return {
        "min_chord_interval": float(np.min(q)),
        "max_arc_mismatch": float(np.max(np.abs(ds - chord))),
    }


# ---------------------------------------------------------------------------
# CSV interchange


def write_curve_csv(curve: Curve, path):
    rows = [CSV_HEADER]
    xi, eta = curve.xi, curve.eta
    for i in range(len(curve)):
        rows.append(",".join(
            f"{v:.17g}" for v in (
                curve.s[i], curve.x[i], curve.y[i], xi[i], eta[i],
                curve.theta[i], curve.k[i], curve.tau[i], curve.nu[i],
            )
        ))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def read_curve_csv(path) -> Curve:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    if data.shape[1] != 9:
        raise ValueError(f"expected 9 columns ({CSV_HEADER}), got {data.shape[1]}")
    s, x, y = data[:, 0], data[:, 1], data[:, 2]
    theta, k, tau, nu = data[:, 5], data[:, 6], data[:, 7], data[:, 8]
    return Curve(s, x, y, theta, k, tau, nu)
