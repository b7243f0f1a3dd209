"""Curves left pointwise-invariant by some self-similar motion.

In the split-signature plane these are straight lines, hyperbolas with
light-like asymptotes, the power-law spirals

    X = (s^{1+alpha}/(1+alpha), s^{1-alpha}/(1-alpha))   (diagonal view)

and the exponential diagonal graph xi = e^{2 eta}.  Each kind is defined
once, in one table: its curve, its parameters and the motion that fixes
it.  check_invariance maps a sampled curve by a motion and measures the
worst Euclidean distance back to the original point set; Euclidean
distance is used deliberately, since the indefinite metric vanishes along
light-like displacements and would mask drift.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateSpiral, InvalidParams
from .geometry import _GRAPH_FORMS, Curve, _rebase, _support_from_frame
from .hyperbolic import HyperbolicNumber
from .selfsim import MotionLaw


class InvariantKind(enum.Enum):
    LINE = "line"
    HYPERBOLA = "hyperbola"              # light-like asymptotes
    MINK_LOG_SPIRAL = "mink-log-spiral"
    EXP_DIAGONAL = "exp-diagonal"        # xi = e^{2 eta}


@dataclass(frozen=True)
class InvariantCurveSpec:
    kind: InvariantKind
    params: dict = field(default_factory=dict)


_LIGHTCONE = _GRAPH_FORMS["lightcone"]


def _line(u, direction):
    dx, dy = direction
    norm2 = (dx - dy) * (dx + dy)
    if norm2 <= 0:
        raise InvalidParams("line direction must be space-like")
    norm = math.sqrt(norm2)
    theta = math.atanh(dy / dx)  # dx != 0, since dx^2 > dy^2
    return (u, u * dx / norm, u * dy / norm, np.full(len(u), theta),
            np.zeros(len(u)))


def _hyperbola(u, radius):
    r = radius
    return (u, r * np.sinh(u / r), r * np.cosh(u / r), u / r,
            np.full(len(u), 1.0 / r))


def _spiral(u, alpha):
    if abs(alpha) == 1.0:
        raise DegenerateSpiral("spiral exponent alpha = +-1 is excluded")
    if np.any(u <= 0.0):
        raise InvalidParams("spiral parameter span must lie in (0, inf)")
    xi = u ** (1.0 + alpha) / (1.0 + alpha)
    eta = u ** (1.0 - alpha) / (1.0 - alpha)
    return (u, *_LIGHTCONE.to_xy(eta, xi), alpha * np.log(u), alpha / u)


def _exp_diagonal(u):
    eta = u
    xi = np.exp(2.0 * eta)
    # xi' = 2 xi, so k = xi''/(2 xi'^{3/2}) = e^{-eta}/sqrt(2).
    k = np.exp(-eta) / math.sqrt(2.0)
    s = math.sqrt(2.0) * np.exp(eta)
    return (_rebase(s, eta), *_LIGHTCONE.to_xy(eta, xi),
            _LIGHTCONE.theta(2.0 * xi), k)


def _at_origin(t):
    return HyperbolicNumber(0.0, 0.0)


@dataclass(frozen=True)
class _Kind:
    """One invariant-curve kind: its curve, its parameters and its motion."""

    build: Callable     # (u, **params) -> (s, x, y, theta, k) at u
    params: dict        # parameter -> default; None marks a required one
    motion: Callable    # (**params) -> the MotionLaw fixing the curve


_KINDS = {
    InvariantKind.LINE: _Kind(
        _line, {"direction": (1.0, 0.0)},
        lambda **_: MotionLaw(lambda t: 0.0, lambda t: 1.0 + t, _at_origin,
                              (-1.0, math.inf))),
    InvariantKind.HYPERBOLA: _Kind(
        _hyperbola, {"radius": 1.0},
        lambda **_: MotionLaw(lambda t: t, lambda t: 1.0, _at_origin,
                              (-math.inf, math.inf))),
    InvariantKind.MINK_LOG_SPIRAL: _Kind(
        _spiral, {"alpha": None},
        lambda alpha: MotionLaw(lambda t: alpha * math.log(1.0 + t),
                                lambda t: 1.0 + t, _at_origin,
                                (-1.0, math.inf))),
    InvariantKind.EXP_DIAGONAL: _Kind(
        _exp_diagonal, {},
        lambda: MotionLaw(lambda t: t, lambda t: math.exp(t),
                          lambda t: HyperbolicNumber.from_diagonal(0.0, t),
                          (-math.inf, math.inf))),
}


def _real(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


# What a value of each parameter must be: in words, and as a test.
_VALUES = {
    "direction": ("two finite numbers",
                  lambda v: isinstance(v, (list, tuple, np.ndarray))
                  and len(v) == 2 and all(map(_real, v))),
    "radius": ("a non-zero finite number", lambda v: _real(v) and v != 0),
    "alpha": ("a finite number", _real),
}


def _params(spec: InvariantCurveSpec) -> dict:
    """The spec's parameters with defaults filled in; InvalidParams names
    an unknown, missing or unsuitable one."""
    name, known = spec.kind.value, _KINDS[spec.kind].params
    for key in spec.params:
        if key not in known:
            raise InvalidParams(f"{name} takes no parameter {key!r}; it "
                                f"takes {sorted(known) or 'none'}")
    params = {**known, **spec.params}
    for key, value in params.items():
        if value is None:
            raise InvalidParams(f"{name} needs the parameter {key!r}")
        words, ok = _VALUES[key]
        if not ok(value):
            raise InvalidParams(f"{name} parameter {key!r} must be {words}, "
                                f"not {value!r}")
    return params


def make_invariant_curve(spec: InvariantCurveSpec, s_span: tuple,
                         n: int = 20001) -> Curve:
    """Sample an invariant curve on the parameter span ``s_span``.

    Spirals require s_span inside (0, inf) and |alpha| != 1.  The
    exponential diagonal is parametrized by eta.
    """
    params = _params(spec)
    u = np.linspace(s_span[0], s_span[1], n)
    s, x, y, theta, k = _KINDS[spec.kind].build(u, **params)
    x, y = x + 0.0, y + 0.0  # a zero coordinate is 0.0, never -0.0
    return Curve(s, x, y, theta, k, *_support_from_frame(x, y, theta))


def invariant_motion(spec: InvariantCurveSpec) -> MotionLaw:
    """The self-similar motion that fixes the curve of ``spec``."""
    return _KINDS[spec.kind].motion(**_params(spec))


# ---------------------------------------------------------------------------
# point-set deviation


def _quadratic_project(points: np.ndarray, idx: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
    """Distance from each target to the local quadratic through the three
    samples around its nearest index."""
    pm, p0, pp = points[idx - 1], points[idx], points[idx + 1]
    A = 0.5 * (pp + pm) - p0
    B = 0.5 * (pp - pm)
    C = p0 - targets
    # Newton on d/du |A u^2 + B u + C|^2 starting from the linear estimate.
    denom = np.sum(B * B, axis=1)
    denom[denom == 0.0] = 1.0
    u = -np.sum(C * B, axis=1) / denom
    for _ in range(4):
        r = A * u[:, None] ** 2 + B * u[:, None] + C
        dr = 2.0 * A * u[:, None] + B
        g = np.sum(r * dr, axis=1)
        hgs = np.sum(dr * dr, axis=1) + 2.0 * np.sum(r * A, axis=1)
        hgs[np.abs(hgs) < 1e-300] = 1.0
        u = np.clip(u - g / hgs, -1.5, 1.5)
    r = A * u[:, None] ** 2 + B * u[:, None] + C
    return np.sqrt(np.sum(r * r, axis=1))


def _light_cone_order(base, probes, sign: str):
    """x + y (``sign`` "+") or x - y of the samples and the probes, negated
    if it falls along the curve; InvalidParams names the first sample
    that breaks its strict order."""
    s = 1.0 if sign == "+" else -1.0
    key, at = base[:, 0] + s * base[:, 1], probes[:, 0] + s * probes[:, 1]
    if key[-1] < key[0]:
        key, at = -key, -at
    bad = np.flatnonzero(~(np.diff(key) > 0.0))
    if bad.size:
        raise InvalidParams(f"sample {bad[0] + 1} breaks the strict order of "
                            f"the curve in x {sign} y; the curve is not "
                            "space-like there")
    return key, at


def _dist2(base, probes, idx):
    """Squared distance from each probe to the samples of its row of idx."""
    return np.sum((base[idx] - probes[:, None, :]) ** 2, axis=-1)


def _nearest(base: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Index of the sample of ``base`` nearest to each probe; a tie goes
    to the lowest index.

    Along a space-like curve both light-cone coordinates x + y and x - y
    are strictly monotone, so the samples are sorted by each.  Bisection
    on x + y brackets each probe p; let d be its distance to the nearer
    bracketing sample.  The nearest sample q has |q - p| <= d, so each
    coordinate of q lies within sqrt(2) d of p's, and bisection on both
    bounds the samples to compare.  A narrow range is compared for all
    probes at once, a wide one (a probe far off the curve) in a loop.
    """
    n = len(base)
    orders = [_light_cone_order(base, probes, sign) for sign in "+-"]
    key, at = orders[0]
    j = np.clip(np.searchsorted(key, at), 1, n - 1)
    r = math.sqrt(2.0) * np.sqrt(np.min(
        _dist2(base, probes, np.stack([j - 1, j], axis=1)), axis=1))
    # One sample more on each side absorbs the rounding of the keys.
    lo = np.maximum(np.maximum.reduce(
        [np.searchsorted(k, a - r) for k, a in orders]) - 1, 0)
    hi = np.minimum(np.minimum.reduce(
        [np.searchsorted(k, a + r, side="right") for k, a in orders]) + 1, n)
    # Past an end in both coordinates, every other sample is farther in
    # both, so the end is nearest: a mapped point off the sampled span.
    (k1, a1), (k2, a2) = orders
    hi[(a1 <= k1[0]) & (a2 <= k2[0])] = 1
    lo[(a1 >= k1[-1]) & (a2 >= k2[-1])] = n - 1
    width = 4  # a probe on a finely sampled curve ranges over 2 to 4
    idx = np.minimum(lo[:, None] + np.arange(width), hi[:, None] - 1)
    nearest = idx[np.arange(len(probes)),
                  np.argmin(_dist2(base, probes, idx), axis=1)]
    for i in np.flatnonzero(hi - lo > width):
        gap = np.sum((base[lo[i]:hi[i]] - probes[i]) ** 2, axis=1)
        nearest[i] = lo[i] + np.argmin(gap)
    return nearest


def point_set_deviation(base_points: np.ndarray,
                        probe_points: np.ndarray) -> float:
    """Worst Euclidean distance from probe points to the sampled curve.

    ``base_points`` must be a space-like curve, sampled in order:
    InvalidParams names the first sample that breaks the strict order of
    x + y or x - y.  Probes whose nearest sample is at the very ends are
    discarded (no bracketing neighbours for the local quadratic fit).
    """
    base = np.asarray(base_points, float)
    probes = np.asarray(probe_points, float)
    idx = _nearest(base, probes)
    keep = (idx >= 1) & (idx <= len(base) - 2)
    if not np.any(keep):
        raise InvalidParams("all mapped points fell off the sampled span")
    return float(np.max(_quadratic_project(base, idx[keep], probes[keep])))


def check_invariance(curve: Curve, motion: MotionLaw, t_probe,
                     probe_fraction=(0.15, 0.85)) -> float:
    """Max deviation of the motion-mapped curve from the original.

    Probe points are drawn from the middle of the sample range
    (``probe_fraction``) so their images stay on the sampled span; the
    caller should sample the curve wider than the probed window.
    InvalidParams names a probe time outside the motion's open time
    domain, or one whose image of the curve is not finite in float64.
    """
    lo, hi = motion.t_domain
    for t in t_probe:
        if not lo < t < hi:
            raise InvalidParams(f"probe time t={t:g} is outside the motion's "
                                f"time domain ({lo:g}, {hi:g})")
    pts = curve.points
    n = len(pts)
    lo, hi = int(probe_fraction[0] * n), int(probe_fraction[1] * n)
    sub = pts[lo:hi]
    worst = 0.0
    for t in t_probe:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                mapped = motion.apply(sub, t)
        except OverflowError:  # from math.exp or math.cosh of the motion
            mapped = None
        if mapped is None or not np.all(np.isfinite(mapped)):
            raise InvalidParams(f"probe time t={t:g} (--t-probe) maps the "
                                "curve beyond the float64 range")
        worst = max(worst, point_set_deviation(pts, mapped))
    return worst
