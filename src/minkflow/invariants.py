"""Curves left pointwise-invariant by some self-similar motion.

In the split-signature plane these are straight lines, hyperbolas with
light-like asymptotes, the power-law spirals

    X = (s^{1+alpha}/(1+alpha), s^{1-alpha}/(1-alpha))   (diagonal view)

and the exponential diagonal graph xi = e^{2 eta}.  The Euclidean
analogues (lines, circles, logarithmic spirals) are provided for the
support-function identities.  check_invariance maps a sampled curve by a
motion and measures the worst Euclidean distance back to the original
point set; Euclidean distance is used deliberately, since the indefinite
metric vanishes along light-like displacements and would mask drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateSpiral, InvalidParams
from .geometry import Curve, _rebase, _support_from_frame
from .selfsim import MotionLaw


class InvariantKind(enum.Enum):
    LINE = "line"
    CIRCLE = "circle"                    # Euclidean
    HYPERBOLA = "hyperbola"              # Minkowski, light-like asymptotes
    LOG_SPIRAL = "log-spiral"            # Euclidean
    MINK_LOG_SPIRAL = "mink-log-spiral"
    EXP_DIAGONAL = "exp-diagonal"        # xi = e^{2 eta}


@dataclass(frozen=True)
class InvariantCurveSpec:
    kind: InvariantKind
    params: dict = field(default_factory=dict)
    center: tuple = (0.0, 0.0)


@dataclass
class EuclideanCurve:
    """Plane curve with Euclidean frame data (T, N = i T)."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray   # Euclidean tangent angle
    k: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def support_functions(self) -> np.ndarray:
        """(tau, nu) with tau = <X,T>, nu = <X,N>, N the left normal."""
        c, s = np.cos(self.phi), np.sin(self.phi)
        tau = self.x * c + self.y * s
        nu = -self.x * s + self.y * c
        return np.column_stack([tau, nu])


def _mink_curve(s, x, y, theta, k) -> Curve:
    return Curve(s, x, y, theta, k, *_support_from_frame(x, y, theta))


def make_invariant_curve(spec: InvariantCurveSpec, s_span: tuple,
                         n: int = 20001):
    """Sample an invariant curve on the parameter span ``s_span``.

    Spirals require s_span inside (0, inf) and |alpha| != 1.  The
    exponential diagonal is parametrized by eta.  Euclidean kinds return
    a EuclideanCurve.
    """
    kind = spec.kind
    cx, cy = spec.center
    u = np.linspace(s_span[0], s_span[1], n)

    if kind is InvariantKind.LINE:
        dx, dy = spec.params.get("direction", (1.0, 0.0))
        norm2 = (dx - dy) * (dx + dy)
        if norm2 <= 0:
            raise InvalidParams("line direction must be space-like")
        norm = math.sqrt(norm2)
        theta = math.atanh(dy / dx) if dx else 0.0
        x = cx + u * dx / norm
        y = cy + u * dy / norm
        return _mink_curve(u.copy(), x, y, np.full(n, theta), np.zeros(n))

    if kind is InvariantKind.HYPERBOLA:
        r = spec.params.get("radius", 1.0)
        x = cx + r * np.sinh(u / r)
        y = cy + r * np.cosh(u / r)
        return _mink_curve(u.copy(), x, y, u / r, np.full(n, 1.0 / r))

    if kind is InvariantKind.MINK_LOG_SPIRAL:
        alpha = spec.params["alpha"]
        if abs(alpha) == 1.0:
            raise DegenerateSpiral("spiral exponent alpha = +-1 is excluded")
        if s_span[0] <= 0.0:
            raise InvalidParams("spiral parameter span must lie in (0, inf)")
        xi = u ** (1.0 + alpha) / (1.0 + alpha)
        eta = u ** (1.0 - alpha) / (1.0 - alpha)
        x = cx + (xi + eta) / 2.0
        y = cy + (xi - eta) / 2.0
        theta = alpha * np.log(u)
        return _mink_curve(u.copy(), x, y, theta, alpha / u)

    if kind is InvariantKind.EXP_DIAGONAL:
        eta = u
        xi = np.exp(2.0 * eta)
        x = cx + (xi + eta) / 2.0
        y = cy + (xi - eta) / 2.0
        # xi' = 2 e^{2 eta}: theta = log(xi')/2, k = xi''/(2 xi'^{3/2}).
        theta = 0.5 * np.log(2.0 * xi)
        k = np.exp(-eta) / math.sqrt(2.0)
        s = math.sqrt(2.0) * np.exp(eta)
        return _mink_curve(_rebase(s, eta), x, y, theta, k)

    if kind is InvariantKind.CIRCLE:
        r = spec.params.get("radius", 1.0)
        x = cx + r * np.cos(u / r)
        y = cy + r * np.sin(u / r)
        return EuclideanCurve(u.copy(), x, y, u / r + math.pi / 2.0,
                              np.full(n, 1.0 / r))

    if kind is InvariantKind.LOG_SPIRAL:
        alpha = spec.params["alpha"]
        if s_span[0] <= 0.0:
            raise InvalidParams("spiral parameter span must lie in (0, inf)")
        # X = s^{1+i alpha} / (1 + i alpha); X'(s) = e^{i alpha log s},
        # so the parametrization is by arc length with phi = alpha log s.
        z = u * np.exp(1j * alpha * np.log(u)) / (1.0 + 1j * alpha)
        phi = alpha * np.log(u)
        return EuclideanCurve(u.copy(), cx + z.real, cy + z.imag, phi,
                              alpha / u)

    raise InvalidParams(f"unsupported invariant curve kind {kind}")


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


def point_set_deviation(base_points: np.ndarray,
                        probe_points: np.ndarray) -> float:
    """Worst Euclidean distance from probe points to the sampled curve.

    Probes whose nearest sample is at the very ends are discarded (no
    bracketing neighbours for the local quadratic fit).
    """
    base = np.asarray(base_points, float)
    probes = np.asarray(probe_points, float)
    tree = cKDTree(base)
    _, idx = tree.query(probes)
    keep = (idx >= 1) & (idx <= len(base) - 2)
    if not np.any(keep):
        raise InvalidParams("all mapped points fell off the sampled span")
    return float(np.max(_quadratic_project(base, idx[keep], probes[keep])))


def check_invariance(curve, motion: MotionLaw, t_probe,
                     probe_fraction=(0.15, 0.85)) -> float:
    """Max deviation of the motion-mapped curve from the original.

    Probe points are drawn from the middle of the sample range
    (``probe_fraction``) so their images stay on the sampled span; the
    caller should sample the curve wider than the probed window.
    """
    pts = curve.points if hasattr(curve, "points") else np.asarray(curve)
    n = len(pts)
    lo, hi = int(probe_fraction[0] * n), int(probe_fraction[1] * n)
    sub = pts[lo:hi]
    worst = 0.0
    for t in t_probe:
        mapped = motion.apply(sub, t)
        worst = max(worst, point_set_deviation(pts, mapped))
    return worst
