"""Arithmetic of hyperbolic (split-complex) numbers.

A point (x, y) of the split-signature plane is identified with the number
x + h*y where h*h = +1.  Multiplication is componentwise in the diagonal
basis xi = x + y, eta = x - y, which makes the algebra isomorphic to
R (+) R.  The squared modulus |x^2 - y^2| recovers the plane's indefinite
metric.  This module holds the ring operations, conjugation, modulus and
inverse, as ``selfsim.motion_law`` uses them for C / (b + h a); the boost
e^{h*theta} of sampled curves is applied in ``selfsim.MotionLaw.apply``.

Values are immutable and all functions are pure; everything here is safe
to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LightLikeDivision

# Relative half-width of the numerically light-like band.
LIGHT_TOL = 1e-12


@dataclass(frozen=True)
class HyperbolicNumber:
    """Split-complex number x + h*y with h^2 = +1.

    The standard-basis pair (x, y) is stored; the diagonal coordinates
    (xi, eta) = (x+y, x-y) are derived on demand so the two views can
    never drift apart.
    """

    x: float
    y: float = 0.0

    # -- basis views ----------------------------------------------------

    @property
    def xi(self) -> float:
        return self.x + self.y

    @property
    def eta(self) -> float:
        return self.x - self.y

    @staticmethod
    def from_diagonal(xi: float, eta: float) -> "HyperbolicNumber":
        return HyperbolicNumber((xi + eta) / 2.0, (xi - eta) / 2.0)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return HyperbolicNumber(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return HyperbolicNumber(self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return HyperbolicNumber(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return HyperbolicNumber(other * self.x, other * self.y)
        other = _coerce(other)
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return HyperbolicNumber(self.x / other, self.y / other)
        return mul(self, inverse(_coerce(other)))

    # -- metric quantities ----------------------------------------------

    def conj(self) -> "HyperbolicNumber":
        return HyperbolicNumber(self.x, -self.y)

    def squared_interval(self) -> float:
        # Factored form (x-y)(x+y) avoids cancellation near the light cone.
        return self.eta * self.xi

    def modulus(self) -> float:
        return math.sqrt(abs(self.squared_interval()))


def _coerce(value) -> HyperbolicNumber:
    if isinstance(value, HyperbolicNumber):
        return value
    if isinstance(value, (int, float)):
        return HyperbolicNumber(float(value), 0.0)
    raise TypeError(f"cannot interpret {value!r} as a hyperbolic number")


def mul(z1: HyperbolicNumber, z2: HyperbolicNumber) -> HyperbolicNumber:
    """Product (x1*x2 + y1*y2) + h*(x1*y2 + x2*y1).

    Componentwise in the diagonal basis: (xi1*xi2, eta1*eta2).  Plain
    double keeps modulus multiplicativity to 1.6e-14 relative on the
    acceptance draws (boosts within +-1.5), as ``squared_interval`` takes
    the interval in factored form.
    """
    return HyperbolicNumber(float(z1.x * z2.x + z1.y * z2.y),
                            float(z1.x * z2.y + z2.x * z1.y))


def modulus(z: HyperbolicNumber) -> float:
    return z.modulus()


def inverse(z: HyperbolicNumber) -> HyperbolicNumber:
    """Multiplicative inverse conj(z) / (x^2 - y^2).

    Raises LightLikeDivision for zero divisors (points on the light cone).
    """
    q = z.squared_interval()
    if abs(q) <= LIGHT_TOL * max(1.0, z.x * z.x + z.y * z.y):
        raise LightLikeDivision(f"{z} is light-like and has no inverse")
    return HyperbolicNumber(z.x / q, -z.y / q)
