"""Exception types shared across the package.

Every numerical failure mode gets its own class so callers (and the CLI)
can report the originating condition by name.
"""


class MinkflowError(Exception):
    """Base class for all package errors."""


class LightLikeDivision(MinkflowError):
    """Inversion of a zero divisor (a point on the light cone)."""


class NonFiniteCurve(MinkflowError):
    """Curve positions overflow float64."""


class NotSpaceLike(MinkflowError):
    """Curve data violates the space-like slope condition."""


class GridTooCoarse(MinkflowError):
    """Too few nodes to build second-order finite differences."""


class StabilityViolation(MinkflowError):
    """Requested time step exceeds the explicit stability bound."""


class DegenerateSlope(MinkflowError):
    """A flow step drove the grid slope into the light-like regime."""

    def __init__(self, msg, t=None):
        super().__init__(msg if t is None else f"{msg} (t={t})")
        self.t = t


class SignChange(MinkflowError):
    """Curvature grid lost its single sign (convexity assumption broken)."""

    def __init__(self, msg, t=None):
        super().__init__(msg if t is None else f"{msg} (t={t})")
        self.t = t


class InvalidParams(MinkflowError):
    """Soliton parameter triple outside the reduced normal forms."""


class NoInvariantKnown(MinkflowError):
    """No conserved quantity is registered for the parameter family."""


class Inconclusive(MinkflowError):
    """Trajectory events contradict each other; refusing to guess."""


class BranchContainsRoot(MinkflowError):
    """Requested quadrature span crosses a root of the denominator."""


class QuadratureFailed(MinkflowError):
    """The double-exponential rule did not settle on some interval."""


class SolverFailed(MinkflowError):
    """An ODE solver, or its event search, failed short of its span."""

    def __init__(self, solver, msg, s):
        super().__init__(f"{solver} failed at s={s:.17g}: {msg}")
        self.s = s


class TimeLikeBranch(MinkflowError):
    """Selected branch has negative slope and is time-like, not space-like."""


class UnknownSolution(MinkflowError):
    """Name not present in the exact-solution registry."""


class InfiniteLength(MinkflowError):
    """Entry has no finite Minkowski-length representative."""


class NotEven(MinkflowError):
    """Sampler failed the numerical evenness spot check."""


class DegenerateSpiral(MinkflowError):
    """Spiral exponent parameter hits the excluded values +-1."""
