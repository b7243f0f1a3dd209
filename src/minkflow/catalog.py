"""Registry of closed-form flow solutions.

Twelve solutions of the split-signature flow and four of the Euclidean
curve-shortening flow.  Each holds ``ClosedForm``s of sympy's canonical
text (``sstr``, which ``catalog show`` prints): its closed form in the
graph variable (``x``, or eta for lightcone entries) and time ``t``, its
curvature profile and, for the six finite-length entries, its arc-length
``density`` ds/dnode, written so that no term cancels.  Residuals,
lengths and boundary values sample the text compiled to numpy; only the
curvature-profile check derives with sympy, once per entry.  Lengths
integrate the density with ``geometry._double_exponential``.

Canonical names: translator-y, translator-x, translator-xi,
hyperbola-expander, screw-tanh, screw-tan, screw-coth, oval-coshcosh,
wave-coshsinh, wave-sinhsinh, wave-sinsin, interp-tan, euclid-circle,
euclid-reaper, euclid-oval, euclid-wave.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfiniteLength, UnknownSolution
from .flow import (ClosedForm, FlowKind, Plane, ResidualReport, _level,
                   _operator, residual)
from .geometry import _double_exponential

DEFAULT_LEVELS = (0.02, 0.01, 0.005)
ORDER_TARGET, ORDER_TOL = 2.0, 0.3


@dataclass
class CurvatureProfile:
    """Closed-form k(theta, t), with its own probe times and theta window."""

    form: ClosedForm
    times: tuple
    window: Callable[[float], tuple]


@dataclass
class ExactSolution:
    name: str
    plane: Plane
    kind: FlowKind
    t_domain: tuple
    form: ClosedForm
    times: tuple                       # interior probe times
    window: Callable[[float], tuple]   # residual probe window
    density: ClosedForm | None         # ds/dnode, for finite length
    curvature_profile: CurvatureProfile
    notes: str
    wick_partner: str | None = None
    # The density's node range at t; None for the whole real line.
    length_bounds: Callable[[float], tuple] | None = None

    @property
    def finite_length(self) -> bool:
        return self.density is not None

    @functools.cached_property
    def profile_residual(self) -> ClosedForm:
        """k_t minus the curvature operator of the profile k, derived once."""
        import sympy as sp
        k, theta, t = self.curvature_profile.form.symbolic
        rhs = _operator(FlowKind.CURVATURE_ANGLE, k, sp.diff(k, theta),
                        sp.diff(k, theta, 2), self.plane)[0]
        return ClosedForm.of(sp.diff(k, t) - rhs, theta, t)

    def length(self, t):
        """Minkowski length at time t (a float, or an array of times).

        The integral of ``density`` over the entry's whole domain: the
        real line, or ``length_bounds(t)``, whose lower end may be a
        light-cone end where the density blows up.  Each time is one call
        of ``geometry._double_exponential``, so an array of times gives the
        same bits as a loop over them; QuadratureFailed names the time.
        """
        if not self.finite_length:
            raise InfiniteLength(f"{self.name} has no finite Minkowski length")
        ts = np.asarray(t, dtype=float)
        bounds = self.length_bounds or (lambda _: None)
        out = [float(_double_exponential(
            lambda u: self.density(u, s), bounds(s),
            lambda _: f"the length of {self.name} at t={s:g}"))
            for s in ts.ravel().tolist()]
        return out[0] if ts.ndim == 0 else np.reshape(out, ts.shape)


def _entry(name, plane, kind, t_domain, expr, times, window, profile, notes,
           density=None, wick_partner=None, length_bounds=None):
    node = "x" if length_bounds is None else "d"
    return ExactSolution(name, plane, kind, t_domain,
                         ClosedForm(expr, "x", "t", name=name), times,
                         window if callable(window) else (lambda t, w=window: w),
                         density and ClosedForm(density, node, "t"), profile,
                         notes, wick_partner, length_bounds)


def _profile(expr, times, window):
    return CurvatureProfile(ClosedForm(expr, "theta", "t", name="k"), times,
                            window if callable(window) else (lambda t, w=window: w))


def _build_registry() -> dict:
    inf = math.inf
    entries = [
        _entry(
            "translator-y", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (-inf, inf),
            "t + log(cosh(x))", density="1/cosh(x)",
            times=(-0.4, 0.1, 0.8), window=(-2.0, 2.0),
            profile=_profile("cosh(theta)", (-0.5, 0.0, 0.5), (-2.0, 2.0)),
            notes=("rises along the y-axis at unit speed; length pi at "
                   "every t and k*cos(s) = 1 along the curve"),
        ),
        _entry(
            "translator-x", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (-inf, inf),
            "asinh(exp(t - x))",
            times=(-0.3, 0.0, 0.4), window=(-2.0, 2.5),
            profile=_profile("-sinh(theta)", (-0.5, 0.0, 0.5), (-2.5, -0.3)),
            notes=("slides along the x-axis; one end of finite length, "
                   "the other infinite with k = 1/sinh(s)"),
        ),
        _entry(
            "translator-xi", Plane.MINKOWSKI, FlowKind.LIGHTCONE, (-inf, inf),
            "t + exp(x)",
            times=(-0.5, 0.2, 1.0), window=(-2.0, 2.0),
            profile=_profile("exp(-theta)", (-0.5, 0.0, 0.5), (-2.0, 2.0)),
            notes=("translates along the xi diagonal with k = 1/s, s > 0; "
                   "also arises as the A=0 screw-translation curve"),
        ),
        _entry(
            "hyperbola-expander", Plane.MINKOWSKI, FlowKind.GRAPH_Y,
            (0.0, inf),
            "sqrt(2*t + x**2)",
            times=(0.5, 1.0, 2.0), window=(-1.5, 1.5),
            profile=_profile("sqrt(2)/(2*sqrt(t))", (0.5, 1.0, 2.0),
                             (-2.0, 2.0)),
            notes="constant-curvature arc expanding from the light cone",
        ),
        _entry(
            "screw-tanh", Plane.MINKOWSKI, FlowKind.LIGHTCONE, (-inf, 0.5),
            "(1 - 2*t)*tanh(x)", density="sqrt(1 - 2*t)/cosh(x)",
            times=(-0.5, 0.0, 0.3), window=(-2.0, 2.0),
            profile=_profile("sqrt(exp(-2*theta) + 1/(2*t))",
                             (-1.5, -0.8, -0.52),
                             lambda t: (0.5 * math.log(-2.0 * t) - 4.0,
                                        0.5 * math.log(-2.0 * t) - 0.2)),
            notes=("boost + contraction toward the eta diagonal; length "
                   "pi*sqrt(1-2t), k = -tan(s) at t=0"),
        ),
        _entry(
            "screw-tan", Plane.MINKOWSKI, FlowKind.LIGHTCONE, (-0.5, inf),
            "(2*t + 1)*tan(x)",
            times=(-0.2, 0.5, 1.5), window=(-1.2, 1.2),
            profile=_profile("sqrt(-exp(-2*theta) + 1/(2*t))",
                             (0.3, 0.8, 1.5),
                             lambda t: (0.5 * math.log(2.0 * t) + 0.2,
                                        0.5 * math.log(2.0 * t) + 4.0)),
            notes="boost + expansion; infinite length, k = tanh(s) at t=0",
        ),
        _entry(
            "screw-coth", Plane.MINKOWSKI, FlowKind.LIGHTCONE, (-0.5, inf),
            "(-2*t - 1)*coth(x)",
            times=(-0.2, 0.5, 1.5), window=(-3.0, -0.3),
            profile=_profile("sqrt(exp(-2*theta) + 1/(2*t))",
                             (0.3, 0.8, 1.5), (-2.0, 2.0)),
            notes=("boost + expansion on eta < 0; mixed-length ends with "
                   "k = coth(s), s > 0, at t=0"),
        ),
        _entry(
            "oval-coshcosh", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (0.0, inf),
            "acosh(exp(t)*cosh(x))",
            times=(0.5, 1.0, 2.0), window=(-2.0, 2.0),
            density="sqrt((exp(2*t) - 1)/(exp(2*t)*cosh(x)**2 - 1))",
            profile=_profile("sqrt(cosh(2*theta) + coth(2*t))",
                             (0.3, 0.8, 1.5), (-1.5, 1.5)),
            notes=("upper branch; tracks the expanding hyperbola near t=0 "
                   "and the y-axis translator for large t; length grows "
                   "from 0 toward pi"),
        ),
        _entry(
            "wave-coshsinh", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (-inf, inf),
            "asinh(exp(t)*cosh(x))",
            times=(-1.0, 0.0, 1.0), window=(-2.0, 2.0),
            density="sqrt(exp(2*t) + 1)/sqrt(exp(2*t)*cosh(x)**2 + 1)",
            profile=_profile("sqrt(cosh(2*theta) + tanh(2*t))",
                             (-0.8, 0.0, 0.8), (-1.5, 1.5)),
            notes=("pair of sideways translators merging into the y-axis "
                   "translator; length decreases toward pi"),
        ),
        _entry(
            "wave-sinhsinh", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (-inf, 0.0),
            "asinh(exp(t)*sinh(x))",
            times=(-2.0, -1.0, -0.3), window=(-2.0, 2.0),
            density="sqrt(1 - exp(2*t))/sqrt(exp(2*t)*sinh(x)**2 + 1)",
            profile=_profile("sqrt(cosh(2*theta) + coth(2*t))",
                             (-1.5, -0.8, -0.4),
                             lambda t: (0.5 * _acosh_clip(-1.0 / math.tanh(2 * t)) + 0.2,
                                        0.5 * _acosh_clip(-1.0 / math.tanh(2 * t)) + 2.0)),
            notes=("odd curve collapsing onto the xi diagonal as t -> 0; "
                   "length decreases to 0"),
        ),
        _entry(
            "wave-sinsin", Plane.MINKOWSKI, FlowKind.GRAPH_Y, (0.0, inf),
            "asin(exp(-t)*sin(x))",
            times=(0.1, 0.15, 0.25), window=(-2.5, 2.5),
            profile=_profile("sqrt(-cosh(2*theta) + 1/tanh(2*t))",
                             (0.1, 0.15, 0.25),
                             lambda t: _sym_window(
                                 0.45 * _acosh_clip(1.0 / math.tanh(2 * t)))),
            notes=("2*pi-periodic wave emerging from the triangle wave at "
                   "t=0 and flattening onto the x-axis"),
        ),
        _entry(
            "interp-tan", Plane.MINKOWSKI, FlowKind.LIGHTCONE,
            (0.0, math.pi / 4),
            "atanh(tan(2*t)*tan(x))",
            times=(0.2, math.pi / 8, 0.6),
            window=lambda t: _sym_window(0.75 * (math.pi / 2 - 2.0 * t)),
            # In d = pi/2 - 2t - |x|, the distance from the nearer light-cone
            # end: written in x, cos(4t) + cos(2x) cancels at the ends.  Each
            # d stands for two points of the even curve.
            density="sqrt(2)*sqrt(sin(4*t)/(sin(d)*sin(d + 4*t)))",
            profile=_profile("sqrt(sinh(2*theta) + 1/tan(2*t))",
                             (0.4, 0.8, 1.2),
                             lambda t: (0.5 * math.asinh(-1.0 / math.tan(2 * t)) + 0.2,
                                        0.5 * math.asinh(-1.0 / math.tan(2 * t)) + 2.5)),
            notes=("joins the tan-screw behaviour near t=0 to the "
                   "tanh-screw collapse near t=pi/4; length rises from 0 "
                   "to a maximum and returns to 0"),
            length_bounds=lambda t: (0.0, math.pi / 2 - 2.0 * t),
        ),
        # Euclidean curve-shortening solutions.
        _entry(
            "euclid-circle", Plane.EUCLIDEAN, FlowKind.GRAPH_Y, (-inf, 0.0),
            "sqrt(-2*t - x**2)",
            times=(-2.0, -1.0, -0.5),
            window=lambda t: _sym_window(0.7 * math.sqrt(-2.0 * t)),
            profile=_profile("sqrt(2)/(2*sqrt(-t))", (-2.0, -1.0, -0.5),
                             (-2.0, 2.0)),
            notes="upper semicircle of the shrinking round solution",
            wick_partner="hyperbola-expander",
        ),
        _entry(
            "euclid-reaper", Plane.EUCLIDEAN, FlowKind.GRAPH_Y, (-inf, inf),
            "-t + log(cos(x))",
            times=(-1.0, 0.0, 1.0), window=(-1.2, 1.2),
            profile=_profile("cos(theta)", (-0.5, 0.0, 0.5), (-1.2, 1.2)),
            notes="downward-translating single-arch solution",
            wick_partner="translator-y",
        ),
        _entry(
            "euclid-oval", Plane.EUCLIDEAN, FlowKind.GRAPH_Y, (-inf, 0.0),
            "acosh(exp(-t)*cos(x))",
            times=(-2.0, -1.0, -0.5),
            window=lambda t: _sym_window(0.7 * math.acos(math.exp(t))),
            profile=_profile("sqrt(cos(2*theta) - 1/tanh(2*t))",
                             (-2.0, -1.0, -0.5), (-1.0, 1.0)),
            notes="upper half of the shrinking oval (paperclip) solution",
            wick_partner="oval-coshcosh",
        ),
        _entry(
            "euclid-wave", Plane.EUCLIDEAN, FlowKind.GRAPH_Y, (-inf, inf),
            "asinh(exp(-t)*cos(x))",
            times=(-0.5, 0.0, 0.3), window=(-2.0, 2.0),
            profile=_profile("sqrt(cos(2*theta) - tanh(2*t))",
                             (-0.5, 0.0, 0.3),
                             lambda t: _sym_window(
                                 0.45 * math.acos(math.tanh(2 * t)))),
            notes="periodic wave of translating arches",
            wick_partner="wave-coshsinh",
        ),
    ]
    return {e.name: e for e in entries}


def _sym_window(half: float) -> tuple:
    return (-half, half)


def _acosh_clip(v: float) -> float:
    return math.acosh(max(1.0, v))


_REGISTRY = _build_registry()


def names() -> list[str]:
    return list(_REGISTRY)


def get(name: str) -> ExactSolution:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSolution(
            f"{name!r} is not in the registry; known names: "
            f"{', '.join(_REGISTRY)}") from None


def verify_all(levels=DEFAULT_LEVELS, order_tol=ORDER_TOL,
               only=None) -> list[dict]:
    """Residual-verify every registry entry on a refinement ladder.

    Each entry is probed at its three interior times; it passes when the
    observed convergence order of the max residual is ORDER_TARGET within
    order_tol.  Failures are entries in the result, not exceptions.
    """
    out = []
    for name in (only or names()):
        e = get(name)
        rep = residual(e.kind, e.form, levels, e.times, e.window, e.plane)
        ok = rep.observed_order is not None \
            and abs(rep.observed_order - ORDER_TARGET) <= order_tol
        out.append({"name": name, "passed": bool(ok), "report": rep})
    return out


def curvature_profile_check(name: str) -> ResidualReport:
    """Residual of the curvature evolution PDE for a stored profile.

    k_t minus the flow's own curvature operator, with exact (symbolic)
    derivatives, evaluated at 21 angles on each of 7 times spanning the
    profile's probe times, so a true profile sits at the roundoff floor.
    """
    e = get(name)
    prof, resid = e.curvature_profile, e.profile_residual
    times = np.linspace(prof.times[0], prof.times[-1], 7)
    level = _level(0.0, [resid(np.linspace(*prof.window(float(t)), 21),
                               float(t)) for t in times])
    return ResidualReport("curvature_angle", e.plane.value,
                          [float(t) for t in times], [level], None)


def length_vs_time(name: str, t_grid) -> np.ndarray:
    """(t, Minkowski length) series for a finite-length entry."""
    ts = np.asarray(t_grid, float)
    return np.column_stack([ts, get(name).length(ts)])


# Figure-series labels: curve -> (registry name, qualitative behaviour).
LENGTH_SERIES = {
    "A": ("translator-y", "constant"),
    "B": ("screw-tanh", "decreasing"),
    "C": ("wave-sinhsinh", "decreasing"),
    "D": ("wave-coshsinh", "decreasing"),
    "E": ("oval-coshcosh", "increasing"),
    "F": ("interp-tan", "unimodal"),
}

LENGTH_GRIDS = {
    "A": (-1.0, 1.0),
    "B": (-2.0, 0.45),
    "C": (-3.0, -0.05),
    "D": (-2.0, 2.0),
    "E": (0.05, 3.0),
    "F": (0.02, math.pi / 4 - 0.02),
}
