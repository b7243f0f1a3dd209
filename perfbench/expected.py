"""Known answers the benchmark checks every operation against.

They are copied from the paper's results (and the acceptance criteria
that encode them), not imported from the program or its tests, so a
change to the program cannot move its own yardstick.
"""

import math

REGISTRY_NAMES = (
    "translator-y", "translator-x", "translator-xi", "hyperbola-expander",
    "screw-tanh", "screw-tan", "screw-coth", "oval-coshcosh",
    "wave-coshsinh", "wave-sinhsinh", "wave-sinsin", "interp-tan",
    "euclid-circle", "euclid-reaper", "euclid-oval", "euclid-wave",
)
# The twelve split-signature entries; each stores a curvature profile.
MINKOWSKI_NAMES = REGISTRY_NAMES[:12]

# Figure series: label -> (registry name, shape, t grid).
LENGTH_SERIES = {
    "A": ("translator-y", "constant", (-1.0, 1.0)),
    "B": ("screw-tanh", "decreasing", (-2.0, 0.45)),
    "C": ("wave-sinhsinh", "decreasing", (-3.0, -0.05)),
    "D": ("wave-coshsinh", "decreasing", (-2.0, 2.0)),
    "E": ("oval-coshcosh", "increasing", (0.05, 3.0)),
    "F": ("interp-tan", "unimodal", (0.02, math.pi / 4 - 0.02)),
}
LENGTH_POINTS = 50
LENGTH_PI_TOL = 1e-6

INVARIANCE_TOL = 1e-8
DRIFT_TOL = 1e-8
PROFILE_TOL = 1e-9
ROUTES_TOL = 1e-6
SCREW_SHAPE_TOL = 1e-9

# Classification spot checks: crosses_xi, crosses_eta, inflection,
# backward (limit, finite), forward (limit, finite).
CLASSIFICATION = {
    "expansion A<1/e crossing":
        (True, True, False, ("zero", False), ("zero", False)),
    "expansion A<1/e enclosed":
        (False, False, False, ("infinite", True), ("infinite", True)),
    "expansion A=1/e unstable":
        (True, False, False, ("finite", False), ("zero", False)),
    "expansion A=1/e stable":
        (False, False, False, ("infinite", True), ("finite", False)),
    "expansion A>1/e":
        (True, False, False, ("infinite", True), ("zero", False)),
    "contraction":
        (True, True, False, ("infinite", True), ("infinite", True)),
    "rotation inflected":
        (True, True, True, ("infinite", True), ("infinite", True)),
    "rotation convex":
        (True, False, False, ("infinite", True), ("infinite", True)),
    "rotation trapped":
        (True, False, False, ("finite", False), ("infinite", True)),
    "screw beta<1 inflected":
        (True, True, True, ("infinite", True), ("infinite", True)),
    "screw beta>1 trapped":
        (True, True, False, ("zero", False), ("infinite", True)),
}
# Saddle-limit cases approach the hyperbola's curvature k = 1.
SADDLE_CURVATURE = {"expansion A=1/e unstable": "backward",
                    "expansion A=1/e stable": "forward"}
SADDLE_TOL = 1e-3


def stability_dt(kind, nodes, values):
    """Explicit step bound 0.4 h^2 * (degeneracy factor) of a grid.

    The evolve gates take their dt from the initial grid by this rule,
    which is the program's documented step rule, kept here so that the
    bound cannot move with the program.
    """
    h = nodes[1] - nodes[0]
    slopes = [(values[i + 1] - values[i - 1]) / (2.0 * h)
              for i in range(1, len(values) - 1)]
    if kind == "graph_y":
        factor = min((1.0 - s) * (1.0 + s) for s in slopes)
    else:
        factor = min(slopes)
    return 0.4 * h * h * factor


def evolve_bound(dx, dt):
    """Acceptance bound 5 (dx^2 + dt) on the flow error."""
    return 5.0 * (dx * dx + dt)
