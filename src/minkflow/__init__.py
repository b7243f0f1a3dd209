"""Curvature flow of space-like curves in the split-signature plane."""

from . import catalog, errors, flow, geometry, hyperbolic, invariants, selfsim
from .hyperbolic import HyperbolicNumber
from .geometry import Curve
from .flow import FlowGrid, FlowKind, Plane
from .selfsim import Chart, MotionLaw, SolitonParams, Trajectory

__version__ = "0.1.0"

__all__ = [
    "catalog", "errors", "flow", "geometry", "hyperbolic", "invariants",
    "selfsim", "HyperbolicNumber", "Curve", "FlowGrid", "FlowKind", "Plane",
    "Chart", "MotionLaw", "SolitonParams", "Trajectory", "__version__",
]
