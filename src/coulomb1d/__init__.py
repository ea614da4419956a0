"""Bound states of the one-dimensional hydrogen atom.

Exact spectrum and wavefunctions through Whittaker functions, the
semiclassical quantization that reproduces them, and finite-difference
numerics for the regularized potential variants.
"""

__version__ = "0.1.0"

from .gridsolver import Grid, Level, SpectrumResult, refine, solve
from .potentials import (FAMILIES, PotentialSpec, evaluate, half_line,
                         loudon_estimate, pure_coulomb, repulsive_core,
                         soft_core)
from .quadrature import ConvergenceError
from .regularized import (CareResult, GridResolutionError, ScanRow,
                          care_interleaving, half_line_spectrum,
                          soft_core_ground_scan)
from .specfun import tricomi_u
from .spectrum import (BoundState, exact_energy, node_count, normalize,
                       ode_residual, wavefunction)
from .wkb import (ActionResult, WKBConfig, action, turning_points,
                  wkb_energy)

__all__ = [
    "ActionResult",
    "BoundState",
    "CareResult",
    "ConvergenceError",
    "FAMILIES",
    "Grid",
    "GridResolutionError",
    "Level",
    "PotentialSpec",
    "ScanRow",
    "SpectrumResult",
    "WKBConfig",
    "action",
    "care_interleaving",
    "evaluate",
    "exact_energy",
    "half_line",
    "half_line_spectrum",
    "loudon_estimate",
    "node_count",
    "normalize",
    "ode_residual",
    "pure_coulomb",
    "refine",
    "repulsive_core",
    "soft_core",
    "soft_core_ground_scan",
    "solve",
    "tricomi_u",
    "turning_points",
    "wavefunction",
    "wkb_energy",
]
