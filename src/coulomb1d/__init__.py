"""Bound states of the one-dimensional hydrogen atom.

Exact spectrum and wavefunctions through Whittaker functions, the
semiclassical quantization that reproduces them, and finite-difference
numerics for the regularized potential variants.
"""

__version__ = "0.1.0"

# each module's __all__ is its public interface; the package republishes
# them, and ConvergenceError, from quadrature, which has no __all__
from . import gridsolver, potentials, regularized, specfun, spectrum, wkb
from .gridsolver import *
from .potentials import *
from .quadrature import ConvergenceError
from .regularized import *
from .specfun import *
from .spectrum import *
from .wkb import *

__all__ = sorted(["ConvergenceError"]
                 + [name for module in (gridsolver, potentials, regularized,
                                        specfun, spectrum, wkb)
                    for name in module.__all__])
