"""Gauss-Legendre quadrature for the action integrals.

``gauss_legendre``, the one order-doubling loop, returns when the value
changes by at most rtol of itself between orders, and raises when the
change is within order * eps of the value (the rounding floor of a sum of
one sign) or at order 256, eight times the highest order the Coulomb
action reaches (32, over n <= 200 and E in [-100, -1e-6]).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_EPS = np.finfo(float).eps
_START_ORDER = 16
_MAX_ORDER = 256


class ConvergenceError(Exception):
    """Quadrature failed to reach the requested tolerance.

    Attributes
    ----------
    estimate : float or ndarray
        Best value obtained before giving up.
    error : float or ndarray
        Error estimate attached to that value.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _check_tolerance(rtol):
    """rtol itself; ``ValueError`` unless it is positive and finite.  The
    one check of a relative tolerance, U's and the command line's too."""
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {rtol}")
    return rtol


@lru_cache(maxsize=64)
def _rule(order):
    return leggauss(order)


def _panel(f, a, b, order):
    nodes, weights = _rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(f(mid + half * nodes) @ weights)


def gauss_legendre(f, a, b, rtol=1e-12):
    """Integrate ``f`` over [a, b], doubling the Gauss-Legendre order from 16.

    ``f`` takes a 1-D array of abscissae and returns its values.  Returns
    (value, error) as floats, the error being the last change between
    orders.  ``ConvergenceError`` carries both where the module docstring
    says it is raised; ``ValueError`` refuses an rtol that is not positive
    and finite.
    """
    _check_tolerance(rtol)
    order = _START_ORDER
    prev = _panel(f, a, b, order)
    while True:
        order *= 2
        cur = _panel(f, a, b, order)
        change, size = abs(cur - prev), abs(cur)
        if change <= rtol * size:
            return cur, change
        if order >= _MAX_ORDER or change <= order * _EPS * size:
            raise ConvergenceError(
                f"Gauss-Legendre quadrature did not converge: change "
                f"{change / max(size, 1e-300):.1e} of the value at order {order}",
                cur, change)
        prev = cur

