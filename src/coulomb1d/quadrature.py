"""Gauss-Legendre quadrature for the action and normalization integrals.

``gauss_legendre``, the one order-doubling loop, returns when the value
changes by at most rtol of itself between orders, and raises when the
change is within order * eps of the value (the rounding floor of a sum of
one sign) or at order 4096.  ``adaptive`` splits the interval instead,
for a feature whose position is unknown.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_EPS = np.finfo(float).eps
_MAX_ORDER = 4096  # soft-core actions at a = 1e-8 converge only here
_MAX_PANELS = 2000


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


@lru_cache(maxsize=64)
def _rule(order):
    return leggauss(order)


def _panel(f, a, b, order):
    nodes, weights = _rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(f(mid + half * nodes) @ weights)


def gauss_legendre(f, a, b, rtol=1e-12, order=16):
    """Integrate ``f`` over [a, b], doubling the Gauss-Legendre order from ``order``.

    ``f`` takes a 1-D array of abscissae and returns its values.  Returns
    (value, error) as floats, the error being the last change between
    orders.  ``ConvergenceError`` carries both where the module docstring
    says it is raised.
    """
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


def adaptive(f, a, b, rtol=1e-12):
    """Adaptive panel-splitting Gauss-Legendre integration on [a, b].

    Each panel carries a 15/31-point error estimate; the worst panel is
    bisected until the summed estimate meets ``rtol``.
    """
    def make(lo, hi):
        coarse = _panel(f, lo, hi, 15)
        fine = _panel(f, lo, hi, 31)
        err = abs(fine - coarse)
        return (-err, lo, hi, fine, err)

    first = make(a, b)
    heap = [first]
    total, toterr = first[3], first[4]
    panels = 1
    while toterr > rtol * abs(total) and panels < _MAX_PANELS:
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, right = make(lo, mid), make(mid, hi)
        total += left[3] + right[3] - val
        toterr += left[4] + right[4] - err
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        panels += 2
    if toterr > rtol * abs(total):
        raise ConvergenceError(
            f"adaptive quadrature exceeded {_MAX_PANELS} panels",
            total, toterr)
    return total, toterr
