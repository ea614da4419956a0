"""Tricomi confluent hypergeometric function U(a,b,z).

Only the real-argument slice needed for the bound states is covered:
b = 2 (the logarithmic case), a <= 3/2 with 2a an integer, z > 0; other
parameters raise ``ValueError``.  One batched evaluator, ``_u_array``,
computes U and picks the route per point by argument region (Gil, Segura
and Temme, *Numerical Methods for Special Functions*, 2007):

- non-positive integer a: the polynomial U(-k,2,z) = (-1)^k k! L_k^(1)(z);
- z < 2: the logarithmic series DLMF 13.2.9 at a itself, where its own
  estimate of the cancellation among its terms meets the tolerance (so
  the crossover moves to smaller z as |a| grows);
- everything else: closed-form seeds, U(1/2,2,z) and U(3/2,2,z) from the
  modified Bessel functions K0 and K1, then the three-term recurrence in
  a run downward to a, the stable direction for U.

Values come with error estimates, relative to |U| or, near a zero of U,
to the recurrence scale; a point no route brings within the tolerance
raises ``ConvergenceError`` instead of returning a loose number.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import digamma, k0e, k1e, rgamma

from .quadrature import ConvergenceError

__all__ = ["tricomi_u"]

_INTEGER_TOL = 1e-12
_EPS = np.finfo(float).eps
_SQRT_PI = math.sqrt(math.pi)
# the series serves z below this; its terms fall like z^k / k! past k ~ |a|
_SERIES_Z = 2.0
_SERIES_TERMS = 200


def _laguerre(k, alpha, z):
    """Generalized Laguerre polynomial L_k^(alpha)(z) by three-term recurrence.

    Parameters
    ----------
    k : int
        Degree, k >= 0.
    alpha : float
        Superscript parameter.
    z : float or array_like
        Argument(s).

    Returns
    -------
    float or ndarray
        A float for scalar z, an array of the shape of z otherwise.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    zs = np.asarray(z, dtype=float)
    if not (math.isfinite(alpha) and np.all(np.isfinite(zs))):
        raise ValueError("non-finite parameter")
    prev, cur = 0.0, np.ones_like(zs)
    for j in range(1, int(k) + 1):
        prev, cur = cur, ((2 * j - 1 + alpha - zs) * cur - (j - 1 + alpha) * prev) / j
    return float(cur) if zs.ndim == 0 else cur


def _u_seeds(s, z):
    """U(s,2,z) and U(s+1,2,z) in closed form for s = 1/2 or 1, each with
    a rounding estimate: (U(s), error, U(s+1), error) over an array of z > 0.

    s = 1/2: DLMF 13.6.10 with the contiguous and derivative relations of
    13.3 give, with k0e, k1e the scaled modified Bessel functions at z/2,
    U(1/2,2,z) = (k0e + k1e) / (2 sqrt(pi)), U(3/2,2,z) = (k1e - k0e) / sqrt(pi),
    both good to a few eps (k0e + k1e) / sqrt(pi).  s = 1: U(1,2,z) = 1/z,
    and U(2,2,z) comes back as zero, for the recurrence step down from
    s = 1 weighs it by s (s - 1) = 0.
    """
    if s == 1.0:
        inv = 1.0 / z
        zero = np.zeros_like(z)
        return inv, _EPS * inv, zero, zero
    k0, k1 = k0e(0.5 * z), k1e(0.5 * z)
    err = 4.0 * _EPS * (k0 + k1) / _SQRT_PI
    return (k0 + k1) / (2.0 * _SQRT_PI), err, (k1 - k0) / _SQRT_PI, err


def _u_chain(a, z, rtol):
    """U(a,2,z) over an array of z > 0 from closed-form seeds and recurrence.

    Seeds U(s,2,z) and U(s+1,2,z) at s = 1/2 for half-integer a, s = 1
    for integer a, then U(s-1,2,z) = (z + 2s - 2) U(s,2,z)
    - s (s - 1) U(s+1,2,z) down to a; a in {1/2, 1, 3/2} is a seed itself.
    The same recurrence carries the responses to the seed errors, which
    it amplifies most at small z and large |a|; they and the roundings of
    the steps make the error estimate, held to 10 rtol of the largest |U|
    along the chain.
    """
    s = 1.0 if a == round(a) else 0.5
    cur, err, hi, err_hi = _u_seeds(s, z)
    if a > s:  # a = 3/2, the upper seed
        cur, err = hi, err_hi
    steps = max(round(s - a), 0)
    scale = np.maximum(np.abs(cur), np.abs(hi))
    # rows: U, and its responses to the errors of U(s) and U(s+1), each
    # widened by the roundings of the steps to come
    zero = np.zeros_like(z)
    cur = np.array([cur, err + 4.0 * steps * _EPS * np.abs(cur), zero])
    hi = np.array([hi, zero, err_hi + 4.0 * steps * _EPS * np.abs(hi)])
    rounding = 0.0
    for _ in range(steps):
        p, q = (z + 2.0 * s - 2.0) * cur, s * (s - 1.0) * hi
        rounding += np.abs(p[0]) + np.abs(q[0])
        cur, hi = p - q, cur
        scale = np.maximum(scale, np.abs(cur[0]))
        s -= 1.0
    err = np.abs(cur[1]) + np.abs(cur[2]) + _EPS * rounding
    # an overflowed step makes err infinite, and its NaN ratio would
    # hide the other points from the bound below
    if not np.all(np.isfinite(err)):
        raise ValueError(f"U({a},2,z) leaves the float range")
    worst = float(np.max(err / scale, initial=0.0))
    if worst > 10.0 * rtol:
        raise ConvergenceError(
            f"U({a},2,z) did not converge: error {worst:.2e} of its scale "
            f"against rtol {rtol:.1e}", cur[0], err)
    return cur[0], err


@lru_cache(maxsize=64)
def _series_coefficients(a):
    """Coefficients in z of DLMF 13.2.9 at b = 2, for non-integer a.

    U(a,2,z) = 1/(Gamma(a) z) + sum_k c_k z^k (ln z + d_k), with
    c_k = (a)_k / (Gamma(a-1) k! (k+1)!), d_k = psi(a+k) - psi(k+1) - psi(k+2).
    Columns: c_k, c_k d_k; the same at a + 1; the magnitudes at a weighted
    by the roundings behind term k.  Rows end where terms stop mattering.
    Raises ``ValueError`` where 1/Gamma(a-1), a factor of every c_k,
    leaves the float range (a <= -341/2).
    """
    if not math.isfinite(rgamma(a - 1.0)):
        raise ValueError(f"U({a},2,z) leaves the float range")
    k = np.arange(_SERIES_TERMS, dtype=float)
    cols = []
    for s in (a, a + 1.0):
        c = rgamma(s - 1.0) * np.cumprod(
            np.append(1.0, (s + k[1:] - 1.0) / (k[1:] * (k[1:] + 1.0))))
        cols += [c, c * (digamma(s + k) - digamma(k + 1.0) - digamma(k + 2.0))]
    cols += [(k + 4.0) * np.abs(cols[0]), (k + 4.0) * np.abs(cols[1])]
    cols = np.stack(cols, axis=1)
    size = np.abs(cols).max(axis=1) * _SERIES_Z ** k
    return cols[:np.flatnonzero(size >= 1e-18 * size.max())[-1] + 1]


def _u_series(a, z):
    """U(a,2,z) by DLMF 13.2.9 over an array of small z > 0: values, their
    rounding error and the scale max(|U(a)|, |U(a+1)|), never near zero."""
    c, cd, c1, cd1, mc, mcd = np.polynomial.polynomial.polyval(
        z, _series_coefficients(a))
    lz = np.log(z)
    head = rgamma(a) / z
    vals = head + lz * c + cd
    above = rgamma(a + 1.0) / z + lz * c1 + cd1
    err = _EPS * (4.0 * np.abs(head) + np.abs(lz) * mc + mcd)
    return vals, err, np.maximum(np.abs(vals), np.abs(above))


def _on_slice(a, b):
    """a as an exact half-integer; ValueError unless b = 2, a <= 3/2 and 2a
    is an integer."""
    if not (b == 2.0 and a <= 1.5 and abs(2.0 * a - round(2.0 * a)) < _INTEGER_TOL):
        raise ValueError(
            f"U(a,b,z) covers b = 2 and half-integer a <= 3/2, got a={a}, b={b}")
    return 0.5 * round(2.0 * a)


def _u_array(a, b, z, rtol=1e-10):
    """U(a,b,z) and an absolute error estimate over a 1-D array of z > 0.

    Routes per point as the module docstring says; each route's error
    estimate is held to 10 rtol of its scale, max(|U(a)|, |U(a+1)|) for
    the series, the largest |U| along the chain for the recurrence.

    Raises
    ------
    ValueError
        If (a, b) is off the slice of the module docstring, or the
        recurrence leaves the float range.
    ConvergenceError
        If the recurrence cannot meet that bound.
    """
    a = _on_slice(a, b)
    z = np.asarray(z, dtype=float)
    if a <= 0.0 and a == round(a):
        k = round(-a)
        try:
            fact = float(math.factorial(k))
        except OverflowError:  # k > 170
            raise ValueError(f"U({a},2,z) leaves the float range") from None
        # the terms of L_k^(1)(z) alternate in sign; at -z they add up
        lag, size = fact * _laguerre(k, 1.0, np.array([z, -z]))
        return (-lag if k % 2 else lag), 4.0 * (k + 1) * _EPS * np.abs(size)
    vals, err = np.empty((2, z.size))
    rest = np.ones(z.size, dtype=bool)
    near = np.flatnonzero(z < _SERIES_Z)
    if near.size:
        v, e, scale = _u_series(a, z[near])
        ok = e / scale <= 10.0 * rtol  # the bound the chain is held to
        vals[near[ok]], err[near[ok]], rest[near[ok]] = v[ok], e[ok], False
    if rest.any():
        vals[rest], err[rest] = _u_chain(a, z[rest], rtol)
    return vals, err


def tricomi_u(a, b, z, rtol=1e-10, full_output=False):
    """Tricomi confluent hypergeometric function U(a, b, z), z > 0.

    Parameters
    ----------
    a, b : float
        Parameters: b = 2 and a <= 3/2 with 2a an integer, the slice the
        bound states use; anything else raises ``ValueError``.
    z : float
        Argument, strictly positive.
    rtol : float
        Requested relative accuracy, measured against the recurrence
        scale near zeros of U where relative error loses meaning.
    full_output : bool
        If true, return ``(value, error_estimate)``.

    Returns
    -------
    float or (float, float)

    Raises
    ------
    ValueError
        If (a, b) is off the supported slice, z <= 0, or U leaves the
        float range.
    ConvergenceError
        If the requested accuracy cannot be reached.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError("non-finite input")
    if z <= 0.0:
        raise ValueError(f"argument must be positive, got z={z}")
    (val,), (err,) = _u_array(a, b, np.array([z], dtype=float), rtol)
    return (float(val), float(err)) if full_output else float(val)
