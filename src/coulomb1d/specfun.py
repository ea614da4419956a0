"""Tricomi confluent hypergeometric function U(a,b,z).

Only the real-argument slice needed for the bound states is covered:
b = 2 (the logarithmic case), a an exact integer or half-integer from
-341/2 to 3/2, z > 0.  Other parameters raise ``ValueError`` at the door,
``_on_slice``, before any route runs; below -341/2 the routes' factors
k! and 1/Gamma(a-1) leave the float range.  One batched evaluator,
``_u_array``, computes U and picks the route per point by argument region
(Gil, Segura and Temme, *Numerical Methods for Special Functions*, 2007):

- integer a: the closed forms, U(1,2,z) = 1/z and the polynomial
  U(-k,2,z) = (-1)^k k! L_k^(1)(z) for a = -k <= 0;
- half-integer a, z < 2: the logarithmic series DLMF 13.2.9 at a itself,
  where its own estimate of the cancellation among its terms meets the
  tolerance (so the crossover moves to smaller z as |a| grows);
- every other half-integer point: seeds U(1/2,2,z) and U(3/2,2,z), from
  the same series below z = 2 and from the modified Bessel functions K0
  and K1 above, then the three-term recurrence in a run downward to a,
  the stable direction for U.

Values come with error estimates, relative to |U| or, near a zero of U,
to the scale of the route; a point no route brings within the tolerance
raises ``ConvergenceError`` instead of returning a loose number.

Each route works on whole arrays: the series and the K0/K1 table sum
their terms as one matrix product, and the recurrences step in place.
A batch whose points all take one route skips the masks that split it.
A point's value can differ in its last bits with the batch around it,
since the matrix products sum in an order set by the batch size.

The module needs numpy and the standard library only.  Its own
evaluators serve the routes: the scaled K0 and K1 from x = 1 on
(`_k_scaled`), 1/Gamma at integers and half-integers (`_rgamma`) and psi
on the integer and half-integer grids of the series (`_digamma`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quadrature import ConvergenceError, _check_tolerance

__all__ = ["tricomi_u"]

_EPS = np.finfo(float).eps
_SQRT_PI = math.sqrt(math.pi)
# the series serves z below this; its terms fall like z^k / k! past k ~ |a|
_SERIES_Z = 2.0
_SERIES_TERMS = 200
# below this many points `_powers` accumulates instead of doubling; for
# 21 powers the two cost the same between 150 and 200 points, and at 2
# points the accumulate takes a sixth of the time
_FEW_POINTS = 128

# psi(1) = -gamma and psi(1/2) = -gamma - 2 ln 2 (DLMF 5.4.12, 5.4.13),
# correctly rounded
_PSI_ONE = -0.5772156649015329
_PSI_HALF = -1.9635100260214235


def _rgamma(x):
    """1/Gamma(x) for x an integer or a half-integer.

    Exactly 0 at the poles x = 0, -1, -2, ...; 1/math.gamma(x) for x > 0;
    below, the reflection 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi
    (DLMF 5.5.3) with sin(pi x) = +-1, which is +-inf once Gamma(1 - x)
    leaves the float range (x <= -343/2).
    """
    if x > 0.0:
        return 1.0 / math.gamma(x)
    if x == round(x):
        return 0.0
    sign = -1.0 if round(x - 0.5) % 2 else 1.0
    try:
        return sign * math.gamma(1.0 - x) / math.pi
    except OverflowError:
        return sign * math.inf


def _digamma(x0, count):
    """psi(x0 + k) for k = 0 .. count - 1, where 2 x0 is an integer and no
    x0 + k is a pole (an integer <= 0).

    A negative half-integer x takes psi(x) = psi(1 - x), the reflection
    DLMF 5.5.4 with cot(pi x) = 0.  Positive arguments come from psi(1)
    or psi(1/2) by psi(x + 1) = psi(x) + 1/x (DLMF 5.5.2), the sums of
    1/x compensated, so each value is within a few eps of max(1, |psi|).
    """
    x = x0 + np.arange(count, dtype=float)
    x = np.where(x > 0.0, x, 1.0 - x)
    start, psi = (1.0, _PSI_ONE) if x0 == round(x0) else (0.5, _PSI_HALF)
    # Neumaier's compensated running sum of 1/(start + j)
    sums, total, carry = [0.0], 0.0, 0.0
    for j in range(round(x.max() - start)):
        term = 1.0 / (start + j)
        new = total + term
        carry += (total - new) + term if abs(total) >= term else (term - new) + total
        total = new
        sums.append(total + carry)
    return psi + np.array(sums)[np.rint(x - start).astype(int)]


def _powers(z, count):
    """z^0 .. z^(count-1) as the rows of a (count, z.size) array.

    Each z^k carries at most k - 1 roundings, as in the sequential
    product z^k = z^(k-1) z.  A batch of a few points takes that product
    as one accumulate down the rows, which costs one call but runs a
    strided loop per point.  Larger batches double the table instead:
    once rows 0 .. n-1 are filled, row n is z^(n-1) z and rows
    n+1 .. 2n-1 are rows 1 .. n-1 times z^n, two whole-row products per
    doubling rather than one per power.
    """
    p = np.empty((count, z.size))
    p[0] = 1.0
    if z.size < _FEW_POINTS:
        p[1:] = z
        return np.multiply.accumulate(p, axis=0, out=p)
    n = 1
    while n < count:
        np.multiply(p[n - 1], z, out=p[n])
        top = min(2 * n, count)
        np.multiply(p[1:top - n], p[n], out=p[n + 1:top])
        n = top
    return p


def _chebyshev_t(t, count):
    """T_0(t) .. T_(count-1)(t) as the rows of a (count, t.size) array,
    by doubling with T_(n+i) = 2 T_n T_i - T_(n-i)."""
    out = np.empty((count, t.size))
    out[0], out[1] = 1.0, t
    n = 1
    while n < count - 1:
        top = min(2 * n, count - 1)
        rows = slice(n + 1, top + 1)
        np.multiply(2.0 * out[n], out[1:top - n + 1], out=out[rows])
        out[rows] -= out[2 * n - top:n][::-1]
        n = top
    return out


# Chebyshev coefficients of sqrt(x) e^x K_nu(x), columns nu = 0 and 1, in
# t = 2/x - 1 over x >= 1; from mpmath 1.3 (besselk at 40 digits on 140
# Chebyshev nodes).  The first row left out is below 2e-17.
_K_CHEB = np.array([
    (1.1944330762167386, 1.4532756675938414),
    (-0.053855323307629495, 0.19051350202061165),
    (0.004362000068251702, -0.008406706460495654),
    (-0.0005521270349863234, 0.0008815363164514389),
    (8.959565555755952e-05, -0.000129995769583983),
    (-1.7138726856421186e-05, 2.3441638979785087e-05),
    (3.695146089045472e-06, -4.853489413610226e-06),
    (-8.737284518980525e-07, 1.1139969511197356e-06),
    (2.225046272255236e-07, -2.772707643805077e-07),
    (-6.025216756376064e-08, 7.37247184977708e-08),
    (1.7186668629418083e-08, -2.0717892129028323e-08),
    (-5.1272057810909205e-09, 6.103966549420336e-09),
    (1.5907351467912106e-09, -1.873778917957349e-09),
    (-5.10958325791419e-10, 5.963886884453419e-10),
    (1.6929517419961088e-10, -1.96028004074301e-10),
    (-5.7683063818637606e-11, 6.632273899864202e-11),
    (2.0159542597761383e-11, -2.3034250700407756e-11),
    (-7.210940065346495e-12, 8.193082518369976e-12),
    (2.6349075982806445e-12, -2.9786645069974164e-12),
    (-9.819576891759296e-13, 1.1049772078983365e-12),
    (3.72695818784577e-13, -4.1763277431648047e-13),
    (-1.4388149744180521e-13, 1.6061141914625803e-13),
    (5.6436532735816866e-14, -6.277632672531289e-14),
    (-2.2469288334596896e-14, 2.4911830875182032e-14),
    (9.072046991627365e-15, -1.002779686252293e-14),
    (-3.711589997838162e-15, 4.091059996919741e-15),
    (1.537582290719742e-15, -1.690331071434488e-15),
    (-6.445464362724762e-16, 7.068360792264328e-16),
    (2.7324144482527955e-16, -2.9895680121763374e-16),
    (-1.1707837700385628e-16, 1.2781913900252084e-16),
    (5.067869397943657e-17, -5.521491188037584e-17),
    (-2.215087912714289e-17, 2.4087033253210474e-17),
])


def _k_scaled(x):
    """e^x K0(x) and e^x K1(x), the rows of a (2, x.size) array, from the
    Chebyshev table `_K_CHEB` over an array of x >= 1 (measured against
    mpmath: within 1.7 eps)."""
    cheb = _chebyshev_t(2.0 / x - 1.0, len(_K_CHEB))
    # the leading term is added last, after the small ones
    return (_K_CHEB[0][:, None] + _K_CHEB[1:].T @ cheb[1:]) / np.sqrt(x)


def _u_seeds(z):
    """U(1/2,2,z) and U(3/2,2,z), each with a rounding estimate:
    (U(1/2), error, U(3/2), error) over an array of z > 0.

    Below z = `_SERIES_Z` the series `_u_series` at a = 1/2 and a = 3/2,
    with its own estimates.  From there on DLMF 13.6.10 with the
    contiguous and derivative relations of 13.3 give, with k0e, k1e the
    scaled modified Bessel functions e^x K(x) at x = z/2 >= 1 from
    `_k_scaled`,
    U(1/2,2,z) = (k0e + k1e) / (2 sqrt(pi)), U(3/2,2,z) = (k1e - k0e) / sqrt(pi),
    both good to a few eps (k0e + k1e) / sqrt(pi).
    """
    near = z < _SERIES_Z
    if not near.any():  # as for every recurrence batch of points z >= 2
        k0, k1 = _k_scaled(0.5 * z)
        total = k0 + k1
        err = 4.0 * _EPS * total / _SQRT_PI
        return total / (2.0 * _SQRT_PI), err, (k1 - k0) / _SQRT_PI, err
    seeds, zn = np.empty((4, z.size)), z[near]
    seeds[:2, near] = _u_series(0.5, zn)[:2]
    seeds[2:, near] = _u_series(1.5, zn)[:2]
    if not near.all():
        seeds[:, ~near] = _u_seeds(z[~near])
    return seeds


def _u_chain(a, z, rtol):
    """U(a,2,z) for half-integer a over an array of z > 0 from the seeds
    and the recurrence.

    Seeds U(1/2,2,z) and U(3/2,2,z), then U(s-1,2,z) = p - q with
    p = (z + 2s - 2) U(s,2,z) and q = s (s - 1) U(s+1,2,z) from s = 1/2
    down to a; a in {1/2, 3/2} is a seed itself.  The error estimate is
    held to 10 rtol of the largest |U| along the chain.  It adds the
    seed errors, each times the sensitivity of U(a) to that seed, and
    twice the root-sum-square of the steps' roundings, eps (|p| + |q|)
    each times the sensitivity of U(a) to the value of that step.  The
    adjoint recurrence, run back up the chain, gives the sensitivities: a
    rounding made where U is small can reach U(a) amplified far past a
    seed error of the same relative size.  The
    root-sum-square takes the roundings as independent; doubling it
    covers their coherent share, for z + 2s - 2 rounds off the same low
    bits of z at every s whose coefficient lies in one binade (measured
    against mpmath over 17,000 points with a from -1/2 to -339/2: at most
    0.88 of the estimate).
    """
    u, err, hi, err_hi = _u_seeds(z)
    if a > 0.5:  # a = 3/2, the upper seed
        u, err = hi, err_hi
    steps = max(round(0.5 - a), 0)
    scale = np.maximum(np.abs(u), np.abs(hi))
    if steps:
        # step k runs at t = 1/2 - k; 2t - 2 is exact, while (z + 2t) - 2
        # would lose the low digits of a tiny z
        t = 0.5 - np.arange(steps + 1.0)
        coef, q = np.add.outer(2.0 * t[:-1] - 2.0, z), t * (t - 1.0)
        # rows: U(3/2), U(1/2), then the value of each step
        vals, pq = np.empty((steps + 2, z.size)), np.empty((2, steps, z.size))
        vals[0], vals[1] = hi, u
        for k in range(steps):
            np.multiply(coef[k], vals[k + 1], out=pq[0, k])
            np.multiply(vals[k], q[k], out=pq[1, k])
            np.subtract(pq[0, k], pq[1, k], out=vals[k + 2])
        np.maximum(scale, np.abs(vals[2:]).max(axis=0), out=scale)
        size = np.add(*np.abs(pq, out=pq))  # |p| + |q| of each step
        # sens[j] = dU(a)/dU_j over the scale, where U_j = vals[j + 1]:
        # U_0 is the seed U(1/2), and U_(j+1) = coef[j] U_j - q[j] U_(j-1)
        # is the value of step j.  U_j reaches U(a) through steps j and
        # j + 1, so the adjoint recurrence
        # sens[j] = coef[j] sens[j+1] - q[j+1] sens[j+2] runs back up
        # from sens[steps] = 1 and sens[steps+1] = 0.  Over the scale, no
        # sensitivity overflows where U(a) is near the float range.
        sens = np.empty((steps + 2, z.size))
        sens[-1] = 0.0
        np.divide(1.0, scale, out=sens[steps])
        for j in range(steps - 1, -1, -1):
            np.multiply(sens[j + 1], coef[j], out=sens[j])
            sens[j] -= np.multiply(sens[j + 2], q[j + 1], out=pq[1, j])
        np.abs(sens, out=sens)
        # the rounding of step j falls on U_(j+1)
        size *= sens[1:-1]
        rounding = np.sqrt(np.einsum("ij,ij->j", size, size))
        # the upper seed U_(-1) = U(3/2) enters step 0 only, times q[0]
        u = vals[-1]
        err = (err * sens[0] + err_hi * abs(q[0]) * sens[1]
               + 2.0 * _EPS * rounding) * scale
    # an overflowed step makes err infinite or NaN, and its NaN ratio
    # would hide the other points from the bound below
    if not np.isfinite(err).all():
        raise ValueError(f"U({a},2,z) leaves the float range")
    return _held(a, u, err, float((err / scale).max(initial=0.0)), rtol)


def _held(a, u, err, worst, rtol):
    """(u, err) if worst, the largest error estimate as a fraction of its
    scale, is within 10 rtol; ``ConvergenceError`` otherwise."""
    if worst > 10.0 * rtol:
        raise ConvergenceError(
            f"U({a},2,z) did not converge: error {worst:.2e} of its scale "
            f"against rtol {rtol:.1e}", u, err)
    return u, err


def _u_polynomial(a, z, rtol):
    """U(a,2,z) for integer a <= 1 over an array of z > 0, by its closed
    forms: 1/z at a = 1, and (-1)^k k! L_k^(1)(z) at a = -k <= 0, with
    j L_j = (2j - z) L_(j-1) - j L_(j-2) from L_(-1) = 0, L_0 = 1.

    The estimate is held to 10 rtol of its scale: eps |U| at a = 1;
    (k + 1)(4 + k/8) eps of k! |L_k^(1)(-z)|, the sum of the magnitudes
    of the terms, at a = -k.  Near z = 0 the recurrence is
    2 L_(j-1) - L_(j-2), whose double root carries each rounding into
    every later step, so the error grows like k^2 eps (against exact
    rational sums at 7,044 points with k <= 170: at most 0.57 of the
    estimate, where 4 (k + 1) eps fell short up to 3.5-fold).

    k <= 170 on the slice, so k! is a float.  Raises ``ValueError`` where
    a value leaves the float range; a finite value whose estimate
    overflows keeps an infinite estimate.
    """
    if a == 1.0:
        vals = size = 1.0 / z
        worst = _EPS
    else:
        k = round(-a)
        fact = float(math.factorial(k))
        # the terms of L_k^(1)(z) alternate in sign; at -z they add up.
        # Each step goes into the buffer of L_(j-2).
        zs = np.array([z, -z])
        prev, cur, nxt = np.empty((3, *zs.shape))
        prev[:], cur[:] = 0.0, 1.0
        for j in range(1, k + 1):
            np.subtract(2 * j, zs, out=nxt)
            nxt *= cur
            prev *= j
            nxt -= prev
            nxt /= j
            prev, cur, nxt = cur, nxt, prev
        vals, size = (-fact if k % 2 else fact) * cur
        worst = (k + 1) * (4.0 + k / 8.0) * _EPS
    if not np.isfinite(vals).all():
        raise ValueError(f"U({a},2,z) leaves the float range")
    return _held(a, vals, worst * np.abs(size), worst, rtol)


@lru_cache(maxsize=64)
def _series_coefficients(a):
    """Coefficients in z of DLMF 13.2.9 at b = 2, for non-integer a.

    U(a,2,z) = 1/(Gamma(a) z) + sum_k c_k z^k (ln z + d_k), with
    c_k = (a)_k / (Gamma(a-1) k! (k+1)!), d_k = psi(a+k) - psi(k+1) - psi(k+2).
    Columns: c_k, c_k d_k; the same at a + 1; the magnitudes at a weighted
    by the roundings behind term k.  Rows end where terms stop mattering.
    None where the terms or their sizes at z = 2 overflow (a = -329/2 to
    -341/2; at -341/2 1/Gamma(a-1), a factor of every c_k, does), so the
    series cannot serve a.
    """
    k = np.arange(_SERIES_TERMS, dtype=float)
    # psi(a + k) and psi(k + 1) for k = 0 .. _SERIES_TERMS
    psi_a, psi_1 = _digamma(a, _SERIES_TERMS + 1), _digamma(1.0, _SERIES_TERMS + 1)
    cols = []
    for s, psi_s in ((a, psi_a[:-1]), (a + 1.0, psi_a[1:])):
        c = _rgamma(s - 1.0) * np.cumprod(
            np.append(1.0, (s + k[1:] - 1.0) / (k[1:] * (k[1:] + 1.0))))
        cols += [c, c * (psi_s - psi_1[:-1] - psi_1[1:])]
    cols += [(k + 4.0) * np.abs(cols[0]), (k + 4.0) * np.abs(cols[1])]
    cols = np.stack(cols, axis=1)
    size = np.abs(cols).max(axis=1) * _SERIES_Z ** k
    # an infinite size would also cut the rows short
    if not np.isfinite(size).all():
        return None
    return cols[:np.flatnonzero(size >= 1e-18 * size.max())[-1] + 1]


def _u_series(a, z):
    """U(a,2,z) by DLMF 13.2.9 over an array of small z > 0: values, their
    rounding error and the scale max(|U(a)|, |U(a+1)|), never near zero.

    The sums over k are one product of the table with the powers z^k,
    which gives each sum as a row.  a must have a series table."""
    table = _series_coefficients(a)
    c, cd, c1, cd1, mc, mcd = table.T @ _powers(z, len(table))
    lz = np.log(z)
    head = _rgamma(a) / z
    vals = head + lz * c + cd
    above = _rgamma(a + 1.0) / z + lz * c1 + cd1
    err = _EPS * (4.0 * np.abs(head) + np.abs(lz) * mc + mcd)
    return vals, err, np.maximum(np.abs(vals), np.abs(above))


def _on_slice(a, b):
    """a as a float; ValueError unless b = 2, -341/2 <= a <= 3/2 and 2a is
    exactly an integer: the one statement of the slice.

    Below -341/2 the routes' factors leave the float range: k! of the
    polynomial from a = -171 on, 1/Gamma(a-1) of the series from -341/2
    on, and the recurrence's values at nearly every z (none finite over
    7,001 z from 1e-6 to 1e6 at a = -171.5).  The bounds come first,
    so NaN and +-inf never reach ``round``.
    """
    if not (b == 2.0 and -170.5 <= a <= 1.5 and 2.0 * a == round(2.0 * a)):
        raise ValueError(
            f"U(a,b,z) covers b = 2 and half-integer a from -341/2 to 3/2; "
            f"below, it leaves the float range; got a={a}, b={b}")
    return float(a)


def _u_array(a, b, z, rtol=1e-10):
    """U(a,b,z) and an absolute error estimate over a 1-D array of z > 0.

    Routes per point as the module docstring says; each route's error
    estimate is held to 10 rtol of its scale: |U| at a = 1 and
    k! |L_k^(1)(-z)|, the sum of the magnitudes of its terms, for the
    polynomial at a = -k, max(|U(a)|, |U(a+1)|) for the series, the
    largest |U| along the chain for the recurrence.

    Raises
    ------
    ValueError
        If (a, b) is off the slice of the module docstring, rtol is not
        positive and finite, or the polynomial or the recurrence leaves
        the float range.
    ConvergenceError
        If the closed forms or the recurrence cannot meet that bound.
    """
    a = _on_slice(a, b)
    _check_tolerance(rtol)
    z = np.asarray(z, dtype=float)
    if a == round(a):
        return _u_polynomial(a, z, rtol)
    near = z < _SERIES_Z
    count = np.count_nonzero(near)
    # the table is built only for a batch that reaches below the crossover
    if not count or _series_coefficients(a) is None:
        return _u_chain(a, z, rtol)
    whole = count == z.size
    v, e, scale = _u_series(a, z if whole else z[near])
    ok = e / scale <= 10.0 * rtol  # the bound the chain is held to
    rest = ~near  # the points left to the recurrence
    if not ok.all():
        rest[near] = ~ok
    elif whole:
        return v, e
    vals, err = np.empty((2, z.size))
    vals[near], err[near] = v, e
    vals[rest], err[rest] = _u_chain(a, z[rest], rtol)
    return vals, err


def tricomi_u(a, b, z, rtol=1e-10, full_output=False):
    """Tricomi confluent hypergeometric function U(a, b, z), z > 0.

    Parameters
    ----------
    a, b : float
        Parameters: b = 2 and a from -341/2 to 3/2 with 2a exactly an
        integer, the slice the bound states use; anything else, NaN and
        +-inf too, raises ``ValueError``.
    z : float
        Argument, strictly positive and finite.
    rtol : float
        Requested relative accuracy, positive and finite, measured near
        zeros of U, where relative error loses meaning, against the scale
        of the route: the sum of the magnitudes of the polynomial's terms
        at integer a, the largest |U| of the series or the recurrence at
        half-integer a.
    full_output : bool
        If true, return ``(value, error_estimate)``.

    Returns
    -------
    float or (float, float)

    Raises
    ------
    ValueError
        If (a, b) is off the supported slice, z or rtol is not positive
        and finite, or U leaves the float range.
    ConvergenceError
        If the requested accuracy cannot be reached.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"argument must be positive and finite, got z={z}")
    # near the float range the series table, the recurrence and the
    # polynomial's sum of magnitudes overflow where _u_array tolerates
    # it; it raises if U itself leaves the range
    with np.errstate(over="ignore", invalid="ignore"):
        (val,), (err,) = _u_array(a, b, np.array([z], dtype=float), rtol)
    return (float(val), float(err)) if full_output else float(val)
