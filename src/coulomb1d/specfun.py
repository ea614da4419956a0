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
- half-integer a, z < 4: the logarithmic series DLMF 13.2.9 at a itself,
  where its own estimate of the cancellation among its terms meets the
  tolerance (so the crossover moves to smaller z as |a| grows);
- every other half-integer point: seeds U(1/2,2,z) and U(3/2,2,z), from
  the same series below z = 2 and from the modified Bessel functions K0
  and K1 above, then the three-term recurrence in a run downward to a,
  the stable direction for U.  The seeds keep the lower crossover, where
  K0 and K1 are the more accurate.

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
_FLOAT_MAX = np.finfo(float).max
_SQRT_PI = math.sqrt(math.pi)
# the series is tried for values below this; its terms fall like z^k / k!
# past k ~ |a|
_SERIES_Z = 4.0
# the recurrence's seeds come from the series below this and from K0/K1
# above: over z in [2, 4) the series' U(1/2) and U(3/2) are within 14 and
# 721 eps of |U|, K0/K1's within 2 and 8 (against mpmath, 200 points)
_SEED_Z = 2.0
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


# sqrt(x) e^x K_nu(x), columns nu = 0 and 1, as a polynomial in
# t = 2/x - 1 over x >= 1: the monomial coefficients of its Chebyshev
# expansion to T_31, converted exactly at 40 digits from mpmath 1.3's
# coefficients (besselk at 40 digits on 140 Chebyshev nodes).  The first
# Chebyshev coefficient left out is below 2e-17.  The sums of |coefficient|,
# 1.25 and 1.67, are those of the values, 1.14 to 1.64, so the monomial
# form loses no digits to cancellation.
_K_POWERS = np.array([
    (1.1901571834152027, 1.4615569735231244),
    (-0.0522790114917577, 0.18797890654571855),
    (0.008067386548377206, -0.015852854565988866),
    (-0.0019084014862734363, 0.0031120066456231514),
    (0.0005692398880143064, -0.000844392741014426),
    (-0.00019727982061389378, 0.0002760388399705941),
    (7.608267047161973e-05, -0.00010227196572996217),
    (-3.181480563469283e-05, 4.152315925908098e-05),
    (1.4181412054795868e-05, -1.8092583795002695e-05),
    (-6.658994277338526e-06, 8.342551942919494e-06),
    (3.2679117134433693e-06, -4.033194971020719e-06),
    (-1.6653737675780888e-06, 2.0295346733984334e-06),
    (8.599860986689249e-07, -1.0387350569918995e-06),
    (-4.5160578287500606e-07, 5.418683353836388e-07),
    (3.2220411464413024e-07, -3.7590847805254936e-07),
    (-2.3202854129329047e-07, 2.6532661955711313e-07),
    (-1.1413859928888331e-07, 1.1699172302245535e-07),
    (2.0294056802289497e-07, -2.1626576754352872e-07),
    (4.997104747309902e-07, -5.452711371747071e-07),
    (-5.726676094777936e-07, 6.225946860783068e-07),
    (-7.888900862184987e-07, 8.570005704916105e-07),
    (8.799046504578672e-07, -9.545322767894645e-07),
    (9.831071489978764e-07, -1.0692595860290312e-06),
    (-1.0289697462594406e-06, 1.1170624309986416e-06),
    (-8.386623449242066e-07, 9.1213020889202e-07),
    (8.370799697444411e-07, -9.088111933518854e-07),
    (4.835761693267897e-07, -5.261865080476922e-07),
    (-4.6055169493597123e-07, 5.00219639468379e-07),
    (-1.6738552899793128e-07, 1.8219929809954913e-07),
    (1.5290053399938993e-07, -1.6612903754172516e-07),
    (2.720791665570902e-08, -2.964328009721701e-08),
    (-2.3784325357181936e-08, 2.5863255020050868e-08),
])


def _k_scaled(x):
    """e^x K0(x) and e^x K1(x), the rows of a (2, x.size) array, from the
    polynomial `_K_POWERS` over an array of x >= 1 (measured against
    mpmath over 4,800 x from 1 to 1e5: within 1.9 eps; 4.7 eps with the
    leading term inside the product)."""
    powers = _powers(2.0 / x - 1.0, len(_K_POWERS))
    # the leading term is added last, after the small ones
    k = _K_POWERS[1:].T @ powers[1:]
    k += _K_POWERS[0][:, None]
    k /= np.sqrt(x)
    return k


def _u_seeds(z):
    """U(1/2,2,z) and U(3/2,2,z), each with a rounding estimate:
    (U(1/2), error, U(3/2), error) over an array of z > 0.

    Below z = `_SEED_Z` one sum of the series `_u_series` at a = 1/2,
    which gives both with their own estimates.  From there on DLMF 13.6.10
    with the contiguous and derivative relations of 13.3 give, with k0e,
    k1e the scaled modified Bessel functions e^x K(x) at x = z/2 >= 1 from
    `_k_scaled`,
    U(1/2,2,z) = (k0e + k1e) / (2 sqrt(pi)), U(3/2,2,z) = (k1e - k0e) / sqrt(pi),
    both good to a few eps (k0e + k1e) / sqrt(pi).
    """
    near = z < _SEED_Z
    if not near.any():  # as for every recurrence batch of points z >= 2
        k0, k1 = _k_scaled(0.5 * z)
        total = k0 + k1
        err = 4.0 * _EPS * total / _SQRT_PI
        return total / (2.0 * _SQRT_PI), err, (k1 - k0) / _SQRT_PI, err
    seeds = np.empty((4, z.size))
    seeds[:, near] = _u_series(0.5, z[near])
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
    Returns (heads, table): heads the column 1/Gamma(a), 1/Gamma(a+1) of
    the 1/z terms; table the columns c_k, c_k d_k and their magnitudes
    weighted by the roundings behind term k, each at a then at a + 1.  Rows
    end where the terms at z = `_SERIES_Z` fall below 1e-18 of the
    largest, compared in logs, for their sizes there overflow at a = -323/2
    to -327/2, which the series serves.  None where the terms or their
    sizes at z = 2 would overflow (a = -329/2 to -339/2; at -341/2
    1/Gamma(a-1), a factor of every c_k, does), so the series cannot serve
    a; that is decided before any product leaves the float range.
    """
    k = np.arange(_SERIES_TERMS, dtype=float)
    s = np.array([[a], [a + 1.0]])
    # psi(a + k) and psi(k + 1) for k = 0 .. _SERIES_TERMS
    psi_a, psi_1 = _digamma(a, _SERIES_TERMS + 1), _digamma(1.0, _SERIES_TERMS + 1)
    d = np.array([psi_a[:-1], psi_a[1:]]) - psi_1[:-1] - psi_1[1:]
    # c_k = g scaled_k, with g = 1/Gamma(s-1) and
    # scaled_k = (s)_k / (k! (k+1)!), at s = a and a + 1
    g = np.array([[_rgamma(a - 1.0)], [_rgamma(a)]])
    steps = np.ones((2, _SERIES_TERMS))
    steps[:, 1:] = (s + k[1:] - 1.0) / (k[1:] * (k[1:] + 1.0))
    scaled = np.cumprod(steps, axis=1)
    # the largest magnitude column of each row at z = 2, over |g|; at
    # least 4, from k = 0
    unit = (k + 4.0) * np.abs(scaled) * np.maximum(1.0, np.abs(d)) * 2.0 ** k
    if not (np.abs(g[:, 0]) <= _FLOAT_MAX / unit.max(axis=1)).all():
        return None
    c = g * scaled
    cd = c * d
    cols = np.concatenate([c, cd, (k + 4.0) * np.abs(c), (k + 4.0) * np.abs(cd)]).T
    # a size that underflows to 0 has log -inf, and is cut
    with np.errstate(divide="ignore"):
        log_size = (np.log((np.abs(g) * unit).max(axis=0))
                    + k * math.log(_SERIES_Z / 2.0))
    rows = np.flatnonzero(log_size >= log_size.max() + math.log(1e-18))[-1] + 1
    return np.array([[_rgamma(a)], [_rgamma(a + 1.0)]]), cols[:rows]


def _u_series(a, z):
    """U(a,2,z) and U(a+1,2,z) by DLMF 13.2.9 over an array of small z > 0,
    each with its rounding error: (U(a), error, U(a+1), error).

    The sums over k are one product of the table with the powers z^k,
    which gives each sum as a row.  a must have a series table."""
    heads, table = _series_coefficients(a)
    # c, c d and their magnitudes, each a pair of rows at a and a + 1
    c, cd, mc, mcd = (table.T @ _powers(z, len(table))).reshape(4, 2, z.size)
    lz = np.log(z)
    head = heads / z
    vals = head + lz * c + cd
    err = _EPS * (4.0 * np.abs(head) + np.abs(lz) * mc + mcd)
    return vals[0], err[0], vals[1], err[1]


def _on_slice(a, b):
    """a as a float; ValueError unless b = 2, -341/2 <= a <= 3/2 and 2a is
    exactly an integer: the one statement of the slice.

    Below -341/2 the routes' factors leave the float range: k! of the
    polynomial from a = -171 on, 1/Gamma(a-1) of the series from -341/2
    on, and the recurrence's values at nearly every z (none finite over
    7,001 z from 1e-6 to 1e6 at a = -171.5).  The bounds come first,
    so NaN and +-inf never reach ``round``.
    """
    # a bool compares as 0 or 1, and is no parameter
    if isinstance(a, (bool, np.bool_)) or not (
            b == 2.0 and -170.5 <= a <= 1.5 and 2.0 * a == round(2.0 * a)):
        raise ValueError(
            f"U(a,b,z) covers b = 2 and half-integer a from -341/2 to 3/2; "
            f"below, it leaves the float range; got a={a}, b={b}")
    return float(a)


# Near the float range the routes overflow where they tolerate it: a
# recurrence step past it leaves an infinite or NaN estimate, which raises
# ValueError; the series' sums towards z = 4 (a = -161.5 to -163.5) and
# the polynomial's sum of magnitudes (a = -162 to -170) give estimates
# that reject their points or stay infinite.  One errstate here keeps
# those overflows from warning, for every route and every caller.
@np.errstate(over="ignore", invalid="ignore")
def _u_array(a, b, z, rtol=1e-10):
    """U(a,b,z) and an absolute error estimate over a 1-D array of z > 0.

    Routes per point as the module docstring says; each route's error
    estimate is held to 10 rtol of its scale: |U| at a = 1 and
    k! |L_k^(1)(-z)|, the sum of the magnitudes of its terms, for the
    polynomial at a = -k, max(|U(a)|, |U(a+1)|) for the series, the
    largest |U| along the chain for the recurrence.  No route emits a
    floating-point warning.

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
    v, e, above, _ = _u_series(a, z if whole else z[near])
    # the chain's bound, against the series' scale max(|U(a)|, |U(a+1)|),
    # which is never near zero
    ok = e / np.maximum(np.abs(v), np.abs(above)) <= 10.0 * rtol
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
    # a bool compares as 0 or 1, and is no argument
    if isinstance(z, (bool, np.bool_)) or not 0.0 < z < math.inf:
        raise ValueError(f"argument must be positive and finite, got z={z}")
    (val,), (err,) = _u_array(a, b, np.array([z], dtype=float), rtol)
    return (float(val), float(err)) if full_output else float(val)
