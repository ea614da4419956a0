"""Tricomi confluent hypergeometric function U(a,b,z) and Whittaker W_{kappa,mu}(z).

Only the real-argument slice needed for the bound states is covered:
b = 2 (the logarithmic case), a <= 2, z >= 0.  One batched evaluator,
``_u_array``, computes U and picks the route per point by argument region
(Gil, Segura and Temme, *Numerical Methods for Special Functions*, 2007):

- non-positive integer a: the polynomial U(-k,b,z) = (-1)^k k! L_k^(b-1)(z);
- b = 2, z < 2: the logarithmic series DLMF 13.2.9 at a itself, where its
  own estimate of the cancellation among its terms meets the tolerance
  (so the crossover moves to smaller z as |a| grows);
- everything else: quadrature of the integral representation
  U(a,b,z) = 1/Gamma(a) int_0^inf exp(-z t) t^(a-1) (1+t)^(b-a-1) dt at
  seeds a0 in (0, 1] and a0 + 1, then the three-term recurrence in a run
  downward to a, the stable direction for U.

Values come with error estimates, relative to |U| or, near a zero of U,
to the recurrence scale; a point no route brings within the tolerance
raises ``ConvergenceError`` instead of returning a loose number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma, rgamma

from .quadrature import ConvergenceError, _rule

__all__ = [
    "WhittakerParams",
    "laguerre",
    "reciprocal_gamma",
    "tricomi_u",
    "whittaker_w",
]

_INTEGER_TOL = 1e-12
_EPS = np.finfo(float).eps
# the series serves z below this; its terms fall like z^k / k! past k ~ |a|
_SERIES_Z = 2.0
_SERIES_TERMS = 200


@dataclass(frozen=True)
class WhittakerParams:
    """Index pair and argument for W_{kappa,mu}(z).

    Attributes
    ----------
    kappa : float
        First index; the bound states use kappa = (n+1)/2.
    mu : float
        Second index; this artifact supports mu = 1/2 only.
    z : float
        Argument, z >= 0 (z = 0 is handled as a limit).
    """

    kappa: float
    mu: float
    z: float


def laguerre(k, alpha, z):
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


def reciprocal_gamma(x):
    """1/Gamma(x), finite for all real x (zero at the poles of Gamma)."""
    return float(rgamma(x))


def _substitution_power(a):
    """Integer p such that t = v**p makes the t^(a-1) factor polynomial-ish.

    If p*a is an integer the transformed integrand carries v**(p*a - 1),
    which is smooth at v = 0; otherwise fall back to p = ceil(1/a), which
    at least bounds the integrand there.
    """
    for p in range(1, 9):
        if abs(p * a - round(p * a)) < _INTEGER_TOL and round(p * a) >= 1:
            return p
    return max(1, math.ceil(1.0 / a))


def _u_integral_array(a, b, z, rtol):
    """U(a,b,z) for a > 0 over an array of z > 0, with its error estimate.

    The integral representation, with t = v**p absorbing the t^(a-1)
    endpoint factor, is rescaled to [0, 1] per argument and the whole
    batch goes through one Gauss-Legendre rule, doubling the order until
    no point changes by more than rtol of its value.  The error estimate
    is that last change.
    """
    p = _substitution_power(a)
    m = p * a - 1.0
    c = b - a - 1.0
    # truncate where exp(-z t) has decayed below 1e-22 of everything else
    t_max = 50.0 / z
    if c > 0:
        t_max = (50.0 + c * np.log(np.maximum(t_max, 2.0))) / z
    v_max = t_max ** (1.0 / p)

    g = math.gamma(a)
    prev = None
    for order in (64, 128, 256, 512, 1024, 2048):
        nodes, weights = _rule(order)
        v = np.outer(v_max, 0.5 * (nodes + 1.0))
        vp = v ** p
        mat = np.exp(-z[:, None] * vp) * (1.0 + vp) ** c
        if m != 0.0:
            mat *= v ** m
        vals = 0.5 * p * v_max * (mat @ weights)
        if prev is not None:
            change = np.abs(vals - prev)
            worst = float(np.max(change / np.maximum(np.abs(vals), 1e-300)))
            if worst <= rtol:
                return vals / g, change / g
        prev = vals
    raise ConvergenceError(
        f"U({a},{b},z) by quadrature did not converge by order {order}",
        prev / g, worst)


def _u_chain(a, b, z, rtol):
    """U(a,b,z) over an array of z > 0 from quadrature seeds and recurrence.

    Seeds U(a0,b,z) and U(a0+1,b,z), a0 = a + steps in (0, 1], then
    U(s-1,b,z) = (z + 2s - b) U(s,b,z) - s (1 + s - b) U(s+1,b,z) down to
    a (a > 0 is integrated directly).  The same recurrence carries the
    responses to the seed errors, which it amplifies most at small z and
    large |a|; they and the roundings of the steps make the error
    estimate, held to 10 rtol of the largest |U| along the chain.
    """
    steps = math.floor(-a) + 1 if a <= 0.0 else 0
    s = a + steps
    cur, err = _u_integral_array(s, b, z, rtol)
    if steps == 0:
        return cur, err
    hi, err_hi = _u_integral_array(s + 1.0, b, z, rtol)
    scale = np.maximum(np.abs(cur), np.abs(hi))
    # rows: U, and its responses to the errors of U(a0) and U(a0+1), each
    # widened by the roundings of the steps to come
    zero = np.zeros_like(z)
    cur = np.array([cur, err + 4.0 * steps * _EPS * np.abs(cur), zero])
    hi = np.array([hi, zero, err_hi + 4.0 * steps * _EPS * np.abs(hi)])
    rounding = 0.0
    for _ in range(steps):
        p, q = (z + 2.0 * s - b) * cur, s * (1.0 + s - b) * hi
        rounding += np.abs(p[0]) + np.abs(q[0])
        cur, hi = p - q, cur
        scale = np.maximum(scale, np.abs(cur[0]))
        s -= 1.0
    err = np.abs(cur[1]) + np.abs(cur[2]) + _EPS * rounding
    worst = float(np.max(err / scale, initial=0.0))
    if worst > 10.0 * rtol:
        raise ConvergenceError(
            f"U({a},{b},z) by recurrence lost accuracy to {worst:.2e} of its scale",
            cur[0], worst)
    return cur[0], err


@lru_cache(maxsize=64)
def _series_coefficients(a):
    """Coefficients in z of DLMF 13.2.9 at b = 2, for non-integer a.

    U(a,2,z) = 1/(Gamma(a) z) + sum_k c_k z^k (ln z + d_k), with
    c_k = (a)_k / (Gamma(a-1) k! (k+1)!), d_k = psi(a+k) - psi(k+1) - psi(k+2).
    Columns: c_k, c_k d_k; the same at a + 1; the magnitudes at a weighted
    by the roundings behind term k.  Rows end where terms stop mattering.
    """
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


def _is_nonpositive_integer(a):
    return a <= 0.5 and abs(a - round(a)) < _INTEGER_TOL


def _u_array(a, b, z, rtol=1e-10):
    """U(a,b,z) and an absolute error estimate over a 1-D array of z > 0.

    Routes per point as the module docstring says; each route's error
    estimate is held to 10 rtol of its scale, max(|U(a)|, |U(a+1)|) for
    the series, the largest |U| along the chain for the recurrence.

    Raises
    ------
    ConvergenceError
        If the quadrature or the recurrence cannot meet that bound.
    """
    z = np.asarray(z, dtype=float)
    if _is_nonpositive_integer(a):
        k = round(-a)
        fact = math.factorial(k)
        # the terms of L_k^(b-1)(z) alternate in sign; at -z they add up
        lag, size = fact * laguerre(k, b - 1.0, np.array([z, -z]))
        return (-lag if k % 2 else lag), 4.0 * (k + 1) * _EPS * np.abs(size)
    vals, err = np.empty((2, z.size))
    rest = np.ones(z.size, dtype=bool)
    if b == 2.0:
        near = np.flatnonzero(z < _SERIES_Z)
        v, e, scale = _u_series(a, z[near])
        ok = e / scale <= 10.0 * rtol  # the bound the chain is held to
        vals[near[ok]], err[near[ok]], rest[near[ok]] = v[ok], e[ok], False
    if rest.any():
        vals[rest], err[rest] = _u_chain(a, b, z[rest], rtol)
    return vals, err


def tricomi_u(a, b, z, rtol=1e-10, method="auto", full_output=False):
    """Tricomi confluent hypergeometric function U(a, b, z), z > 0.

    Parameters
    ----------
    a, b : float
        Parameters.  The supported domain is a <= 2 with b = 2 at full
        accuracy; other real values go through the same machinery on a
        best-effort basis.
    z : float
        Argument, strictly positive.
    rtol : float
        Requested relative accuracy, measured against the recurrence
        scale near zeros of U where relative error loses meaning.
    method : {'auto', 'integral', 'laguerre'}
        'auto' routes by region (see the module docstring); 'laguerre'
        is the polynomial route (non-positive integer a only), 'integral'
        the non-polynomial one, quadrature plus recurrence for integer a.
        The explicit choices exist so the routes can be compared.
    full_output : bool
        If true, return ``(value, error_estimate)``.

    Returns
    -------
    float or (float, float)

    Raises
    ------
    ConvergenceError
        If the requested accuracy cannot be reached.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError("non-finite input")
    if z <= 0.0:
        raise ValueError(f"argument must be positive, got z={z}")
    if method not in ("auto", "integral", "laguerre"):
        raise ValueError(f"unknown method {method!r}")
    polynomial = _is_nonpositive_integer(a)
    if method == "laguerre" and not polynomial:
        raise ValueError("polynomial reduction requires a non-positive integer a")

    route = _u_chain if polynomial and method == "integral" else _u_array
    (val,), (err,) = route(a, b, np.array([z], dtype=float), rtol)
    return (float(val), float(err)) if full_output else float(val)


def whittaker_w(p, rtol=1e-10):
    """Whittaker function W_{kappa,1/2}(z) of the second kind.

    Uses W_{kappa,1/2}(z) = exp(-z/2) z U(1-kappa, 2, z) for z > 0 and
    the limit 1/Gamma(1-kappa) at z = 0 (zero when kappa is a positive
    integer, where W vanishes linearly).

    Parameters
    ----------
    p : WhittakerParams
        Indices and argument; p.mu must equal 1/2 and p.kappa must be a
        positive half-integer.
    rtol : float
        Accuracy passed through to the U evaluation.

    Returns
    -------
    float
    """
    if p.mu != 0.5:
        raise ValueError(f"only mu = 1/2 is supported, got mu={p.mu}")
    two_kappa = 2.0 * p.kappa
    if p.kappa <= 0 or abs(two_kappa - round(two_kappa)) > _INTEGER_TOL:
        raise ValueError(f"kappa must be a positive half-integer, got {p.kappa}")
    if p.z < 0:
        raise ValueError(f"argument must be non-negative, got z={p.z}")
    if p.z == 0.0:
        return reciprocal_gamma(1.0 - p.kappa)
    return math.exp(-0.5 * p.z) * p.z * tricomi_u(1.0 - p.kappa, 2.0, p.z, rtol=rtol)
