"""Exact bound states of the 1D Coulomb potential -1/|x|.

The eigenfunctions are

    psi_n(x) = sign(x)^n W_{(n+1)/2, 1/2}(4|x|/(n+1)),    E_n = -2/(n+1)^2,

unnormalized, with even/odd parity following n.  Odd states reduce to
polynomial-times-exponential form; even states keep a logarithmic cusp
at the origin, where psi is finite but psi' diverges.

Norms are closed forms, with nu = (n+1)/2: the integral of psi_n^2 is
2 nu (nu!)^2 for odd n and (Gamma(nu)/pi)^2 [2 nu^2 + nu + 2 nu^3
trigamma(1 - nu)] for even n, from a Wronskian identity with DLMF 13.2.9
and 5.15.5 (see ``normalize``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import _on_slice, _rgamma, _u_array

__all__ = [
    "BoundState",
    "exact_energy",
    "node_count",
    "normalize",
    "ode_residual",
    "wavefunction",
]


@dataclass(frozen=True)
class BoundState:
    """A bound level: quantum number, energy (Hartree), parity, norm.

    ``norm`` scales the unnormalized ``wavefunction`` to unit L2 norm:
    the integral of |norm * psi_n|^2 over the line equals 1.
    """

    n: int
    energy: float
    parity: str
    norm: float


def _check_n(n):
    """n as an int; ``ValueError`` unless it is a non-negative integer in
    the float range.  The one check of a quantum number, wkb's too."""
    # the bound also refuses inf, nan and integers past the float range
    if not 0 <= n <= sys.float_info.max or n != int(n):
        raise ValueError(f"quantum number must be a non-negative integer, got {n}")
    return int(n)


def _check_state(n):
    """n as an int, refused as ``_check_n`` does and where U(1-kappa,2,z)
    of psi_n is off specfun's slice: from n = 343 on, where it leaves
    the float range.  Asked before any work of the size of n."""
    n = _check_n(n)
    try:
        _on_slice(0.5 * (1 - n), 2.0)
    except ValueError:
        raise ValueError(f"psi_{n} leaves the float range") from None
    return n


def exact_energy(n):
    """Bound-state energy E_n = -2/(n+1)^2 in Hartree.

    Raises ``ValueError`` unless n is a non-negative integer, and where
    E_n underflows to zero (n + 1 past about 9e161).
    """
    n = _check_n(n)
    # int / int rounds once, also where (n + 1)^2 is past the float range
    energy = -2 / (n + 1) ** 2
    if energy == 0.0:
        raise ValueError(f"E_n = -2/(n+1)^2 underflows to zero at n = {n:.3g}")
    return energy


def _w_values(n, z, rtol=1e-11):
    """W_{(n+1)/2,1/2}(z) = e^(-z/2) z U(1-kappa, 2, z) at an array of z >= 0,
    with the limit 1/Gamma(1-kappa) at z = 0: the package's one W evaluator."""
    a = 0.5 * (1 - n)  # 1 - kappa
    pos = z > 0.0
    if pos.all():
        u = _u_array(a, 2.0, z.ravel(), rtol=rtol)[0].reshape(z.shape)
        return np.exp(-0.5 * z) * z * u
    out = np.full(z.shape, _rgamma(a))
    zp = z[pos]
    out[pos] = np.exp(-0.5 * zp) * zp * _u_array(a, 2.0, zp, rtol=rtol)[0]
    return out


def wavefunction(n, x, rtol=1e-11):
    """Unnormalized eigenfunction psi_n at x (scalar or array).

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    x : float or array_like
        Evaluation points; the origin is allowed (even states take their
        finite limit there, odd states vanish).
    rtol : float
        Relative accuracy of the underlying Whittaker evaluation.

    Returns
    -------
    float or ndarray

    Raises
    ------
    ValueError
        Where the evaluation leaves the float range though psi may be
        finite: U far out at large n (x = 221^2 for n = 220), at
        subnormal x, and from n = 343 on at once, where U(1-kappa,2,z) is
        off specfun's slice.  At n = 342 nearly every x raises: of 6,000 x
        from 1e-6 to 1e8, 135 return, with 4|x|/(n+1) from 0.007 to 5.7.
    ConvergenceError
        Where U cannot be brought within rtol.  At the default rtol every
        even n from 144 to 338 raises over x in [-10, 10] (2001 points):
        the series rejects a narrow band of z, [0.2535, 0.2563] at
        n = 144, and there the recurrence's estimate exceeds 10 rtol of its
        scale (1.02e-10 at n = 144, 1.35e-10 at n = 200, 2.08e-10 at
        n = 338), though its values there are within 4e-11 of the scale.
    """
    n = _check_state(n)
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("non-finite evaluation point")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _w_values(n, 4.0 * np.abs(xs) / (n + 1), rtol=rtol)
    if not np.isfinite(vals).all():
        raise ValueError(f"psi_{n} leaves the float range")
    if n % 2:
        vals = np.sign(xs) * vals
    return float(vals) if vals.ndim == 0 else vals


def normalize(n):
    """Return the BoundState for level n with its L2 normalization constant.

    ``norm`` = 1/sqrt(N), N the integral of psi_n^2 over the line, in
    closed form with nu = (n+1)/2; no wavefunction is evaluated.

    - odd n: N = 2 nu (nu!)^2, an exact integer rounded once;
    - even n: N = (Gamma(nu)/pi)^2 [2 nu^2 + nu + 2 nu^3 T] with
      T = trigamma(1 - nu) = pi^2/2 + 4 sum_{j=1}^{n/2} 1/(2j-1)^2, from the
      Wronskian identity int_0^inf psi_E^2 dx = (psi dpsi'/dE -
      psi' dpsi/dE)/2 at x = 0+ for psi_E(x) = W_{nu,1/2}(2x/nu),
      E = -1/(2 nu^2), with the small-z expansion of U (DLMF 13.2.9), whose
      log terms cancel, and trigamma(x) = trigamma(x+1) + 1/x^2 (DLMF
      5.15.5).  The norm is pi / (Gamma(nu) sqrt(bracket)): nothing is
      squared, no term is negative, and it is good to a few eps.

    Raises ``ValueError`` where N leaves the float range (odd n >= 195,
    even n >= 340) instead of returning a norm of 0.
    """
    n = _check_n(n)
    nu = 0.5 * (n + 1)
    try:
        # Gamma first: past n = 342 it overflows before an exact m! or a
        # sum of n/2 terms
        gamma = math.gamma(nu)
        if n % 2:
            m = (n + 1) // 2
            norm = 1.0 / math.sqrt(2 * m * math.factorial(m) ** 2)
        else:
            t = math.fsum([0.5 * math.pi ** 2]
                          + [4.0 / (2 * j - 1) ** 2 for j in range(1, n // 2 + 1)])
            bracket = 2.0 * nu * nu + nu + 2.0 * nu ** 3 * t
            norm = math.pi / (gamma * math.sqrt(bracket))
    except OverflowError:  # Gamma(nu), or the odd integer N, past the float range
        norm = 0.0
    if norm == 0.0:  # or an even denominator that overflowed to inf
        raise ValueError(f"the integral of psi_{n}^2 exceeds the float range")
    return BoundState(n=n, energy=exact_energy(n),
                      parity="odd" if n % 2 else "even", norm=norm)


def node_count(n):
    """Count the nodes of psi_n from its sign changes in t = sqrt(|x|).

    No node lies beyond the classical turning point x_t = (n+1)^2/2: there
    V - E > 0, so (psi psi')' = psi'^2 + 2 (V - E) psi^2 > 0, and with
    psi psi' -> 0 at infinity psi psi' < 0, so psi cannot vanish.  The
    samples cover (0, 2 x_t] at t_j = (j + 1/2)/10, j < 10(n+1).  In t the
    local wavenumber of psi is 2 sqrt(2 (1 + E t^2)) <= 2 sqrt(2), so its
    nodes lie at least pi/(2 sqrt(2)) ~ 1.11 apart in t, more than 11
    samples; the first sample, x = 0.0025, lies before the first node.
    x = 0 is never sampled: the origin node of odd states is added by
    parity, and the mirror image doubles the rest.

    Raises ``ValueError`` on a sign change sampled past x_t, which only
    a wrong evaluation of psi gives, and from n = 216 on, where
    ``wavefunction`` leaves the float range; from n = 343 on before any
    sample is built.
    """
    n = _check_state(n)
    t = (np.arange(10 * (n + 1)) + 0.5) / 10.0
    xs = t * t
    flips = sign_changes(wavefunction(n, xs))
    if np.any(xs[flips] > 0.5 * (n + 1) ** 2):
        raise ValueError(f"psi_{n} changes sign past its turning point "
                         f"x = {0.5 * (n + 1) ** 2:g}, where it has no node")
    return 2 * flips.size + n % 2


def sign_changes(values):
    """Indices i where values[i] has the opposite sign of the sample before it.

    Samples below 1e-8 of the largest magnitude carry no reliable sign
    (decaying tails, rounding noise) and are skipped, so a flip is
    counted between the nearest kept neighbours.
    """
    magnitude = np.abs(values)
    kept = magnitude > 1e-8 * magnitude.max()
    # freed before the index array, and signs taken as booleans, so that
    # no two temporaries of the size of values are alive at once
    del magnitude
    keep = np.flatnonzero(kept)
    negative = np.signbit(values)[kept]
    return keep[1:][negative[1:] != negative[:-1]]


def ode_residual(n, x):
    """Residual of -(1/2) psi'' - psi/|x| - E_n psi at a point x != 0.

    psi'' is computed from central second differences at three step
    sizes combined by Richardson extrapolation, so the result measures
    how well the constructed state satisfies the differential equation,
    not the differentiation error.

    Parameters
    ----------
    n : int
        Quantum number.
    x : float
        Evaluation point with |x| >= 0.05 (closer to the origin the
        even-state cusp defeats finite differences).

    Returns
    -------
    float
        Absolute residual value.
    """
    n = _check_n(n)
    if abs(x) < 0.05:
        raise ValueError(f"residual check requires |x| >= 0.05, got {x}")
    # h <= |x|/5, so the stencil stays on the side of the origin x is on
    h = min(0.02, abs(x) / 5.0)
    pts = np.array([x - h, x - h / 2, x - h / 4, x,
                    x + h / 4, x + h / 2, x + h])
    f = wavefunction(n, pts, rtol=1e-12)
    d1 = (f[0] - 2.0 * f[3] + f[6]) / h ** 2
    d2 = (f[1] - 2.0 * f[3] + f[5]) / (h / 2) ** 2
    d3 = (f[2] - 2.0 * f[3] + f[4]) / (h / 4) ** 2
    second = (64.0 * d3 - 20.0 * d2 + d1) / 45.0
    psi = f[3]
    return abs(-0.5 * second - psi / abs(x) - exact_energy(n) * psi)
