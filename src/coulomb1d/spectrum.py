"""Exact bound states of the 1D Coulomb potential -1/|x|.

The eigenfunctions are

    psi_n(x) = sign(x)^n W_{(n+1)/2, 1/2}(4|x|/(n+1)),    E_n = -2/(n+1)^2,

unnormalized, with even/odd parity following n.  Odd states reduce to
polynomial-times-exponential form; even states keep a logarithmic cusp
at the origin, where psi is finite but psi' diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive
from .specfun import _u_array, reciprocal_gamma

__all__ = [
    "BoundState",
    "cusp_indicator",
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
    if n < 0 or n != int(n):
        raise ValueError(f"quantum number must be a non-negative integer, got {n}")
    return int(n)


def exact_energy(n):
    """Bound-state energy E_n = -2/(n+1)^2 in Hartree."""
    n = _check_n(n)
    return -2.0 / (n + 1) ** 2


def _w_values(n, z, rtol=1e-11):
    """W_{(n+1)/2,1/2}(z) = e^(-z/2) z U(1-kappa, 2, z) at an array of z >= 0."""
    a = 0.5 * (1 - n)  # 1 - kappa
    out = np.full(z.shape, reciprocal_gamma(a))  # the limit at z = 0
    zp = z[z > 0.0]
    out[z > 0.0] = np.exp(-0.5 * zp) * zp * _u_array(a, 2.0, zp, rtol=rtol)[0]
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
    """
    n = _check_n(n)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite evaluation point")
    vals = _w_values(n, 4.0 * np.abs(xs) / (n + 1), rtol=rtol)
    if n % 2:
        vals = np.sign(xs) * vals
    return float(vals) if vals.ndim == 0 else vals


def normalize(n, rtol=1e-10):
    """Return the BoundState for level n with its L2 normalization constant.

    The squared wavefunction is integrated over the half line (doubled
    by parity), truncated where the integrand falls below 1e-16 of its
    peak.
    """
    n = _check_n(n)
    kappa = n + 1.0  # 2*kappa in the z variable; psi^2 ~ z^(n+1) e^(-z)
    z_cut = kappa + 40.0
    for _ in range(3):
        z_cut = kappa + 37.0 + kappa * math.log(z_cut / kappa)
    x_cut = 0.25 * (n + 1) * z_cut

    def integrand(x):
        v = wavefunction(n, x, rtol=1e-12)
        return v * v

    val, _ = adaptive(integrand, 0.0, x_cut, rtol=rtol)
    total = 2.0 * val
    return BoundState(n=n, energy=exact_energy(n),
                      parity="odd" if n % 2 else "even",
                      norm=1.0 / math.sqrt(total))


def node_count(n, window=None, samples=None):
    """Count strict sign changes of psi_n inside a symmetric window.

    Parameters
    ----------
    n : int
        Quantum number.
    window : (float, float), optional
        Symmetric interval; defaults to +-4(n+1)^2, four times the
        classical turning point.
    samples : int, optional
        Total sample count across the window, default 1000*(n+1).
        Points sit at half-step offsets so x = 0 is never sampled; the
        origin node of odd states is added by parity.

    Returns
    -------
    int

    Raises
    ------
    ValueError
        If a sign change lands in the outermost 5% of the window,
        indicating the window cannot be trusted to contain all nodes.
    """
    n = _check_n(n)
    if window is None:
        half = 4.0 * (n + 1) ** 2
    else:
        lo, hi = window
        if not math.isclose(-lo, hi) or hi <= 0:
            raise ValueError("window must be symmetric about 0")
        half = float(hi)
    if samples is None:
        samples = 1000 * (n + 1)
    ns = max(samples // 2, 8)
    xs = (np.arange(ns) + 0.5) * (half / ns)
    flips = sign_changes(wavefunction(n, xs))
    if np.any(xs[flips] > 0.95 * half):
        raise ValueError(
            f"sign change in the outermost 5% of the window (half width {half}); "
            "enlarge the window")
    return 2 * flips.size + (1 if n % 2 else 0)


def sign_changes(values):
    """Indices i where values[i] has the opposite sign of the sample before it.

    Samples below 1e-8 of the largest magnitude carry no reliable sign
    (decaying tails, rounding noise) and are skipped, so a flip is
    counted between the nearest kept neighbours.
    """
    keep = np.flatnonzero(np.abs(values) > 1e-8 * np.max(np.abs(values)))
    signs = np.sign(values[keep])
    return keep[1:][signs[1:] * signs[:-1] < 0]


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
    if x == 0.0 or abs(x) < 0.05:
        raise ValueError(f"residual check requires |x| >= 0.05, got {x}")
    h = min(0.02, abs(x) / 5.0)
    if abs(x) - h <= 0:
        raise ValueError("step underflow near the cusp")
    pts = np.array([x - h, x - h / 2, x - h / 4, x,
                    x + h / 4, x + h / 2, x + h])
    f = wavefunction(n, pts, rtol=1e-13)
    d1 = (f[0] - 2.0 * f[3] + f[6]) / h ** 2
    d2 = (f[1] - 2.0 * f[3] + f[5]) / (h / 2) ** 2
    d3 = (f[2] - 2.0 * f[3] + f[4]) / (h / 4) ** 2
    second = (64.0 * d3 - 20.0 * d2 + d1) / 45.0
    psi = f[3]
    return abs(-0.5 * second - psi / abs(x) - exact_energy(n) * psi)


def cusp_indicator(n, h):
    """One-sided difference quotient [psi_n(h) - psi_n(0)]/h for even n.

    For the even states the derivative at the origin is logarithmically
    infinite, so the magnitude of this quotient grows without bound as
    h shrinks.  Odd states vanish linearly at 0 and are rejected.
    """
    n = _check_n(n)
    if n % 2:
        raise ValueError("cusp indicator applies to even states only")
    if not 0.0 < h <= 0.1:
        raise ValueError(f"step must lie in (0, 0.1], got {h}")
    vals = wavefunction(n, np.array([0.0, h]), rtol=1e-12)
    return (vals[1] - vals[0]) / h
