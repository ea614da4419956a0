"""Reference values computed apart from coulomb1d.

W and U come from mpmath 1.3 (``whitw``, ``hyperu``), never from scipy's
``hyperu``, which is off by 6e-11 at U(-1.5, 2, 10).  Energies, actions and
odd-state norms come from closed forms; grid spectra from a dense
eigensolve of a tridiagonal the benchmark assembles itself.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def exact_energy(n):
    return -2.0 / (n + 1) ** 2


def psi(n, x):
    """Unnormalized psi_n(x) = sign(x)^n W_{(n+1)/2,1/2}(4|x|/(n+1))."""
    kappa = mp.mpf(n + 1) / 2
    if x == 0.0:
        return 0.0 if n % 2 else float(1 / mp.gamma(1 - kappa))
    val = float(mp.whitw(kappa, 0.5, 4.0 * abs(x) / (n + 1)))
    return -val if (n % 2 and x < 0) else val


def tricomi_u(a, z):
    return float(mp.hyperu(a, 2, z))


def u_scale(a, z):
    """Largest |U(s, 2, z)| over s = a, a+1, ... up past 1.

    This is the scale of the three-term recurrence in a that links U(a)
    to positive-a values; near a zero of U it, not |U(a)|, sets the
    attainable accuracy.
    """
    scale, s = abs(tricomi_u(a, z)), a
    while s <= 1.0:
        s += 1.0
        scale = max(scale, abs(tricomi_u(s, z)))
    return scale


def w_scale(kappa, z):
    """Recurrence scale of W_{kappa,1/2}(z) = e^(-z/2) z U(1-kappa, 2, z)."""
    return math.exp(-0.5 * z) * z * u_scale(1.0 - kappa, z)


def odd_norm(n):
    """1/||psi_n|| for odd n from int_0^inf W_{m,1/2}(z)^2 dz = 2 m^2 ((m-1)!)^2."""
    m = (n + 1) // 2
    half = 2.0 * m * m * math.factorial(m - 1) ** 2
    return 1.0 / math.sqrt(2.0 * (n + 1) / 4.0 * half)


def even_norm(n):
    """1/||psi_n|| for even n by mpmath quadrature of W^2."""
    kappa = mp.mpf(n + 1) / 2
    with mp.workdps(15):
        def w2(z):
            return (mp.exp(-z / 2) * z * mp.hyperu(1 - kappa, 2, z)) ** 2
        zc = 2 * kappa
        half = mp.quad(w2, [0, zc, 4 * zc + 40], maxdegree=6)
        return float(1 / mp.sqrt(2 * mp.mpf(n + 1) / 4 * half))


def potential(family, x, a=None, b=None):
    ax = np.abs(x)
    if family in ("pure-coulomb", "half-line"):
        return -1.0 / ax
    if family == "soft-core":
        return -1.0 / (ax + a)
    if family == "repulsive-core":
        return -(ax - b) / (ax + a) ** 2
    if family == "harmonic":
        return 0.5 * x * x
    raise ValueError(family)


def grid_levels(family, half_width, points, k, a=None, b=None):
    """Lowest k eigenvalues of the staggered-mesh Hamiltonian, by dense eigvalsh.

    Mesh x_j = (j + 1/2) h, with h = 2L/N on [-L, L] or h = L/N on [0, L]
    for the half line; Dirichlet walls half a step outside the end points
    add 1/(2h^2) to the end diagonal entries.
    """
    if family == "half-line":
        h = half_width / points
        x = (np.arange(points) + 0.5) * h
    else:
        h = 2.0 * half_width / points
        x = -half_width + (np.arange(points) + 0.5) * h
    d = 1.0 / h**2 + potential(family, x, a, b)
    d[0] += 0.5 / h**2
    d[-1] += 0.5 / h**2
    off = np.full(points - 1, -0.5 / h**2)
    mat = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(mat)[:k], float(np.max(np.abs(d)) + 1.0 / h**2)
