"""Semiclassical action integral and Bohr quantization for the Coulomb well.

The classical momentum sqrt(2(E + 1/|x|)) has an inverse-square-root
divergence at the origin and a square-root zero at the turning points
+-1/|E|.  The substitution x = x_t sin^2(theta) absorbs both, leaving a
smooth integrand on [0, pi/2] that Gauss-Legendre quadrature of orders 16
and 32 handles at machine accuracy.  The potential is homogeneous, so
S(E) = S(-1)/sqrt(|E|).  ``action`` applies that law exactly, with a
power of four, so that no E whose turning point is in the float range
overflows the integrand; quantization S(E_n) = (n + MASLOV_OFFSET) pi
takes one action and no root-finder and reproduces E_n = -2/(n+1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre
from .spectrum import _check_n

__all__ = ["ActionResult", "action", "wkb_energy"]

# the physical offset of this potential; a float, so that (n + 1.0) pi
# rounds once and the wkb command's metadata reads 1.0 in JSON
MASLOV_OFFSET = 1.0

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ActionResult:
    """Action S(E) with the classical turning points that bound it."""

    energy: float
    action: float
    turning_points: tuple


def action(E, rtol=1e-13):
    """Action integral of sqrt(2(E + 1/|x|)) between the turning points.

    Parameters
    ----------
    E : float
        Energy, strictly negative, with its turning point 1/|E| in the
        float range (|E| not subnormal).
    rtol : float
        Relative quadrature tolerance.

    Returns
    -------
    ActionResult
        Turning points are -1/|E| and +1/|E|; the action equals
        pi*sqrt(2/|E|) analytically, but the value returned here comes
        from quadrature of the substituted integrand at E/4^k, scaled by
        2^(-k).

    Raises
    ------
    ValueError
        If E is not finite and negative, or 1/|E| leaves the float range.
    """
    if not math.isfinite(E) or E >= 0.0:
        raise ValueError(f"bound-state energy must be negative, got {E}")
    x_t = 1.0 / -E
    if x_t == math.inf:
        raise ValueError(f"turning point 1/|E| of E={E} leaves the float range")
    # S(E) = S(E/4^k)/2^k, with |E|/4^k in [1/2, 2): a power of two scales
    # each float operation of the integrand exactly, so this is the
    # quadrature at E itself wherever that stays in the float range
    mantissa, exponent = math.frexp(-E)
    k = exponent // 2
    e = -math.ldexp(mantissa, exponent - 2 * k)
    x = 1.0 / -e

    def integrand(theta):
        s = np.sin(theta)
        arg = 2.0 * (e + 1.0 / (x * s * s))
        return np.sqrt(np.maximum(arg, 0.0)) * 2.0 * x * s * np.cos(theta)

    half, _ = gauss_legendre(integrand, 0.0, _HALF_PI, rtol=rtol)
    return ActionResult(energy=E, action=math.ldexp(2.0 * half, -k),
                        turning_points=(-x_t, x_t))


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on its first call; nothing calls it.

    It exists only because the benchmark's tracer binds ``wkb.brentq``,
    until the next change to the benchmark drops that name.
    """
    from scipy.optimize import brentq as solver
    return solver(f, a, b, **kwargs)


def wkb_energy(n, rtol=1e-13):
    """Solve the quantization condition S(E) = (n + MASLOV_OFFSET) pi.

    Under x -> x/|E| the action integral becomes S(E) = S_1/sqrt(|E|),
    with S_1 = S(-1), so the condition is linear in 1/sqrt(|E|) and
    E = -(S_1/((n + 1) pi))^2.  S_1 comes from quadrature on every call,
    never from its closed form pi sqrt(2), so the result checks the
    quadrature against -2/(n + 1)^2.

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    rtol : float
        Relative quadrature tolerance of S_1.

    Returns
    -------
    float
        The WKB energy; equals -2/(n + 1)^2 for this potential, within
        4 eps.

    Raises
    ------
    ValueError
        If n is not a non-negative integer in the float range, if the
        target (n + 1) pi overflows, or the energy underflows to zero
        (n past about 9e161).
    """
    n = _check_n(n)
    target = (n + MASLOV_OFFSET) * math.pi
    if not math.isfinite(target):
        raise ValueError(f"quantization target must be finite and positive, got {target}")
    s1 = action(-1.0, rtol=rtol).action
    q = s1 / target
    energy = -(q * q)
    if not energy < 0.0:
        raise ValueError(
            f"WKB energy {energy} for target {target} is not a finite bound state")
    return energy
