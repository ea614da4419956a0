"""Semiclassical action integral and Bohr quantization for the Coulomb well.

The classical momentum sqrt(2(E + 1/|x|)) has an inverse-square-root
divergence at the origin and a square-root zero at the turning points
+-1/|E|.  The substitution x = x_t sin^2(theta) absorbs both, leaving a
smooth integrand on [0, pi/2] that Gauss-Legendre quadrature handles at
machine accuracy.  Quantization S(E_n) = (n + 1) pi, with Maslov offset
1, then reproduces E_n = -2/(n+1)^2.

scipy.optimize is imported on the first ``wkb_energy`` solve, not with the
package, so commands that never quantize do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialSpec
from .quadrature import gauss_legendre

__all__ = ["ActionResult", "WKBConfig", "action", "turning_points", "wkb_energy"]

_HALF_PI = 0.5 * math.pi


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


def action(E, rtol=1e-13):
    """Action integral of sqrt(2(E + 1/|x|)) between the turning points.

    Parameters
    ----------
    E : float
        Energy, strictly negative.
    rtol : float
        Relative quadrature tolerance.

    Returns
    -------
    ActionResult
        Turning points are -1/|E| and +1/|E|; the action equals
        pi*sqrt(2/|E|) analytically, but the value returned here comes
        from quadrature of the substituted integrand.
    """
    if not math.isfinite(E) or E >= 0.0:
        raise ValueError(f"bound-state energy must be negative, got {E}")
    x_t = 1.0 / abs(E)

    def integrand(theta):
        s = np.sin(theta)
        arg = 2.0 * (E + 1.0 / (x_t * s * s))
        return np.sqrt(np.maximum(arg, 0.0)) * 2.0 * x_t * s * np.cos(theta)

    half, _ = gauss_legendre(integrand, 0.0, _HALF_PI, rtol=rtol)
    return ActionResult(energy=E, action=2.0 * half, turning_points=(-x_t, x_t))


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on its first call."""
    from scipy.optimize import brentq as solver
    return solver(f, a, b, **kwargs)


def wkb_energy(n, cfg=None):
    """Solve the quantization condition S(E) = (n + maslov_offset) pi.

    Brent's method runs in t = 1/sqrt(|E|), in which S = pi sqrt(2) t is
    linear, so that the interpolation lands on the root in about one
    step: three actions per energy.  Its bracket [t_g/2, 2 t_g] around
    the closed-form root t_g of g = -2/(n + maslov_offset)^2 is [4g, g/4]
    in E, where S is half and twice its target; the action comes from
    quadrature at every iterate, never its closed form.  The first call
    imports scipy.optimize.

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
    """
    if n < 0 or n != int(n):
        raise ValueError(f"quantum number must be a non-negative integer, got {n}")
    cfg = cfg or WKBConfig()
    target = (n + cfg.maslov_offset) * math.pi
    if target <= 0:
        raise ValueError(f"quantization target must be positive, got {target}")

    def objective(t):
        return action(-1.0 / (t * t), rtol=cfg.quadrature_tolerance).action - target

    # t_g = 1/sqrt(|g|)
    guess = (n + cfg.maslov_offset) / math.sqrt(2.0)
    t = brentq(objective, 0.5 * guess, 2.0 * guess, xtol=1e-15, rtol=1e-14)
    return -1.0 / (t * t)


def turning_points(E, V):
    """Classical turning points of any potential family at energy E.

    The points are closed forms: 1/|E| for the bare and half-line wells,
    1/|E| - a with the soft core, and for the repulsive core the roots of
    x^2 - 2px + a^2 + b/|E|, p = 1/(2|E|) - a, the outer one first and
    the inner one as the product of the roots over it, free of
    cancellation.

    Parameters
    ----------
    E : float
        Energy, negative and above the potential floor.
    V : PotentialSpec

    Returns
    -------
    tuple
        (-x_t, x_t) for symmetric families, (0, x_t) for the half line,
        and the positive-side pair (x_in, x_out) for the repulsive core.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError("V must be a PotentialSpec")
    if not math.isfinite(E) or E >= 0.0:
        raise ValueError(f"bound-state energy must be negative, got {E}")
    depth = abs(E)

    if V.family == "repulsive-core":
        a, b = V.a, V.b
        # |E| times the discriminant p^2 - a^2 - b/|E|; zero at the floor
        gap = 0.25 / depth - (a + b)
        if gap <= 0.0:
            raise ValueError(
                f"E={E} is below the potential floor {-0.25 / (a + b)}")
        x_out = 0.5 / depth - a + math.sqrt(gap / depth)
        return ((a * a + b / depth) / x_out, x_out)

    x_out = 1.0 / depth - (V.a or 0.0)  # V = -1/(x + a), a = 0 on the half line
    if x_out <= 0.0:
        raise ValueError(f"E={E} is below the soft-core floor {-1.0 / V.a}")
    return (0.0 if V.family == "half-line" else -x_out, x_out)
