"""Semiclassical action integral and Bohr quantization for the Coulomb well.

The classical momentum sqrt(2(E + 1/|x|)) has an inverse-square-root
divergence at the origin and a square-root zero at the turning points
+-1/|E|.  The substitution x = x_t sin^2(theta) absorbs both, leaving a
smooth integrand on [0, pi/2] that Gauss-Legendre quadrature handles at
machine accuracy.  Quantization S(E_n) = (n + 1) pi, with Maslov offset
1, then reproduces E_n = -2/(n+1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .potentials import PotentialSpec, evaluate
from .quadrature import gauss_legendre

__all__ = ["ActionResult", "WKBConfig", "action", "action_generic", "wkb_energy"]

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
    state at -8).  root_bracket overrides the automatic energy bracket.
    """

    maslov_offset: float = 1.0
    quadrature_tolerance: float = 1e-13
    root_bracket: tuple | None = None


def _half_line_action(E, x_in, x_out, vfun, rtol):
    """Integral of sqrt(2(E - V)) over [x_in, x_out] via the sin^2 map."""
    width = x_out - x_in

    def integrand(theta):
        s = np.sin(theta)
        x = x_in + width * s * s
        arg = 2.0 * (E - vfun(x))
        return np.sqrt(np.maximum(arg, 0.0)) * 2.0 * width * s * np.cos(theta)

    val, _ = gauss_legendre(integrand, 0.0, _HALF_PI, rtol=rtol)
    return val


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
    half = _half_line_action(E, 0.0, x_t, lambda x: -1.0 / x, rtol)
    return ActionResult(energy=E, action=2.0 * half, turning_points=(-x_t, x_t))


def wkb_energy(n, cfg=None):
    """Solve the quantization condition S(E) = (n + maslov_offset) pi.

    Brackets the root around the closed-form guess and refines it by
    Brent's method; the action is evaluated by quadrature at every
    iterate, never by its closed form.

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

    def objective(E):
        return action(E, rtol=cfg.quadrature_tolerance).action - target

    if cfg.root_bracket is not None:
        lo, hi = cfg.root_bracket
    else:
        guess = -2.0 / (n + cfg.maslov_offset) ** 2
        lo, hi = 4.0 * guess, 0.25 * guess
    f_lo, f_hi = objective(lo), objective(hi)
    for _ in range(60):
        if f_lo * f_hi < 0:
            break
        # S is monotone in |E|, so widening must eventually bracket
        lo, hi = 4.0 * lo, 0.25 * hi
        f_lo, f_hi = objective(lo), objective(hi)
    else:
        raise RuntimeError(
            f"failed to bracket the quantization root for n={n}; "
            "the action may not be monotone over the search range")
    return brentq(objective, lo, hi, xtol=1e-15, rtol=1e-14)


def _outer_turning_point(E, vfun, lo, hi):
    """Root of E - V(x) on [lo, hi], expanding hi until bracketed."""
    g = lambda x: E - vfun(x)
    for _ in range(60):
        if g(lo) > 0 and g(hi) < 0:
            return brentq(g, lo, hi, xtol=1e-15, rtol=1e-14)
        hi *= 2.0
    raise ValueError("no classical turning point found")


def action_generic(E, V, rtol=1e-9):
    """Action integral for any potential family at energy E.

    Turning points are located by bracketed root-finding on E - V(x)
    and the integral runs over the classically allowed region (doubled
    for the symmetric full-line families).

    Parameters
    ----------
    E : float
        Energy, negative and above the potential floor.
    V : PotentialSpec
    rtol : float
        Quadrature tolerance.

    Returns
    -------
    ActionResult
        turning_points is (-x_t, x_t) for symmetric families, (0, x_t)
        for the half line, and the positive-side pair (x_in, x_out) for
        the repulsive core.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError("V must be a PotentialSpec")
    if not math.isfinite(E) or E >= 0.0:
        raise ValueError(f"bound-state energy must be negative, got {E}")
    vfun = lambda x: evaluate(V, x)
    fam = V.family

    if fam in ("pure-coulomb", "soft-core", "half-line"):
        if fam == "soft-core" and E <= -1.0 / V.a:
            raise ValueError(
                f"E={E} is below the soft-core floor {-1.0 / V.a}")
        x_out = _outer_turning_point(E, vfun, 1e-300 if fam != "soft-core" else 0.0,
                                     2.0 / abs(E))
        half = _half_line_action(E, 0.0, x_out, vfun, rtol)
        if fam == "half-line":
            return ActionResult(E, half, (0.0, x_out))
        return ActionResult(E, 2.0 * half, (-x_out, x_out))

    # repulsive core: allowed band (x_in, x_out) on each side of the origin
    a, b = V.a, V.b
    x_min = a + 2.0 * b  # V is smallest here
    floor = -1.0 / (4.0 * (a + b))
    if E <= floor:
        raise ValueError(f"E={E} is below the potential floor {floor}")
    g = lambda x: E - vfun(x)
    x_in = brentq(g, b, x_min, xtol=1e-15, rtol=1e-14)
    x_out = _outer_turning_point(E, vfun, x_min, x_min + 2.0 / abs(E))
    val = _half_line_action(E, x_in, x_out, vfun, rtol)
    return ActionResult(E, 2.0 * val, (x_in, x_out))
