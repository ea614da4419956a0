"""Parameter studies on the regularized Coulomb variants.

Three studies back the qualitative statements about what regularization
does to the spectrum: the soft-core ground level diverging as the core
shrinks (tracked against the logarithmic Loudon estimate), the
repulsive-core family interleaving even and odd levels in its stated
parameter regime, and the half-line well reproducing the odd-state
energies.

On a graded grid (``Grid.core`` set) the soft-core scan solves three
levels of the mesh, h, h/2 and h/4 of one fixed map, and returns the
Richardson value of the two finest with the distance to the coarser
one as its error estimate.  On an explicit uniform grid it returns the
plain grid energy with no estimate.  Grids too coarse for the core
radius are refused rather than solved into silently unconverged
numbers: a uniform step h > a/5 (GridResolutionError), or a grid graded
toward a core wider than a (ValueError).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .gridsolver import _CORE_CELLS, Grid, _require_positive, refine, solve
from .potentials import half_line, loudon_estimate, repulsive_core, soft_core

__all__ = [
    "CareResult",
    "GridResolutionError",
    "ScanRow",
    "care_interleaving",
    "check_soft_core_radius",
    "half_line_spectrum",
    "required_points",
    "soft_core_ground_scan",
]

def required_points(half_width, a):
    """Smallest even point count on [-L, L] whose step resolves core radius a.

    The rule is h = 2L/N <= a/5 (gridsolver's _CORE_CELLS, the cells per
    core radius of its graded map and coarse grids); the count is rounded
    up to an even number so the staggered full-line mesh stays
    mirror-symmetric.
    """
    _require_positive("half_width", half_width)
    _require_positive("core radius", a)
    n = math.ceil(2.0 * half_width * _CORE_CELLS / a)
    return n + n % 2


def check_soft_core_radius(a):
    """Raise ValueError unless a is a soft-core radius the scan covers, (0, 0.5]."""
    if not 0.0 < a <= 0.5:
        raise ValueError(f"core radius must lie in (0, 0.5], got {a}")


class GridResolutionError(Exception):
    """Grid too coarse for the requested core radius.

    Attributes
    ----------
    suggested_points : int
        Smallest point count that would satisfy the resolution rule.
    """

    def __init__(self, message, suggested_points):
        super().__init__(message)
        self.suggested_points = suggested_points


class ScanRow(NamedTuple):
    """One soft-core radius: ground energy, Loudon estimate, the point
    count of the finest grid solved, and the error estimate of e0 (None
    on a uniform grid, which gives no estimate)."""

    a: float
    e0: float
    loudon: float
    points: int
    error: float | None


class CareResult(NamedTuple):
    levels: list
    interleaved: bool


def _require_resolution(g, a):
    if g.core is not None:
        # graded toward a wider core, the mesh is too coarse at the origin
        # and the Richardson estimate can understate the error
        if g.core > a:
            raise ValueError(f"grid graded toward core {g.core:g} cannot "
                             f"resolve core radius a={a:g}; grade it toward "
                             "a core no wider than a")
        return
    needed = required_points(g.half_width, a)
    if g.points < needed:
        raise GridResolutionError(
            f"mesh step {2.0 * g.half_width / g.points:.3g} cannot resolve "
            f"core radius a={a:g}; need at least N={needed} points at this "
            "box size",
            suggested_points=needed)


def soft_core_ground_scan(a_values, g):
    """Ground energy of the soft-core well for each core radius.

    Parameters
    ----------
    a_values : iterable of float
        Core radii, each in (0, 0.5].
    g : Grid
        Full-line grid.  A graded grid is solved at its own point count
        and two halvings of its step, and must be graded toward a core no
        wider than the smallest radius; a uniform grid must resolve that
        radius (h <= a/5) or the scan refuses to run.

    Returns
    -------
    list of ScanRow
        Per radius: the ground energy, the Loudon estimate
        -2 ln^2(1/a), the finest point count and, on a graded grid, the
        error estimate |R_fine - R_coarse| of the Richardson values
        R = (4 E(h/2) - E(h))/3 of the two finest and the two coarsest
        levels (e0 is R_fine).  The ground energy decreases strictly as
        a shrinks.

    Raises ConvergenceError where a grid's rounding floor outgrows the
    ground level, on the default graded grids at L = 30 from a = 9.8e-8
    down.
    """
    a_values = list(a_values)
    if not a_values:
        raise ValueError("no core radii given")
    for a in a_values:
        check_soft_core_radius(a)
        _require_resolution(g, a)
    rows = []
    for a in a_values:
        if g.core is None:
            e0 = solve(soft_core(a), g, 1).levels[0].energy
            points, error = g.points, None
        else:
            e_h, e_h2, e_h4 = refine(soft_core(a), g, 0, 2)
            coarse = (4.0 * e_h2 - e_h) / 3.0
            e0 = (4.0 * e_h4 - e_h2) / 3.0
            points, error = 4 * g.points, abs(e0 - coarse)
        rows.append(ScanRow(a=a, e0=e0, loudon=loudon_estimate(a),
                            points=points, error=error))
    return rows


def care_interleaving(a, b, g, k_max):
    """Parity-labeled low spectrum of the repulsive-core well.

    In the regime 1 < b/a < ln(1/a) the even levels drop between the
    odd ones instead of collapsing; parameters outside the regime are
    computed anyway after a warning.

    Parameters
    ----------
    a, b : float
        Core radius and zero-crossing offset.
    g : Grid
        Full-line grid resolving a: a uniform step h <= a/5, or graded
        toward a core no wider than a.
    k_max : int
        Number of levels to label.

    Returns
    -------
    CareResult
        The lowest k_max levels and whether their parities strictly
        alternate.  The parity sectors make them alternate on every
        staggered grid, so ``interleaved`` equals ``g.staggered``.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    ratio = b / a
    if not (1.0 < ratio < math.log(1.0 / a)):
        warnings.warn(
            f"(a={a:g}, b={b:g}) lies outside the interleaving regime "
            f"1 < b/a < ln(1/a) = {math.log(1.0 / a):.3g}; computing anyway",
            stacklevel=2)
    _require_resolution(g, a)
    levels = solve(repulsive_core(a, b), g, k_max).levels
    parities = [lv.parity for lv in levels]
    interleaved = (None not in parities and
                   all(p != q for p, q in zip(parities, parities[1:])))
    return CareResult(levels=levels, interleaved=interleaved)


def half_line_spectrum(g, k_max):
    """Lowest k_max energies of -1/x on the half line with a wall at 0.

    Level k (1-based) matches the odd full-line state n = 2k-1, i.e.
    -1/(2 k^2), within the grid tolerance.
    """
    return [lv.energy for lv in solve(half_line(), g, k_max).levels]
