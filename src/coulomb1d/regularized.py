"""Parameter studies on the regularized Coulomb variants.

Three studies back the qualitative statements about what regularization
does to the spectrum: the soft-core ground level diverging as the core
shrinks (tracked against the logarithmic Loudon estimate), the
parity-labeled low spectrum of the repulsive-core family, whose even and
odd levels alternate on every grid (the parity sectors make them so,
inside the stated regime 1 < b/a < ln(1/a) and outside it, so only the
energies tell the regime apart), and the half-line well reproducing the
odd-state energies.

The soft-core scan solves each radius on its own grid graded toward
that radius, at three levels of the mesh, h, h/2 and h/4 of one fixed
map, and returns the Richardson value of the two finest with the
distance to the coarser one as its error estimate.  The repulsive-core
study refuses a grid too coarse for its core radius, a uniform step
h > a/5 or a grid graded toward a core wider than a (ValueError),
rather than solve it into silently unconverged numbers.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .gridsolver import Grid, refine, solve
from .potentials import half_line, loudon_estimate, repulsive_core, soft_core

__all__ = [
    "CareResult",
    "ScanRow",
    "care_interleaving",
    "half_line_spectrum",
    "soft_core_ground_scan",
]


class ScanRow(NamedTuple):
    """One soft-core radius: ground energy, Loudon estimate, the point
    count of the finest grid solved, and the error estimate of e0."""

    a: float
    e0: float
    loudon: float
    points: int
    error: float


class CareResult(NamedTuple):
    levels: list
    interleaved: bool


def soft_core_ground_scan(a_values, half_width, points=None):
    """Ground energy of the soft-core well for each core radius.

    Each radius a is solved on its own full-line grid graded toward a,
    so a row does not depend on the other radii, at the grid's point
    count and two halvings of its step.

    Parameters
    ----------
    a_values : iterable of float
        Core radii, each in (0, 0.5]; all are checked before any is
        solved.
    half_width : float
        Box size L.
    points : int or None
        Point count of the coarsest grid of each radius,
        ``Grid(half_width, points, core=a)``; None takes
        ``Grid.graded(half_width, a)``.

    Returns
    -------
    list of ScanRow
        Per radius: the ground energy, the Loudon estimate
        -2 ln^2(1/a), the finest point count (four times the coarsest)
        and the error estimate |R_fine - R_coarse| of the Richardson
        values R = (4 E(h/2) - E(h))/3 of the two finest and the two
        coarsest levels (e0 is R_fine).  The ground energy decreases
        strictly as a shrinks.

    Raises ConvergenceError where a grid's rounding floor outgrows the
    ground level, on the default graded grids at L = 30 from a = 9.8e-8
    down.
    """
    a_values = list(a_values)
    if not a_values:
        raise ValueError("no core radii given")
    for a in a_values:
        if not 0.0 < a <= 0.5:
            raise ValueError(f"core radius must lie in (0, 0.5], got {a}")
    rows = []
    for a in a_values:
        g = (Grid.graded(half_width, a) if points is None
             else Grid(half_width, points, core=a))
        e_h, e_h2, e_h4 = refine(soft_core(a), g, 0, 2)
        coarse = (4.0 * e_h2 - e_h) / 3.0
        e0 = (4.0 * e_h4 - e_h2) / 3.0
        rows.append(ScanRow(a=a, e0=e0, loudon=loudon_estimate(a),
                            points=4 * g.points, error=abs(e0 - coarse)))
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
        Full-line grid resolving a: at least the points of
        ``Grid.uniform(L, a)``, whose step is h <= a/5, or graded toward
        a core no wider than a; a coarser grid raises ValueError, which
        names the point count a uniform grid needs.
    k_max : int
        Number of levels to label.

    Returns
    -------
    CareResult
        The lowest k_max levels and whether their parities strictly
        alternate.  The parity sectors make them alternate on every
        grid, so ``interleaved`` is true on every grid accepted here;
        it cannot tell the regime apart, which only the energies can.
    """
    V = repulsive_core(a, b)  # refuses a <= 0 and b < 0
    ratio = b / a
    if not (1.0 < ratio < math.log(1.0 / a)):
        warnings.warn(
            f"(a={a:g}, b={b:g}) lies outside the interleaving regime "
            f"1 < b/a < ln(1/a) = {math.log(1.0 / a):.3g}; computing anyway",
            stacklevel=2)
    if g.core is None:
        needed = Grid.uniform(g.half_width, a).points
        if g.points < needed:
            raise ValueError(
                f"mesh step {2.0 * g.half_width / g.points:.3g} cannot "
                f"resolve core radius a={a:g}; need at least N={needed} "
                "points at this box size")
    elif g.core > a:
        # graded toward a wider core, the mesh is too coarse at the origin
        raise ValueError(f"grid graded toward core {g.core:g} cannot "
                         f"resolve core radius a={a:g}; grade it toward "
                         "a core no wider than a")
    levels = solve(V, g, k_max).levels
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
