"""Finite-difference eigensolver: the independent numerical oracle.

The Hamiltonian -(1/2) d^2/dx^2 + V is discretized with the standard
3-point Laplacian on a staggered mesh x_j = (j + 1/2) h that never
touches x = 0, so singular Coulomb cores need no softening.  Dirichlet
walls sit exactly at the box edges: the wall lies half a step outside
the first mesh point, and eliminating the odd-reflected ghost value
adds 1/(2h^2) to the boundary diagonal entries.  Without that term the
effective wall shifts off the box edge and the scheme degrades to
first order.

Parity sectors.  The full-line staggered mesh is built as the mirror
image of its positive half, so a potential that is even in x gives a
persymmetric matrix, and every eigenvector is exactly even or exactly
odd.  The problem then splits into two half-size tridiagonal problems
on x > 0.  The coupling between the two centre points x = -h/2 and
x = +h/2 folds into the first diagonal entry: it lowers it by 1/(2h^2)
in the even sector and raises it by 1/(2h^2) in the odd one, which is
the same odd-reflection ghost as a wall at x = 0.  The odd sector is
therefore the half-line model, and the half-line family is solved as
that sector alone on [0, L].  The merge needs no sort and no parity
guess: by the oscillation theorem eigenvector k of a Jacobi matrix has
k sign changes, so level 2j is even level j and level 2j+1 is odd
level j.  Parity labels are exact by construction.  Each sector has
half the points and about half the levels of the full problem.

Plain callables that are not mirror symmetric on the mesh, and
unstaggered grids, keep the full N-point matrix; their levels carry no
parity label.

Eigenpairs come from the symmetric tridiagonal bisection/inverse-
iteration path (LAPACK stebz/stein via scipy), which matches the
Sturm-sequence approach the problem calls for and stays fast for the
million-point grids the core scans need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .potentials import PotentialSpec, evaluate, singular_at_origin
from .quadrature import ConvergenceError
from .spectrum import sign_changes

__all__ = ["Grid", "Level", "SpectrumResult", "solve", "refine"]


@dataclass(frozen=True)
class Grid:
    """Uniform 1D mesh specification.

    Attributes
    ----------
    half_width : float
        Box size L: the wavefunction is pinned at +-L (full line) or at
        0 and L (half-line potentials).
    points : int
        Number of interior mesh points N; spacing h = 2L/N or L/N.
    staggered : bool
        Place points at (j + 1/2) h so the mesh avoids x = 0.  Required
        for potentials that are singular at the origin.
    """

    half_width: float
    points: int
    staggered: bool = True

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 8:
            raise ValueError(f"need at least 8 mesh points, got {self.points}")


@dataclass(frozen=True)
class Level:
    """One computed level: index, energy, parity tag, node count."""

    index: int
    energy: float
    parity: str | None
    nodes: int


@dataclass(frozen=True)
class SpectrumResult:
    """Eigensolve output: levels plus the mesh and eigenvectors behind them.

    ``vectors[:, k]`` is level k on ``positions``, normalized so that
    h * sum(v^2) = 1.
    """

    levels: list
    grid: Grid
    potential: object
    positions: np.ndarray
    vectors: np.ndarray


def _half_mesh(points, h):
    return (np.arange(points) + 0.5) * h


def _potential(V, x):
    v = evaluate(V, x) if isinstance(V, PotentialSpec) else np.asarray(V(x), float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on the mesh")
    return v


# A Dirichlet wall half a step outside an end point: eliminating the
# odd-reflected ghost value adds _WALL/h^2 to that end's diagonal entry,
# which keeps the wall exactly on the box edge.
_WALL = 0.5


def _lowest(v, h, k, first, last):
    """Lowest k eigenpairs of the 3-point matrix on a mesh of step h.

    The diagonal is 1/h^2 + v with first/h^2 and last/h^2 added to its
    end entries, the off-diagonal -1/(2h^2).  The vectors have unit
    2-norm.
    """
    if k == 0:
        return np.empty(0), np.empty((v.size, 0))
    inv_h2 = 1.0 / (h * h)
    d = inv_h2 + v
    d[0] += first * inv_h2
    d[-1] += last * inv_h2
    try:
        return eigh_tridiagonal(d, np.full(v.size - 1, -0.5 * inv_h2),
                                select="i", select_range=(0, k - 1))
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}",
                               None, math.inf) from exc


def _mirrored(v_half, h, k):
    """Merged sector energies and full-mesh vectors of an even potential."""
    m = v_half.size
    # the centre neighbour at x = -h/2 holds +u[0] (even) or -u[0] (odd)
    w_even, u_even = _lowest(v_half, h, (k + 1) // 2, -_WALL, _WALL)
    w_odd, u_odd = _lowest(v_half, h, k // 2, _WALL, _WALL)
    w = np.empty(k)
    w[0::2], w[1::2] = w_even, w_odd
    vecs = np.empty((2 * m, k))
    vecs[m:, 0::2], vecs[m:, 1::2] = u_even, u_odd
    vecs[m:] /= math.sqrt(2.0 * h)
    vecs[:m] = vecs[m:][::-1]
    vecs[:m, 1::2] *= -1.0
    return w, vecs


def _eigenpairs(V, g, k):
    """Mesh, energies, vectors scaled to h*sum(v^2) = 1, and whether the
    vectors come from the two parity sectors."""
    spec = isinstance(V, PotentialSpec)
    if spec and V.family == "half-line":
        # the odd sector of -1/|x| on [-L, L], returned on [0, L]
        h = g.half_width / g.points
        x = _half_mesh(g.points, h)
        w, u = _lowest(_potential(V, x), h, k, _WALL, _WALL)
        return x, w, u / math.sqrt(h), False
    h = 2.0 * g.half_width / g.points
    if not g.staggered:
        x = -g.half_width + np.arange(1, g.points) * h
        w, u = _lowest(_potential(V, x), h, k, 0.0, 0.0)
        return x, w, u / math.sqrt(h), False
    if g.points % 2:
        raise ValueError("full-line staggered grids need an even "
                         "point count to stay mirror-symmetric")
    m = g.points // 2
    xp = _half_mesh(m, h)
    x = np.concatenate((-xp[::-1], xp))
    if spec:
        # every family is even in x
        v_half = _potential(V, xp)
    else:
        v = _potential(V, x)
        if not np.array_equal(v[:m][::-1], v[m:]):
            w, u = _lowest(v, h, k, _WALL, _WALL)
            return x, w, u / math.sqrt(h), False
        v_half = v[m:]
    return (x, *_mirrored(v_half, h, k), True)


def solve(V, g, k_max):
    """Lowest k_max eigenpairs of -(1/2) d^2/dx^2 + V on the grid.

    Parameters
    ----------
    V : PotentialSpec or callable
        Potential family, or a plain vectorized function V(x) for
        benchmark potentials (harmonic, box, ...).
    g : Grid
    k_max : int
        Number of levels, 1 <= k_max <= N/4.

    Returns
    -------
    SpectrumResult
        Levels carry eigenvector node counts and, for a potential that
        is even on a staggered full-line grid, their exact parity; other
        levels, the half-line ones included, have parity None.  Energies
        increase with the index, up to the bisection tolerance of the
        eigensolver (about eps * ||T||), which a nearly degenerate
        even/odd pair of a deep double well can undercut.
    """
    if k_max < 1 or k_max > g.points // 4:
        raise ValueError(f"k_max must lie in [1, N/4] = [1, {g.points // 4}]")
    if isinstance(V, PotentialSpec) and singular_at_origin(V) and not g.staggered:
        raise ValueError(f"{V.family} is singular at the origin and needs a "
                         "staggered grid")
    x, w, vecs, sectors = _eigenpairs(V, g, k_max)
    levels = []
    for k in range(k_max):
        if sectors:
            # count on the positive half; an odd level adds the node at x = 0
            parity = "odd" if k % 2 else "even"
            nodes = 2 * sign_changes(vecs[x.size // 2:, k]).size + k % 2
        else:
            parity, nodes = None, sign_changes(vecs[:, k]).size
        levels.append(Level(index=k, energy=float(w[k]), parity=parity,
                            nodes=nodes))
    return SpectrumResult(levels=levels, grid=g, potential=V,
                          positions=x, vectors=vecs)


def refine(V, g, level, refinements):
    """Energy of one level at spacings h, h/2, h/4, ...

    Parameters
    ----------
    V : PotentialSpec or callable
    g : Grid
        Starting grid.
    level : int
        Level index to track.
    refinements : int
        Number of halvings, 1 <= refinements <= 4 (memory bound).

    Returns
    -------
    list of float
        refinements + 1 energies, coarsest first.  Successive
        differences shrink about 4x per halving for smooth potentials.
    """
    if refinements < 1 or refinements > 4:
        raise ValueError(f"refinements must lie in [1, 4], got {refinements}")
    energies = []
    for j in range(refinements + 1):
        gj = replace(g, points=g.points * 2 ** j)
        energies.append(solve(V, gj, level + 1).levels[level].energy)
    return energies
