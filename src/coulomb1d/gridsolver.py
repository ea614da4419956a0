"""Finite-volume eigensolver: the independent numerical oracle.

The Hamiltonian -(1/2) d^2/dx^2 + V is discretized on a staggered mesh
that never touches x = 0, so singular Coulomb cores need no softening.
Every matrix is assembled from the node positions alone, in the
symmetric finite-volume form H = M^(-1/2) K M^(-1/2):

- M holds the cell widths; a cell runs from the midpoint with its left
  neighbour to the midpoint with its right one;
- K holds the links 1/(2 dx) between neighbours, so u.K.u carries the
  kinetic term sum (u_{j+1} - u_j)^2 / (2 dx), plus v * width on the
  diagonal;
- a Dirichlet wall at distance d from an end node adds the link
  1/(2d) to that end of K.  On a staggered mesh the wall lies exactly
  on the box edge, half a step outside the end point, and the end cell
  stops there.

On a uniform staggered mesh this is the standard 3-point Laplacian,
1/h^2 + v on the diagonal and -1/(2h^2) off it, with 1/(2h^2) added at
each wall.  H stays symmetric tridiagonal on any mesh.

Graded meshes.  A grid with ``core`` set places its half-line nodes at
s^(-1)((j + 1/2) D), with s(x) = x/H + beta ln(1 + x/core): the step is
about D core/beta at the origin and D H far out, the radial mesh of
atomic-structure codes.  The map does not depend on the point count,
so doubling ``points`` halves D and `refine` stays second order and
Richardson-valid.

Parity sectors.  The full-line mesh is built as the mirror image of its
positive half, so a potential that is even in x gives a persymmetric
matrix, and every eigenvector is exactly even or exactly odd.  The
problem then splits into two half-size tridiagonal problems on x > 0.
The cell of the first point x_0 starts at the centre x = 0.  The even
sector has no link across the centre; the odd sector vanishes there,
which is a wall at 0 and adds 1/(2 x_0) to K[0].  The odd sector is
therefore the half-line model, and the half-line family is solved as
that sector alone on [0, L].  The merge needs no sort and no parity
guess: by the oscillation theorem eigenvector k of a Jacobi matrix has
k sign changes, so level 2j is even level j and level 2j+1 is odd
level j.  Parity labels are exact by construction.

Plain callables that are not mirror symmetric on the mesh, and
unstaggered grids, keep the full N-point matrix; their levels carry no
parity label.  An unstaggered grid has its walls on the lattice, one
step h outside the end points, and end cells of width h.

Eigenvectors come from the symmetric tridiagonal bisection/inverse-
iteration path (LAPACK stebz/stein via scipy).  The energies are the
Rayleigh quotients of those vectors, computed in the difference form
above.  A diagonal entry 1/h^2 + v keeps v only to about eps/h^2, so
bisection alone stops at that floor; the quotient is good to the
discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .potentials import PotentialSpec, evaluate, singular_at_origin
from .quadrature import ConvergenceError
from .spectrum import sign_changes

__all__ = ["Grid", "Level", "SpectrumResult", "solve", "refine"]

# The graded map s(x) = x/_FAR_STEP + _CORE_CELLS ln(1 + x/core): about
# _CORE_CELLS cells per core radius at the origin, steps of _FAR_STEP
# per unit of s far out.
_FAR_STEP = 0.05
_CORE_CELLS = 5.0


def _stretch(x, core):
    return x / _FAR_STEP + _CORE_CELLS * math.log1p(x / core)


@dataclass(frozen=True)
class Grid:
    """1D mesh specification.

    Attributes
    ----------
    half_width : float
        Box size L: the wavefunction is pinned at +-L (full line) or at
        0 and L (half-line potentials).
    points : int
        Number of interior mesh points N; on a uniform grid the spacing
        is h = 2L/N, or L/N on the half line.
    staggered : bool
        Place points at (j + 1/2) h so the mesh avoids x = 0.  Required
        for potentials that are singular at the origin.
    core : float or None
        Grade the mesh toward a core of this radius: half-line nodes at
        s^(-1)((j + 1/2) D), s(x) = x/0.05 + 5 ln(1 + x/core), with
        D = s(L)/(N/2) on the full line and s(L)/N on the half line.
        None keeps the uniform mesh.  A graded grid must be staggered.
    """

    half_width: float
    points: int
    staggered: bool = True
    core: float | None = None

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 8:
            raise ValueError(f"need at least 8 mesh points, got {self.points}")
        if self.core is not None:
            if not self.core > 0:
                raise ValueError(f"core must be positive, got {self.core}")
            if not self.staggered:
                raise ValueError("a graded grid must be staggered")

    @classmethod
    def graded(cls, half_width, core):
        """Coarsest graded full-line grid: N/2 = ceil(2 s(L)), so D <= 1/2."""
        return cls(half_width, 2 * math.ceil(2.0 * _stretch(half_width, core)),
                   core=core)


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
    sum(width * v^2) = 1 over the cells (h * sum(v^2) = 1 on a uniform
    grid).
    """

    levels: list
    grid: Grid
    potential: object
    positions: np.ndarray
    vectors: np.ndarray


def _half_mesh(g, m):
    """m staggered nodes on (0, L): uniform, or graded by s."""
    if g.core is None:
        return (np.arange(m) + 0.5) * (g.half_width / m)
    c = g.core
    t = (np.arange(m) + 0.5) * (_stretch(g.half_width, c) / m)
    # Newton in y = ln(1 + x/c), where s is convex and increasing: from
    # an upper bound of the root the iterates fall monotonically to it
    y = np.minimum(t / _CORE_CELLS, np.log1p(_FAR_STEP * t / c))
    for _ in range(50):
        step = ((c * np.expm1(y) / _FAR_STEP + _CORE_CELLS * y - t)
                / (c * np.exp(y) / _FAR_STEP + _CORE_CELLS))
        y -= step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * y):
            break
    return c * np.expm1(y)


def _potential(V, x):
    v = evaluate(V, x) if isinstance(V, PotentialSpec) else np.asarray(V(x), float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on the mesh")
    return v


# The assembly and the polish work in place where they can: each new
# temporary is one more pass over memory, and one above the allocator's
# mmap threshold is also faulted in page by page.

class _Matrix(NamedTuple):
    """H = M^(-1/2) K M^(-1/2) on a mesh, and what its energy form needs."""

    d: np.ndarray       # diagonal of H
    e: np.ndarray       # off-diagonal of H
    link: np.ndarray    # links 1/(2 dx) between neighbours
    ends: tuple         # wall links of the two end nodes, 0 for none
    scale: np.ndarray   # square roots of the cell widths
    v: np.ndarray       # potential at the nodes


def _assemble(x, v, faces, walls):
    """Matrix on the nodes x.  ``faces`` closes the two end cells;
    ``walls`` holds the Dirichlet walls beyond the end nodes (None: no
    wall), where a wall at distance d adds the link 1/(2d)."""
    ends = tuple(0.0 if wall is None else 0.5 / abs(end - wall)
                 for end, wall in ((x[0], walls[0]), (x[-1], walls[1])))
    # node gaps, with twice the distance from each end node to its face
    gap = np.empty(x.size + 1)
    np.subtract(x[1:], x[:-1], out=gap[1:-1])
    gap[0], gap[-1] = 2.0 * (x[0] - faces[0]), 2.0 * (faces[1] - x[-1])
    scale = gap[:-1] + gap[1:]
    scale *= 0.5
    link = np.divide(0.5, gap, out=gap)
    link[0], link[-1] = ends
    d = link[:-1] + link[1:]
    d /= scale
    d += v
    np.sqrt(scale, out=scale)
    e = scale[:-1] * scale[1:]
    np.divide(link[1:-1], e, out=e)
    np.negative(e, out=e)
    return _Matrix(d, e, link[1:-1], ends, scale, v)


def _wall_at_origin(mat, x):
    """Add a wall at x = 0 to a matrix with no wall before the node x[0],
    in place: the odd sector from the even one."""
    link = 0.5 / x[0]
    mat.d[0] += link / mat.scale[0] ** 2
    return mat._replace(ends=(link, mat.ends[1]))


def _lowest(mat, k):
    """Lowest k eigenpairs: Rayleigh-quotient energies in difference form
    and nodal vectors u scaled so that sum(width * u^2) = 1."""
    if k == 0:
        return np.empty(0), np.empty((mat.d.size, 0))
    try:
        _, y = eigh_tridiagonal(mat.d, mat.e, select="i", select_range=(0, k - 1))
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}",
                               None, math.inf) from exc
    # y has unit 2-norm, so u = M^(-1/2) y has sum(width * u^2) = 1 and
    # the quotient u.K.u / u.M.u needs no denominator
    u = y / mat.scale[:, None]
    du = np.diff(u, axis=0)
    du *= du
    y *= y
    energy = (mat.link @ du + mat.v @ y
              + mat.ends[0] * u[0] ** 2 + mat.ends[1] * u[-1] ** 2)
    return energy, u


def _mirrored(v_half, xp, k, half_width):
    """Merged sector energies and full-mesh vectors of an even potential."""
    m = xp.size
    # no link across the centre (even), or a wall at the centre (odd)
    even = _assemble(xp, v_half, (0.0, half_width), (None, half_width))
    w_even, u_even = _lowest(even, (k + 1) // 2)
    # the even matrix is spent, so the odd one may take over its arrays
    w_odd, u_odd = _lowest(_wall_at_origin(even, xp), k // 2)
    w = np.empty(k)
    w[0::2], w[1::2] = w_even, w_odd
    vecs = np.empty((2 * m, k))
    vecs[m:, 0::2], vecs[m:, 1::2] = u_even, u_odd
    vecs[m:] /= math.sqrt(2.0)
    vecs[:m] = vecs[m:][::-1]
    vecs[:m, 1::2] *= -1.0
    return w, vecs


def _eigenpairs(V, g, k):
    """Mesh, energies, vectors scaled to sum(width * v^2) = 1, and whether
    the vectors come from the two parity sectors."""
    spec = isinstance(V, PotentialSpec)
    L = g.half_width
    if spec and V.family == "half-line":
        # the odd sector of -1/|x| on [-L, L], built the same way, on [0, L]
        x = _half_mesh(g, g.points)
        mat = _assemble(x, _potential(V, x), (0.0, L), (None, L))
        return (x, *_lowest(_wall_at_origin(mat, x), k), False)
    if not g.staggered:
        # walls on the lattice, one step outside the end points
        h = 2.0 * L / g.points
        x = -L + np.arange(1, g.points) * h
        mat = _assemble(x, _potential(V, x), (-L + 0.5 * h, L - 0.5 * h), (-L, L))
        return (x, *_lowest(mat, k), False)
    if g.points % 2:
        raise ValueError("full-line staggered grids need an even "
                         "point count to stay mirror-symmetric")
    m = g.points // 2
    xp = _half_mesh(g, m)
    x = np.concatenate((-xp[::-1], xp))
    if spec:
        # every family is even in x
        v_half = _potential(V, xp)
    else:
        v = _potential(V, x)
        if not np.array_equal(v[:m][::-1], v[m:]):
            mat = _assemble(x, v, (-L, L), (-L, L))
            return (x, *_lowest(mat, k), False)
        v_half = v[m:]
    return (x, *_mirrored(v_half, xp, k, L), True)


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
        are the Rayleigh quotients of the eigenvectors and increase with
        the index.
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

    On a graded grid each halving halves the step D of the fixed map,
    so the sequence converges in the same way.

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
