"""Finite-volume eigensolver: the independent numerical oracle.

The Hamiltonian -(1/2) d^2/dx^2 + V is discretized on one mesh layout,
staggered so that it never touches x = 0: singular Coulomb cores need
no softening.
Every matrix is assembled from the node positions alone, in the
symmetric finite-volume form H = M^(-1/2) K M^(-1/2):

- M holds the cell widths; a cell runs from the midpoint with its left
  neighbour to the midpoint with its right one;
- K holds the links 1/(2 dx) between neighbours, so u.K.u carries the
  kinetic term sum (u_{j+1} - u_j)^2 / (2 dx), plus v * width on the
  diagonal;
- a Dirichlet wall at distance d from an end node adds the link
  1/(2d) to that end of K.  The wall lies exactly on the box edge,
  half a step outside the end point, and the end cell stops there.

On a uniform mesh this is the standard 3-point Laplacian,
1/h^2 + v on the diagonal and -1/(2h^2) off it, with 1/(2h^2) added at
each wall.  H stays symmetric tridiagonal on any mesh.  A matrix of n
nodes keeps all n + 1 links of K in one array, its walls among them:
link[0] to a wall at the centre, 0 for none, link[n] to the wall at L,
and the links between neighbours in between.

Graded meshes.  A grid with ``core`` set places its half-line nodes at
s^(-1)((j + 1/2) D), with s(x) = x/H + beta ln(1 + x/core): the step is
about D core/beta at the origin and D H far out, the radial mesh of
atomic-structure codes.  The map does not depend on the point count,
so doubling ``points`` halves D and `refine` stays second order and
Richardson-valid.

Parity sectors.  The full-line mesh is built as the mirror image of its
positive half.  Every family is even in x, and a callable V must be even
on the mesh, V(-x) == V(x) bit for bit at every node of the positive
half, or the solve raises ValueError.  The matrix is then persymmetric,
and every eigenvector is exactly even or exactly odd.  The problem
splits into two half-size tridiagonal problems on x > 0, the parity
sectors, and only they are ever assembled, one after the other in one
loop; a sector asked for no level, the odd one at k = 1, is skipped.
The cell of the first point x_0 starts at the centre x = 0.  The
even sector has no link across the centre; the odd sector vanishes
there, which is a wall at 0 and adds 1/(2 x_0) to K[0].  The half-line
model, -1/x with a wall at 0, is therefore the odd sector of -1/|x|
alone (Loudon 1959), solved on [0, L] with all N points.  The merge
needs no sort and no parity guess: by the oscillation theorem
eigenvector j of a Jacobi matrix has j sign changes, so with S sectors
(two, or the half line's one) level j of sector s is level s + jS of
the grid, with S m + s nodes if its sector vector has m.  Parity
labels are exact by construction; the half line's levels carry none.
The solve keeps the vectors in that form, each sector's on the positive
half mesh; the whole-mesh ``positions`` and ``vectors`` of a
`SpectrumResult` are their mirror image, built on first access and then
kept (30 MB at N = 540000, k = 6, which no command reads), and on the
half line the one sector itself.

Eigenvectors.  A grid first solves the same problem on
``Grid.graded(L, c)``, the coarsest grid of the map s for a core c.  On
a graded grid c is its own ``core``, so both grids share the map.  On a
uniform grid of step h, c puts the coarse grid's first node on the fine
grid's, at h/2: s(h/2) = D/2 with D = 1/2 gives
c = h / (2 expm1(D/10 - 2h)), about 10h.  The even levels of a Coulomb
core are set by the innermost cell (the ground level of -1/|x| on a mesh
deepens like -ln^2 h; Loudon 1959), so a start whose innermost cell
differs costs the polish a step.  Either way the coarse grid resolves
every core that the fine grid resolves.  On the half line, whose points
all lie on [0, L], the coarse grid takes half of ``Grid.graded``'s
points, which keeps its map step.  It serves only a grid with at least
four times its points.  The starts nest: a grid at the ``Grid.graded``
count of its map (the coarse grid of another, or the first rung of a
default soft-core scan) starts from the same map at an eighth of its
points, rounded down to an even count, and only that eighth grid, 57 to
312 points a sector on the benchmark's boxes, is solved from nothing.
`refine` starts each grid after its first from the vectors of the grid
before.  A sector starts from the same sector of the coarse solution, on
the coarse half mesh.  Each coarse vector is cut where it falls below
eps of its largest magnitude: its support is the fine nodes before the
coarse node that follows its last one above that.  It is interpolated
onto those nodes alone and polished on the leading block of H over them,
and the fine vector is exactly 0 past them.  Below the first coarse node
an even sector's vector stays flat, as its mirror image would have it;
that of the odd sector, whose matrix has a wall at the centre, falls
linearly to 0 there.  A bound state decays like
exp(-sqrt(2|E|) x) toward the box edge, so the deep levels are polished
on a small part of a box sized for the shallowest: the even ground level
of pure Coulomb at N = 540000 on 12,279 of its sector's 270,000 nodes.
The polish is one to five shift-invert Rayleigh-quotient steps,
one LAPACK gtsv solve each, which converge cubically near an eigenvector
(Parlett, The Symmetric Eigenvalue Problem, ch. 4).  The first step is
shifted by the start's quotient u.K.u / u.M.u, taken in difference form
from the interpolated nodal vector u, so it needs no product with H.  The
steps of a level stop on the residual that the solve itself yields:
after (H - sigma) z = y with ||y|| = 1, the vector z/||z|| has the
quotient sigma + delta, delta = z.y/z.z, and the residual
sqrt(1/z.z - delta^2), so a step needs none either.  A polished level's one product
with H is its certificate's.  The polish takes its vector, the gtsv
arrays and the residual's work vectors from one scratch block per
thread, 5n - 2 floats for the largest support of n points that the
thread has polished, or matrix that it has bisected: it grows to that
size and is kept, 10.8 MB once a 540000-point grid has been solved, so
that the large solves do not fault their temporaries in again each
time.  No result points into it.
The certificate is explicit and taken for each level straight after its
last step, and against the whole matrix: a polished level j stands only
if the residual ||Hy - Ey|| of its vector padded with zeros, recomputed
from H, is at most 16 eps ||H||, the rounding floor of a full-precision
solve, and the vector has exactly j sign changes, as eigenvector j of a
sector, a Jacobi matrix, must.  The padded vector's
energy is the block's, with the link to the first dropped node as its
wall, and its residual is that of the block and the one term that the
first dropped row sees, so a support cut too short fails the
certificate.  The first level that fails it, or a solve that breaks down,
ends the polish: all levels of the matrix are then solved once by
bisection and inverse iteration (LAPACK stebz/stein, scipy's wrappers)
at LAPACK's default tolerance, as those of grids with no coarse start
are at once.
Both routes take the energy and residual of each column from one
routine.  On either route a returned level whose floor is over 4 times
its scale raises ConvergenceError: there LAPACK's bisection tolerance
eps ||H|| is over a quarter of the scale, and the soft-core ground
levels that bisection returned from 4.4 |E| on were wrong, some even in
sign.  The scale of a level is its distance to the nearest other level
of its matrix, which does not move with the zero of energy; a matrix
asked for one level has no such distance, and its level is measured
against |E|.  Close levels of the two sectors, a tunnelling doublet,
are no fault: each is the quotient of its own matrix.  The solves of
coarse grids, which only start a polish, are not guarded.  The logger
``coulomb1d.gridsolver`` records every matrix at DEBUG: its floor, the
largest ratio of the floor to a level's scale, which the guard reads,
and its route, with the steps and support of each polished level and
the largest polished residual as a fraction of the floor.
LAPACK's MRRR (``eigh_tridiagonal(..., lapack_driver='stemr')``) is no
option: scipy's wrapper asks for an n x n workspace, 543 GiB at
n = 270000.

The energies are the Rayleigh quotients of the vectors, computed in the
same difference form, so they are good to the discretization error,
not to a bisection tolerance.  The form's kinetic and potential sums
are each one fused pass over the support, summed in this thread into
one scalar: against an exact sum of the same terms their rounding
reaches 1.3e-14 |E| on the 50,000-node sectors of pure Coulomb on
Grid(60, 1e5), far below the certificate's floor.  Each level keeps its
residual: H has an eigenvalue within it of the level's energy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .potentials import PotentialSpec, evaluate
from .quadrature import ConvergenceError
from .spectrum import sign_changes

__all__ = ["Grid", "Level", "SpectrumResult", "solve", "refine"]


# LAPACK comes from scipy's compiled wrapper module scipy.linalg._flapack
# alone, loaded from its file on the first LAPACK call, so that only grid
# solves pay for it (about 2 ms).  Importing anything under scipy.linalg
# would run that package's __init__, about 0.1 s, most of it array-API
# and f2py modules that no solve uses.  The module is registered under
# its own name, so scipy.linalg, imported before or after, shares it and
# its routines are scipy.linalg.lapack's own objects.
_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _lapack_folder():
    """scipy's linalg folder, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("grid solves need scipy's LAPACK wrappers, and scipy "
                          "is not installed")
    return os.path.join(spec.submodule_search_locations[0], "linalg")


@cache
def _flapack():
    """scipy.linalg._flapack, loaded from its file on the first call; the
    lock keeps threads that call it at once from loading it twice."""
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is not None:
            return module
        folder = _lapack_folder()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_FLAPACK, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_FLAPACK] = module
                return module
    raise ImportError(f"grid solves need scipy's LAPACK wrappers, and {folder} "
                      "holds no _flapack module")


def _check_info(info, routine, failure):
    """scipy's check of a LAPACK return code: ValueError for an illegal
    argument, LinAlgError with the message ``failure`` for a failure."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} {failure}")


def eigh_tridiagonal(d, e, select_range):
    """Levels i0 to i1 (``select_range``), ascending, of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, and their unit
    vectors as columns.

    This is scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(i0, i1)) written out: bisection (LAPACK stebz) at
    LAPACK's default tolerance, in block order, then inverse iteration
    (stein) and a sort of the levels, with the same routines and
    arguments.
    """
    lapack = _flapack()
    i0, i1 = select_range
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, i0 + 1, i1 + 1,
                                               0.0, "B")
    _check_info(info, "stebz (eigh_tridiagonal)",
                f"did not converge (LAPACK info={info})")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)",
                f"{info} eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def dgtsv(dl, d, du, b, **kwargs):
    """LAPACK dgtsv of scipy.linalg._flapack, loaded on the first call."""
    return _flapack().dgtsv(dl, d, du, b, **kwargs)


# The graded map s(x) = x/_FAR_STEP + _CORE_CELLS ln(1 + x/core): about
# _CORE_CELLS cells per core radius at the origin, steps of _FAR_STEP
# per unit of s far out.  _CORE_CELLS is also the one core-resolution
# rule of uniform grids, h <= a/_CORE_CELLS, which `Grid.uniform` reads;
# `_coarse` solves the map for the core of a uniform grid's start.
_FAR_STEP = 0.05
_CORE_CELLS = 5.0


def _stretch(x, core):
    return x / _FAR_STEP + _CORE_CELLS * math.log1p(x / core)


def _graded_points(half_width, core):
    """Point count of ``Grid.graded``: N/2 = ceil(2 s(L)), so D <= 1/2."""
    return 2 * math.ceil(2.0 * _stretch(half_width, core))


def _require_integer(name, value):
    # bool is an Integral, and no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_positive(name, value):
    # a bool compares as 0 or 1, and is no length
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Grid:
    """1D mesh specification.

    Attributes
    ----------
    half_width : float
        Box size L: the wavefunction is pinned at +-L (full line) or at
        0 and L (half-line potentials).
    points : int
        Number of interior mesh points N, at (j + 1/2) h on a uniform
        grid, so the mesh never touches x = 0: h = 2L/N, or L/N on the
        half line.  A full-line grid needs an even N, so that its mesh
        is the mirror image of its positive half.
    core : float or None
        Grade the mesh toward a core of this radius: half-line nodes at
        s^(-1)((j + 1/2) D), s(x) = x/0.05 + 5 ln(1 + x/core), with
        D = s(L)/(N/2) on the full line and s(L)/N on the half line.
        None keeps the uniform mesh.
    """

    half_width: float
    points: int
    core: float | None = None
    # every mesh is staggered about x = 0: a class constant, not a field,
    # kept for readers of ``g.staggered`` such as perfbench/tracing.py
    staggered = True

    def __post_init__(self):
        _require_positive("half_width", self.half_width)
        _require_integer("point count", self.points)
        if self.points < 8:
            raise ValueError(f"need at least 8 mesh points, got {self.points}")
        if self.core is not None:
            _require_positive("core", self.core)

    @classmethod
    def graded(cls, half_width, core):
        """Coarsest graded full-line grid: N/2 = ceil(2 s(L)), so D <= 1/2."""
        _require_positive("half_width", half_width)
        _require_positive("core", core)
        return cls(half_width, _graded_points(half_width, core), core=core)

    @classmethod
    def uniform(cls, half_width, core):
        """Coarsest uniform full-line grid that resolves a core radius:
        the smallest even N, and at least 8, with h = 2L/N <= core/5."""
        _require_positive("half_width", half_width)
        _require_positive("core", core)
        n = math.ceil(2.0 * half_width * _CORE_CELLS / core)
        return cls(half_width, max(n + n % 2, 8))


@dataclass(frozen=True)
class Level:
    """One computed level: index, energy, parity tag, node count, and the
    residual ||Hy - Ey|| of its unit vector y in the symmetric matrix H,
    within which H has an eigenvalue of the energy E."""

    index: int
    energy: float
    parity: str | None
    nodes: int
    residual: float


class _Solution(NamedTuple):
    """The half mesh x of a solve and the nodal vectors of its parity
    sectors on it, scaled so that sum(width * u^2) = 1 over x.

    ``sectors`` holds one array per sector: the even and the odd one of
    a full-line grid, or the half line's odd sector alone.  Column j of
    sector s is level s + j * len(sectors) of the grid.
    """

    x: np.ndarray
    sectors: tuple


def _positions(sol):
    """The whole mesh of a solution."""
    if len(sol.sectors) == 1:
        return sol.x
    return np.concatenate((-sol.x[::-1], sol.x))


def _vectors(sol):
    """The vectors of a solution on its whole mesh, level k in column k.

    On the full line a sector column is divided by sqrt(2), which keeps
    sum(width * v^2) = 1 on the whole mesh, and mirrored onto x < 0,
    negated if odd.
    """
    if len(sol.sectors) == 1:
        return sol.sectors[0]
    m = sol.x.size
    k = sum(u.shape[1] for u in sol.sectors)
    vecs = np.empty((2 * m, k), order="F")
    root2 = math.sqrt(2.0)
    # column by column, so that every write is contiguous
    for j in range(k):
        half = vecs[m:, j]
        np.divide(sol.sectors[j % 2][:, j // 2], root2, out=half)
        if j % 2:
            np.negative(half[::-1], out=vecs[:m, j])
        else:
            vecs[:m, j] = half[::-1]
    return vecs


@dataclass(frozen=True)
class SpectrumResult:
    """Eigensolve output: levels plus the mesh and eigenvectors behind them.

    ``vectors[:, k]`` is level k on ``positions``, normalized so that
    sum(width * v^2) = 1 over the cells (h * sum(v^2) = 1 on a uniform
    grid).  A solve keeps its vectors as its parity sectors on the
    positive half mesh; on the full line ``positions`` and ``vectors``
    build the whole-mesh arrays on first access and keep them.
    """

    levels: list
    grid: Grid
    potential: object
    _solution: _Solution = field(repr=False, compare=False)

    @cached_property
    def positions(self):
        return _positions(self._solution)

    @cached_property
    def vectors(self):
        return _vectors(self._solution)


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
    """V on the half-mesh nodes x.  A callable must give one finite value
    per node, the same at -x bit for bit; every family is even in x."""
    # a mesh in the subnormal range overflows 1/|x|: refused below, with
    # no floating-point warning
    with np.errstate(all="ignore"):
        spec = isinstance(V, PotentialSpec)
        v = evaluate(V, x) if spec else np.asarray(V(x), float)
        even = spec or np.array_equal(v, np.asarray(V(-x), float))
    if v.shape != x.shape:
        raise ValueError("a potential callable must return one value per node, "
                         f"got an array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on the mesh")
    if not even:
        raise ValueError("a potential callable must be even on the mesh: "
                         "V(-x) == V(x) at every node")
    return v


# The assembly and the polish work in place where they can: each new
# temporary is one more pass over memory, and one above the allocator's
# mmap threshold is also faulted in page by page.

class _Matrix(NamedTuple):
    """H = M^(-1/2) K M^(-1/2) on a mesh, and what its energy form needs."""

    d: np.ndarray       # diagonal of H
    e: np.ndarray       # off-diagonal of H
    # the n + 1 links of the n nodes: link[0] to a wall at the centre (0
    # for none), link[n] to the wall past the last node, and 1/(2 dx)
    # between neighbours in between
    link: np.ndarray
    scale: np.ndarray   # square roots of the cell widths
    v: np.ndarray       # potential at the nodes
    norm: float = math.nan  # `_norm`, once `_finite` has taken it


# A mesh too fine for float64 overflows the matrix (its entries grow like
# 1/h^2 in the step h), and a wall at a subnormal distance divides by
# zero: the assembly runs without floating-point warnings, and `_finite`
# refuses such a matrix before any solve.

def _assemble(x, v, L):
    """Matrix on the half-mesh nodes x: the first cell starts at the
    centre, with no link across it, and the last ends at a Dirichlet wall
    at L, which adds the link 1/(2d) at distance d from the last node."""
    with np.errstate(all="ignore"):
        # node gaps, with twice the distance from each end node to its face
        gap = np.empty(x.size + 1)
        np.subtract(x[1:], x[:-1], out=gap[1:-1])
        gap[0], gap[-1] = 2.0 * x[0], 2.0 * (L - x[-1])
        scale = gap[:-1] + gap[1:]
        scale *= 0.5
        link = np.divide(0.5, gap, out=gap)
        link[0], link[-1] = 0.0, 0.5 / (L - x[-1])
        d = link[:-1] + link[1:]
        d /= scale
        d += v
        np.sqrt(scale, out=scale)
        e = scale[:-1] * scale[1:]
        np.divide(link[1:-1], e, out=e)
        np.negative(e, out=e)
    return _Matrix(d, e, link, scale, v)


def _wall_at_origin(mat, x):
    """Add a wall at x = 0, the link 1/(2 x[0]) in link[0], to a matrix
    with none before the node x[0], in place: the odd sector from the
    even one."""
    with np.errstate(all="ignore"):
        mat.link[0] = 0.5 / x[0]
        mat.d[0] += mat.link[0] / mat.scale[0] ** 2


def _finite(mat, g):
    """The matrix with its `_norm` set, or ValueError naming the grid g if
    that bound overflows: then d or e is not finite, or the rounding
    floor of its levels would not be."""
    with np.errstate(all="ignore"):
        norm = _norm(mat)
    if not math.isfinite(norm):
        raise ValueError(f"the matrix of {g} leaves the float range: its "
                         "entries grow like 1/h^2 in the mesh step h")
    return mat._replace(norm=norm)


# A polished level stands when its residual is at most this many
# eps ||H||, the floor a full-precision bisection reaches (up to 10 on
# 2.7e5-point sectors), after one to _POLISH_STEPS Rayleigh-quotient
# steps.
_RESIDUAL_FLOOR = 16.0
_POLISH_STEPS = 5
# A returned level stands only if that floor is at most this many times
# its scale (`_floor_ratios`), that is, if LAPACK's bisection tolerance
# eps ||H|| is at most a quarter of it.  On the graded grids of
# soft-core scans with a from 2e-7 down to 2e-8 (L = 20, 30 and 45; one
# level, so the scale is |E|) the bisection after a failed polish
# returned wrong ground levels from 4.4 |E| on, and none below (the scan
# at a = 1e-8 printed E0 = +599.7 for -385.7); the finest grid at
# a = 1e-7 reaches 3.85 |E|.
_FLOOR_RATIO = 4.0

_log = logging.getLogger(__name__)
_scratch = threading.local()


def _norm(mat):
    """max|d| + 2 max|e|, a bound on the 1-norm of H that LAPACK scales
    its default bisection tolerance by."""
    return (max(mat.d.max(), -mat.d.min())
            + 2.0 * max(mat.e.max(), -mat.e.min()))


def _apply(d, e, c, out, t):
    """out = T c for the tridiagonal T with diagonal d (which may be out)
    and off-diagonal e; t is scratch of the size of e."""
    np.multiply(d, c, out=out)
    out[:-1] += np.multiply(e, c[1:], out=t)
    out[1:] += np.multiply(e, c[:-1], out=t)
    return out


def _dot(a, b):
    """a.b of two vectors, summed in this thread alone: numpy's @ hands
    long vectors to BLAS ddot, which splits the sum across its threads,
    and the energies' last bits would follow the BLAS thread count."""
    return np.einsum("i,i->", a, b)


def _work(n):
    """The vectors c, b, dd (size n) and dl, du (size n - 1) of this
    thread's scratch block, grown to hold them if it is smaller.

    c holds the unit vector of a level, and b, dd, dl, du are the
    right-hand side, shifted diagonal and off-diagonals of `_step`,
    which `_certify` then reuses.  The block is kept between solves, so
    the large sectors do not fault their scratch in again every time;
    nothing a solve returns points into it.
    """
    block = getattr(_scratch, "block", None)
    if block is None or block.size < 5 * n - 2:
        block = _scratch.block = np.empty(5 * n - 2)
    return (block[:n], block[n:2 * n], block[2 * n:3 * n],
            block[3 * n:4 * n - 1], block[4 * n - 1:5 * n - 2])


def _energy(mat, u, c, t):
    """u.K.u in difference form, for the nodal vector u and c = u * scale:
    sum(link[1:-1] * (u_{j+1} - u_j)^2) + sum(v * c^2) + the wall terms
    link[0] u_0^2 and link[-1] u_{n-1}^2.  Over u.M.u = c.c it is the
    Rayleigh quotient of c in H.  t is scratch of the size of e.

    Each sum is one pass of numpy's three-operand einsum loop, which, as
    `_dot`, never calls BLAS.  It adds into one scalar, so its rounding
    grows with the support: against an exact sum of the same terms it is
    1.3e-14 |E| on the second even level of pure Coulomb on
    Grid(60, 1e5), far below the certificate's floor."""
    np.subtract(u[1:], u[:-1], out=t)
    return (np.einsum("i,i,i->", mat.link[1:-1], t, t)
            + np.einsum("i,i,i->", mat.v, c, c)
            + mat.link[0] * u[0] ** 2 + mat.link[-1] * u[-1] ** 2)


def _certify(mat, c, u, hy, t):
    """Rayleigh-quotient energy E in difference form and residual
    ||Hc - Ec|| of the unit column c, whose nodal vector c/scale, with
    sum(width * u^2) = 1, is written to u.  hy and t are scratch of the
    sizes of d and e."""
    # c has unit 2-norm, so u = M^(-1/2) c has sum(width * u^2) = 1 and
    # the quotient u.K.u / u.M.u needs no denominator
    np.divide(c, mat.scale, out=u)
    energy = _energy(mat, u, c, t)
    _apply(np.subtract(mat.d, energy, out=hy), mat.e, c, hy, t)
    return energy, math.sqrt(_dot(hy, hy))


def _step(d, e, sigma, c, work):
    """One shift-invert Rayleigh-quotient step on the unit vector c, in
    place: solve (H - sigma) z = c by LU with partial pivoting (LAPACK
    gtsv) for the tridiagonal H with diagonal d and off-diagonal e, and
    take c = z / ||z||.

    Returns the new quotient sigma + delta, delta = z.c / z.z, and the
    residual sqrt(1/z.z - delta^2) of the new c, or None if the solve
    breaks down.  That residual needs no product with H: (H - sigma) z
    = c gives ||(H - sigma - delta) z|| / ||z|| = sqrt(1/z.z - delta^2)
    in exact arithmetic.  ``work`` holds the right-hand side and
    solution, the shifted diagonal and the off-diagonals that gtsv
    overwrites, so that a step allocates nothing.
    """
    b, dd, dl, du = work
    b[:], dl[:], du[:] = c, e, e
    np.subtract(d, sigma, out=dd)
    info = dgtsv(dl, dd, du, b, overwrite_dl=1, overwrite_d=1,
                 overwrite_du=1, overwrite_b=1)[-1]
    size = math.sqrt(_dot(b, b)) if info == 0 else math.nan
    # written so that a NaN or infinite solution fails too
    if not 0.0 < size < math.inf:
        return None
    delta = _dot(b, c) / size / size
    np.divide(b, size, out=c)
    return sigma + delta, math.sqrt(max(1.0 / size / size - delta * delta, 0.0))


def _block(mat, m):
    """The leading m x m block of H, as views of its arrays: its links
    are the first m + 1, so link[m], from node m - 1 to node m, is its
    right wall, and at m = n the block is the whole matrix.

    Padded with zeros to all n nodes, a block vector has the whole
    matrix's energy: the link's term of the whole form,
    link[m] (0 - u[m - 1])^2, is the block's wall term.
    """
    return mat._replace(d=mat.d[:m], e=mat.e[:m - 1], link=mat.link[:m + 1],
                        scale=mat.scale[:m], v=mat.v[:m])


def _polished(mat, k, start, floor):
    """Levels polished from start vectors, with the Rayleigh-quotient
    steps each took and its support, or None unless every level is
    certified.

    The start of level j covers the leading m_j nodes, its support (see
    `_starts`), and the level is polished on the leading m_j x m_j block
    of H alone (`_block`); its vector is exactly 0 past the support.
    Each level takes one to five steps.  The first is shifted by the
    start's quotient, which `_energy` takes in difference form from the
    nodal start, so that a level's one product with H is its
    certificate's.  The steps stop once the residual that `_step`
    reports is at most ``floor``.  The level is then certified at once,
    explicitly and against the whole matrix: its energy is the block's
    quotient, which is the padded vector's, and its residual that of the
    padded vector, whose only row past the block is
    e[m_j - 1] c[m_j - 1], so ||Hy - Ey|| = hypot(block residual, that
    term).  It stands if that residual is at most ``floor`` and if level
    j has j sign changes, the node count of eigenvector j of a Jacobi
    matrix.  A support cut too short fails it.  The first level to fail
    ends the attempt.
    """
    n = mat.d.size
    # zeros, so that the pages past every support are never touched
    u = np.zeros((n, k), order="F")
    energy, r, steps, support = np.empty(k), np.empty(k), [], []
    for j in range(k):
        s = start(j)
        m = s.size
        block = _block(mat, m)
        c, b, dd, dl, du = _work(m)
        np.multiply(s, block.scale, out=c)
        norm2 = _dot(c, c)
        sigma = _energy(block, s, c, dl) / norm2
        # freed before the steps: kept, it would add m floats to the peak
        del s
        c /= math.sqrt(norm2)
        for step in range(1, _POLISH_STEPS + 1):
            stepped = _step(block.d, block.e, sigma, c, (b, dd, dl, du))
            if stepped is None:
                return None
            sigma, residual = stepped
            if residual <= floor:
                break
        else:
            return None
        # the one product with H of a level
        energy[j], r[j] = _certify(block, c, u[:m, j], b, dl)
        # the first dropped row's one term of the padded vector's residual
        if m < n:
            r[j] = math.hypot(r[j], mat.e[m - 1] * c[m - 1])
        if not r[j] <= floor or sign_changes(u[:m, j]).size != j:
            return None
        steps.append(step)
        support.append(m)
    return (energy, u, r, list(range(k))), steps, support


def _floor_ratios(energy, floor):
    """The floor over the scale of each level: its distance to the
    nearest other level of the matrix, or |E| if the matrix has one."""
    if energy.size == 1:
        scale = np.abs(energy)
    else:
        gap = np.abs(np.diff(energy))
        scale = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf))
    with np.errstate(divide="ignore"):
        return floor / scale


def _lowest(mat, k, start):
    """Lowest k eigenpairs as energies, nodal vectors, residuals, node
    counts and the `_floor_ratios` that the floor guard reads.

    ``start(j)``, if not None, gives a nodal start vector of level j;
    the levels polished from them stand if every one is certified.
    Otherwise one bisection and inverse-iteration solve at LAPACK's
    default tolerance gives them all.  Each call logs at DEBUG the floor,
    the largest of its ratios and the route, a polish with the steps of
    each level and its largest residual as a fraction of the floor.
    """
    floor = _RESIDUAL_FLOOR * np.finfo(float).eps * mat.norm
    route, levels = "bisection", None
    if start is not None:
        polished = _polished(mat, k, start, floor)
        if polished is None:
            route = "bisection after a failed polish"
        else:
            levels, steps, support = polished
            route = (f"polished in {steps} steps on {support} nodes, max residual "
                     f"{levels[2].max() / floor:.3g} of the floor")
    if levels is None:
        try:
            _, y = eigh_tridiagonal(mat.d, mat.e, select_range=(0, k - 1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}",
                                   None, math.inf) from exc
        # each column is certified from a copy, and y takes its nodal vector
        c, b, _, dl, _ = _work(mat.d.size)
        energy, r = np.empty(k), np.empty(k)
        for j, u in enumerate(y.T):
            c[:] = u
            energy[j], r[j] = _certify(mat, c, u, b, dl)
        levels = energy, y, r, [sign_changes(u).size for u in y.T]
    ratio = _floor_ratios(levels[0], floor)
    _log.debug("%d-point matrix, %d levels, floor %.3g, at most %.3g of a "
               "level's scale: %s", mat.d.size, k, floor, ratio.max(), route)
    return (*levels, ratio)


def _guard(w, ratio, levels):
    """Raise ConvergenceError unless the floor of each of the levels is at
    most _FLOOR_RATIO times its scale."""
    for j in levels:
        # written so that a NaN energy fails too
        if not ratio[j] <= _FLOOR_RATIO:
            raise ConvergenceError(
                f"the rounding floor of level {j}, E = {w[j]:.6g}, is "
                f"{ratio[j]:.3g} times its scale (its gap to the nearest level "
                "of its matrix, or |E| if it is alone there), over "
                f"{_FLOOR_RATIO:g}: the level carries no digits", float(w[j]), math.inf)


def _coarse(V, g, k, half_line):
    """Solution of the same problem on ``Grid.graded(L, c)``, or on an
    eighth of its points if g is that grid; None unless the coarse grid
    has at least 8 points, at most a quarter of the points of g, and
    k <= its points/4.

    c is ``g.core``, the map of a graded g.  On a uniform g of step h
    (2L/N, or L/N on the half line) c is the core whose graded grid puts
    its first node on the fine grid's, s(h/2) = D/2 with D = 1/2:
    c = h / (2 expm1(D/10 - 2h)), about 10h.  The even ground level of a
    Coulomb core is set by its innermost cell, so the two grids then
    agree there.  No c does it from h = D/20 on, where the coarse grid
    would hold more points than g anyway.  On the half line all points
    lie on [0, L], so half of ``Grid.graded``'s points keep its map step.
    The eighth grid, rounded down to an even count, is its own coarse
    grid, so its solve starts from nothing.
    """
    if g.core is None:
        h = (1.0 if half_line else 2.0) * g.half_width / g.points
        gap = math.expm1((0.5 - h / _FAR_STEP) / (2.0 * _CORE_CELLS))
        if not gap > 0.0:
            return None
        core = h / (2.0 * gap)
    else:
        core = g.core
    points = _graded_points(g.half_width, core) // (2 if half_line else 1)
    if g.core == core and points == g.points:
        points = g.points // 16 * 2
    if points < 8 or 4 * points > g.points or k > points // 4:
        return None
    return _eigenpairs(V, Grid(g.half_width, points, core=core), k)[-1]


def _support(x, xc, column):
    """The support of a coarse vector on the nodes x: the number of them
    before its cut, the coarse node after the last one where its
    magnitude is over eps times its largest, or all of them if that is
    the coarse mesh's last node.  Only the right end, the one toward
    x = L, is cut: every level decays there."""
    magnitude = np.abs(column)
    last = np.flatnonzero(magnitude > np.finfo(float).eps * magnitude.max())[-1]
    if last + 1 == xc.size:
        return x.size
    # a cut at or before the first node keeps it, and the start fails
    # its certificate
    return max(int(np.searchsorted(x, xc[last + 1])), 1)


def _starts(mat, x, xc, columns):
    """start(j) for `_lowest` on the matrix mat over the nodes x: column j
    of ``columns``, the same sector of a coarse solution on its half mesh
    xc, interpolated onto the nodes of x before its cut (`_support`),
    built only when it is asked for.

    Below xc[0] the start stays flat, as the mirror image of an even
    level would have it, unless mat has a wall at the centre: then it
    falls linearly to 0 there, as an odd level does.
    """
    if mat.link[0] > 0.0:
        xc = np.append(0.0, xc)
        columns = np.concatenate((np.zeros((1, columns.shape[1])), columns))

    def start(j):
        column = columns[:, j]
        return np.interp(x[:_support(x, xc, column)], xc, column)
    return start


def _eigenpairs(V, g, k, coarse=None):
    """Energies, residuals, node counts, `_floor_ratios` and the
    `_Solution` of a grid, with vectors scaled to sum(width * v^2) = 1.

    The sectors are solved in turn on one half mesh, from the matrix of
    the even sector, which has no link across the centre: the odd
    sector puts a wall there.  The half line is the odd sector alone.
    Level j of sector s is level s + j n of the grid, n the number of
    sectors (two, or the half line's one).  It keeps the sector level's
    energy and residual, which are those of its mirror image on the whole
    mesh, and has n m + s nodes if the sector vector has m.
    ``coarse``, the solution of a coarser grid, is the start of the
    polish; by default it comes from `_coarse`, which is solved only
    once the grid's first matrix has been built and found finite."""
    half_line = isinstance(V, PotentialSpec) and V.family == "half-line"
    if not half_line and g.points % 2:
        raise ValueError("full-line grids need an even point count to "
                         "stay mirror-symmetric")
    # whether each sector has a wall at the centre
    walls = (True,) if half_line else (False, True)
    n = len(walls)
    x = _half_mesh(g, g.points // n)
    mat = _assemble(x, _potential(V, x), g.half_width)
    w, r, ratio, nodes, sectors = np.empty(k), np.empty(k), np.empty(k), [0] * k, []
    for s, wall in enumerate(walls):
        levels = slice(s, k, n)
        count = len(range(s, k, n))
        # at k = 1 the odd sector is asked for nothing: no wall, norm or start
        if count == 0:
            sectors.append(np.empty((x.size, 0)))
            continue
        if wall:
            # the sector before, if any, is spent, so this one may take
            # over its arrays
            _wall_at_origin(mat, x)
        mat = _finite(mat, g)
        if s == 0 and coarse is None:
            coarse = _coarse(V, g, k, half_line)
        start = None if coarse is None else _starts(mat, x, coarse.x, coarse.sectors[s])
        w[levels], u, r[levels], counts, ratio[levels] = _lowest(mat, count, start)
        nodes[levels] = [n * m + s for m in counts]
        sectors.append(u)
    return w, r, nodes, ratio, _Solution(x, tuple(sectors))


def _check(g, k_max):
    _require_integer("k_max", k_max)
    if k_max < 1 or k_max > g.points // 4:
        raise ValueError(f"k_max must lie in [1, N/4] = [1, {g.points // 4}]")


def solve(V, g, k_max):
    """Lowest k_max eigenpairs of -(1/2) d^2/dx^2 + V on the grid.

    Parameters
    ----------
    V : PotentialSpec or callable
        Potential family, or a plain vectorized function V(x) for
        benchmark potentials (harmonic, box, ...).  A callable must
        return one value per node and be even on the mesh, V(-x) == V(x)
        bit for bit at every node, as every family is.
    g : Grid
    k_max : int
        Number of levels, 1 <= k_max <= N/4.

    Returns
    -------
    SpectrumResult
        Levels carry eigenvector node counts and, on the full line, their
        exact parity; the half line, the odd sector alone, is the only
        solve whose levels have parity None.  A
        polished level's vector is exactly 0 on the nodes toward x = L
        past its support, where its coarse start fell below eps of its
        peak; the residual is that of the whole vector.  Energies
        are the Rayleigh quotients of the eigenvectors and increase with
        the index; each level's residual bounds the distance from its
        energy to an eigenvalue of the discrete H.

    Raises
    ------
    ValueError
        If k_max is not an integer in [1, N/4], or if V is a callable
        that is not even on the mesh.
    ConvergenceError
        If the eigensolve breaks down, or if the rounding floor
        16 eps ||H|| of a level's matrix is over 4 times the level's
        scale: its distance to the nearest other level of that matrix,
        the same parity sector.  A matrix
        asked for one level, as each sector is at k_max <= 2, has no
        such distance, and its level is measured against |E|; there a
        level within a few floors of E = 0 raises, wherever the zero of
        the potential sits.
    """
    _check(g, k_max)
    w, res, nodes, ratio, solution = _eigenpairs(V, g, k_max)
    _guard(w, ratio, range(k_max))
    # the half line, the odd sector alone, carries no parity label
    parities = ("even", "odd") if len(solution.sectors) == 2 else (None,)
    levels = [Level(index=k, energy=float(w[k]), parity=parities[k % len(parities)],
                    nodes=nodes[k], residual=float(res[k]))
              for k in range(k_max)]
    return SpectrumResult(levels=levels, grid=g, potential=V, _solution=solution)


def refine(V, g, level, refinements):
    """Energy of one level at spacings h, h/2, h/4, ...

    On a graded grid each halving halves the step D of the fixed map,
    so the sequence converges in the same way.  Each grid after the
    first starts its polish from the vectors of the one before.

    Parameters
    ----------
    V : PotentialSpec or callable
    g : Grid
        Starting grid.
    level : int
        Level index to track, 0 <= level < N/4 of the starting grid.
    refinements : int
        Number of halvings, 1 <= refinements <= 4 (memory bound).

    Returns
    -------
    list of float
        refinements + 1 energies, coarsest first.  Successive
        differences shrink about 4x per halving for smooth potentials.

    Raises
    ------
    ValueError
        If level or refinements is not an integer in its range, or as
        `solve` for V.
    ConvergenceError
        As `solve`, for the tracked level of any grid.
    """
    _require_integer("level", level)
    _require_integer("refinements", refinements)
    if refinements < 1 or refinements > 4:
        raise ValueError(f"refinements must lie in [1, 4], got {refinements}")
    # later grids only have more points
    if level < 0 or level >= g.points // 4:
        raise ValueError(f"level must lie in [0, N/4 - 1] = [0, {g.points // 4 - 1}], "
                         f"got {level}")
    energies, coarse = [], None
    for j in range(refinements + 1):
        gj = replace(g, points=g.points * 2 ** j)
        w, _, _, ratio, coarse = _eigenpairs(V, gj, level + 1, coarse)
        _guard(w, ratio, [level])
        energies.append(float(w[level]))
    return energies
