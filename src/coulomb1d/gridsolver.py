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

On a uniform mesh of step h this is the standard 3-point Laplacian,
1/h^2 + v on the diagonal and -1/(2h^2) off it, with 1/(2h^2) added at
each wall, and a uniform sector is assembled as exactly that, from v
and h alone: links 1/(2h), widths h, the wall link 1/h at L and, in
the odd sector, at the centre.  Its diagonal is 1/(2h^2) + v_0 (even)
or 3/(2h^2) + v_0 (odd) at the centre, 3/(2h^2) + v_{n-1} at L.  H
stays symmetric tridiagonal on any mesh.  A matrix of n nodes keeps
the n - 1 links between neighbours and its two walls' links: to a
wall at the centre, 0 for none, and to the wall at L.

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
A solve keeps only its levels: each sector's vectors, on the positive
half mesh, are dropped once certified and counted, unless they start a
finer grid.  The whole-mesh ``positions`` of a `SpectrumResult` are
built from the grid on first access; its ``vectors`` solve the grid
again on first access, keeping the vectors this time, and are their
mirror image, or on the half line the one sector itself.  No command
reads them.

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
from the interpolated nodal vector u, so it needs no product with H.
Every step is certified at once, explicitly and against the whole
matrix: the quotient of its vector padded with zeros, in the same
difference form, shifts the next step, and the residual ||Hy - Ey|| of
that vector, taken in that form too from the fluxes link (u_{j+1} - u_j)
and the terms (v - E) y, is the stop test, so a polished level takes
one product with H per step, its certificate's.  The padded
vector's energy is the block's, with the link to the first dropped node
as its wall, and its residual is that of the block and the one term
that the first dropped row sees, so a support cut too short never
reaches the floor.  A polished level j stands once its residual is at
most 16 eps ||H||, the rounding floor of a full-precision solve, if its
vector has exactly j sign changes, as eigenvector j of a sector, a
Jacobi matrix, must.  The first level that does not reach the floor in
five steps, or has another node count, or a solve that breaks down,
ends the polish: all levels of the matrix are then solved once by
bisection and inverse iteration (LAPACK stebz/stein, scipy's wrappers)
at LAPACK's default tolerance, as those of grids with no coarse start
are at once.
The polish holds what one step needs and no more.  A grid of n nodes a
sector takes one work block of 4n floats once its matrix is assembled,
so that no temporary of the assembly or of a potential callable lies
beside it: it holds the solve of every level of both sectors, cut to the
level's support.  Beside it a uniform sector holds the potential alone,
five sector-size arrays in all: its off-diagonal, links, widths and
diagonal less v are the floats of the 3-point Laplacian, read by
broadcasting, its diagonal is written into a work row where gtsv,
bisection or the norm reads it, and its mesh is held as its step, its
nodes rebuilt a chunk at a time where the potential and the starts read
them.  A graded sector holds its mesh, its diagonal d, its off-diagonal
e, its links, the square roots of its cell widths and the potential.
One row holds the level's vector: its start is interpolated into it a
fixed chunk of nodes at a time, and it is the right-hand side and
solution of each gtsv solve.  The other three are the rows that gtsv
overwrites (the shifted diagonal and the two off-diagonals) during a
step, and the certificate's nodal vector and work vectors after it; the
bisection route copies e into one of them.  The nodal vector is
node-counted by `spectrum.sign_changes`, the package's one sign rule, a
chunk at a time, and copied into the level's result column if the
vectors are kept.  The work block is freed once the grid is solved, so
nothing outlives a solve, and no result points into it.
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
``coulomb1d.gridsolver`` records every matrix at DEBUG, coarse ones
too, as one `_Route`, the message object itself: its ``points``, its
``floor``, the largest ratio of the floor to a level's scale, which
the guard reads (``ratio``), its ``route`` ("polished", "bisection" or
"bisection after a failed polish"), the ``energies``, ``residuals``
and sector ``nodes`` of its levels, and the ``steps`` and
``supports`` of each polished level, None if it was bisected.  The
record is built only when DEBUG is on.
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
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .potentials import PotentialSpec, evaluate
from .quadrature import ConvergenceError
from .spectrum import _CHUNK, sign_changes

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


def _past_the_float_range(half_width, core):
    return ValueError(f"a grid of half-width {half_width:g} that resolves core "
                      f"radius {core:g} needs more points than the float range holds")


def _even_ceil(y, half_width, core):
    """The smallest even integer >= y, the point count of a grid of box
    L = half_width that resolves a core of this radius; ``ValueError``
    where y is not finite, as that count is past the float range."""
    if not math.isfinite(y):
        raise _past_the_float_range(half_width, core)
    n = math.ceil(y)
    return n + n % 2


def _graded_points(half_width, core):
    """Point count of ``Grid.graded``: N/2 = ceil(2 s(L)), so D <= 1/2."""
    return _even_ceil(4.0 * _stretch(half_width, core), half_width, core)


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
        n = _even_ceil(2.0 * half_width * _CORE_CELLS / core, half_width, core)
        return cls(half_width, max(n, 8))


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
    """The half mesh x of a solve, an array or a `_UniformMesh`, and the
    nodal vectors of its parity sectors on it, scaled so that
    sum(width * u^2) = 1 over x.

    ``sectors`` holds one array per sector: the even and the odd one of
    a full-line grid, or the half line's odd sector alone.  Column j of
    sector s is level s + j * len(sectors) of the grid.
    """

    x: np.ndarray
    sectors: tuple


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


def _half_line(V):
    """Whether V is the half-line model, the odd sector alone on [0, L]."""
    return isinstance(V, PotentialSpec) and V.family == "half-line"


@dataclass(frozen=True)
class SpectrumResult:
    """Eigensolve output: levels, and the mesh and eigenvectors behind them.

    ``vectors[:, k]`` is level k on ``positions``, normalized so that
    sum(width * v^2) = 1 over the cells (h * sum(v^2) = 1 on a uniform
    grid).  A solve keeps only its levels.  ``positions`` is built from
    the grid on first access; ``vectors`` solves the grid again on first
    access, which takes as long as the solve itself, and both are then
    kept.  The vectors are those of the levels only if V is a pure
    function of x: ``vectors`` raises ValueError unless the energies of
    the second solve equal the levels bit for bit.
    """

    levels: list
    grid: Grid
    potential: object

    @cached_property
    def positions(self):
        # the half line is its half mesh; a full-line mesh is mirrored
        if _half_line(self.potential):
            return _half_mesh(self.grid, self.grid.points)
        x = _half_mesh(self.grid, self.grid.points // 2)
        return np.concatenate((-x[::-1], x))

    @cached_property
    def vectors(self):
        w, _, _, _, solution = _eigenpairs(self.potential, self.grid, len(self.levels))
        if w.tobytes() != np.array([lv.energy for lv in self.levels]).tobytes():
            raise ValueError("the grid solved again for its vectors gives other "
                             "levels: the potential callable is not a pure function "
                             "of x")
        return _vectors(solution)


def _half_mesh(g, m):
    """m staggered nodes on (0, L): uniform, or graded by s.  A graded
    mesh whose map s(L) is past the float range is refused by name."""
    if g.core is None:
        return (np.arange(m) + 0.5) * (g.half_width / m)
    c = g.core
    top = _stretch(g.half_width, c)
    if not math.isfinite(top):
        raise _past_the_float_range(g.half_width, c)
    t = (np.arange(m) + 0.5) * (top / m)
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


class _UniformMesh:
    """The uniform half mesh of ``size`` nodes (j + 1/2) ``step``, held
    as its step alone.  It reads as the array `_half_mesh` gives, bit for
    bit, by index, by slice (of stride 1, built on each read) and by
    ``searchsorted``, and so serves `_potential`, `_starts` and
    `_support` in its place, a slice at a time; `_assemble` reads its
    step."""

    __slots__ = ("size", "step")

    def __init__(self, size, step):
        self.size, self.step = size, step

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return (range(self.size)[key] + 0.5) * self.step
        lo, hi, stride = key.indices(self.size)
        if stride != 1:
            raise IndexError("a uniform mesh is read in slices of stride 1")
        # written _CHUNK nodes at a time: j + 1/2 is exact in floats, as
        # (np.arange(m) + 0.5) has it
        out, halves = np.empty(max(hi - lo, 0)), _half_offsets()
        for i in range(0, out.size, _CHUNK):
            part = out[i:i + _CHUNK]
            np.add(halves[:part.size], lo + i, out=part)
            part *= self.step
        return out

    def searchsorted(self, value):
        """The number of nodes below the finite ``value``, as
        np.searchsorted(x, value) on the array x: the closed form's guess,
        moved to the rounded nodes."""
        guess = value / self.step - 0.5
        j = 0 if not guess > 0.0 else self.size if guess >= self.size else math.ceil(guess)
        while j > 0 and (j - 0.5) * self.step >= value:
            j -= 1
        while j < self.size and (j + 0.5) * self.step < value:
            j += 1
        return j


@cache
def _half_offsets():
    """0.5, 1.5, ..., the first _CHUNK half offsets of a uniform mesh."""
    return np.arange(_CHUNK) + 0.5


def _potential(V, x):
    """V on the half-mesh nodes x, an array or a `_UniformMesh`.  A family
    is evaluated a _CHUNK of nodes at a time, so that its temporaries
    stay small; every family is even in x.  A callable takes all the
    nodes in one call, a uniform mesh's built whole, and must give one
    finite value per node, the same at -x bit for bit."""
    # a mesh in the subnormal range overflows 1/|x|: refused below, with
    # no floating-point warning
    with np.errstate(all="ignore"):
        if isinstance(V, PotentialSpec):
            v = np.empty(x.size)
            for i in range(0, x.size, _CHUNK):
                v[i:i + _CHUNK] = evaluate(V, x[i:i + _CHUNK])
            even = True
        else:
            nodes = x[:]
            v = np.asarray(V(nodes), float)
            even = np.array_equal(v, np.asarray(V(-nodes), float))
    if v.shape != (x.size,):
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
    """H = M^(-1/2) K M^(-1/2) on a mesh, and what its energy form needs.

    A graded mesh holds d, e, its links and its scales as arrays.  A
    uniform mesh of step h holds v alone: its off-diagonal
    -(1/(2h)) / (sqrt(h) sqrt(h)), links 1/(2h) and scales sqrt(h) are
    one float each, broadcast to their sizes by read-only views of no
    memory, so that every reader takes them in the path of a graded
    mesh, and its ``d`` is the float 1/h^2, the diagonal less v of every
    row but the end ones; `_diagonal` writes its d where it is read."""

    d: np.ndarray | float  # diagonal of H, or 1/h^2 on a uniform mesh
    e: np.ndarray       # the n - 1 off-diagonal entries of H
    link: np.ndarray    # the n - 1 links 1/(2 dx) between neighbours
    # the links to a wall at the centre (0 for none) and to the wall
    # past the last node
    walls: np.ndarray
    scale: np.ndarray   # square roots of the cell widths
    v: np.ndarray       # potential at the nodes
    norm: float = math.nan  # `_norm`, once `_finite` has taken it


def _diagonal(mat, out):
    """The diagonal d of H.  A graded mesh holds it.  On a uniform one it
    is written to out (n entries) as 1/h^2 + v, with each end row's
    kinetic term taken from the link w to its wall as (w + 1/(2h))/h:
    1/(2h^2) at a centre with no wall, 3/(2h^2) at a wall 1/h, and
    1/h^2 at a block's cut, whose wall is the link 1/(2h)."""
    if np.ndim(mat.d):
        return mat.d
    np.add(mat.d, mat.v, out=out)
    out[0] += mat.walls[0] / mat.scale[0] ** 2 - 0.5 * mat.d
    out[-1] += mat.walls[1] / mat.scale[0] ** 2 - 0.5 * mat.d
    return out


# A mesh too fine for float64 overflows the matrix (its entries grow like
# 1/h^2 in the step h), and a wall at a subnormal distance divides by
# zero: the assembly runs without floating-point warnings, and `_finite`
# refuses such a matrix before any solve.

def _assemble(x, v, L):
    """Matrix on the half-mesh nodes x, an array or a `_UniformMesh`: the
    first cell starts at the centre, with no link across it, and the last
    ends at a Dirichlet wall at L, which adds the link 1/(2d) at distance
    d from the last node, 1/h on a uniform mesh.  Its off-diagonal is
    e = -link / (scale[:-1] scale[1:]), one float on a uniform mesh."""
    with np.errstate(all="ignore"):
        if isinstance(x, _UniformMesh):
            # the 3-point Laplacian of step h, as numpy floats, which
            # overflow quietly
            h = np.float64(x.step)
            link, scale = 0.5 / h, np.sqrt(h)
            return _Matrix(1.0 / h ** 2, np.broadcast_to(-(link / (scale * scale)), x.size - 1),
                           np.broadcast_to(link, x.size - 1), np.array([0.0, 1.0 / h]),
                           np.broadcast_to(scale, x.size), v)
        # node gaps, with twice the distance from each end node to its
        # face
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
        e = np.multiply(scale[:-1], scale[1:])
        np.divide(link[1:-1], e, out=e)
        np.negative(e, out=e)
        return _Matrix(d, e, link[1:-1], link[[0, -1]], scale, v)


def _wall_at_origin(mat, x):
    """Add a wall at x = 0, the link 1/(2 x[0]), to a matrix with none
    before the node x[0], in place: the odd sector from the even one."""
    with np.errstate(all="ignore"):
        mat.walls[0] = 0.5 / x[0]
        if np.ndim(mat.d):
            mat.d[0] += mat.walls[0] / mat.scale[0] ** 2


def _finite(mat, g, out):
    """The matrix with its `_norm` set, or ValueError naming the grid g if
    that bound overflows: then d or e is not finite, or the rounding
    floor of its levels would not be.  out is scratch of n entries."""
    with np.errstate(all="ignore"):
        norm = _norm(mat, out)
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


def _norm(mat, out):
    """max|d| + 2 max|e|, a bound on the 1-norm of H that LAPACK scales
    its default bisection tolerance by; out is scratch of n entries."""
    d = _diagonal(mat, out)
    return max(d.max(), -d.min()) + 2.0 * max(mat.e.max(), -mat.e.min())


def _dot(a, b):
    """a.b of two vectors, summed in this thread alone: numpy's @ hands
    long vectors to BLAS ddot, which splits the sum across its threads,
    and the energies' last bits would follow the BLAS thread count."""
    return np.einsum("i,i->", a, b)


def _energy(mat, u, c, t):
    """u.K.u in difference form, for the nodal vector u and c = u * scale:
    sum(link * (u_{j+1} - u_j)^2) + sum(v * c^2) + the wall terms
    walls[0] u_0^2 and walls[1] u_{n-1}^2.  Over u.M.u = c.c it is the
    Rayleigh quotient of c in H.  t is scratch of n - 1 entries, left
    holding the differences u_{j+1} - u_j.

    Each sum is one pass of numpy's three-operand einsum loop, which, as
    `_dot`, never calls BLAS.  It adds into one scalar, so its rounding
    grows with the support: against an exact sum of the same terms it is
    1.3e-14 |E| on the second even level of pure Coulomb on
    Grid(60, 1e5), far below the certificate's floor."""
    np.subtract(u[1:], u[:-1], out=t)
    return (np.einsum("i,i,i->", mat.link, t, t)
            + np.einsum("i,i,i->", mat.v, c, c)
            + mat.walls[0] * u[0] ** 2 + mat.walls[1] * u[-1] ** 2)


def _certify(mat, c, u, r, t):
    """Rayleigh-quotient energy E in difference form and residual
    ||Hc - Ec|| of the unit column c, whose nodal vector c/scale, with
    sum(width * u^2) = 1, is written to u.  r and t are scratch of the
    size of d.

    The residual is taken in the same form as the energy, from the
    fluxes f_j through the n + 1 faces, link[j - 1] (u_j - u_{j-1})
    between nodes and walls[0] u_0, -walls[1] u_{n-1} at the ends: row j
    of Hc - Ec is (f_j - f_{j+1}) / scale_j + (v_j - E) c_j, so it reads
    neither the diagonal nor the off-diagonal of H."""
    # c has unit 2-norm, so u = M^(-1/2) c has sum(width * u^2) = 1 and
    # the quotient u.K.u / u.M.u needs no denominator
    np.divide(c, mat.scale, out=u)
    energy = _energy(mat, u, c, t[:-1])
    # the inner fluxes, from the differences that the energy left in t
    flux = np.multiply(t[:-1], mat.link, out=t[:-1])
    np.subtract(flux[:-1], flux[1:], out=r[1:-1])
    # the faces to the walls
    first, last = mat.walls[0] * u[0], mat.walls[1] * u[-1]
    if u.size > 1:
        r[0], r[-1] = first - flux[0], flux[-1] + last
    else:
        r[0] = first + last
    r /= mat.scale
    r += np.multiply(np.subtract(mat.v, energy, out=t), c, out=t)
    return energy, math.sqrt(_dot(r, r))


def _step(mat, sigma, c, work):
    """One shift-invert Rayleigh-quotient step on the unit vector c, in
    place: solve (sigma - H) z = c by LU with partial pivoting (LAPACK
    gtsv), with c as the right-hand side and solution, and take
    c = -z / ||z||, the step's vector for (H - sigma).

    (sigma - H) is H negated and shifted: its off-diagonal is -e, and
    its diagonal sigma - d, d held or written into that row
    (`_diagonal`).  LU with partial pivoting is odd in its
    matrix, so z is the solution of (H - sigma) negated, bit for bit.

    Returns False if the solve breaks down, True otherwise.  ``work``
    holds the shifted diagonal and the two off-diagonals, which gtsv
    overwrites, so that a step allocates nothing.
    """
    dd, dl, du = work
    np.negative(mat.e, out=dl)
    np.negative(mat.e, out=du)
    np.subtract(sigma, _diagonal(mat, dd), out=dd)
    info = dgtsv(dl, dd, du, c, overwrite_dl=1, overwrite_d=1,
                 overwrite_du=1, overwrite_b=1)[-1]
    size = math.sqrt(_dot(c, c)) if info == 0 else math.nan
    # written so that a NaN or infinite solution fails too
    if not 0.0 < size < math.inf:
        return False
    c /= -size
    return True


def _block(mat, m):
    """The leading m x m block of H, as views of its arrays: its links
    are the first m - 1, and link[m - 1], from node m - 1 to node m, is
    its right wall; at m = n the block is the whole matrix.

    Padded with zeros to all n nodes, a block vector has the whole
    matrix's energy: the link's term of the whole form,
    link[m - 1] (0 - u[m - 1])^2, is the block's wall term.
    """
    walls = mat.walls if m == mat.v.size else np.array([mat.walls[0], mat.link[m - 1]])
    return mat._replace(d=mat.d[:m] if np.ndim(mat.d) else mat.d, e=mat.e[:m - 1],
                        link=mat.link[:m - 1], walls=walls, scale=mat.scale[:m], v=mat.v[:m])


def _polished(mat, k, start, floor, work, vectors=True):
    """Levels polished from start vectors, with the Rayleigh-quotient
    steps each took and its support, or None unless every level is
    certified.  ``work``, a (4, n) array, holds everything a level
    needs, cut to its support: row 3 its vector, rows 0 to 2 the arrays
    dd, dl and du of `_step` during a step and the work vectors of
    `_certify` after it.  The nodal vectors are kept, as the columns of
    an (n, k) array, only if ``vectors``; otherwise its place is None.

    ``start(j, work[3])`` writes the nodal start of level j into the
    leading m_j entries of row 3 and returns m_j, its support (see
    `_starts`); the level is polished on the leading m_j x m_j block of
    H alone (`_block`), and its vector is exactly 0 past the support.
    The first step is shifted by the start's quotient, which `_energy`
    takes in difference form from the nodal start, with its unit column
    c = u * scale / ||u * scale|| written over it.  Each step solves in
    place on c and is certified at once, explicitly and against the
    whole matrix, by `_certify`: its energy, the block's difference-form
    quotient, which is the padded vector's, shifts the next step, and
    its residual is that of the padded vector, whose only row past the
    block is e[m_j - 1] c[m_j - 1], so ||Hy - Ey|| = hypot(block
    residual, that term).  The steps stop once that residual is at most
    ``floor``; a level that does not get there in five steps, or whose
    solve breaks down, fails.  So does a level j whose nodal vector,
    left in row 0 by its last certificate, has other than j sign
    changes, the node count of eigenvector j of a Jacobi matrix.  A
    support cut too short fails too.  The first level to fail ends the
    attempt.
    """
    n = mat.v.size
    # zeros, so that the pages past every support are never touched
    u = np.zeros((n, k), order="F") if vectors else None
    energy, r, steps, support = np.empty(k), np.empty(k), [], []
    for j in range(k):
        m = start(j, work[3])
        block = _block(mat, m)
        c, (y, hy, t) = work[3, :m], work[:3, :m]
        # c holds the nodal start, y its column u * scale
        np.multiply(c, block.scale, out=y)
        norm2 = _dot(y, y)
        sigma = _energy(block, c, y, t[:-1]) / norm2
        np.divide(y, math.sqrt(norm2), out=c)
        for step in range(1, _POLISH_STEPS + 1):
            if not _step(block, sigma, c, (y, hy[:-1], t[:-1])):
                return None
            # y takes the nodal vector
            sigma, residual = _certify(block, c, y, hy, t)
            # the first dropped row's one term of the padded vector's
            # residual
            if m < n:
                residual = math.hypot(residual, mat.e[m - 1] * c[m - 1])
            if residual <= floor:
                break
        # a level over the floor after its last step fails, as does one
        # whose nodal vector has other than j sign changes
        if not residual <= floor or sign_changes(y).size != j:
            return None
        energy[j], r[j] = sigma, residual
        if vectors:
            u[:m, j] = y
        steps.append(step)
        support.append(m)
    return (energy, u, r, list(range(k))), tuple(steps), tuple(support)


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


class _Route(NamedTuple):
    """How `_lowest` solved one matrix, logged at DEBUG as the message
    object itself.  The levels are the matrix's own, lowest first: their
    node counts are those of the sector vectors."""

    points: int
    floor: float
    ratio: float        # the largest of the `_floor_ratios`
    route: str          # "polished", "bisection" or "bisection after a failed polish"
    energies: tuple
    residuals: tuple
    nodes: tuple
    steps: tuple | None     # of each polished level, else None
    supports: tuple | None  # of each polished level, else None


def _lowest(mat, k, start, work, vectors=True):
    """Lowest k eigenpairs as energies, nodal vectors (None unless
    ``vectors``), residuals, node counts and the `_floor_ratios` that the
    floor guard reads.

    ``work`` is the (4, n) block of the grid, which every matrix of its
    mesh takes in turn.  ``start``, if not None, writes the nodal start
    vector of each level into it (`_starts`); the levels polished from
    them stand if every one is certified.
    Otherwise one bisection and inverse-iteration solve at LAPACK's
    default tolerance, of the off-diagonal copied into a row of the
    block and the diagonal held or written in another, gives them all,
    and each of its columns is certified from a copy in another; the
    node counts are those of the certified columns, which are then
    dropped unless ``vectors``.  If DEBUG is on
    for the logger, each call logs one `_Route`: the matrix size, floor,
    largest ratio and route, each level's energy, residual and node
    count, and the steps and support of each polished level.
    """
    floor = _RESIDUAL_FLOOR * np.finfo(float).eps * mat.norm
    route, levels, steps, support = "bisection", None, None, None
    if start is not None:
        polished = _polished(mat, k, start, floor, work, vectors)
        if polished is None:
            route = "bisection after a failed polish"
        else:
            (levels, steps, support), route = polished, "polished"
    if levels is None:
        work[3, :-1] = mat.e
        try:
            _, y = eigh_tridiagonal(_diagonal(mat, work[2]), work[3, :-1],
                                    select_range=(0, k - 1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}",
                                   None, math.inf) from exc
        # each column is certified from a copy, and y takes its nodal vector
        energy, r = np.empty(k), np.empty(k)
        for j, u in enumerate(y.T):
            work[0] = u
            energy[j], r[j] = _certify(mat, work[0], u, work[1], work[2])
        levels = energy, y if vectors else None, r, [sign_changes(u).size for u in y.T]
    ratio = _floor_ratios(levels[0], floor)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(_Route(mat.v.size, float(floor), float(ratio.max()), route,
                          tuple(levels[0].tolist()), tuple(levels[2].tolist()),
                          tuple(levels[3]), steps, support))
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
    """The support of a coarse vector on the half mesh x, an array or a
    `_UniformMesh`: the number of its nodes before its cut, the coarse
    node after the last one where its magnitude is over eps times its
    largest, or all of them if that is the coarse mesh's last node.  Only
    the right end, the one toward x = L, is cut: every level decays
    there.  A uniform mesh counts the nodes below the cut from its step."""
    magnitude = np.abs(column)
    last = np.flatnonzero(magnitude > np.finfo(float).eps * magnitude.max())[-1]
    if last + 1 == xc.size:
        return x.size
    # a cut at or before the first node keeps it, and the start fails
    # its certificate
    return max(int(x.searchsorted(xc[last + 1])), 1)


def _starts(mat, x, xc, columns):
    """start(j, out) for `_lowest` on the matrix mat over the half mesh
    x: it writes column j of ``columns``, the same sector of a coarse
    solution on its half mesh xc, interpolated onto the nodes of x before
    its cut (`_support`), into the leading entries of out, and returns
    their number.  It reads x _CHUNK nodes at a time, so that it
    allocates no array of the size of x, and a uniform x (`_UniformMesh`)
    builds each slice of nodes from its step; np.interp gives each node
    the value it would give it in one call over all of them.  A uniform
    xc, the mesh of a `refine` rung, is built whole, as np.interp reads
    all of it.

    Below xc[0] the start stays flat, as the mirror image of an even
    level would have it, unless mat has a wall at the centre: then it
    falls linearly to 0 there, as an odd level does.
    """
    xc = xc[:]
    if mat.walls[0] > 0.0:
        xc = np.append(0.0, xc)
        columns = np.concatenate((np.zeros((1, columns.shape[1])), columns))

    def start(j, out):
        column = columns[:, j]
        m = _support(x, xc, column)
        for i in range(0, m, _CHUNK):
            nodes = x[i:min(i + _CHUNK, m)]
            out[i:i + nodes.size] = np.interp(nodes, xc, column)
        return m
    return start


def _eigenpairs(V, g, k, coarse=None, vectors=True):
    """Energies, residuals, node counts, `_floor_ratios` and the
    `_Solution` of a grid, with vectors scaled to sum(width * v^2) = 1.
    Unless ``vectors``, the solution holds None in place of the vectors
    of each sector solved: they are dropped once certified and counted.

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
    half_line = _half_line(V)
    if not half_line and g.points % 2:
        raise ValueError("full-line grids need an even point count to "
                         "stay mirror-symmetric")
    # whether each sector has a wall at the centre
    walls = (True,) if half_line else (False, True)
    n = len(walls)
    m = g.points // n
    x = _half_mesh(g, m) if g.core is not None else _UniformMesh(m, g.half_width / m)
    mat = _assemble(x, _potential(V, x), g.half_width)
    # one work block for the polish of each sector, taken once the
    # temporaries of the potential and the assembly are freed
    work = np.empty((4, m))
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
        mat = _finite(mat, g, work[0])
        if s == 0 and coarse is None:
            coarse = _coarse(V, g, k, half_line)
        start = None if coarse is None else _starts(mat, x, coarse.x, coarse.sectors[s])
        w[levels], u, r[levels], counts, ratio[levels] = _lowest(mat, count, start,
                                                                 work, vectors)
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
        bit for bit at every node, as every family is.  It should be a
        pure function of x: the result's ``vectors`` call it again.
    g : Grid
    k_max : int
        Number of levels, 1 <= k_max <= N/4.

    Returns
    -------
    SpectrumResult
        Levels carry eigenvector node counts and, on the full line, their
        exact parity; the half line, the odd sector alone, is the only
        solve whose levels have parity None.  The result keeps no
        eigenvector: its ``vectors`` solve the grid again on first read,
        and raise ValueError unless that solve gives the same levels bit
        for bit.  A polished level's vector is exactly 0 on the nodes
        toward x = L past its support, where its coarse start fell below
        eps of its peak; the residual is that of the whole vector.  Energies
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
    w, res, nodes, ratio, _ = _eigenpairs(V, g, k_max, vectors=False)
    _guard(w, ratio, range(k_max))
    # the half line, the odd sector alone, carries no parity label
    parities = (None,) if _half_line(V) else ("even", "odd")
    levels = [Level(index=k, energy=float(w[k]), parity=parities[k % len(parities)],
                    nodes=nodes[k], residual=float(res[k]))
              for k in range(k_max)]
    return SpectrumResult(levels=levels, grid=g, potential=V)


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
        # the vectors of every grid but the last start the next one
        w, _, _, ratio, coarse = _eigenpairs(V, gj, level + 1, coarse,
                                             vectors=j < refinements)
        _guard(w, ratio, [level])
        energies.append(float(w[level]))
    return energies
