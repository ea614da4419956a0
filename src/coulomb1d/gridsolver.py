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
level j.  Parity labels are exact by construction.  The solve keeps the
vectors in that form, each sector's on the positive half mesh; the
whole-mesh ``positions`` and ``vectors`` of a `SpectrumResult` are its
mirror image, built on first access and then kept (30 MB at N = 540000,
k = 6, which no command reads).

Plain callables that are not mirror symmetric on the mesh keep the
full N-point matrix.  They and the half line, one matrix on [0, L], are
the only solves whose levels carry no parity label.

Eigenvectors.  A grid first solves the same problem on
``Grid.graded(L, c)``, the coarsest grid of the map s for a core c.  On
a graded grid c is its own ``core``, so both grids share the map; on a
uniform grid of step h, c is 5h, and the coarse step at the origin,
about D c/5 = D h with D <= 1/2, is finer than h.  Either way the coarse
grid resolves every core that the fine grid resolves.  On the half line,
whose points all lie on [0, L], the coarse grid takes half of
``Grid.graded``'s points, which keeps its map step.  It serves only a
grid with at least four times its points.  The starts nest: a grid at
the ``Grid.graded`` count of its map (the coarse grid of another, or the
first rung of a default soft-core scan) starts from the same map at a
quarter of its points, rounded down to an even count, and only that
quarter grid, a few hundred points a sector on the benchmark's boxes,
is solved from nothing.  `refine` starts each grid after its first from
the vectors of the grid before.  Each coarse vector, on the coarse
grid's whole mesh, is interpolated onto the fine nodes and polished by
at most five shift-invert Rayleigh-quotient steps, one LAPACK gtsv solve
each, which converge cubically near an eigenvector (Parlett, The
Symmetric Eigenvalue Problem, ch. 4).  The steps of a level stop on the
residual that the solve itself yields: after (H - sigma) z = y with
||y|| = 1, the vector z/||z|| has the quotient sigma + delta,
delta = z.y/z.z, and the residual sqrt(1/z.z - delta^2), so a step needs
no product with H.  The polish takes its vector, the gtsv arrays and
the residual's work vectors from one scratch block per thread, 5n - 2
floats for the largest matrix of n points that the thread has polished
or bisected: it grows to that size and is kept, 10.8 MB once a
540000-point grid has been solved, so that the large solves do not fault
their temporaries in again each time.  No result points into it.
The certificate is explicit and taken for each level straight after its
last step: a polished level j stands only if its vector's residual
||Hy - Ey||, recomputed from H, is at most 16 eps ||H||, the rounding floor
of a full-precision solve, and the vector has exactly j sign changes,
as eigenvector j of a Jacobi matrix (a sector, or the full matrix)
must.  The first level that fails it, or a solve that breaks down, ends
the polish: all levels of the matrix are then solved once by bisection
and inverse iteration (LAPACK stebz/stein via scipy) at LAPACK's
default tolerance, as those of grids with no coarse start are at once.
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
and its route, with the largest polished residual as a fraction of the
floor.
LAPACK's MRRR (``eigh_tridiagonal(..., lapack_driver='stemr')``) is no
option: scipy's wrapper asks for an n x n workspace, 543 GiB at
n = 270000.

The energies are the Rayleigh quotients of the vectors, computed in the
difference form above, so they are good to the discretization error,
not to a bisection tolerance.  Each level keeps its residual: H has an
eigenvalue within it of the level's energy.
"""

from __future__ import annotations

import logging
import math
import numbers
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .potentials import PotentialSpec, evaluate
from .quadrature import ConvergenceError
from .spectrum import sign_changes

__all__ = ["Grid", "Level", "SpectrumResult", "solve", "refine"]


# LAPACK comes through scipy.linalg, which takes about 0.4 s to import;
# the two wrappers load it on their first call, so that only grid solves
# pay for it.
def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on its first call."""
    from scipy.linalg import eigh_tridiagonal as solver
    return solver(d, e, **kwargs)


def dgtsv(dl, d, du, b, **kwargs):
    """scipy.linalg.lapack.dgtsv, imported on its first call."""
    from scipy.linalg.lapack import dgtsv as solver
    return solver(dl, d, du, b, **kwargs)


# The graded map s(x) = x/_FAR_STEP + _CORE_CELLS ln(1 + x/core): about
# _CORE_CELLS cells per core radius at the origin, steps of _FAR_STEP
# per unit of s far out.  _CORE_CELLS is also the one core-resolution
# rule of uniform grids, h <= a/_CORE_CELLS, which `_coarse` and
# `Grid.uniform` read.
_FAR_STEP = 0.05
_CORE_CELLS = 5.0


def _stretch(x, core):
    return x / _FAR_STEP + _CORE_CELLS * math.log1p(x / core)


def _graded_points(half_width, core):
    """Point count of ``Grid.graded``: N/2 = ceil(2 s(L)), so D <= 1/2."""
    return 2 * math.ceil(2.0 * _stretch(half_width, core))


def _require_positive(name, value):
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
        if not isinstance(self.points, numbers.Integral):
            raise ValueError(f"point count must be an integer, got {self.points!r}")
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
    """Nodes and nodal vectors of a solve, in one of two forms.

    With ``odd`` None, column k of ``vectors`` is level k on the nodes x.
    Otherwise x is the positive half of a mirrored mesh, and column j of
    ``vectors`` and of ``odd`` is level j of the even and of the odd
    sector, level 2j and 2j + 1 of the whole mesh, scaled so that
    sum(width * u^2) = 1 over the half mesh.
    """

    x: np.ndarray
    vectors: np.ndarray
    odd: np.ndarray | None = None


def _positions(sol):
    """The whole mesh of a solution."""
    if sol.odd is None:
        return sol.x
    return np.concatenate((-sol.x[::-1], sol.x))


def _vectors(sol):
    """The vectors of a solution on its whole mesh, level k in column k.

    A sector column is divided by sqrt(2), which keeps sum(width * v^2)
    = 1 on the whole mesh, and mirrored onto x < 0, negated if odd.
    """
    if sol.odd is None:
        return sol.vectors
    m = sol.x.size
    k = sol.vectors.shape[1] + sol.odd.shape[1]
    vecs = np.empty((2 * m, k), order="F")
    root2 = math.sqrt(2.0)
    # column by column, so that every write is contiguous
    for j in range(k):
        half = vecs[m:, j]
        np.divide((sol.odd if j % 2 else sol.vectors)[:, j // 2], root2, out=half)
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
    grid).  A symmetric solve keeps its vectors as the two parity
    sectors on the positive half mesh; ``positions`` and ``vectors``
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


def _assemble(x, v, faces, left_wall):
    """Matrix on the nodes x, its two end cells closed at ``faces``.  A
    Dirichlet wall stands on the right face, and on the left one if
    ``left_wall``; a wall at distance d from its end node adds the link
    1/(2d)."""
    ends = (0.5 / (x[0] - faces[0]) if left_wall else 0.0,
            0.5 / (faces[1] - x[-1]))
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


# A polished level stands when its residual is at most this many
# eps ||H||, the floor a full-precision bisection reaches (up to 10 on
# 2.7e5-point sectors), after at most _POLISH_STEPS Rayleigh-quotient
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


def _certify(mat, c, u, hy, t):
    """Rayleigh-quotient energy E in difference form and residual
    ||Hc - Ec|| of the unit column c, whose nodal vector c/scale, with
    sum(width * u^2) = 1, is written to u.  hy and t are scratch of the
    sizes of d and e."""
    # c has unit 2-norm, so u = M^(-1/2) c has sum(width * u^2) = 1 and
    # the quotient u.K.u / u.M.u needs no denominator
    np.divide(c, mat.scale, out=u)
    np.subtract(u[1:], u[:-1], out=t)
    t *= t
    energy = (_dot(mat.link, t) + _dot(np.multiply(mat.v, c, out=hy), c)
              + mat.ends[0] * u[0] ** 2 + mat.ends[1] * u[-1] ** 2)
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


def _polished(mat, k, start, floor):
    """Levels polished from start vectors, with the Rayleigh-quotient
    steps each took, or None unless every level is certified.

    The steps of a level stop once the residual that `_step` reports is
    at most ``floor``.  The level is then certified at once, explicitly:
    it stands if the residual that `_certify` recomputes is at most
    ``floor`` and if level j has j sign changes, the node count of
    eigenvector j of a Jacobi matrix.  The first level to fail ends the
    attempt.
    """
    n = mat.d.size
    c, b, dd, dl, du = _work(n)
    u = np.empty((n, k), order="F")
    energy, r, steps = np.empty(k), np.empty(k), []
    for j in range(k):
        np.multiply(start(j), mat.scale, out=c)
        c /= math.sqrt(_dot(c, c))
        # the one product with H of a level: its start's quotient and residual
        sigma = _dot(_apply(mat.d, mat.e, c, b, dl), c)
        b -= np.multiply(c, sigma, out=dd)
        residual = math.sqrt(_dot(b, b))
        for step in range(_POLISH_STEPS + 1):
            if residual <= floor:
                break
            if step == _POLISH_STEPS:
                return None
            stepped = _step(mat.d, mat.e, sigma, c, (b, dd, dl, du))
            if stepped is None:
                return None
            sigma, residual = stepped
        energy[j], r[j] = _certify(mat, c, u[:, j], b, dl)
        if not r[j] <= floor or sign_changes(u[:, j]).size != j:
            return None
        steps.append(step)
    return (energy, u, r, list(range(k))), steps


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
    if k == 0:
        return np.empty(0), np.empty((mat.d.size, 0)), np.empty(0), [], np.empty(0)
    floor = _RESIDUAL_FLOOR * np.finfo(float).eps * _norm(mat)
    route, levels = "bisection", None
    if start is not None:
        polished = _polished(mat, k, start, floor)
        if polished is None:
            route = "bisection after a failed polish"
        else:
            levels, steps = polished
            route = (f"polished in {steps} steps, max residual "
                     f"{levels[2].max() / floor:.3g} of the floor")
    if levels is None:
        try:
            _, y = eigh_tridiagonal(mat.d, mat.e, select="i", select_range=(0, k - 1))
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
    """Solution of the same problem on ``Grid.graded(L, c)``, or on a
    quarter of its points if g is that grid; None unless the coarse grid
    has at least 8 points, at most a quarter of the points of g, and
    k <= its points/4.

    c is ``g.core``, the map of a graded g, or _CORE_CELLS steps h of a
    uniform g (2L/N, or L/N on the half line), which puts the coarse step
    at the origin at h/2 or less.  On the half line all points lie on
    [0, L], so half of ``Grid.graded``'s points keep its map step.  The
    quarter grid, rounded down to an even count, is its own coarse grid,
    so its solve starts from nothing.
    """
    if g.core is None:
        h = (1.0 if half_line else 2.0) * g.half_width / g.points
        core = _CORE_CELLS * h
    else:
        core = g.core
    points = _graded_points(g.half_width, core) // (2 if half_line else 1)
    if g.core == core and points == g.points:
        points = g.points // 8 * 2
    if points < 8 or 4 * points > g.points or k > points // 4:
        return None
    return _eigenpairs(V, Grid(g.half_width, points, core=core), k)[-1]


def _starts(coarse, x, levels):
    """start(j) for `_lowest`: coarse level levels[j] interpolated onto
    the nodes x, built only when it is asked for.  ``coarse`` is the
    whole mesh and vectors of the coarse solution."""
    if coarse is None:
        return None
    xc, vc = coarse
    return lambda j: np.interp(x, xc, vc[:, levels[j]])


def _one_matrix(mat, x, k, coarse):
    """Energies, residuals, node counts, floor ratios and solution of one
    matrix on the nodes x."""
    w, u, r, nodes, ratio = _lowest(mat, k, _starts(coarse, x, range(k)))
    return w, r, nodes, ratio, _Solution(x, u)


def _mirrored(v_half, xp, k, half_width, coarse):
    """Merged sector energies, residuals, node counts and floor ratios of
    an even potential, and its solution in sector form on the half mesh
    xp."""
    # no link across the centre (even), or a wall at the centre (odd)
    even = _assemble(xp, v_half, (0.0, half_width), False)
    w_even, u_even, r_even, n_even, f_even = _lowest(
        even, (k + 1) // 2, _starts(coarse, xp, range(0, k, 2)))
    # the even matrix is spent, so the odd one may take over its arrays
    w_odd, u_odd, r_odd, n_odd, f_odd = _lowest(
        _wall_at_origin(even, xp), k // 2, _starts(coarse, xp, range(1, k, 2)))
    w, r, ratio, nodes = np.empty(k), np.empty(k), np.empty(k), [0] * k
    w[0::2], w[1::2] = w_even, w_odd
    ratio[0::2], ratio[1::2] = f_even, f_odd
    # a sector residual is the full matrix's residual of the mirrored vector
    r[0::2], r[1::2] = r_even, r_odd
    # the mirror image doubles the nodes; an odd level adds the one at x = 0
    nodes[0::2] = [2 * n for n in n_even]
    nodes[1::2] = [2 * n + 1 for n in n_odd]
    return w, r, nodes, ratio, _Solution(xp, u_even, u_odd)


def _eigenpairs(V, g, k, coarse=None):
    """Energies, residuals, node counts, `_floor_ratios` and the
    `_Solution` of a grid, in sector form if its two parity sectors were
    solved, with vectors scaled to sum(width * v^2) = 1.  ``coarse``, the
    solution of a coarser grid, is the start of the polish; by default it
    comes from `_coarse`."""
    spec = isinstance(V, PotentialSpec)
    L = g.half_width
    half_line = spec and V.family == "half-line"
    if not half_line and g.points % 2:
        raise ValueError("full-line grids need an even point count to "
                         "stay mirror-symmetric")
    if coarse is None:
        coarse = _coarse(V, g, k, half_line)
    if coarse is not None:
        # the starts interpolate the whole-mesh vectors
        coarse = _positions(coarse), _vectors(coarse)
    if half_line:
        # the odd sector of -1/|x| on [-L, L], built the same way, on [0, L]
        x = _half_mesh(g, g.points)
        mat = _assemble(x, _potential(V, x), (0.0, L), False)
        return _one_matrix(_wall_at_origin(mat, x), x, k, coarse)
    m = g.points // 2
    xp = _half_mesh(g, m)
    if spec:
        # every family is even in x
        v_half = _potential(V, xp)
    else:
        x = np.concatenate((-xp[::-1], xp))
        v = _potential(V, x)
        if not np.array_equal(v[:m][::-1], v[m:]):
            return _one_matrix(_assemble(x, v, (-L, L), True), x, k, coarse)
        v_half = v[m:]
    return _mirrored(v_half, xp, k, L, coarse)


def _check(V, g, k_max):
    if k_max < 1 or k_max > g.points // 4:
        raise ValueError(f"k_max must lie in [1, N/4] = [1, {g.points // 4}]")


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
        is even on the full-line mesh, their exact parity; other
        levels, the half-line ones included, have parity None.  Energies
        are the Rayleigh quotients of the eigenvectors and increase with
        the index; each level's residual bounds the distance from its
        energy to an eigenvalue of the discrete H.

    Raises
    ------
    ConvergenceError
        If the eigensolve breaks down, or if the rounding floor
        16 eps ||H|| of a level's matrix is over 4 times the level's
        scale: its distance to the nearest other level of that matrix
        (the same parity sector, or the one full matrix).  A matrix
        asked for one level, as each sector is at k_max <= 2, has no
        such distance, and its level is measured against |E|; there a
        level within a few floors of E = 0 raises, wherever the zero of
        the potential sits.
    """
    _check(V, g, k_max)
    w, res, nodes, ratio, solution = _eigenpairs(V, g, k_max)
    _guard(w, ratio, range(k_max))
    sectors = solution.odd is not None
    levels = [Level(index=k, energy=float(w[k]),
                    parity=("odd" if k % 2 else "even") if sectors else None,
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
        Level index to track.
    refinements : int
        Number of halvings, 1 <= refinements <= 4 (memory bound).

    Returns
    -------
    list of float
        refinements + 1 energies, coarsest first.  Successive
        differences shrink about 4x per halving for smooth potentials.

    Raises
    ------
    ConvergenceError
        As `solve`, for the tracked level of any grid.
    """
    if refinements < 1 or refinements > 4:
        raise ValueError(f"refinements must lie in [1, 4], got {refinements}")
    energies, coarse = [], None
    for j in range(refinements + 1):
        gj = replace(g, points=g.points * 2 ** j)
        _check(V, gj, level + 1)
        w, _, _, ratio, coarse = _eigenpairs(V, gj, level + 1, coarse)
        _guard(w, ratio, [level])
        energies.append(float(w[level]))
    return energies
