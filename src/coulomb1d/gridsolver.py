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

Eigenvectors.  A grid first solves the same problem on
``Grid.graded(L, c)``, the coarsest grid of the map s for a core c.  On
a graded grid c is its own ``core``, so both grids share the map; on a
uniform grid of step h, c is 5h, and the coarse step at the origin,
about D c/5 = D h with D <= 1/2, is finer than h.  Either way the coarse
grid resolves every core that the fine grid resolves.  On the half line,
whose points all lie on [0, L], the coarse grid takes half of
``Grid.graded``'s points, which keeps its map step.  It serves only a
grid with at least four times its points; it is its own coarse grid, so
its solve starts from nothing.  `refine` starts each grid after its
first from the vectors of the grid before.  Each coarse vector is
interpolated onto the fine nodes and polished by at most five
shift-invert Rayleigh-quotient steps, one LAPACK gtsv solve each, which
converge cubically near an eigenvector (Parlett, The Symmetric
Eigenvalue Problem, ch. 4).  The steps of a level stop on the residual
that the solve itself yields: after (H - sigma) z = y with ||y|| = 1,
the vector z/||z|| has the quotient sigma + delta, delta = z.y/z.z, and
the residual sqrt(1/z.z - delta^2), so a step needs no product with H.
The certificate is explicit and taken once, after the last step: a
polished level j stands only if its vector's residual ||Hy - Ey||,
recomputed from H, is at most 16 eps ||H||, the rounding floor of a
full-precision solve, and the vector has exactly j sign changes, as
eigenvector j of a Jacobi matrix (a sector, or the full matrix) must.
If any level of a matrix fails it, or a solve breaks down, all its
levels are solved once by bisection and inverse iteration (LAPACK
stebz/stein via scipy) at LAPACK's default tolerance, as those of grids
with no coarse start are at once.  The logger
``coulomb1d.gridsolver`` records the route of every matrix at DEBUG,
with the largest polished residual as a fraction of the floor.
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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

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
        _require_positive("half_width", self.half_width)
        if self.points < 8:
            raise ValueError(f"need at least 8 mesh points, got {self.points}")
        if self.core is not None:
            _require_positive("core", self.core)
            if not self.staggered:
                raise ValueError("a graded grid must be staggered")

    @classmethod
    def graded(cls, half_width, core):
        """Coarsest graded full-line grid: N/2 = ceil(2 s(L)), so D <= 1/2."""
        _require_positive("half_width", half_width)
        _require_positive("core", core)
        return cls(half_width, _graded_points(half_width, core), core=core)


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


# A polished level stands when its residual is at most this many
# eps ||H||, the floor a full-precision bisection reaches (up to 10 on
# 2.7e5-point sectors), after at most _POLISH_STEPS Rayleigh-quotient
# steps.
_RESIDUAL_FLOOR = 16.0
_POLISH_STEPS = 5

_log = logging.getLogger(__name__)


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


def _quotients(mat, y):
    """Rayleigh-quotient energies E in difference form, nodal vectors u
    scaled so that sum(width * u^2) = 1, and residuals ||Hy - Ey|| of
    the unit columns y.

    u and its squared differences have the size of y; the potential term
    and the residuals take one column of y at a time, so that they add
    only temporaries of the size of one column.
    """
    k = y.shape[1]
    # y has unit 2-norm, so u = M^(-1/2) y has sum(width * u^2) = 1 and
    # the quotient u.K.u / u.M.u needs no denominator
    u = y / mat.scale[:, None]
    du = np.diff(u, axis=0)
    du *= du
    kinetic = mat.link @ du
    del du
    wall0, wall1 = mat.ends[0] * u[0] ** 2, mat.ends[1] * u[-1] ** 2
    energy, r = np.empty(k), np.empty(k)
    hy, t = np.empty(mat.d.size), np.empty(mat.e.size)
    for j, c in enumerate(y.T):
        energy[j] = (kinetic[j] + np.multiply(mat.v, c, out=hy) @ c
                     + wall0[j] + wall1[j])
        _apply(np.subtract(mat.d, energy[j], out=hy), mat.e, c, hy, t)
        r[j] = math.sqrt(hy @ hy)
    return energy, u, r


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
    size = math.sqrt(b @ b) if info == 0 else math.nan
    # written so that a NaN or infinite solution fails too
    if not 0.0 < size < math.inf:
        return None
    delta = (b @ c) / size / size
    np.divide(b, size, out=c)
    return sigma + delta, math.sqrt(max(1.0 / size / size - delta * delta, 0.0))


def _polished(mat, k, start, floor):
    """Levels polished from start vectors, with the Rayleigh-quotient
    steps each took, or None unless every level is certified.

    The steps of a level stop once the residual that `_step` reports is
    at most ``floor``.  The certificate is then taken once, explicitly:
    level j stands if its vector has j sign changes, the node count of
    eigenvector j of a Jacobi matrix, and if the residuals that
    `_quotients` recomputes are at most ``floor``.  The first level to
    fail ends the attempt.
    """
    n = mat.d.size
    y = np.empty((n, k), order="F")
    # the buffers of `_step`, so that no step allocates; its dl is
    # scratch for the product with H until a step overwrites it
    work = np.empty(n), np.empty(n), np.empty(n - 1), np.empty(n - 1)
    b, dd, t = work[:3]
    steps = []
    for j in range(k):
        c = y[:, j]
        np.multiply(start(j), mat.scale, out=c)
        c /= math.sqrt(c @ c)
        # the one product with H of a level: its start's quotient and residual
        sigma = _apply(mat.d, mat.e, c, b, t) @ c
        b -= np.multiply(c, sigma, out=dd)
        residual = math.sqrt(b @ b)
        for step in range(_POLISH_STEPS + 1):
            if residual <= floor:
                break
            if step == _POLISH_STEPS:
                return None
            stepped = _step(mat.d, mat.e, sigma, c, work)
            if stepped is None:
                return None
            sigma, residual = stepped
        if sign_changes(np.divide(c, mat.scale, out=b)).size != j:
            return None
        steps.append(step)
    del work, b, dd, t  # before the quotients allocate u and its differences
    energy, u, r = _quotients(mat, y)
    if not r.max() <= floor:
        return None
    return (energy, u, r, list(range(k))), steps


def _lowest(mat, k, start):
    """Lowest k eigenpairs as energies, nodal vectors, residuals and node
    counts.

    ``start(j)``, if not None, gives a nodal start vector of level j;
    the levels polished from them stand if every one is certified.
    Otherwise one bisection and inverse-iteration solve at LAPACK's
    default tolerance gives them all.  Each call logs its route at DEBUG,
    a polish with the steps of each level and its largest residual as a
    fraction of the certificate's floor.
    """
    if k == 0:
        return np.empty(0), np.empty((mat.d.size, 0)), np.empty(0), []
    route = "bisection"
    if start is not None:
        floor = _RESIDUAL_FLOOR * np.finfo(float).eps * _norm(mat)
        polished = _polished(mat, k, start, floor)
        if polished is not None:
            levels, steps = polished
            _log.debug("%d-point matrix, %d levels: polished in %s steps, "
                       "max residual %.3g of the floor", mat.d.size, k, steps,
                       levels[2].max() / floor)
            return levels
        route = "bisection after a failed polish"
    try:
        _, y = eigh_tridiagonal(mat.d, mat.e, select="i", select_range=(0, k - 1))
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}",
                               None, math.inf) from exc
    _log.debug("%d-point matrix, %d levels: %s", mat.d.size, k, route)
    energy, u, r = _quotients(mat, y)
    return energy, u, r, [sign_changes(c).size for c in u.T]


def _coarse(V, g, k, half_line):
    """Mesh and vectors of the same problem on ``Grid.graded(L, c)``;
    None unless that grid has at least 8 points, at most a quarter of the
    points of g, and k <= its points/4.

    c is ``g.core``, the map of a graded g, or _CORE_CELLS steps h of a
    uniform g (2L/N, or L/N on the half line), which puts the coarse step
    at the origin at h/2 or less.  On the half line all points lie on
    [0, L], so half of ``Grid.graded``'s points keep its map step.  The
    coarse grid is its own coarse grid, so its solve starts from nothing.
    """
    if g.core is None:
        h = (1.0 if half_line else 2.0) * g.half_width / g.points
        core = _CORE_CELLS * h
    else:
        core = g.core
    points = _graded_points(g.half_width, core) // (2 if half_line else 1)
    if points < 8 or 4 * points > g.points or k > points // 4:
        return None
    x, _, vecs, *_ = _eigenpairs(V, Grid(g.half_width, points, core=core), k)
    return x, vecs


def _starts(coarse, x, levels):
    """start(j) for `_lowest`: coarse level levels[j] interpolated onto
    the nodes x, built only when it is asked for."""
    if coarse is None:
        return None
    xc, vc = coarse
    return lambda j: np.interp(x, xc, vc[:, levels[j]])


def _mirrored(v_half, xp, k, half_width, coarse):
    """Merged sector energies, full-mesh vectors, residuals and node
    counts of an even potential."""
    m = xp.size
    # no link across the centre (even), or a wall at the centre (odd)
    even = _assemble(xp, v_half, (0.0, half_width), (None, half_width))
    w_even, u_even, r_even, n_even = _lowest(
        even, (k + 1) // 2, _starts(coarse, xp, range(0, k, 2)))
    # the even matrix is spent, so the odd one may take over its arrays
    w_odd, u_odd, r_odd, n_odd = _lowest(
        _wall_at_origin(even, xp), k // 2, _starts(coarse, xp, range(1, k, 2)))
    w, r, nodes = np.empty(k), np.empty(k), [0] * k
    w[0::2], w[1::2] = w_even, w_odd
    # a sector residual is the full matrix's residual of the mirrored vector
    r[0::2], r[1::2] = r_even, r_odd
    # the mirror image doubles the nodes; an odd level adds the one at x = 0
    nodes[0::2] = [2 * n for n in n_even]
    nodes[1::2] = [2 * n + 1 for n in n_odd]
    # column by column, so that every write is contiguous
    vecs = np.empty((2 * m, k), order="F")
    root2 = math.sqrt(2.0)
    for j in range(k):
        half = vecs[m:, j]
        np.divide((u_odd if j % 2 else u_even)[:, j // 2], root2, out=half)
        if j % 2:
            np.negative(half[::-1], out=vecs[:m, j])
        else:
            vecs[:m, j] = half[::-1]
    return w, vecs, r, nodes


def _eigenpairs(V, g, k, coarse=None):
    """Mesh, energies, vectors scaled to sum(width * v^2) = 1, residuals,
    node counts, and whether the vectors come from the two parity
    sectors.  ``coarse``, the mesh and vectors of a coarser solve, is the
    start of the polish; by default it comes from `_coarse`."""
    spec = isinstance(V, PotentialSpec)
    L = g.half_width
    half_line = spec and V.family == "half-line"
    if g.staggered and not half_line and g.points % 2:
        raise ValueError("full-line staggered grids need an even "
                         "point count to stay mirror-symmetric")
    if coarse is None:
        coarse = _coarse(V, g, k, half_line)
    if half_line:
        # the odd sector of -1/|x| on [-L, L], built the same way, on [0, L]
        x = _half_mesh(g, g.points)
        mat = _assemble(x, _potential(V, x), (0.0, L), (None, L))
        return (x, *_lowest(_wall_at_origin(mat, x), k,
                            _starts(coarse, x, range(k))), False)
    if not g.staggered:
        # walls on the lattice, one step outside the end points
        h = 2.0 * L / g.points
        x = -L + np.arange(1, g.points) * h
        mat = _assemble(x, _potential(V, x), (-L + 0.5 * h, L - 0.5 * h), (-L, L))
        return (x, *_lowest(mat, k, _starts(coarse, x, range(k))), False)
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
            return (x, *_lowest(mat, k, _starts(coarse, x, range(k))), False)
        v_half = v[m:]
    return (x, *_mirrored(v_half, xp, k, L, coarse), True)


def _check(V, g, k_max):
    if k_max < 1 or k_max > g.points // 4:
        raise ValueError(f"k_max must lie in [1, N/4] = [1, {g.points // 4}]")
    if isinstance(V, PotentialSpec) and singular_at_origin(V) and not g.staggered:
        raise ValueError(f"{V.family} is singular at the origin and needs a "
                         "staggered grid")


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
        the index; each level's residual bounds the distance from its
        energy to an eigenvalue of the discrete H.
    """
    _check(V, g, k_max)
    x, w, vecs, res, nodes, sectors = _eigenpairs(V, g, k_max)
    levels = [Level(index=k, energy=float(w[k]),
                    parity=("odd" if k % 2 else "even") if sectors else None,
                    nodes=nodes[k], residual=float(res[k]))
              for k in range(k_max)]
    return SpectrumResult(levels=levels, grid=g, potential=V,
                          positions=x, vectors=vecs)


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
    """
    if refinements < 1 or refinements > 4:
        raise ValueError(f"refinements must lie in [1, 4], got {refinements}")
    energies, coarse = [], None
    for j in range(refinements + 1):
        gj = replace(g, points=g.points * 2 ** j)
        _check(V, gj, level + 1)
        x, w, vecs, *_ = _eigenpairs(V, gj, level + 1, coarse)
        energies.append(float(w[level]))
        coarse = x, vecs
    return energies
