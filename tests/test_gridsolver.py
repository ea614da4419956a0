"""Tests for the finite-difference eigensolver."""

import logging
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from coulomb1d import (ConvergenceError, Grid, cli, evaluate, exact_energy, gridsolver,
                       half_line, pure_coulomb, refine, repulsive_core, soft_core, solve)


def harmonic(x):
    return 0.5 * x * x


def box(x):
    return np.zeros_like(x)


class TestBenchmarkSpectra:
    def test_harmonic_levels(self):
        res = solve(harmonic, Grid(half_width=12.0, points=4000), 4)
        for k, lv in enumerate(res.levels):
            assert abs(lv.energy - (k + 0.5)) < 1e-4

    def test_harmonic_parity_and_nodes(self):
        res = solve(harmonic, Grid(half_width=12.0, points=4000), 4)
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd"]
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]

    def test_box_levels(self):
        # width-2 box: E_k = k^2 pi^2 / 8
        res = solve(box, Grid(half_width=1.0, points=2000), 2)
        assert abs(res.levels[0].energy - math.pi ** 2 / 8) < 1e-3
        assert abs(res.levels[1].energy - math.pi ** 2 / 2) < 1e-3

    def test_box_non_staggered(self):
        res = solve(box, Grid(half_width=1.0, points=2000, staggered=False), 2)
        assert abs(res.levels[0].energy - math.pi ** 2 / 8) < 1e-3

    def test_half_line_coulomb(self):
        res = solve(half_line(), Grid(half_width=60.0, points=12000), 2)
        assert abs(res.levels[0].energy + 0.5) < 0.005 * 0.5

    def test_energies_strictly_increase(self):
        res = solve(harmonic, Grid(half_width=12.0, points=2000), 6)
        es = [lv.energy for lv in res.levels]
        assert all(a < b for a, b in zip(es, es[1:]))


class TestEigenvectors:
    def test_sturm_node_counts(self):
        for V in (harmonic, soft_core(0.1), half_line()):
            res = solve(V, Grid(half_width=25.0, points=6000), 7)
            assert [lv.nodes for lv in res.levels] == list(range(7))

    def test_symmetric_potential_parity_residuals(self):
        res = solve(soft_core(0.1), Grid(half_width=30.0, points=6000), 4)
        for k, lv in enumerate(res.levels):
            v = res.vectors[:, k]
            rev = v[::-1]
            resid = np.linalg.norm(v - rev) if lv.parity == "even" \
                else np.linalg.norm(v + rev)
            assert resid <= 1e-8 * np.linalg.norm(v)
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd"]

    def test_discrete_norm(self):
        g = Grid(half_width=12.0, points=3000)
        res = solve(harmonic, g, 3)
        h = 2.0 * g.half_width / g.points
        for k in range(3):
            assert math.isclose(h * np.sum(res.vectors[:, k] ** 2), 1.0,
                                rel_tol=1e-10)

    def test_asymmetric_potential_gets_no_parity_tag(self):
        res = solve(lambda x: 0.5 * (x - 1.0) ** 2, Grid(12.0, 3000), 2)
        assert all(lv.parity is None for lv in res.levels)


def dense_staggered_levels(V, half_width, points, k, staggered=True):
    """Lowest k eigenvalues of the full uniform-mesh matrix, and its norm."""
    mat, norm = dense_staggered_matrix(V, half_width, points, staggered)
    return np.linalg.eigvalsh(mat)[:k], norm


def dense_staggered_matrix(V, half_width, points, staggered=True):
    """The full uniform-mesh matrix, dense, and its norm.

    Staggered mesh x_j = -L + (j + 1/2) h with h = 2L/N; the walls half a
    step outside the end points add 1/(2h^2) to the end diagonal entries.
    Unstaggered mesh x_j = -L + j h, j = 1 .. N-1, walls on the lattice.
    """
    h = 2.0 * half_width / points
    if staggered:
        x = -half_width + (np.arange(points) + 0.5) * h
    else:
        x = -half_width + np.arange(1, points) * h
    v = V(x) if callable(V) else evaluate(V, x)
    d = 1.0 / h ** 2 + v
    if staggered:
        d[0] += 0.5 / h ** 2
        d[-1] += 0.5 / h ** 2
    off = np.full(x.size - 1, -0.5 / h ** 2)
    mat = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    return mat, np.max(np.abs(d)) + 1.0 / h ** 2


SYMMETRIC = [harmonic, pure_coulomb(), soft_core(0.05), repulsive_core(0.05, 0.1)]


class TestParitySectors:
    @pytest.mark.parametrize("V", SYMMETRIC, ids=lambda V: getattr(V, "family", "harmonic"))
    def test_sector_energies_match_dense_full_matrix(self, V):
        # k = 5 takes three even and two odd sector levels
        res = solve(V, Grid(half_width=10.0, points=400), 5)
        ref, norm = dense_staggered_levels(V, 10.0, 400, 5)
        got = [lv.energy for lv in res.levels]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * norm)
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd", "even"]
        assert [lv.nodes for lv in res.levels] == list(range(5))

    def test_half_line_is_the_odd_sector_of_pure_coulomb(self):
        half = solve(half_line(), Grid(half_width=60.0, points=4000), 3)
        full = solve(pure_coulomb(), Grid(half_width=60.0, points=8000), 6)
        odd = [lv.energy for lv in full.levels if lv.parity == "odd"]
        assert [lv.energy for lv in half.levels] == odd
        np.testing.assert_array_equal(half.positions, full.positions[4000:])

    @pytest.mark.parametrize("V", SYMMETRIC, ids=lambda V: getattr(V, "family", "harmonic"))
    def test_mirrored_vectors_have_exact_parity(self, V):
        res = solve(V, Grid(half_width=10.0, points=400), 4)
        np.testing.assert_array_equal(res.positions[::-1], -res.positions)
        for lv, v in zip(res.levels, res.vectors.T):
            sign = 1.0 if lv.parity == "even" else -1.0
            np.testing.assert_array_equal(v[::-1], sign * v)

    def test_single_level(self):
        g = Grid(half_width=12.0, points=3000)
        res = solve(harmonic, g, 1)
        assert res.vectors.shape == (3000, 1)
        (lv,) = res.levels
        assert (lv.index, lv.parity, lv.nodes) == (0, "even", 0)
        assert abs(lv.energy - 0.5) < 1e-4
        h = 2.0 * g.half_width / g.points
        assert math.isclose(h * np.sum(res.vectors[:, 0] ** 2), 1.0, rel_tol=1e-12)

    def test_full_matrix_paths_match_dense_matrix(self):
        shifted = lambda x: 0.5 * (x - 1.0) ** 2  # noqa: E731
        for V, staggered in ((shifted, True), (soft_core(0.5), False)):
            res = solve(V, Grid(10.0, 400, staggered=staggered), 4)
            ref, norm = dense_staggered_levels(V, 10.0, 400, 4, staggered)
            np.testing.assert_allclose([lv.energy for lv in res.levels], ref,
                                       rtol=0, atol=1e-12 * norm)

    def test_full_matrix_paths_carry_no_parity(self):
        asym = solve(lambda x: 0.5 * (x - 1.0) ** 2, Grid(12.0, 3000), 3)
        plain = solve(soft_core(0.5), Grid(20.0, 4000, staggered=False), 3)
        for res in (asym, plain):
            assert [lv.parity for lv in res.levels] == [None, None, None]
            assert [lv.nodes for lv in res.levels] == [0, 1, 2]
        # the shifted well keeps the harmonic spacing
        assert abs(asym.levels[1].energy - asym.levels[0].energy - 1.0) < 1e-3


class TestRayleighQuotient:
    def test_harmonic_ground_error_is_the_discrete_law(self):
        # a bisection eigenvalue is good to its tolerance at best, eps/h^2
        # = 5e-8 here; the quotient reaches the 3-point scheme's own error
        # -h^2/32
        g = Grid(half_width=10.0, points=300000)
        h = 2.0 * g.half_width / g.points
        err = solve(harmonic, g, 1).levels[0].energy - 0.5
        assert abs(err / (-h * h / 32.0) - 1.0) <= 0.05

    def test_deep_double_well_doublet_in_order(self):
        # even level j lies strictly below odd level j
        res = solve(repulsive_core(1e-2, 2.0), Grid(20.0, 40000), 4)
        es = [lv.energy for lv in res.levels]
        assert all(a < b for a, b in zip(es, es[1:]))
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd"]


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """The tol of every gridsolver.eigh_tridiagonal call, in order, 0.0
    for LAPACK's default; set ``fail`` to a count of leading calls that
    raise LinAlgError."""
    real = gridsolver.eigh_tridiagonal
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs.get("tol", 0.0))
        if len(calls) <= recording.fail:
            raise LinAlgError("stein: 1 eigenvectors failed to converge")
        return real(*args, **kwargs)

    recording.fail, recording.calls = 0, calls
    monkeypatch.setattr(gridsolver, "eigh_tridiagonal", recording)
    return recording


class TestLooseBisection:
    def test_small_matrix_is_bisected_once(self, eigensolver_calls):
        # too small for a coarse start: one call at the default tolerance
        res = solve(half_line(), Grid(half_width=60.0, points=800), 4)
        assert eigensolver_calls.calls == [0.0]
        assert [lv.nodes for lv in res.levels] == list(range(4))

    def test_full_precision_failure_raises(self, eigensolver_calls):
        eigensolver_calls.fail = 1
        with pytest.raises(ConvergenceError):
            solve(harmonic, Grid(half_width=10.0, points=400), 3)

    @pytest.mark.parametrize("V, staggered", [(harmonic, True), (soft_core(0.5), False)])
    def test_residual_is_that_of_the_unit_vector(self, V, staggered):
        g = Grid(10.0, 400, staggered=staggered)
        res = solve(V, g, 4)
        mat, norm = dense_staggered_matrix(V, 10.0, 400, staggered)
        ref = np.linalg.eigvalsh(mat)[:4]
        eps = np.finfo(float).eps
        for lv, u, e in zip(res.levels, res.vectors.T, ref):
            # the unit vector of the symmetric matrix is sqrt(h) u
            y = math.sqrt(2.0 * g.half_width / g.points) * u
            assert abs(lv.residual - np.linalg.norm(mat @ y - lv.energy * y)) <= eps * norm
            assert 0.0 < lv.residual <= 16.0 * eps * norm
            # an eigenvalue lies within the residual, up to eigvalsh's rounding
            assert abs(lv.energy - e) <= lv.residual + 4.0 * eps * norm


@pytest.fixture
def routes(caplog):
    """The route record of every matrix solved, as (points, message)."""
    caplog.set_level(logging.DEBUG, logger="coulomb1d.gridsolver")

    def records():
        return [(int(r.getMessage().split("-")[0]), r.getMessage())
                for r in caplog.records if r.name == "coulomb1d.gridsolver"]
    return records


@pytest.fixture
def bisection_only(monkeypatch, caplog):
    """solve with the coarse start switched off, so that every matrix is
    bisected, as on grids with no coarse grid."""
    def solve_bisecting(V, g, k):
        caplog.set_level(logging.DEBUG, logger="coulomb1d.gridsolver")
        first = len(caplog.records)
        with monkeypatch.context() as m:
            m.setattr(gridsolver, "_coarse", lambda *args: None)
            res = solve(V, g, k)
        messages = [r.getMessage() for r in caplog.records[first:]
                    if r.name == "coulomb1d.gridsolver"]
        assert messages
        assert not any("polished" in msg for msg in messages)
        return res
    return solve_bisecting


@pytest.fixture
def sector_norms(monkeypatch):
    """max|d| + 2 max|e| of every matrix that _lowest solves, by size."""
    real, norms = gridsolver._lowest, {}

    def recording(mat, k, start):
        norms[mat.d.size] = np.abs(mat.d).max() + 2.0 * np.abs(mat.e).max()
        return real(mat, k, start)
    monkeypatch.setattr(gridsolver, "_lowest", recording)
    return norms


# each grid has at least four times the points of its coarse graded grid
POLISHED = [
    ("pure-coulomb", pure_coulomb(), Grid(60.0, 40000), 4),
    ("harmonic", harmonic, Grid(10.0, 40000), 4),
    ("graded-soft-core", soft_core(1e-3), Grid(30.0, 40000, core=1e-3), 4),
    ("half-line", half_line(), Grid(60.0, 40000), 4),
    ("repulsive-core", repulsive_core(1e-2, 3e-2), Grid(40.0, 40000), 4),
]


class TestCoarseStart:
    @pytest.mark.parametrize("V, g, k", [case[1:] for case in POLISHED],
                             ids=[case[0] for case in POLISHED])
    def test_polished_levels_match_bisection(self, V, g, k, routes, bisection_only,
                                             sector_norms):
        polished = solve(V, g, k)
        # the half line is one matrix, the others two parity sectors
        sectors = 1 if getattr(V, "family", None) == "half-line" else 2
        fine = g.points // sectors
        assert [size for size, msg in routes() if "polished" in msg].count(fine) \
            == sectors
        eps = np.finfo(float).eps
        for lv in polished.levels:
            assert 0.0 < lv.residual <= 16.0 * eps * sector_norms[fine]
        full = bisection_only(V, g, k)
        np.testing.assert_allclose([lv.energy for lv in polished.levels],
                                   [lv.energy for lv in full.levels], rtol=1e-12, atol=0)
        assert [lv.nodes for lv in polished.levels] == list(range(k))
        assert [lv.nodes for lv in full.levels] == list(range(k))
        assert [lv.parity for lv in polished.levels] == [lv.parity for lv in full.levels]

    def test_care_scan_grid_polishes_both_sectors(self, routes, bisection_only):
        # the default care scan: the coarse graded grid resolves the core
        V, g = repulsive_core(1e-3, 5e-3), Grid(54.0, 540000)
        polished = solve(V, g, 6)
        assert [size for size, msg in routes() if "polished" in msg] == [270000] * 2
        full = bisection_only(V, g, 6)
        np.testing.assert_allclose([lv.energy for lv in polished.levels],
                                   [lv.energy for lv in full.levels], rtol=1e-12, atol=0)
        assert [lv.nodes for lv in polished.levels] == list(range(6))
        assert [lv.parity for lv in polished.levels] == [lv.parity for lv in full.levels]

    def test_wrong_index_start_falls_back(self, monkeypatch, routes, bisection_only):
        # the even sector's level j starts from its level j + 1, so the
        # polish of its ground level converges on a vector with a node
        real = gridsolver._starts

        def shifted(coarse, x, levels):
            start = real(coarse, x, levels)
            if start is None or levels[0] != 0:
                return start
            return lambda j: start((j + 1) % len(levels))
        monkeypatch.setattr(gridsolver, "_starts", shifted)
        V, g = repulsive_core(1e-3, 5e-3), Grid(30.0, 40000)
        res = solve(V, g, 4)
        fine = [msg for size, msg in routes() if size == g.points // 2]
        assert fine[0].endswith(": bisection after a failed polish")
        assert "polished" in fine[1]
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]
        # the even sector is exactly the bisection solve
        full = bisection_only(V, g, 4)
        for got, want in zip(res.levels[0::2], full.levels[0::2]):
            assert got == want

    @pytest.mark.parametrize("fault", ["info", "nan"])
    def test_failed_tridiagonal_solve_falls_back(self, fault, monkeypatch, routes,
                                                 bisection_only, sector_norms):
        real = gridsolver.dgtsv

        def failing(*args, **kwargs):
            *out, info = real(*args, **kwargs)
            if fault == "nan":
                out[3][:] = np.nan
                return (*out, info)
            return (*out, 3)
        monkeypatch.setattr(gridsolver, "dgtsv", failing)
        g = Grid(60.0, 40000)
        res = solve(pure_coulomb(), g, 4)
        assert [msg.split(": ")[1] for size, msg in routes() if size == 20000] == \
            ["bisection after a failed polish"] * 2
        eps = np.finfo(float).eps
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]
        for lv in res.levels:
            assert math.isfinite(lv.energy)
            assert 0.0 < lv.residual <= 16.0 * eps * sector_norms[20000]
        assert res.levels == bisection_only(pure_coulomb(), g, 4).levels

    def test_repeated_solves_are_bit_identical(self):
        for V, g, k in ((pure_coulomb(), Grid(60.0, 40000), 4),
                        (repulsive_core(1e-3, 5e-3), Grid(30.0, 40000), 4)):
            first, second = solve(V, g, k), solve(V, g, k)
            assert first.levels == second.levels
            np.testing.assert_array_equal(first.vectors, second.vectors)


class TestRouteLog:
    def test_one_record_per_sector(self, routes):
        solve(harmonic, Grid(10.0, 40000), 4)
        solve(half_line(), Grid(60.0, 800), 4)
        sizes = [size for size, _ in routes()]
        # coarse sectors, fine sectors, then the one half-line matrix
        assert sizes == [483, 483, 20000, 20000, 800]
        messages = [msg.split(": ")[1] for _, msg in routes()]
        assert all(msg.startswith("polished in [") and msg.endswith("] steps")
                   for msg in messages[2:4])
        assert [messages[j] for j in (0, 1, 4)] == ["bisection"] * 3

    def test_half_line_scan_grid_polishes(self, routes):
        # the default half-line scan: the coarse grid has half of
        # Grid.graded(60, 5h)'s 4956 points, all on [0, L]
        solve(half_line(), Grid(60.0, 12000), 3)
        assert [size for size, _ in routes()] == [2478, 12000]
        messages = [msg.split(": ")[1] for _, msg in routes()]
        assert messages[0] == "bisection"
        assert messages[1].startswith("polished in [")

    @pytest.mark.parametrize("V, g", [(soft_core(0.5), Grid(0.05, 400, core=10.0)),
                                      (half_line(), Grid(0.1, 400, core=10.0))])
    def test_box_too_small_for_a_coarse_grid(self, V, g, routes):
        # the graded grid of this box has fewer than 8 points: no coarse start
        res = solve(V, g, 1)
        assert [msg.split(": ")[1] for _, msg in routes()] == ["bisection"]
        assert res.levels[0].nodes == 0

    def test_refine_starts_each_rung_from_the_one_before(self, routes):
        # the default soft-core scan of one radius; one level, so only the
        # even sector of each rung is solved
        g = Grid.graded(30.0, 1e-2)
        refine(soft_core(1e-2), g, 0, 2)
        assert [size for size, _ in routes()] == [g.points // 2, g.points, 2 * g.points]
        messages = [msg.split(": ")[1] for _, msg in routes()]
        assert messages[0] == "bisection"
        assert all(msg.startswith("polished in [") for msg in messages[1:])

    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "pure-coulomb", "--half-width", "60", "--points",
         "40000", "--k-max", "4"],
        ["scan", "--family", "half-line"],
        ["scan", "--family", "soft-core", "--a", "1e-2"],
    ])
    def test_output_does_not_depend_on_the_log_level(self, argv, capsys, caplog):
        assert cli.main(argv) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.DEBUG, logger="coulomb1d.gridsolver"):
            assert cli.main(argv) == 0
        loud = capsys.readouterr()
        assert caplog.records
        assert (loud.out, loud.err) == (quiet.out, quiet.err)


def graded_fv_levels(V, x_half, half_width, k):
    """Lowest k eigenvalues of the full finite-volume matrix on the mirrored
    nodes, and its norm: cells from midpoint to midpoint, end cells closed
    by the walls at +-L, links 1/(2 dx) between neighbours and to the walls,
    H = M^(-1/2) K M^(-1/2) assembled densely."""
    x = np.concatenate((-x_half[::-1], x_half))
    width = np.diff(np.concatenate(([-half_width], 0.5 * (x[1:] + x[:-1]),
                                    [half_width])))
    link = 0.5 / np.diff(np.concatenate(([-half_width], x, [half_width])))
    K = (np.diag(evaluate(V, x) * width + link[:-1] + link[1:])
         - np.diag(link[1:-1], 1) - np.diag(link[1:-1], -1))
    T = K / np.sqrt(np.outer(width, width))
    return np.linalg.eigvalsh(T)[:k], np.max(np.sum(np.abs(T), axis=1))


def stretch(x, core):
    return x / 0.05 + 5.0 * np.log1p(x / core)


class TestGradedMesh:
    def test_nodes_follow_the_map(self):
        g = Grid(half_width=30.0, points=400, core=1e-3)
        x = solve(soft_core(1e-3), g, 1).positions[200:]
        delta = stretch(30.0, 1e-3) / 200
        np.testing.assert_allclose(stretch(x, 1e-3), (np.arange(200) + 0.5) * delta,
                                   rtol=1e-14)

    def test_coarsest_scan_grid(self):
        # N/2 = ceil(2 s(L)): map step at most 1/2
        g = Grid.graded(30.0, 1e-4)
        assert (g.points, g.core, g.staggered) == (2654, 1e-4, True)
        assert g.points // 2 == math.ceil(2.0 * stretch(30.0, 1e-4))

    def test_harmonic_refinement_is_second_order(self):
        seq = refine(harmonic, Grid(half_width=10.0, points=400, core=0.1), 0, 3)
        errs = [abs(e - 0.5) for e in seq]
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.9 <= e1 / e2 <= 4.1

    @pytest.mark.parametrize("level, exact", [(1, -0.5), (3, -0.125)])
    def test_odd_coulomb_levels_converge(self, level, exact):
        seq = refine(pure_coulomb(), Grid(half_width=60.0, points=2000, core=1e-2),
                     level, 3)
        errs = [e - exact for e in seq]
        assert abs(errs[-1]) < 2e-6
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.9 <= e1 / e2 <= 4.1

    def test_half_line_is_the_odd_sector_of_pure_coulomb(self):
        half = solve(half_line(), Grid(60.0, 1500, core=1e-2), 3)
        full = solve(pure_coulomb(), Grid(60.0, 3000, core=1e-2), 6)
        odd = [lv.energy for lv in full.levels if lv.parity == "odd"]
        assert [lv.energy for lv in half.levels] == odd
        np.testing.assert_array_equal(half.positions, full.positions[1500:])

    def test_soft_core_matches_dense_finite_volume_matrix(self):
        V = soft_core(1e-2)
        res = solve(V, Grid(half_width=30.0, points=400, core=1e-2), 5)
        ref, norm = graded_fv_levels(V, res.positions[200:], 30.0, 5)
        np.testing.assert_allclose([lv.energy for lv in res.levels], ref,
                                   rtol=0, atol=1e-12 * norm)
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd", "even"]
        assert [lv.nodes for lv in res.levels] == list(range(5))

    def test_vectors_have_unit_cell_weighted_norm(self):
        res = solve(soft_core(1e-2), Grid(half_width=30.0, points=400, core=1e-2), 2)
        x = res.positions
        faces = np.concatenate(([-30.0], 0.5 * (x[1:] + x[:-1]), [30.0]))
        for v in res.vectors.T:
            assert math.isclose(np.diff(faces) @ v ** 2, 1.0, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(half_width=10.0, points=400, staggered=False, core=0.1)
        for core in (0.0, -1e-3):
            with pytest.raises(ValueError):
                Grid(half_width=10.0, points=400, core=core)

    @pytest.mark.parametrize("half_width, core, message", [
        (30.0, 0.0, "core must be positive, got 0.0"),
        (30.0, -1e-3, "core must be positive, got -0.001"),
        (0.0, 1e-3, "half_width must be positive, got 0.0"),
        (-5.0, 1e-2, "half_width must be positive, got -5.0"),
        (math.inf, 1e-2, "half_width must be positive and finite, got inf"),
        (30.0, math.inf, "core must be positive and finite, got inf"),
    ])
    def test_graded_validation(self, half_width, core, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grid.graded(half_width, core)
        # the messages of Grid itself
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grid(half_width, 400, core=core)


class TestVariationalBound:
    def test_wall_move_never_raises_converged_levels(self):
        small = solve(soft_core(1e-2), Grid(half_width=30.0, points=60000), 2)
        large = solve(soft_core(1e-2), Grid(half_width=60.0, points=120000), 2)
        for lv_s, lv_l in zip(small.levels, large.levels):
            assert lv_l.energy <= lv_s.energy + 1e-9


class TestOracleAgreement:
    def test_soft_core_odd_levels_match_exact_spectrum(self):
        # odd states vanish at the origin, so a = 1e-3 barely moves them
        res = solve(soft_core(1e-3), Grid(half_width=30.0, points=300000), 4)
        assert res.levels[1].parity == "odd"
        assert res.levels[3].parity == "odd"
        assert abs(res.levels[1].energy - exact_energy(1)) < 0.01 * abs(exact_energy(1))
        assert abs(res.levels[3].energy - exact_energy(3)) < 0.01 * abs(exact_energy(3))


class TestRefine:
    def test_harmonic_ground_ratio(self):
        seq = refine(harmonic, Grid(half_width=8.0, points=500), 0, 2)
        ratio = (seq[0] - seq[1]) / (seq[1] - seq[2])
        assert 3.5 <= ratio <= 4.5

    def test_soft_core_monotone_convergence(self):
        seq = refine(soft_core(0.1), Grid(half_width=20.0, points=2000), 1, 2)
        diffs = np.diff(seq)
        assert all(abs(d2) < abs(d1) for d1, d2 in zip(diffs, diffs[1:]))

    def test_box_extrapolates_to_analytic_value(self):
        seq = refine(box, Grid(half_width=1.0, points=2000), 0, 1)
        extrapolated = (4.0 * seq[1] - seq[0]) / 3.0
        assert abs(extrapolated - math.pi ** 2 / 8) < 1e-6

    def test_refinement_budget_enforced(self):
        with pytest.raises(ValueError):
            refine(box, Grid(1.0, 500), 0, 5)


class TestValidation:
    def test_k_max_bounded_by_quarter_n(self):
        with pytest.raises(ValueError):
            solve(harmonic, Grid(half_width=10.0, points=100), 26)

    def test_singular_potential_requires_staggering(self):
        with pytest.raises(ValueError):
            solve(pure_coulomb(), Grid(half_width=20.0, points=1000,
                                       staggered=False), 2)

    def test_full_line_staggered_needs_even_points(self):
        with pytest.raises(ValueError):
            solve(harmonic, Grid(half_width=10.0, points=1001), 2)

    def test_grid_field_validation(self):
        with pytest.raises(ValueError):
            Grid(half_width=-1.0, points=100)
        with pytest.raises(ValueError):
            Grid(half_width=1.0, points=4)

    def test_non_finite_potential_rejected(self):
        with pytest.raises(ValueError):
            solve(lambda x: np.full_like(x, np.nan), Grid(1.0, 500), 1)
