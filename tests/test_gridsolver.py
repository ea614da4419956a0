"""Tests for the finite-difference eigensolver."""

import logging
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.optimize import brentq

from scipy.linalg import eigvalsh_tridiagonal

from coulomb1d import (ConvergenceError, Grid, PotentialSpec, care_interleaving, cli,
                       evaluate, exact_energy, gridsolver, half_line, normalize,
                       pure_coulomb, refine, repulsive_core, soft_core,
                       soft_core_ground_scan, solve, wavefunction)


def harmonic(x):
    return 0.5 * x * x


def box(x):
    return np.zeros_like(x)


def diagonal(mat):
    """The diagonal d of a matrix, held or written into a row of its own."""
    return gridsolver._diagonal(mat, np.empty(mat.v.size))


def norm(mat):
    """gridsolver._norm with a scratch row of its own."""
    return gridsolver._norm(mat, np.empty(mat.v.size))


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


def dense_staggered_levels(V, half_width, points, k):
    """Lowest k eigenvalues of the full uniform-mesh matrix, and its norm."""
    mat, norm = dense_staggered_matrix(V, half_width, points)
    return np.linalg.eigvalsh(mat)[:k], norm


def dense_staggered_matrix(V, half_width, points):
    """The full uniform-mesh matrix, dense, and its norm.

    Staggered mesh x_j = -L + (j + 1/2) h with h = 2L/N; the walls half a
    step outside the end points add 1/(2h^2) to the end diagonal entries.
    """
    h = 2.0 * half_width / points
    x = -half_width + (np.arange(points) + 0.5) * h
    v = V(x) if callable(V) else evaluate(V, x)
    d = 1.0 / h ** 2 + v
    d[0] += 0.5 / h ** 2
    d[-1] += 0.5 / h ** 2
    off = np.full(x.size - 1, -0.5 / h ** 2)
    mat = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    return mat, np.max(np.abs(d)) + 1.0 / h ** 2


def cell_widths(x, half_width, left=None):
    """Finite-volume cell widths of staggered nodes x: midpoint to
    midpoint, the end cells closed by the walls at -L (or ``left``) and L."""
    left = -half_width if left is None else left
    return np.diff(np.concatenate(([left], 0.5 * (x[1:] + x[:-1]), [half_width])))


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
        assert_odd_sector(half, full)

    @pytest.mark.parametrize("V", SYMMETRIC, ids=lambda V: getattr(V, "family", "harmonic"))
    def test_mirrored_vectors_have_exact_parity(self, V):
        # bisected and polished sectors, on a uniform and on a graded mesh
        for g in (Grid(10.0, 400), Grid(10.0, 8000), Grid(10.0, 400, core=0.05)):
            res = solve(V, g, 4)
            x, m = res.positions, g.points // 2
            np.testing.assert_array_equal(x[::-1], -x)
            widths = cell_widths(x, g.half_width)
            for lv, v in zip(res.levels, res.vectors.T):
                sign = 1.0 if lv.parity == "even" else -1.0
                np.testing.assert_array_equal(v[::-1], sign * v)
                np.testing.assert_array_equal(v[:m], sign * v[m:][::-1])
                assert math.isclose(widths @ v ** 2, 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("V, g", [
        (half_line(), Grid(60.0, 4000)),
        (half_line(), Grid(60.0, 40000)),
    ], ids=["half-line", "half-line-polished"])
    def test_one_matrix_paths_return_their_vectors_as_solved(self, V, g, monkeypatch):
        real, solved = gridsolver._lowest, []

        def recording(mat, *args):
            solved.append(real(mat, *args))
            return solved[-1]
        monkeypatch.setattr(gridsolver, "_lowest", recording)
        res = solve(V, g, 3)
        # the solve keeps no vector; reading them solves the grid again
        assert solved[-1][1] is None
        vectors = res.vectors
        # no mirror, no copy: the array the one matrix's second solve returned
        assert vectors is solved[-1][1]
        widths = cell_widths(res.positions, g.half_width, 0.0)
        for v in res.vectors.T:
            assert math.isclose(widths @ v ** 2, 1.0, rel_tol=1e-12)

    def test_single_level(self):
        g = Grid(half_width=12.0, points=3000)
        res = solve(harmonic, g, 1)
        assert res.vectors.shape == (3000, 1)
        (lv,) = res.levels
        assert (lv.index, lv.parity, lv.nodes) == (0, "even", 0)
        assert abs(lv.energy - 0.5) < 1e-4
        h = 2.0 * g.half_width / g.points
        assert math.isclose(h * np.sum(res.vectors[:, 0] ** 2), 1.0, rel_tol=1e-12)

    def test_full_matrix_paths_carry_no_parity(self):
        # the half line, one matrix on [0, L], is the only solve with no
        # parity sectors
        half = solve(half_line(), Grid(60.0, 4000), 3)
        assert [lv.parity for lv in half.levels] == [None, None, None]
        assert [lv.nodes for lv in half.levels] == [0, 1, 2]


def assert_odd_sector(half, full):
    """The half-line solve is the odd sector of the full-line one, bit for
    bit: the same energies, residuals, mesh and nodal vectors."""
    odd = [lv for lv in full.levels if lv.parity == "odd"]
    assert [lv.energy for lv in half.levels] == [lv.energy for lv in odd]
    assert [lv.residual for lv in half.levels] == [lv.residual for lv in odd]
    sol = gridsolver._eigenpairs(full.potential, full.grid, len(full.levels))[-1]
    np.testing.assert_array_equal(half.positions, sol.x[:])
    np.testing.assert_array_equal(half.vectors, sol.sectors[1])


@pytest.fixture
def sector_vectors(monkeypatch):
    """The nodal vectors of every matrix that _lowest solves, in order."""
    real, solved = gridsolver._lowest, []

    def recording(mat, *args):
        levels = real(mat, *args)
        solved.append(levels[1])
        return levels
    monkeypatch.setattr(gridsolver, "_lowest", recording)
    return solved


class TestSectorForm:
    @pytest.mark.parametrize("V, g, k", [
        (harmonic, Grid(10.0, 400), 3),
        (harmonic, Grid(10.0, 400), 1),
        (pure_coulomb(), Grid(60.0, 40000), 4),
        (soft_core(1e-2), Grid(30.0, 4000, core=1e-2), 5),
    ], ids=["bisected", "one-level", "polished", "graded"])
    def test_whole_mesh_arrays_mirror_the_sectors(self, V, g, k, sector_vectors):
        res = solve(V, g, k)
        m = g.points // 2
        # neither whole-mesh array exists before it is asked for, and the
        # solve kept the vectors of no fine sector
        assert "positions" not in vars(res) and "vectors" not in vars(res)
        assert sector_vectors[-1] is None
        xp = gridsolver._half_mesh(g, m)
        np.testing.assert_array_equal(res.positions, np.concatenate((-xp[::-1], xp)))
        vectors = res.vectors
        # the last two matrices solved are the even and odd fine sectors of
        # the solve that reading the vectors runs; at k = 1 the odd sector
        # is asked for no level, and not solved
        u_even, u_odd = (sector_vectors[-2:] if k > 1
                         else (sector_vectors[-1], np.empty((m, 0))))
        assert u_even.shape == (m, (k + 1) // 2) and u_odd.shape == (m, k // 2)
        want = np.empty((g.points, k))
        for j in range(k):
            u = (u_odd if j % 2 else u_even)[:, j // 2] / math.sqrt(2.0)
            want[:, j] = np.concatenate(((-u if j % 2 else u)[::-1], u))
        np.testing.assert_array_equal(vectors, want)
        assert vectors.flags.f_contiguous
        widths = cell_widths(res.positions, g.half_width)
        for v in vectors.T:
            assert math.isclose(widths @ v ** 2, 1.0, rel_tol=1e-12)
        # built once, then kept
        assert res.vectors is vectors
        assert res.positions is res.positions

    def test_largest_grid_core_solve_peak_memory(self):
        # the largest solve of the grid-core benchmark workload: it keeps
        # no eigenvector, so no sector holds a result column.  Each grid
        # takes one work block of four rows once its matrix is assembled
        # and frees it once solved; a level's start is interpolated into
        # the row of its vector, and its node count takes no mask of the
        # sector's size, so a repeat peaks as high as the first solve, at
        # 10.66 MiB: five sector-size arrays, the potential and the work
        # rows, as a uniform sector is the 3-point Laplacian of v and the
        # step, its potential is evaluated a chunk at a time, and its mesh
        # is its step.  It peaked at 38.07 MiB with five work rows, at
        # 33.95 MiB with a result column for each level, at 23.65 MiB with
        # a start array beside the work rows, at 20.90 MiB with the
        # off-diagonal and the mesh held, and at 16.84 MiB with d, the
        # links and the widths held
        assert max(repeated_peaks(
            lambda: solve(pure_coulomb(), Grid(60.0, 540000), 6))) <= 12 * 2 ** 20

    def test_default_care_scan_peak_memory(self):
        # the other 540,000-point solve of the workload, the default care
        # scan: 10.69 MiB; 38.10 MiB with five work rows, 33.98 MiB with
        # result columns, 23.63 MiB with a start array, 20.93 MiB with the
        # off-diagonal and the mesh held, 16.87 MiB with d, the links and
        # the widths held, and 14.42 MiB in its assembly while the
        # repulsive core was evaluated over the whole sector at once
        assert max(repeated_peaks(
            lambda: care_interleaving(1e-3, 5e-3, Grid.uniform(54.0, 1e-3), 6))) \
            <= 12 * 2 ** 20

    def test_callable_solve_peak_memory(self):
        # the largest callable solve of the workload, the harmonic well:
        # 5.90 MiB, the potential and the work rows, as the work block is
        # taken once the callable's whole-mesh temporaries are freed.  It
        # peaked at 8.01 MiB with the block taken before the potential, as
        # the assembly's scratch, at 9.33 MiB with d, the links and the
        # widths held, and at 11.58 MiB with the off-diagonal and the mesh
        # held
        assert max(repeated_peaks(
            lambda: solve(harmonic, Grid(10.0, 300000), 6))) <= 6.5 * 2 ** 20

    def test_held_result_keeps_only_its_levels(self):
        # a held result of the largest solve traces under 1 MiB, its level
        # list; reading its vectors solves the grid again and keeps them,
        # 8 * 540000 * 6 bytes
        held = []

        def calls():
            solve(pure_coulomb(), Grid(60.0, 8000), 2)
            tracemalloc.start()
            try:
                res = solve(pure_coulomb(), Grid(60.0, 540000), 6)
                held.append(tracemalloc.get_traced_memory()[0])
                res.vectors
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        in_new_thread(calls)
        assert held[0] <= 2 ** 20
        assert held[1] >= 8 * 540000 * 6

    @pytest.mark.parametrize("V, g, k", [
        (pure_coulomb(), Grid(60.0, 40000), 4),
        (soft_core(1e-2), Grid(30.0, 4000, core=1e-2), 5),
        (repulsive_core(1e-3, 5e-3), Grid(30.0, 40000), 4),
        (half_line(), Grid(60.0, 12000), 3),
        (harmonic, Grid(10.0, 400), 3),
        (harmonic, Grid(10.0, 400), 1),
    ], ids=["pure-coulomb", "soft-core", "repulsive-core", "half-line", "harmonic",
            "one-level"])
    def test_vectors_on_demand_are_those_of_the_solve(self, V, g, k):
        # the arrays built on first read, against those of the same solve
        # with its vectors kept, bit for bit
        res = solve(V, g, k)
        w, _, _, _, sol = gridsolver._eigenpairs(V, g, k)
        assert [lv.energy for lv in res.levels] == w.tolist()
        half = len(sol.sectors) == 1
        x = sol.x[:]
        np.testing.assert_array_equal(
            res.positions, x if half else np.concatenate((-x[::-1], x)))
        np.testing.assert_array_equal(res.vectors, gridsolver._vectors(sol))

    def test_vectors_of_an_impure_callable_raise(self):
        # even on the mesh at every call, but each call pair is shifted by
        # one more step: the grid solved again has other levels
        calls = []

        def drifting(x):
            calls.append(None)
            return 0.5 * x * x + 1e-3 * ((len(calls) - 1) // 2)
        res = solve(drifting, Grid(10.0, 400), 3)
        assert [lv.nodes for lv in res.levels] == [0, 1, 2]
        assert res.positions.size == 400
        with pytest.raises(ValueError, match="not a pure function of x"):
            res.vectors

    def test_nothing_outlives_a_solve(self):
        # a solve keeps no memory once its result is dropped: no work
        # array stays with the thread that ran it.  The solve out here
        # loads LAPACK first, which is kept
        solve(pure_coulomb(), Grid(60.0, 800), 2)
        held = []

        def solves():
            tracemalloc.start()
            try:
                res = solve(pure_coulomb(), Grid(60.0, 100000), 2)
                del res
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        in_new_thread(solves)
        assert held[0] <= 0.1 * 2 ** 20


def repeated_peaks(call):
    """The traced peaks of two calls in a fresh thread, after a small
    solve there has loaded LAPACK."""
    peaks = []

    def calls():
        solve(pure_coulomb(), Grid(60.0, 8000), 2)
        for _ in range(2):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    in_new_thread(calls)
    return peaks


def in_new_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120.0)
    assert not thread.is_alive()


def whole_copy(res):
    return res.positions.copy(), res.vectors.copy()


class TestIndependentSolves:
    CASES = [(pure_coulomb(), Grid(60.0, 40000), 4),
             (repulsive_core(1e-3, 5e-3), Grid(30.0, 40000), 4),
             (half_line(), Grid(60.0, 12000), 3)]

    def test_results_survive_later_solves(self):
        # solves on larger and smaller grids leave earlier results as
        # they were
        results = [solve(V, g, k) for V, g, k in self.CASES]
        levels = [list(res.levels) for res in results]
        arrays = [whole_copy(res) for res in results]
        vectors = arrays[0][1]
        twin = solve(*self.CASES[0])
        solve(pure_coulomb(), Grid(60.0, 200000), 6)
        solve(harmonic, Grid(10.0, 400), 3)
        solve(soft_core(1e-2), Grid(30.0, 4000, core=1e-2), 5)
        for res, lv, kept in zip(results, levels, arrays):
            assert res.levels == lv
            for got, want in zip(whole_copy(res), kept):
                np.testing.assert_array_equal(got, want)
        # whole-mesh vectors built before and after the later solves
        np.testing.assert_array_equal(results[0].vectors, vectors)
        np.testing.assert_array_equal(twin.vectors, vectors)

    def test_concurrent_solves_match_sequential_ones(self):
        # more threads than cores, switching often
        cases = self.CASES * 2
        want = [solve(V, g, k) for V, g, k in cases]
        got = [None] * len(cases)

        def worker(i):
            got[i] = solve(*cases[i])
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for a, b in zip(got, want):
            assert a.levels == b.levels
            np.testing.assert_array_equal(a.vectors, b.vectors)


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

    @pytest.mark.parametrize("case", ["uniform", "graded", "wall"])
    def test_difference_form_is_the_quotient(self, case):
        # the form that a polished start and the certificate share, over
        # c.c, against c.Hc / c.c from the assembled d and e; the vectors
        # are smooth, as interpolated starts are, one of them with noise
        V, g = ((soft_core(1e-3), Grid.graded(30.0, 1e-3)) if case == "graded"
                else (pure_coulomb(), Grid(20.0, 4000)))
        x = gridsolver._half_mesh(g, g.points // 2)
        mat = gridsolver._assemble(x, evaluate(V, x), g.half_width)
        if case == "wall":
            gridsolver._wall_at_origin(mat, x)
        n, eps = x.size, np.finfo(float).eps
        bound = 8.0 * eps * norm(mat)
        noise = np.random.default_rng(0).normal(size=n)
        for u in (np.exp(-np.abs(x)) * (1.0 + x), np.cos(3.0 * x) * np.exp(-x * x / 20.0),
                  np.exp(-np.abs(x)) * (1.0 + 1e-3 * noise)):
            c, e = u * mat.scale, mat.e
            hc = diagonal(mat) * c
            hc[:-1] += e * c[1:]
            hc[1:] += e * c[:-1]
            form = gridsolver._energy(mat, u, c, np.empty(n - 1))
            assert abs(form / (c @ c) - (c @ hc) / (c @ c)) <= bound

    def test_difference_form_rounding_is_bounded(self):
        # each sum of the form adds into one scalar, so its rounding grows
        # with the support; on the 50000-node sectors of this grid it stays
        # within 3e-14 |E| of an exact sum of the same float64 terms
        V, g = pure_coulomb(), Grid(60.0, 100000)
        res = solve(V, g, 4)
        x, sectors = gridsolver._eigenpairs(V, g, 4)[-1]
        x = x[:]
        for lv in res.levels:
            mat = gridsolver._assemble(x, evaluate(V, x), g.half_width)
            if lv.index % 2:
                gridsolver._wall_at_origin(mat, x)
            u = sectors[lv.index % 2][:, lv.index // 2]
            c, t = u * mat.scale, u[1:] - u[:-1]
            form = gridsolver._energy(mat, u, c, np.empty(x.size - 1))
            terms = np.concatenate((mat.link * t * t, mat.v * c * c,
                                    [mat.walls[0] * u[0] ** 2, mat.walls[1] * u[-1] ** 2]))
            assert abs(form - math.fsum(terms)) <= 3e-14 * abs(form)
            # the level's own vector: its energy is this form, up to rounding
            assert abs(form - lv.energy) <= 1e-12 * abs(form)


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

    def test_residual_is_that_of_the_unit_vector(self):
        V, g = harmonic, Grid(10.0, 400)
        res = solve(V, g, 4)
        mat, norm = dense_staggered_matrix(V, 10.0, 400)
        ref = np.linalg.eigvalsh(mat)[:4]
        eps = np.finfo(float).eps
        for lv, u, e in zip(res.levels, res.vectors.T, ref):
            # the unit vector of the symmetric matrix is sqrt(h) u
            y = math.sqrt(2.0 * g.half_width / g.points) * u
            assert abs(lv.residual - np.linalg.norm(mat @ y - lv.energy * y)) <= eps * norm
            assert 0.0 < lv.residual <= 16.0 * eps * norm
            # an eigenvalue lies within the residual, up to eigvalsh's rounding
            assert abs(lv.energy - e) <= lv.residual + 4.0 * eps * norm


# the route of a matrix whose polish failed a certificate or broke down
FAILED = "bisection after a failed polish"


@pytest.fixture
def routes(caplog):
    """The route record, a `gridsolver._Route`, of every matrix solved."""
    caplog.set_level(logging.DEBUG, logger="coulomb1d.gridsolver")

    def records():
        return [r.msg for r in caplog.records if r.name == "coulomb1d.gridsolver"]
    return records


@pytest.fixture
def bisection_only(monkeypatch, routes):
    """solve with the coarse start switched off, so that every matrix is
    bisected, as on grids with no coarse grid."""
    def solve_bisecting(V, g, k):
        first = len(routes())
        with monkeypatch.context() as m:
            m.setattr(gridsolver, "_coarse", lambda *args: None)
            res = solve(V, g, k)
        records = routes()[first:]
        assert records
        assert all(rec.route == "bisection" for rec in records)
        return res
    return solve_bisecting


@pytest.fixture
def sector_norms(monkeypatch):
    """max|d| + 2 max|e| of every matrix that _lowest solves, by size."""
    real, norms = gridsolver._lowest, {}

    def recording(mat, *args):
        norms[mat.v.size] = np.abs(diagonal(mat)).max() + 2.0 * np.abs(mat.e).max()
        return real(mat, *args)
    monkeypatch.setattr(gridsolver, "_lowest", recording)
    return norms


def jacobi_matrix(seed, n=300, uniform=False):
    """A finite-volume matrix on n nodes with random gaps in [0.05, 0.15]
    and the potential x^2/2 plus unit noise, and its dense form T; with
    ``uniform``, the uniform form of a mesh of step 0.1."""
    rng = np.random.default_rng(seed)
    if uniform:
        x = gridsolver._UniformMesh(n, 0.1)
        nodes, L = x[:], n * 0.1
    else:
        x = nodes = np.cumsum(rng.uniform(0.05, 0.15, n))
        L = x[-1] + 0.1
    mat = gridsolver._assemble(x, 0.5 * nodes * nodes + rng.normal(size=n), L)
    mat = mat._replace(norm=norm(mat))
    e = mat.e
    return mat, np.diag(diagonal(mat)) + np.diag(e, 1) + np.diag(e, -1), rng


class TestPolishStep:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("noise", [1e-1, 1e-3, 1e-5])
    def test_reported_residual_is_the_explicit_one(self, seed, noise):
        # starts near the four lowest eigenvectors of a random Jacobi
        # matrix, each off by ``noise`` along its 20 lowest: every level
        # stops on a residual under the floor that is ||Tc - Ec|| of its
        # unit column c, and on an energy that is its quotient c.Tc; the
        # matrix holds its arrays, or is the uniform form
        for uniform in (False, True):
            mat, T, rng = jacobi_matrix(seed, uniform=uniform)
            n, k = mat.v.size, 4
            eps = np.finfo(float).eps
            floor = gridsolver._RESIDUAL_FLOOR * eps * mat.norm
            exact = np.linalg.eigh(T)[1]

            def start(j, out):
                c = (exact[:, j]
                     + noise * (exact[:, :20] @ rng.normal(size=20)) / math.sqrt(20))
                np.divide(c, mat.scale, out=out)
                return n
            (energy, u, r, nodes), steps, supports = gridsolver._polished(
                mat, k, start, floor, np.empty((4, n)))
            assert nodes == list(range(k)) and supports == (n,) * k
            assert all(1 <= s <= gridsolver._POLISH_STEPS for s in steps)
            for j in range(k):
                c = u[:, j] * mat.scale
                assert math.isclose(np.linalg.norm(c), 1.0, rel_tol=4.0 * eps * math.sqrt(n))
                assert abs(energy[j] - c @ T @ c) <= 8.0 * eps * mat.norm
                assert r[j] <= floor
                assert (abs(r[j] - np.linalg.norm(T @ c - energy[j] * c))
                        <= 4.0 * eps * mat.norm)

    def test_singular_shift_breaks_down(self):
        # sigma on an eigenvalue of the 2x2 block [[1, 1], [1, 1]]: a zero
        # pivot.  Unit scales and the link -1 between the nodes give e = 1
        mat = gridsolver._Matrix(d=np.ones(2), e=np.ones(1), link=np.array([-1.0]),
                                 walls=np.zeros(2), scale=np.ones(2), v=np.zeros(2))
        c, work = np.array([1.0, 0.0]), (np.empty(2), np.empty(1), np.empty(1))
        assert gridsolver._step(mat, 0.0, c, work) is False


# each grid has at least four times the points of its coarse graded grid
POLISHED = [
    ("pure-coulomb", pure_coulomb(), Grid(60.0, 40000), 4),
    ("harmonic", harmonic, Grid(10.0, 40000), 4),
    ("graded-soft-core", soft_core(1e-3), Grid(30.0, 40000, core=1e-3), 4),
    ("half-line", half_line(), Grid(60.0, 40000), 4),
    ("repulsive-core", repulsive_core(1e-2, 3e-2), Grid(40.0, 40000), 4),
]


def aligned_coarse(g, half_line=False):
    """The coarse grid that starts the polish of the uniform grid g:
    ``Grid.graded(L, c)`` for the core c whose first node falls on g's
    first node h/2, s(h/2) = D/2 with D = 1/2, found here by root-finding
    on the map; on the half line it keeps half of those points."""
    h = (1.0 if half_line else 2.0) * g.half_width / g.points
    core = brentq(lambda c: gridsolver._stretch(0.5 * h, c) - 0.25,
                  1e-3 * h, 1e3 * h, xtol=1e-300, rtol=1e-15)
    graded = Grid.graded(g.half_width, core)
    return replace(graded, points=graded.points // 2) if half_line else graded


def eighth(points):
    """The point count of the grid that starts a grid at the
    ``Grid.graded`` count of its map: an eighth, rounded down to even."""
    return points // 16 * 2


class TestCoarseStart:
    @pytest.mark.parametrize("V, g, k", [case[1:] for case in POLISHED],
                             ids=[case[0] for case in POLISHED])
    def test_polished_levels_match_bisection(self, V, g, k, routes, bisection_only,
                                             sector_norms):
        polished = solve(V, g, k)
        # the half line is one matrix, the others two parity sectors
        sectors = 1 if getattr(V, "family", None) == "half-line" else 2
        fine = g.points // sectors
        assert [rec.points for rec in routes() if rec.route == "polished"].count(fine) \
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

    @staticmethod
    def check_both_sectors_polish(V, g, k, routes, bisection_only, sector_norms):
        polished = solve(V, g, k)
        records = routes()
        assert not any(rec.route == FAILED for rec in records)
        # the aligned coarse grid is polished from its eighth grid, which
        # alone is bisected
        coarse = aligned_coarse(g).points
        assert [rec.points for rec in records if rec.route == "polished"] == \
            [coarse // 2] * 2 + [g.points // 2] * 2
        assert [(rec.points, rec.route) for rec in records
                if rec.route != "polished"] == [(eighth(coarse) // 2, "bisection")] * 2
        eps = np.finfo(float).eps
        for lv in polished.levels:
            assert 0.0 < lv.residual <= 16.0 * eps * sector_norms[g.points // 2]
        full = bisection_only(V, g, k)
        np.testing.assert_allclose([lv.energy for lv in polished.levels],
                                   [lv.energy for lv in full.levels], rtol=1e-12, atol=0)
        assert [lv.nodes for lv in polished.levels] == list(range(k))
        assert [lv.parity for lv in polished.levels] == [lv.parity for lv in full.levels]

    def test_care_scan_grid_polishes_both_sectors(self, routes, bisection_only,
                                                  sector_norms):
        # the default care scan: the coarse graded grid resolves the core
        self.check_both_sectors_polish(repulsive_core(1e-3, 5e-3), Grid(54.0, 540000), 6,
                                       routes, bisection_only, sector_norms)

    def test_largest_grid_core_solve_polishes_both_sectors(self, routes, bisection_only,
                                                           sector_norms):
        # the largest solve of the grid-core benchmark workload
        self.check_both_sectors_polish(pure_coulomb(), Grid(60.0, 540000), 6,
                                       routes, bisection_only, sector_norms)

    @pytest.mark.parametrize("wall", [False, True], ids=["even", "odd"])
    def test_chunked_start_is_one_interpolation(self, wall):
        # a start written into a row a chunk at a time is np.interp over its
        # whole support, bit for bit; the odd sector's falls to 0 at the
        # centre, and some supports span several chunks
        V, g = pure_coulomb(), Grid(60.0, 100000)
        coarse = gridsolver._coarse(V, g, 4, False)
        x = gridsolver._half_mesh(g, g.points // 2)
        mat = gridsolver._assemble(x, evaluate(V, x), g.half_width)
        columns = coarse.sectors[int(wall)]
        xc = coarse.x
        if wall:
            gridsolver._wall_at_origin(mat, x)
            xc = np.append(0.0, xc)
            columns = np.vstack((np.zeros(columns.shape[1]), columns))
        start = gridsolver._starts(mat, x, coarse.x, coarse.sectors[int(wall)])
        row, supports = np.full(x.size, np.nan), []
        for j in range(columns.shape[1]):
            m = start(j, row)
            assert m == gridsolver._support(x, xc, columns[:, j])
            assert row[:m].tobytes() == np.interp(x[:m], xc, columns[:, j]).tobytes()
            supports.append(m)
        assert max(supports) > 2 * gridsolver._CHUNK

    def test_wrong_index_start_falls_back(self, monkeypatch, routes, bisection_only):
        # the even sector's level j starts from its level j + 1, so the
        # polish of its ground level converges on a vector with a node
        real = gridsolver._starts

        def shifted(mat, x, xc, columns):
            start = real(mat, x, xc, columns)
            # the odd sector, with a wall at the centre, keeps its starts
            if mat.walls[0] > 0.0:
                return start
            return lambda j, out: start((j + 1) % columns.shape[1], out)
        monkeypatch.setattr(gridsolver, "_starts", shifted)
        V, g = repulsive_core(1e-3, 5e-3), Grid(30.0, 40000)
        res = solve(V, g, 4)
        fine = [rec.route for rec in routes() if rec.points == g.points // 2]
        assert fine == [FAILED, "polished"]
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]
        # the even sector is exactly the bisection solve
        full = bisection_only(V, g, 4)
        for got, want in zip(res.levels[0::2], full.levels[0::2]):
            assert got == want

    def test_failed_coarse_polish_bisects(self, monkeypatch, routes, sector_norms):
        # every gtsv solve made while the coarse grid is solved breaks
        # down: the coarse grid is bisected, and the fine grid still
        # polishes from it.  The coarse solve is told by when it runs, not
        # by the size of its matrix: the fine even ground level's support
        # is smaller than the coarse sectors
        real_gtsv, real_coarse = gridsolver.dgtsv, gridsolver._coarse
        g = Grid(60.0, 40000)
        coarse = aligned_coarse(g).points // 2
        solving = []

        def failing(dl, d, du, b, **kwargs):
            *out, info = real_gtsv(dl, d, du, b, **kwargs)
            assert d.size <= coarse or not solving
            return (*out, 3 if solving else info)

        def marking(*args):
            solving.append(True)
            try:
                return real_coarse(*args)
            finally:
                solving.pop()
        want = solve(pure_coulomb(), g, 4)
        monkeypatch.setattr(gridsolver, "dgtsv", failing)
        monkeypatch.setattr(gridsolver, "_coarse", marking)
        res = solve(pure_coulomb(), g, 4)
        records = routes()
        assert [rec.route for rec in records[-4:]] == [FAILED] * 2 + ["polished"] * 2
        assert [rec.points for rec in records[-4:]] == [coarse] * 2 + [20000] * 2
        assert min(records[-2].supports) < coarse
        eps = np.finfo(float).eps
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]
        for got, lv in zip(res.levels, want.levels):
            assert 0.0 < got.residual <= 16.0 * eps * sector_norms[20000]
            assert abs(got.energy - lv.energy) <= got.residual + lv.residual

    @staticmethod
    def polish_with_residuals(monkeypatch, residual):
        """Make every certificate of a polished level report
        ``residual(first, got)`` in place of its residual got, where first
        says whether it is the level's first; a bisected column's stays."""
        real_polished, real_starts = gridsolver._polished, gridsolver._starts
        real_certify, state = gridsolver._certify, {"polishing": False, "first": False}

        def polished(*args):
            state["polishing"] = True
            try:
                return real_polished(*args)
            finally:
                state["polishing"] = False

        def starts(*args):
            start = real_starts(*args)

            def marked(j, out):
                state["first"] = True
                return start(j, out)
            return marked

        def certify(*args):
            energy, got = real_certify(*args)
            if not state["polishing"]:
                return energy, got
            first, state["first"] = state["first"], False
            return energy, residual(first, got)
        monkeypatch.setattr(gridsolver, "_polished", polished)
        monkeypatch.setattr(gridsolver, "_starts", starts)
        monkeypatch.setattr(gridsolver, "_certify", certify)

    def test_level_over_the_floor_steps_again(self, monkeypatch, routes, sector_norms):
        # the first certificate of every polished level reads over the
        # floor, so none stops after one step: a level that did takes two,
        # and the others keep their steps
        g = Grid(60.0, 40000)
        want = solve(pure_coulomb(), g, 4)
        before = routes()
        self.polish_with_residuals(monkeypatch,
                                   lambda first, got: math.inf if first else got)
        res = solve(pure_coulomb(), g, 4)
        after = routes()[len(before):]
        assert [rec.route for rec in after] == [rec.route for rec in before]
        polished = [(rec, was) for rec, was in zip(after, before) if rec.route == "polished"]
        assert polished and any(1 in was.steps for _, was in polished)
        for rec, was in polished:
            assert rec.supports == was.supports
            assert rec.steps == tuple(max(s, 2) for s in was.steps)
        eps = np.finfo(float).eps
        assert [lv.nodes for lv in res.levels] == [0, 1, 2, 3]
        for got, lv in zip(res.levels, want.levels):
            assert 0.0 < got.residual <= 16.0 * eps * sector_norms[20000]
            assert abs(got.energy - lv.energy) <= got.residual + lv.residual

    def test_level_that_never_reaches_the_floor_bisects(self, monkeypatch, routes,
                                                        bisection_only):
        # every certificate of a polished level reads over the floor: the
        # first level of each polished matrix takes its five steps and
        # fails, and the matrix is bisected
        steps, real_step = [], gridsolver._step

        def counting(*args):
            steps.append(True)
            return real_step(*args)
        monkeypatch.setattr(gridsolver, "_step", counting)
        self.polish_with_residuals(monkeypatch, lambda first, got: math.inf)
        V, g = pure_coulomb(), Grid(60.0, 40000)
        res = solve(V, g, 4)
        records = routes()
        failed = [rec for rec in records if rec.route == FAILED]
        assert [rec.route for rec in records] == ["bisection"] * 2 + [FAILED] * 4
        assert len(steps) == gridsolver._POLISH_STEPS * len(failed)
        assert res.levels == bisection_only(V, g, 4).levels

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
        assert [rec.route for rec in routes() if rec.points == 20000] == [FAILED] * 2
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
        g = Grid(10.0, 40000)
        solve(harmonic, g, 4)
        solve(half_line(), Grid(60.0, 800), 4)
        sizes = [rec.points for rec in routes()]
        # the sectors of the coarse grid's eighth grid, of the coarse grid
        # and of the fine grid, then the one half-line matrix
        coarse = aligned_coarse(g).points
        assert sizes == [eighth(coarse) // 2] * 2 + [coarse // 2] * 2 + [20000] * 2 + [800]
        assert [rec.route for rec in routes()] == \
            ["bisection"] * 2 + ["polished"] * 4 + ["bisection"]

    def test_polished_record_carries_the_certificate_margin(self, routes, monkeypatch):
        # the largest explicit residual of a sector over its floor, at most 1
        real, margins = gridsolver._polished, []

        def recording(mat, k, start, floor, work, vectors=True):
            polished = real(mat, k, start, floor, work, vectors)
            margins.append(polished[0][2].max() / floor)
            return polished
        monkeypatch.setattr(gridsolver, "_polished", recording)
        solve(pure_coulomb(), Grid(60.0, 40000), 4)
        logged = [max(rec.residuals) / rec.floor for rec in routes()
                  if rec.route == "polished"]
        # the coarse sectors and the fine sectors
        assert logged == margins and len(logged) == 4
        assert all(0.0 < margin <= 1.0 for margin in logged)

    @pytest.mark.parametrize("V, g, k, route", [
        (pure_coulomb(), Grid(60.0, 40000), 4, "polished"),
        (harmonic, Grid(10.0, 400), 3, "bisection"),
        (half_line(), Grid(60.0, 12000), 3, "polished"),
    ], ids=["polished", "bisected", "half-line"])
    def test_record_is_the_returned_levels(self, V, g, k, route, routes):
        # the records of the final grid's sectors hold the returned levels
        # bit for bit: column j of sector s is level s + j S of the grid
        res = solve(V, g, k)
        sectors = 1 if getattr(V, "family", None) == "half-line" else 2
        records = routes()[-sectors:]
        for s, rec in enumerate(records):
            levels = res.levels[s::sectors]
            assert (rec.points, rec.route) == (g.points // sectors, route)
            assert rec.energies == tuple(lv.energy for lv in levels)
            assert rec.residuals == tuple(lv.residual for lv in levels)
            assert [sectors * m + s for m in rec.nodes] == [lv.nodes for lv in levels]
        # every record of the solve, coarse grids too
        for rec in routes():
            assert (rec.steps is None) == (rec.supports is None) == (rec.route != "polished")
            if rec.route == "polished":
                assert max(rec.residuals) <= rec.floor
                assert len(rec.steps) == len(rec.supports) == len(rec.energies)

    def test_no_record_is_built_unless_debug_is_on(self, caplog, monkeypatch):
        def refused(*fields):
            raise AssertionError("a route record was built with DEBUG off")
        monkeypatch.setattr(gridsolver, "_Route", refused)
        caplog.set_level(logging.INFO, logger="coulomb1d.gridsolver")
        solve(pure_coulomb(), Grid(60.0, 40000), 4)
        refine(soft_core(1e-2), Grid.graded(30.0, 1e-2), 0, 1)

    def test_half_line_scan_grid_polishes(self, routes):
        # the default half-line scan: the coarse grid has half of its
        # Grid.graded's points, all on [0, L], and starts from its eighth
        # grid, rounded down to an even count
        g = Grid(60.0, 12000)
        solve(half_line(), g, 3)
        coarse = aligned_coarse(g, half_line=True).points
        assert [rec.points for rec in routes()] == [eighth(coarse), coarse, 12000]
        assert [rec.route for rec in routes()] == ["bisection"] + ["polished"] * 2

    @pytest.mark.parametrize("V, g", [(soft_core(0.5), Grid(0.05, 400, core=10.0)),
                                      (half_line(), Grid(0.1, 400, core=10.0))])
    def test_box_too_small_for_a_coarse_grid(self, V, g, routes):
        # the graded grid of this box has fewer than 8 points: no coarse start
        res = solve(V, g, 1)
        assert [rec.route for rec in routes()] == ["bisection"]
        assert res.levels[0].nodes == 0

    def test_refine_starts_each_rung_from_the_one_before(self, routes):
        # the default soft-core scan of one radius; one level, so only the
        # even sector of each rung is solved.  The first rung, the graded
        # grid itself, starts from its eighth grid
        g = Grid.graded(30.0, 1e-2)
        refine(soft_core(1e-2), g, 0, 2)
        assert [rec.points for rec in routes()] == \
            [eighth(g.points) // 2, g.points // 2, g.points, 2 * g.points]
        assert [rec.route for rec in routes()] == ["bisection"] + ["polished"] * 3

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


# the grid-core benchmark's families on its boxes, and a plain callable
ALIGNED_SWEEP = [
    ("pure-coulomb", pure_coulomb(), 60.0),
    ("soft-core", soft_core(1e-2), 30.0),
    ("repulsive-core", repulsive_core(1e-2, 3e-2), 40.0),
    ("half-line", half_line(), 60.0),
    ("harmonic", harmonic, 10.0),
]


class TestAlignedStart:
    @pytest.mark.parametrize("V, half_width", [case[1:] for case in ALIGNED_SWEEP],
                             ids=[case[0] for case in ALIGNED_SWEEP])
    def test_coarse_first_node_meets_the_fine_one_and_polishes(self, V, half_width,
                                                               routes, monkeypatch):
        # the first node of every mesh assembled, in that order: the fine
        # grid's own, which is checked before any solve, the coarse grid's,
        # then the eighth grid's
        real, first = gridsolver._assemble, []

        def recording(x, v, L):
            # the nodes the assembly reads
            first.append(x[0])
            return real(x, v, L)
        monkeypatch.setattr(gridsolver, "_assemble", recording)
        half = getattr(V, "family", None) == "half-line"
        for points in (800, 1600, 10_000, 40_000, 100_000):
            for k in (1, 2, 4):
                first.clear()
                solve(V, Grid(half_width, points), k)
                h = (1.0 if half else 2.0) * half_width / points
                assert first[0] == 0.5 * h
                # the boxes start a grid from a coarse one from N = 4e4 on
                assert len(first) == 3 or (len(first) == 1 and points < 40_000)
                if len(first) == 3:
                    assert abs(first[1] - 0.5 * h) <= 0.05 * 0.5 * h
        assert not any(rec.route == FAILED for rec in routes())

    def test_pure_coulomb_even_sector_polishes_in_two_steps(self, routes):
        # the even ground level is set by the innermost cell, which the
        # coarse grid now shares with the fine one
        solve(pure_coulomb(), Grid(60.0, 100_000), 2)
        even, odd = [rec for rec in routes() if rec.points == 50_000]
        assert (even.route, even.steps) == ("polished", (2,))
        assert (odd.route, odd.steps) == ("polished", (1,))


class TestOneProductPerLevel:
    # each with the size of its fine matrix: a parity sector, or one matrix
    @pytest.mark.parametrize("V, g, k, fine", [
        (pure_coulomb(), Grid(60.0, 40000), 4, 20000),
        (half_line(), Grid(60.0, 12000), 3, 12000),
    ], ids=["mirrored", "half-line"])
    def test_each_step_multiplies_by_h_once(self, V, g, k, fine, routes, monkeypatch):
        # the certificate's product, Hc - Ec in difference form: a polished
        # start takes its quotient in difference form, each step of a
        # polished level is certified on its support, and a bisected level
        # is only certified, on the whole matrix
        real, certificates = gridsolver._certify, []

        def counting(mat, c, *args):
            certificates.append(c.size)
            return real(mat, c, *args)
        monkeypatch.setattr(gridsolver, "_certify", counting)
        solve(V, g, k)
        records = routes()
        # the matrices in the order solved: one certificate per step of
        # each polished level, one per level of each bisected matrix
        assert certificates == [m for rec in records
                            for m in ([m for m, s in zip(rec.supports, rec.steps)
                                       for _ in range(s)]
                                      if rec.route == "polished"
                                      else [rec.points] * len(rec.energies))]
        assert any(s > 1 for rec in records if rec.route == "polished" for s in rec.steps)
        assert [rec.points for rec in records if rec.route == "polished"][-1] == fine
        assert not any(rec.route == FAILED for rec in records)

    @pytest.mark.parametrize("V, half_width", [(pure_coulomb(), 60.0),
                                               (repulsive_core(1e-3, 5e-3), 54.0)],
                             ids=["pure-coulomb", "care"])
    def test_largest_solves_keep_their_steps(self, V, half_width, routes):
        # the two N = 540000, k = 6 solves of the grid-core benchmark: every
        # level takes at least one step, and only the even ground level two
        solve(V, Grid(half_width, 540000), 6)
        even, odd = [rec for rec in routes() if rec.points == 270000]
        assert (even.route, even.steps) == ("polished", (2, 1, 1))
        assert (odd.route, odd.steps) == ("polished", (1, 1, 1))


# the grids whose cut levels are checked against the whole matrix
CUT = [
    ("pure-coulomb", pure_coulomb(), Grid(60.0, 40000), 4),
    ("care", repulsive_core(1e-3, 5e-3), Grid(54.0, 540000), 6),
    ("half-line", half_line(), Grid(60.0, 80000), 6),
]


@pytest.fixture
def fine_levels(monkeypatch, routes):
    """solve(V, g, k), and for each level of its fine matrices, in index
    order: the whole d, e and scale of its matrix, copied when it was
    solved, its nodal vector, its Level and its logged support."""
    real, mats = gridsolver._lowest, []

    def recording(mat, *args):
        mats.append((diagonal(mat).copy(), mat.e.copy(), mat.scale.copy()))
        return real(mat, *args)
    monkeypatch.setattr(gridsolver, "_lowest", recording)

    def run(V, g, k):
        first = len(routes())
        res = solve(V, g, k)
        records, solved = routes()[first:], mats[:]
        # the solve keeps no vector: the same solve with its vectors kept
        sectors = gridsolver._eigenpairs(V, g, k)[-1].sectors
        out = []
        for level in res.levels:
            s = level.index % len(sectors)
            rec, mat = records[s - len(sectors)], solved[s - len(sectors)]
            j = level.index // len(sectors)
            out.append((*mat, sectors[s][:, j], level, rec.supports[j]))
        return out
    return run


def padded_residual(d, e, y, energy):
    """||Hy - Ey|| and y.Hy of a unit vector y, from the whole d and e."""
    hy = d * y
    hy[:-1] += e * y[1:]
    hy[1:] += e * y[:-1]
    return np.linalg.norm(hy - energy * y), y @ hy


class TestSupportCut:
    @pytest.mark.parametrize("case, m", [("even", 700), ("wall", 700), ("even", 2000),
                                         ("wall", 2000)],
                             ids=["even", "wall", "even-whole", "wall-whole"])
    def test_block_energy_is_the_padded_energy(self, case, m):
        # a vector cut where it is far from negligible: the block's form,
        # with the link to the first dropped node as its wall, is the
        # whole form of the vector padded with zeros; the block of all
        # n = 2000 nodes is the whole matrix, with its own wall at L.  The
        # matrix holds its arrays, or is the uniform form of the same mesh
        g = Grid(20.0, 4000)
        x = gridsolver._half_mesh(g, g.points // 2)
        n, eps = x.size, np.finfo(float).eps
        u = np.zeros(n)
        u[:m] = np.exp(-x[:m]) * (1.0 + x[:m])
        if m < n:
            assert u[m - 1] > 1e-3 * u.max()
        for mesh in (x, gridsolver._UniformMesh(n, g.half_width / n)):
            mat = gridsolver._assemble(mesh, evaluate(pure_coulomb(), x), 20.0)
            if case == "wall":
                gridsolver._wall_at_origin(mat, mesh)
            block = gridsolver._block(mat, m)
            for name in ("link", "scale", "v"):
                assert np.shares_memory(getattr(block, name), getattr(mat, name)), name
            assert block.d is mat.d if mesh is not x else block.d.base is mat.d
            assert block.link.size == m - 1 and block.walls[0] == mat.walls[0]
            assert block.walls[1] == (mat.link[m - 1] if m < n else mat.walls[1])
            whole = gridsolver._energy(mat, u, u * mat.scale, np.empty(n - 1))
            cut = gridsolver._energy(block, u[:m], u[:m] * block.scale, np.empty(m - 1))
            if m == n:
                assert cut == whole
            assert abs(cut - whole) <= 8.0 * eps * abs(whole)

    @pytest.mark.parametrize("V, g, k", [case[1:] for case in CUT],
                             ids=[case[0] for case in CUT])
    def test_certificate_is_the_padded_vector(self, V, g, k, fine_levels):
        eps, cut = np.finfo(float).eps, 0
        for d, e, scale, u, level, m in fine_levels(V, g, k):
            norm = np.abs(d).max() + 2.0 * np.abs(e).max()
            # the whole nodal vector, zeros past the support included
            residual, quotient = padded_residual(d, e, u * scale, level.energy)
            assert abs(level.residual - residual) <= eps * norm
            assert abs(level.energy - quotient) <= 8.0 * eps * norm
            cut += m < d.size
        assert cut

    @pytest.mark.parametrize("V, g, k", [case[1:] for case in CUT],
                             ids=[case[0] for case in CUT])
    def test_vector_is_zero_past_its_support(self, V, g, k, fine_levels, monkeypatch):
        cut = fine_levels(V, g, k)
        monkeypatch.setattr(gridsolver, "_support", lambda x, xc, column: x.size)
        uncut = fine_levels(V, g, k)
        eps = np.finfo(float).eps
        for (_, _, _, u, _, m), (_, _, _, whole, _, n) in zip(cut, uncut):
            assert n == whole.size
            assert not u[m:].any()
            # what the cut drops is below the rounding of the uncut vector
            assert np.abs(whole[m:]).max(initial=0.0) <= 16.0 * eps * np.abs(whole).max()

    def test_cut_inside_the_support_fails_the_certificate(self, monkeypatch, routes,
                                                           bisection_only):
        # every start stops at half of its support: the padded vector's
        # residual is far over the floor, and each matrix is bisected
        real = gridsolver._support
        monkeypatch.setattr(gridsolver, "_support",
                            lambda x, xc, column: real(x, xc, column) // 2)
        V, g = pure_coulomb(), Grid(60.0, 40000)
        res = solve(V, g, 4)
        fine = [rec.route for rec in routes() if rec.points == g.points // 2]
        assert fine == [FAILED] * 2
        assert res.levels == bisection_only(V, g, 4).levels


class TestFloorGuard:
    def test_record_carries_the_floor_and_its_ratio(self, routes, monkeypatch):
        real, norms = gridsolver._lowest, []

        def recording(mat, *args):
            norms.append(np.abs(diagonal(mat)).max() + 2.0 * np.abs(mat.e).max())
            return real(mat, *args)
        monkeypatch.setattr(gridsolver, "_lowest", recording)
        res = solve(pure_coulomb(), Grid(60.0, 40000), 4)
        records = routes()
        # the quarter, coarse and fine grids, two sectors each
        assert len(records) == len(norms) == 6
        eps = np.finfo(float).eps
        # the fine even and odd sectors, solved last; the scale of both
        # levels of a sector is the gap between them
        for rec, norm, levels in zip(records[4:], norms[4:],
                                     (res.levels[0::2], res.levels[1::2])):
            floor = 16.0 * eps * norm
            ratio = floor / (levels[1].energy - levels[0].energy)
            assert (rec.points, len(rec.energies), rec.route) == (20000, 2, "polished")
            assert rec.floor == floor and rec.ratio == ratio

    def test_bisected_level_over_the_floor_raises(self, routes, monkeypatch):
        # the floor of the graded grid of a = 1e-8 is 14 |E0|, and a = 1e-8
        # once printed E0 = +599.7.  With no coarse start it is bisected
        g = Grid.graded(30.0, 1e-8)
        with monkeypatch.context() as m:
            m.setattr(gridsolver, "_coarse", lambda *args: None)
            with pytest.raises(ConvergenceError, match="the level carries no digits"):
                solve(soft_core(1e-8), g, 1)
        rec, = routes()
        assert (rec.points, rec.route) == (g.points // 2, "bisection")
        # by default it is polished from its eighth grid, which is bisected
        # and not guarded, and it raises all the same
        with pytest.raises(ConvergenceError, match="the level carries no digits"):
            solve(soft_core(1e-8), g, 1)
        first, last = routes()[1:]
        assert (first.points, last.points) == (eighth(g.points) // 2, g.points // 2)
        assert (first.route, last.route) == ("bisection", "polished")

    def test_polished_level_over_the_floor_raises(self, routes):
        # the third rung of the scan at a = 8e-8 polishes its ground level,
        # whose start from the rung before is already within the floor, in
        # the one step that every level takes, at a floor of 5.8 |E0|
        with pytest.raises(ConvergenceError, match="the level carries no digits"):
            refine(soft_core(8e-8), Grid.graded(30.0, 8e-8), 0, 2)
        assert routes()[-1].steps == (1,)

    def test_guard_reads_the_logged_ratio(self, routes, monkeypatch):
        # two bisected sectors; the guard reads the larger of their ratios
        solve(harmonic, Grid(10.0, 400), 3)
        ratio = max(rec.ratio for rec in routes())
        monkeypatch.setattr(gridsolver, "_FLOOR_RATIO", 1.01 * ratio)
        solve(harmonic, Grid(10.0, 400), 3)
        monkeypatch.setattr(gridsolver, "_FLOOR_RATIO", 0.99 * ratio)
        with pytest.raises(ConvergenceError, match="the level carries no digits"):
            solve(harmonic, Grid(10.0, 400), 3)

    def test_level_at_zero_energy_solves_with_a_sector_neighbour(self, routes):
        # E0 = 2e-44 on a floor of 3.6e-10: at k = 3 the even sector also
        # holds E2, and E0 is measured against the gap E2 - E0 = 2
        def shifted(x):
            return 0.5 * x * x - (0.5 - 7.812512208271727e-07)
        res = solve(shifted, Grid(10.0, 4000), 3)
        assert abs(res.levels[0].energy) < 1e-12
        assert [round(lv.energy - res.levels[0].energy, 3) for lv in res.levels] \
            == [0.0, 1.0, 2.0]
        # alone in its matrix, the level has only |E| to be measured against
        with pytest.raises(ConvergenceError, match="level 0, E = "):
            solve(shifted, Grid(10.0, 4000), 1)

    def test_coarse_level_at_zero_energy_is_not_guarded(self, routes):
        # the well shifted by its coarse-grid ground level: the coarse
        # level sits at E = 0 to rounding, a floor of 2.5e-10 over an |E|
        # of one or two ulps of 0.5, about 1e6 times its scale and far over
        # _FLOOR_RATIO; but it only starts the polish of the fine level,
        # 2.5e-5 up
        g = Grid(10.0, 4000)
        coarse = aligned_coarse(g)
        e_coarse = gridsolver._eigenpairs(harmonic, coarse, 1)[0][0]

        def shifted(x):
            return harmonic(x) - e_coarse
        res = solve(shifted, g, 1)
        coarse_rec, fine_rec = routes()[-2:]
        assert coarse_rec.points == coarse.points // 2
        assert coarse_rec.ratio > 1e5
        assert fine_rec.route == "polished"
        assert 1e-5 < res.levels[0].energy < 1e-4

    def test_doublet_under_the_floor_is_no_fault(self):
        # the tunnelling doublet of a deep double well is 1e-13 apart, under
        # the floor 3.6e-10, but its levels come from two sector matrices,
        # in each of which the next level is about 1.9 up
        def double_well(x):
            return 0.02 * (x * x - 25.0) ** 2
        res = solve(double_well, Grid(10.0, 4000), 4)
        e = [lv.energy for lv in res.levels]
        assert abs(e[1] - e[0]) < 1e-10 and abs(e[3] - e[2]) < 1e-9
        assert e[2] - e[0] > 1.0
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd"]

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
        assert_odd_sector(half, full)

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
        # a bool compares as 0 or 1, and is no length
        (True, 1e-2, "half_width must be a number, got True"),
        (30.0, np.True_, f"core must be a number, got {np.True_!r}"),
    ])
    def test_graded_validation(self, half_width, core, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grid.graded(half_width, core)
        # the messages of Grid itself
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grid(half_width, 400, core=core)

    @pytest.mark.parametrize("build, half_width, core", [
        (Grid.graded, 30.0, 5e-324), (Grid.graded, 1e308, 1.0),
        (Grid.uniform, 30.0, 5e-324), (Grid.uniform, 1e308, 1e-3)])
    def test_count_past_the_float_range_is_refused(self, build, half_width, core):
        # an OverflowError from the ceiling of an infinite count before
        message = (f"a grid of half-width {half_width:g} that resolves core radius "
                   f"{core:g} needs more points than the float range holds")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(half_width, core)

    @pytest.mark.parametrize("half_width, core", [(30.0, 5e-324), (1e308, 1.0)])
    def test_explicit_count_on_a_map_past_the_float_range_is_refused(self, half_width,
                                                                     core):
        # refused before any Newton step, with no RuntimeWarning (the
        # suite turns warnings into errors)
        message = (f"a grid of half-width {half_width:g} that resolves core radius "
                   f"{core:g} needs more points than the float range holds")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(pure_coulomb(), Grid(half_width, 100, core=core), 1)

    def test_finite_counts_are_even_ceilings(self):
        # widths and radii across the float range: N/2 = ceil(2 s(L)) on a
        # graded grid and the smallest even N >= 10 L/a, at least 8, on a
        # uniform one, wherever that count is finite
        values = [float(v) for v in np.geomspace(1e-300, 1e300, 31)] + [5e-324, 1.7e308]
        for L in values:
            for c in values:
                half = 2.0 * (L / 0.05 + 5.0 * math.log1p(L / c))
                if math.isfinite(2.0 * half):
                    assert gridsolver._graded_points(L, c) == 2 * math.ceil(half)
                else:
                    with pytest.raises(ValueError, match="float range"):
                        gridsolver._graded_points(L, c)
                y = 2.0 * L * 5.0 / c
                if math.isfinite(y):
                    n = math.ceil(y)
                    assert Grid.uniform(L, c).points == max(n + n % 2, 8)
                else:
                    with pytest.raises(ValueError, match="float range"):
                        Grid.uniform(L, c)


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


def even_lambda(kappa):
    """The even-sector boundary parameter of the level E = -1/(2 kappa^2):
    psi ~ c0 (1 - 2|x| ln|x|) + C|x| near x = 0, lambda = C/c0."""
    kappa = mp.mpf(kappa)
    return (2 - 2 * mp.log(2 / kappa) - 2 * mp.digamma(1 - kappa) - 1 / kappa
            - 4 * mp.euler)


def even_level(lam, j):
    """The even level with boundary parameter lam whose kappa lies in
    (j, j + 1), where lambda(kappa) runs from -inf to +inf: bisection."""
    lo, hi = mp.mpf(j) + mp.mpf("1e-12"), mp.mpf(j + 1) - mp.mpf("1e-12")
    for _ in range(60):
        mid = (lo + hi) / 2
        if even_lambda(mid) < lam:
            lo = mid
        else:
            hi = mid
    return float(-1 / (2 * ((lo + hi) / 2) ** 2))


class TestExactStates:
    def test_even_levels_follow_one_lambda(self):
        # the lambda that the grid's own E0 fixes predicts E2 and E4 to
        # within a few times the error of the odd level E1 = -1/2, and the
        # gap closes near second order in h
        gaps = []
        for points in (40000, 100000):
            e = [lv.energy for lv in solve(pure_coulomb(), Grid(60.0, points), 5).levels]
            lam = even_lambda(1 / mp.sqrt(-2 * mp.mpf(e[0])))
            odd = abs(e[1] + 0.5) / 0.5
            gaps.append([abs(e[2 * j] / even_level(lam, j) - 1.0) for j in (1, 2)])
            assert max(gaps[-1]) <= 4.0 * odd
        assert all(coarse >= 4.0 * fine for coarse, fine in zip(*gaps))

    def test_lambda_law_holds_on_other_boxes(self):
        # the lambda of the grid's E0 is 2 ln h + c + o(1) whatever the
        # box, with c = 2 + 2 psi(1/2) = 2 - 2 gamma - 4 ln 2.  At zero
        # energy and first order in h the even sector's difference
        # equation is u_{j+1} - 2 u_j + u_{j-1} = -2h u_j / (j + 1/2), with
        # u_{-1} = u_0, as no link crosses the centre.  Its first
        # differences sum to -2h [psi(j + 3/2) - psi(1/2)] (DLMF 5.5.2);
        # matched to psi' = -2 ln x - 2 + C at x = (j + 1) h, they give
        # C = 2 ln h + 2 + 2 psi(1/2).  The offset from c shrinks with h,
        # the two L = 60 grids above are the coarsest, and the even level
        # of 2 ln h + c, from h alone, predicts each grid's E0
        limit = 2 + 2 * mp.digamma(mp.mpf(1) / 2)
        offsets, gaps = [], []
        for L, N in [(60.0, 40000), (60.0, 100000), (20.0, 100000),
                     (30.0, 200000), (40.0, 800000)]:
            h = 2 * L / N
            e0 = solve(pure_coulomb(), Grid(L, N), 1).levels[0].energy
            c = even_lambda(1 / mp.sqrt(-2 * mp.mpf(e0))) - 2 * mp.log(h)
            offsets.append(abs(float(c - limit)))
            gaps.append(abs(e0 / even_level(2 * mp.log(h) + limit, 0) - 1.0))
        assert max(offsets[2:]) <= 1e-4
        assert offsets == sorted(offsets, reverse=True)
        assert max(gaps) <= 2e-4
        assert gaps == sorted(gaps, reverse=True)

    def test_graded_offset_is_first_order_in_the_map_step(self):
        # on a graded mesh the first cell is h0 = 2 x0 wide, and the
        # lambda of E0 is 2 ln h0 + c plus an offset that the grading
        # leaves: it halves with the map step D, that is with each
        # doubling of the points (-0.0995, -0.0482, -0.0237 at a = 1e-2),
        # and hardly depends on the core, 1e-2 to 1e-4 (-0.0995 to
        # -0.1205 at the graded count of each map)
        limit = 2 + 2 * mp.digamma(mp.mpf(1) / 2)
        offsets = []
        for a in (1e-2, 1e-3, 1e-4):
            points = Grid.graded(60.0, a).points
            row = []
            for f in (1, 2, 4):
                g = Grid(60.0, f * points, core=a)
                e0 = solve(pure_coulomb(), g, 1).levels[0].energy
                x0 = gridsolver._half_mesh(g, g.points // 2)[0]
                lam = even_lambda(1 / mp.sqrt(-2 * mp.mpf(e0)))
                row.append(float(lam - 2 * mp.log(2 * x0) - limit))
            assert all(1.9 <= coarse / fine <= 2.3 for coarse, fine in zip(row, row[1:]))
            offsets.append(row)
        for column in zip(*offsets):
            assert max(column) < 0.0
            assert min(column) / max(column) <= 1.25

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_vectors_match_exact_states(self, n):
        # the mirrored whole-mesh vector against the normalized psi_n, up
        # to its sign: second order, (100000 / 40000)^2 = 6.25
        diffs = []
        for points in (40000, 100000):
            res = solve(pure_coulomb(), Grid(60.0, points), n + 1)
            v, exact = res.vectors[:, n], normalize(n).norm * wavefunction(n, res.positions)
            diffs.append(np.abs(math.copysign(1.0, v @ exact) * v - exact).max())
        assert diffs[1] <= 1e-6
        assert 5.6 <= diffs[0] / diffs[1] <= 6.9

    def test_even_vectors_match_whittaker_w(self):
        # level 2j on x > 0 against W(kappa, 1/2, 2x/kappa), the solution
        # of -1/|x| at the level's own energy E = -1/(2 kappa^2) that
        # decays toward x = L, up to one least-squares scale.  Near the
        # centre the grid only resolves the logarithmic cusp of an even
        # state cell by cell: below x = 0.1 the ground level differs from
        # W by about 7e-4, then 3e-4 of its peak, falling only like h, and
        # a fit over it would carry that error into the scale.  Those
        # nodes are left out; on the rest the difference falls near
        # second order (4.3 to 8.0 times, against 6.25)
        diffs = []
        for points in (40000, 100000):
            res = solve(pure_coulomb(), Grid(60.0, points), 5)
            x = res.positions[points // 2:]
            diffs.append([])
            for j in (0, 2, 4):
                v = res.vectors[points // 2:, j]
                kappa = 1 / mp.sqrt(-2 * mp.mpf(res.levels[j].energy))
                peak = np.abs(v).max()
                inside = np.flatnonzero((np.abs(v) > 1e-6 * peak) & (x > 0.1))
                picked = np.searchsorted(x[inside], np.geomspace(0.1, x[inside[-1]], 120))
                nodes = inside[np.unique(picked)]
                w = np.array([float(mp.whitw(kappa, 0.5, 2 * mp.mpf(xj) / kappa))
                              for xj in x[nodes]])
                scale = (w @ v[nodes]) / (w @ w)
                diffs[-1].append(np.abs(v[nodes] - scale * w).max() / peak)
        assert max(diffs[1]) <= 2e-6
        assert all(coarse >= 4.0 * fine for coarse, fine in zip(*diffs))


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

    @pytest.mark.parametrize("V, g, level", [
        (pure_coulomb(), Grid(60.0, 2000, core=1e-2), 3),
        (pure_coulomb(), Grid(60.0, 2000, core=1e-2), 2),
        (soft_core(1e-3), Grid.graded(30.0, 1e-3), 0),
        (harmonic, Grid(10.0, 4000), 1),
    ], ids=["graded-odd", "graded-even", "soft-core-scan", "uniform"])
    def test_chain_matches_independent_solves(self, V, g, level, monkeypatch):
        # each rung starts from the sector vectors of the rung before, an
        # independent solve from its own coarse grid; both are Rayleigh
        # quotients near one eigenvalue, so they differ by at most the sum
        # of their residuals
        real, residuals = gridsolver._lowest, []

        def recording(mat, *args):
            levels = real(mat, *args)
            residuals.append((mat.v.size, levels[2]))
            return levels
        monkeypatch.setattr(gridsolver, "_lowest", recording)
        seq = refine(V, g, level, 3)
        chain = residuals[:]
        for j, energy in enumerate(seq):
            gj = replace(g, points=g.points * 2 ** j)
            # the even sector of a rung is solved before its odd one
            sectors = [r for size, r in chain if size == gj.points // 2]
            r_chain = sectors[level % 2][level // 2]
            lv = solve(V, gj, level + 1).levels[level]
            assert abs(energy - lv.energy) <= r_chain + lv.residual

    def test_refinement_budget_enforced(self):
        with pytest.raises(ValueError):
            refine(box, Grid(1.0, 500), 0, 5)

    @pytest.mark.parametrize("level", [200, -1])
    def test_level_checked_against_the_first_grid(self, level, monkeypatch):
        no_lapack(monkeypatch)
        message = f"level must lie in [0, N/4 - 1] = [0, 199], got {level}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refine(pure_coulomb(), Grid(20.0, 800), level, 1)


class TestValidation:
    def test_k_max_bounded_by_quarter_n(self):
        with pytest.raises(ValueError):
            solve(harmonic, Grid(half_width=10.0, points=100), 26)

    def test_one_mesh_layout(self):
        # staggered is a class constant, not an option
        with pytest.raises(TypeError):
            Grid(10.0, 400, staggered=False)
        assert Grid(10.0, 400).staggered is True
        assert Grid.graded(30.0, 1e-3).staggered is True

    @pytest.mark.parametrize("call", [lambda V, g: solve(V, g, 2),
                                      lambda V, g: refine(V, g, 0, 1)],
                             ids=["solve", "refine"])
    def test_callable_that_is_not_even_is_refused(self, call, monkeypatch):
        # only the half mesh is ever solved, so V must be mirror symmetric
        no_lapack(monkeypatch)
        with pytest.raises(ValueError, match=re.escape("must be even on the mesh: "
                                                       "V(-x) == V(x)")):
            call(lambda x: 0.5 * (x - 1.0) ** 2, Grid(12.0, 3000))

    @pytest.mark.parametrize("V", [lambda x: 1.0, lambda x: np.ones(3),
                                   lambda x: np.ones((x.size, 1))],
                             ids=["scalar", "three", "column"])
    def test_callable_must_give_one_value_per_node(self, V, monkeypatch):
        no_lapack(monkeypatch)
        with pytest.raises(ValueError, match="must return one value per node"):
            solve(V, Grid(20.0, 800), 2)

    @pytest.mark.parametrize("name, value", [
        ("k_max", 2.5), ("k_max", 2.0), ("k_max", True), ("k_max", "2"),
        ("level", 0.5), ("level", False), ("refinements", 1.0), ("refinements", True),
    ])
    def test_counts_must_be_integers(self, name, value, monkeypatch):
        no_lapack(monkeypatch)
        g, message = Grid(20.0, 800), f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if name == "k_max":
                solve(pure_coulomb(), g, value)
            else:
                refine(pure_coulomb(), g, **{"level": 0, "refinements": 1, name: value})

    def test_numpy_integer_counts(self):
        V, g = pure_coulomb(), Grid(20.0, 800)
        assert solve(V, g, np.int64(2)).levels == solve(V, g, 2).levels
        assert refine(harmonic, g, np.int64(0), np.int64(1)) == refine(harmonic, g, 0, 1)

    def test_full_line_staggered_needs_even_points(self):
        with pytest.raises(ValueError):
            solve(harmonic, Grid(half_width=10.0, points=1001), 2)

    def test_grid_field_validation(self):
        with pytest.raises(ValueError):
            Grid(half_width=-1.0, points=100)
        with pytest.raises(ValueError):
            Grid(half_width=1.0, points=4)

    @pytest.mark.parametrize("points", [10.5, 1000.0, "1000", True])
    def test_point_count_must_be_an_integer(self, points):
        with pytest.raises(ValueError, match="point count must be an integer"):
            Grid(10.0, points)

    def test_numpy_integer_point_count(self):
        assert Grid(10.0, np.int64(1000)).points == 1000

    def test_non_finite_potential_rejected(self):
        with pytest.raises(ValueError):
            solve(lambda x: np.full_like(x, np.nan), Grid(1.0, 500), 1)


def no_lapack(monkeypatch):
    """Make every LAPACK call of the solver fail the test."""
    def called(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")
    monkeypatch.setattr(gridsolver, "eigh_tridiagonal", called)
    monkeypatch.setattr(gridsolver, "dgtsv", called)


class TestFiniteMatrix:
    # the mesh step h of these boxes makes 1/h^2 overflow; the suite turns
    # every floating-point warning into an error
    @pytest.mark.parametrize("half_width", [1e-160, 1e-200])
    @pytest.mark.parametrize("V", [pure_coulomb(), lambda x: -1.0 / np.abs(x),
                                   half_line()],
                             ids=["pure-coulomb", "callable", "half-line"])
    def test_overflowing_matrix_refused_before_any_solve(self, V, half_width, monkeypatch):
        no_lapack(monkeypatch)
        g = Grid(half_width, 800)
        with pytest.raises(ValueError, match=re.escape(f"the matrix of {g} leaves "
                                                       "the float range")):
            solve(V, g, 2)

    @pytest.mark.parametrize("V", [pure_coulomb(), lambda x: -1.0 / np.abs(x)],
                             ids=["pure-coulomb", "callable"])
    def test_finite_tiny_box_still_fails_in_bisection(self, V):
        with pytest.raises(ConvergenceError, match="stebz"):
            solve(V, Grid(1e-150, 800), 2)

    @pytest.mark.parametrize("V, half_width", [
        (pure_coulomb(), 1e-310), (pure_coulomb(), 1e-320), (half_line(), 1e-320),
        (repulsive_core(1e-300, 1e-300), 1e-300), (lambda x: -1.0 / np.abs(x), 1e-320),
    ], ids=["pure-coulomb-1e-310", "pure-coulomb-1e-320", "half-line",
            "repulsive-core", "callable"])
    def test_subnormal_mesh_refused_without_a_warning(self, V, half_width, monkeypatch):
        # 1/|x| overflows on these meshes: the potential is refused, and no
        # floating-point warning escapes first
        no_lapack(monkeypatch)
        with pytest.raises(ValueError, match="potential is not finite on the mesh"):
            solve(V, Grid(half_width, 800), 2)

    @pytest.mark.parametrize("run, per_grid", [
        (lambda: solve(pure_coulomb(), Grid(60.0, 40000), 1), 1),
        (lambda: refine(pure_coulomb(), Grid(60.0, 4000), 0, 2), 1),
        (lambda: solve(pure_coulomb(), Grid(60.0, 40000), 2), 2),
    ], ids=["solve-k1", "refine-level0", "solve-k2"])
    def test_a_sector_asked_for_no_level_takes_no_norm(self, run, per_grid,
                                                       monkeypatch):
        # at one level the odd sector is asked for nothing: it takes no
        # wall, no norm and no start, on the grid and on its coarse grids
        real, grids = gridsolver._finite, []

        def recording(mat, g, out):
            grids.append(g)
            return real(mat, g, out)
        monkeypatch.setattr(gridsolver, "_finite", recording)
        run()
        assert len(set(grids)) >= 2
        assert len(grids) == per_grid * len(set(grids))

    def test_refine_refuses_its_first_grid(self, monkeypatch):
        no_lapack(monkeypatch)
        g = Grid.graded(1e-160, 1e-162)
        with pytest.raises(ValueError, match=re.escape(f"the matrix of {g}")):
            refine(soft_core(1e-162), g, 0, 1)


def split_matrix(n):
    """Two uniform blocks, split by an exactly zero off-diagonal, whose
    levels interleave: bisection returns them block by block."""
    d = np.full(n, 2.0)
    d[n // 3:] += 1.0 / n ** 2
    e = np.full(n - 1, -1.0)
    e[n // 3 - 1] = 0.0
    return d, e


def sector_matrix(kind, n):
    """Diagonal and off-diagonal of a solver matrix with n points."""
    if kind == "split":
        return split_matrix(n)
    if kind == "uniform":
        g, V = Grid(20.0, 2 * n), pure_coulomb()
    elif kind == "graded":
        g, V = Grid(30.0, 2 * n, core=1e-3), soft_core(1e-3)
    else:
        g, V = Grid(60.0, n), half_line()
    x = gridsolver._half_mesh(g, n)
    mat = gridsolver._assemble(x, evaluate(V, x), g.half_width)
    if kind == "half-line":
        gridsolver._wall_at_origin(mat, x)
    return mat.d, mat.e


class TestLapackRoute:
    @pytest.mark.parametrize("kind, n, k", [
        ("uniform", 8, 1), ("uniform", 400, 2), ("uniform", 5000, 6),
        ("graded", 120, 3), ("graded", 2000, 6), ("graded", 5000, 1),
        ("half-line", 60, 4), ("half-line", 5000, 5),
        ("split", 30, 6), ("split", 3000, 4),
    ])
    def test_matches_scipy_bit_for_bit(self, kind, n, k):
        from scipy.linalg import eigh_tridiagonal
        d, e = sector_matrix(kind, n)
        want_w, want_v = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        w, v = gridsolver.eigh_tridiagonal(d, e, select_range=(0, k - 1))
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(v, want_v)
        assert v.shape == (n, k)

    def test_split_matrix_takes_the_reorder(self):
        # bisection returns the split matrix's levels block by block, out
        # of order; the sort puts them back in order
        d, e = split_matrix(30)
        m, w, iblock, _, _ = gridsolver._flapack().dstebz(d, e, 2, 0.0, 1.0, 1, 6,
                                                          0.0, "B")
        assert list(iblock[:m]) == [1, 1, 2, 2, 2, 2]
        assert not np.all(np.diff(w[:m]) > 0.0)
        w, _ = gridsolver.eigh_tridiagonal(d, e, select_range=(0, 5))
        assert np.all(np.diff(w) > 0.0)

    @pytest.mark.parametrize("scipy_first", [False, True], ids=["solver-first",
                                                                "scipy-first"])
    def test_routines_are_scipy_lapack_objects(self, scipy_first):
        from test_import_footprint import run_fresh
        first, then = ("import scipy.linalg.lapack as lapack",
                       "solve(pure_coulomb(), Grid(20.0, 800), 2)")
        out = run_fresh(f"""
import json
from coulomb1d import Grid, gridsolver, pure_coulomb, solve
{first if scipy_first else then}
{then if scipy_first else first}
flapack = gridsolver._flapack()
print(json.dumps([getattr(flapack, name) is getattr(lapack, name)
                  for name in ("dgtsv", "dstebz", "dstein")]
                 + [flapack is lapack._flapack]))
""")
        assert out == [True] * 4

    def test_threads_load_the_wrappers_once(self):
        from test_import_footprint import run_fresh
        out = run_fresh("""
import json, sys, threading
from coulomb1d import gridsolver
barrier, loaded = threading.Barrier(8), []

def load():
    barrier.wait(timeout=60.0)
    loaded.append(gridsolver._flapack())
threads = [threading.Thread(target=load) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60.0)
print(json.dumps({"alive": any(t.is_alive() for t in threads), "count": len(loaded),
                  "same": all(m is sys.modules["scipy.linalg._flapack"] for m in loaded)}))
""")
        assert out == {"alive": False, "count": 8, "same": True}

    def test_missing_wrappers_raise_at_the_first_solve(self, tmp_path):
        from test_import_footprint import run_fresh
        out = run_fresh(f"""
import json, sys
import coulomb1d
from coulomb1d import Grid, gridsolver, pure_coulomb, solve
gridsolver._lapack_folder = lambda: {str(tmp_path)!r}
try:
    solve(pure_coulomb(), Grid(20.0, 800), 2)
except ImportError as exc:
    message = str(exc)
print(json.dumps({{"message": message,
                  "scipy": [m for m in sys.modules if m.startswith("scipy")]}}))
""")
        assert str(tmp_path) in out["message"]
        assert "_flapack" in out["message"]
        assert out["scipy"] == []


def old_offdiag(mat):
    """The off-diagonal e as the assembly built it before the uniform
    form: three operations on the square roots of the cell widths."""
    e = mat.scale[:-1] * mat.scale[1:]
    np.divide(mat.link, e, out=e)
    np.negative(e, out=e)
    return e


class TestHeldArrays:
    """What the matrix holds as one float and the uniform mesh as its
    step reads as the arrays of the assembly: bit for bit on a graded
    mesh, and on a uniform one as the 3-point Laplacian of its step."""

    @pytest.mark.parametrize("kind", ["uniform", "graded", "half-line"])
    def test_held_offdiag_is_the_assembled_one(self, kind):
        if kind == "uniform":
            g, V, n = Grid(20.0, 4000), pure_coulomb(), 2000
        elif kind == "graded":
            g, V, n = Grid(30.0, 4000, core=1e-3), soft_core(1e-3), 2000
        else:
            g, V, n = Grid(60.0, 3000), half_line(), 3000
        x = gridsolver._half_mesh(g, n)
        # the mesh the solver assembles on: held if graded, else its step
        mesh = x if kind == "graded" else gridsolver._UniformMesh(n, g.half_width / n)
        v = evaluate(V, x)
        mat = gridsolver._assemble(mesh, v, g.half_width)
        held = gridsolver._assemble(x, v, g.half_width)
        h, eps = g.half_width / n, np.finfo(float).eps
        if kind != "graded":
            # v alone is held: e, the links and the scales are floats
            # broadcast with no memory, d is 1/h^2, and the wall at L is 1/h
            assert mat.v is v and mat.d == 1.0 / h ** 2
            assert mat.e.strides == mat.link.strides == mat.scale.strides == (0,)
            assert mat.walls.tolist() == [0.0, 1.0 / h]
        for wall in (False, True):
            if wall:
                gridsolver._wall_at_origin(mat, mesh)
                gridsolver._wall_at_origin(held, x)
            e = old_offdiag(mat)
            if kind != "graded":
                # -1/(2h^2), as link / (scale * scale) rounds it
                r = math.sqrt(h)
                assert e.tobytes() == np.full(n - 1, -(0.5 / h) / (r * r)).tobytes()
                assert mat.walls[0] == (1.0 / h if wall else 0.0)
            assert mat.e.tobytes() == e.tobytes()
            # a block's e is the prefix of the matrix's
            block = gridsolver._block(mat, n // 3)
            assert np.shares_memory(block.e, mat.e)
            assert block.e.tobytes() == e[:n // 3 - 1].tobytes()
            d = diagonal(mat)
            if kind == "graded":
                assert d is mat.d
                continue
            # 1/h^2 + v inside; at the centre 1/(2h^2) + v, or 3/(2h^2) + v
            # with the wall; at L 3/(2h^2) + v; a block's last row is inner
            assert d[1:-1].tobytes() == (1.0 / h ** 2 + v[1:-1]).tobytes()
            for row, kinetic in ((0, 1.5 if wall else 0.5), (-1, 1.5)):
                assert abs(d[row] - v[row] - kinetic / h ** 2) <= 8.0 * eps / h ** 2
            inner = diagonal(block)[-1] - v[n // 3 - 1]
            assert abs(inner - 1.0 / h ** 2) <= 8.0 * eps / h ** 2
            # the assembly of the same nodes held as an array differs from
            # it in the rounding of the node differences alone
            bound = 1e-12 * norm(held)
            assert np.abs(d - diagonal(held)).max() <= bound
            assert np.abs(e - held.e).max() <= bound
            assert abs(norm(mat) - norm(held)) <= bound

    @pytest.mark.parametrize("half_width, m", [(60.0, 270000), (10.0, 150000),
                                               (54.0, 9), (1e-3, 5000)])
    def test_uniform_slices_are_the_mesh(self, half_width, m):
        g = Grid(half_width, 2 * m)
        x = gridsolver._half_mesh(g, m)
        mesh = gridsolver._UniformMesh(m, g.half_width / m)
        chunk = gridsolver._CHUNK
        for lo, hi in ((0, m), (0, 1), (chunk - 3, chunk + 5), (2 * chunk - 1, 3 * chunk),
                       (m - 7, m), (m - 1, m + 10), (max(m - chunk - 2, 0), m)):
            assert mesh[lo:hi].tobytes() == x[lo:hi].tobytes(), (lo, hi)
        assert mesh[0] == x[0] and mesh[m - 1] == x[-1] and mesh[-1] == x[-1]
        assert mesh[:].tobytes() == x.tobytes()

    @given(st.integers(8, 300000), st.floats(1e-6, 1e6),
           st.floats(-0.1, 1.1), st.sampled_from(["on", "between", "beyond"]))
    def test_uniform_search_is_searchsorted(self, m, half_width, t, where):
        mesh = gridsolver._UniformMesh(m, half_width / m)
        x = (np.arange(m) + 0.5) * (half_width / m)
        j = min(max(int(t * m), 0), m - 1)
        value = {"on": x[j], "between": 0.5 * (x[j] + x[min(j + 1, m - 1)]),
                 "beyond": t * half_width * 3.0 - half_width}[where]
        assert mesh.searchsorted(value) == np.searchsorted(x, value)
        for v in (np.nextafter(x[j], -np.inf), np.nextafter(x[j], np.inf)):
            assert mesh.searchsorted(v) == np.searchsorted(x, v)

    def test_uniform_start_is_the_array_start(self):
        # a start read from the uniform mesh slice by slice is the one read
        # from its array, bit for bit, supports included
        V, g = pure_coulomb(), Grid(60.0, 100000)
        coarse = gridsolver._coarse(V, g, 4, False)
        m = g.points // 2
        x = gridsolver._half_mesh(g, m)
        mesh = gridsolver._UniformMesh(m, g.half_width / m)
        mat = gridsolver._assemble(mesh, evaluate(V, x), g.half_width)
        for wall in (False, True):
            if wall:
                gridsolver._wall_at_origin(mat, mesh)
            columns = coarse.sectors[int(wall)]
            held = gridsolver._starts(mat, x, coarse.x, columns)
            built = gridsolver._starts(mat, mesh, coarse.x, columns)
            a, b = np.full(m, np.nan), np.full(m, np.nan)
            for j in range(columns.shape[1]):
                assert held(j, a) == built(j, b)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_cut_residual_is_the_explicit_one(self, seed):
        # a support cut short of the matrix: the padded vector's residual,
        # the block's in difference form and the cut row's term, is
        # ||Tc - Ec|| of the dense T within 4 eps ||T||, on a matrix that
        # holds its arrays and on the uniform form
        for uniform in (False, True):
            mat, T, rng = jacobi_matrix(seed, uniform=uniform)
            n, eps = mat.v.size, np.finfo(float).eps
            exact = np.linalg.eigh(T)[1]
            for m in (n // 3, n - 1):
                c = np.zeros(n)
                c[:m] = exact[:m, 0] + 1e-6 * rng.normal(size=m)
                c /= np.linalg.norm(c)
                block = gridsolver._block(mat, m)
                work = np.empty((3, m))
                energy, residual = gridsolver._certify(block, c[:m], *work)
                cut = mat.link[m - 1] / (mat.scale[m - 1] * mat.scale[m])
                residual = math.hypot(residual, cut * c[m - 1])
                assert abs(energy - c @ T @ c) <= 8.0 * eps * mat.norm
                assert (abs(residual - np.linalg.norm(T @ c - energy * c))
                        <= 4.0 * eps * mat.norm)


def uniform_sector(v, h, wall):
    """Diagonal and off-diagonal of the uniform sector matrix as the
    gridsolver docstring and perfbench/oracle.py define it, built here
    from v and h alone: 1/h^2 + v on the diagonal and -1/(2h^2) off it,
    1/(2h^2) + v_0 at the centre, or 3/(2h^2) + v_0 with a wall there,
    and 3/(2h^2) + v_{n-1} at L."""
    d = 1.0 / h ** 2 + v
    d[0] += (0.5 if wall else -0.5) / h ** 2
    d[-1] += 0.5 / h ** 2
    return d, np.full(v.size - 1, -0.5 / h ** 2)


def sector_levels(V, g, k):
    """The levels of solve(V, g, k), and for each sector of g the diagonal
    and off-diagonal of `uniform_sector`, with the levels it holds."""
    res = solve(V, g, k)
    walls = (True,) if getattr(V, "family", None) == "half-line" else (False, True)
    m = g.points // len(walls)
    h = g.half_width / m
    x = (np.arange(m) + 0.5) * h
    v = evaluate(V, x) if isinstance(V, PotentialSpec) else V(x)
    energies = np.array([lv.energy for lv in res.levels])
    return [(*uniform_sector(v, h, wall), energies[s::len(walls)])
            for s, wall in enumerate(walls)]


# boxes small enough that the highest of four levels meets the far wall
UNIFORM_CASES = [
    ("pure-coulomb", pure_coulomb(), 20.0),
    ("soft-core", soft_core(1e-2), 20.0),
    ("repulsive-core", repulsive_core(1e-2, 3e-2), 20.0),
    ("half-line", half_line(), 40.0),
    ("harmonic", harmonic, 4.0),
]


class TestUniformSector:
    """A uniform grid solves the documented 3-point Laplacian; graded
    grids keep their bits."""

    @pytest.mark.parametrize("points", [800, 1600])
    @pytest.mark.parametrize("V, half_width", [case[1:] for case in UNIFORM_CASES],
                             ids=[case[0] for case in UNIFORM_CASES])
    def test_bisected_levels_are_the_documented_matrix(self, V, half_width, points,
                                                       routes):
        # every matrix of these grids is bisected: no coarse grid starts them
        for d, e, energies in sector_levels(V, Grid(half_width, points), 4):
            want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            bound = 1e-12 * (np.abs(d).max() + 2.0 * np.abs(e).max())
            assert np.abs(energies - want[:energies.size]).max() <= bound
        assert {rec.route for rec in routes()} == {"bisection"}

    def test_polished_levels_are_the_documented_matrix(self, routes):
        g = Grid(20.0, 8000)
        for d, e, energies in sector_levels(pure_coulomb(), g, 6):
            want = eigvalsh_tridiagonal(d, e, select="i",
                                        select_range=(0, energies.size - 1))
            bound = 1e-12 * (np.abs(d).max() + 2.0 * np.abs(e).max())
            assert np.abs(energies - want).max() <= bound
        fine = [rec.route for rec in routes() if rec.points == g.points // 2]
        assert fine == ["polished"] * 2

    def test_graded_scan_keeps_its_bits(self):
        # the default soft-core scan, whose grids are all graded, gives
        # the ground energies that it gave while uniform grids held their
        # arrays, bit for bit
        rows = soft_core_ground_scan((1e-2, 1e-3, 1e-4), 30.0)
        assert [row.e0 for row in rows] == [-10.613443085180323, -29.74499224968888,
                                            -64.35224997223386]
