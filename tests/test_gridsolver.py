"""Tests for the finite-difference eigensolver."""

import math

import numpy as np
import pytest

from coulomb1d import (Grid, evaluate, exact_energy, half_line, pure_coulomb, refine,
                       repulsive_core, soft_core, solve)


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


def dense_staggered_levels(V, half_width, points, k):
    """Lowest k eigenvalues of the full staggered-mesh matrix, and its norm.

    Mesh x_j = -L + (j + 1/2) h with h = 2L/N; the walls half a step
    outside the end points add 1/(2h^2) to the end diagonal entries.
    """
    h = 2.0 * half_width / points
    x = -half_width + (np.arange(points) + 0.5) * h
    v = V(x) if callable(V) else evaluate(V, x)
    d = 1.0 / h ** 2 + v
    d[0] += 0.5 / h ** 2
    d[-1] += 0.5 / h ** 2
    off = np.full(points - 1, -0.5 / h ** 2)
    mat = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(mat)[:k], np.max(np.abs(d)) + 1.0 / h ** 2


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

    def test_full_matrix_paths_carry_no_parity(self):
        asym = solve(lambda x: 0.5 * (x - 1.0) ** 2, Grid(12.0, 3000), 3)
        plain = solve(soft_core(0.5), Grid(20.0, 4000, staggered=False), 3)
        for res in (asym, plain):
            assert [lv.parity for lv in res.levels] == [None, None, None]
            assert [lv.nodes for lv in res.levels] == [0, 1, 2]
        # the shifted well keeps the harmonic spacing
        assert abs(asym.levels[1].energy - asym.levels[0].energy - 1.0) < 1e-3


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
