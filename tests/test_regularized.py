"""Tests for the regularized-potential parameter studies."""

import math

import numpy as np
import pytest

from coulomb1d import (Grid, PotentialSpec, care_interleaving, evaluate,
                       exact_energy, half_line, half_line_spectrum,
                       loudon_estimate, pure_coulomb, repulsive_core, soft_core,
                       soft_core_ground_scan)


def _graded_x4(a):
    """Grid.graded(30, a) at four times its points, about 10k."""
    return Grid(30.0, 4 * Grid.graded(30.0, a).points, core=a)


class TestEvaluate:
    def test_soft_core_at_origin(self):
        assert evaluate(soft_core(1.0), 0.0) == -1.0

    def test_repulsive_core_at_origin(self):
        # -(0 - 0.2)/(0.1)^2 = +20: the core really is repulsive
        assert math.isclose(evaluate(repulsive_core(0.1, 0.2), 0.0), 20.0,
                            rel_tol=1e-14)

    def test_half_line_wall_sentinel(self):
        assert evaluate(half_line(), -1.0) == math.inf
        assert evaluate(half_line(), 0.0) == math.inf
        assert evaluate(half_line(), 2.0) == -0.5

    def test_pure_coulomb_rejects_origin(self):
        with pytest.raises(ValueError):
            evaluate(pure_coulomb(), 0.0)

    def test_pure_coulomb_values(self):
        assert evaluate(pure_coulomb(), -4.0) == -0.25
        assert evaluate(pure_coulomb(), 4.0) == -0.25

    def test_array_evaluation(self):
        xs = np.array([-2.0, -0.5, 0.5, 2.0])
        np.testing.assert_allclose(evaluate(soft_core(0.5), xs),
                                   -1.0 / (np.abs(xs) + 0.5))

    def test_repulsive_tends_to_coulomb_far_out(self):
        v = evaluate(repulsive_core(1e-2, 5e-2), 100.0)
        assert math.isclose(v / (-1.0 / 100.0), 1.0, rel_tol=2e-3)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec("yukawa")
        with pytest.raises(ValueError):
            soft_core(-1.0)
        with pytest.raises(ValueError):
            repulsive_core(0.1, -0.2)
        with pytest.raises(ValueError):
            PotentialSpec("pure-coulomb", a=0.1)

    def test_core_families_refuse_missing_or_extra_parameters(self):
        with pytest.raises(ValueError, match="soft-core takes no offset b"):
            PotentialSpec("soft-core", a=0.1, b=0.1)
        with pytest.raises(ValueError, match="core radius a > 0"):
            PotentialSpec("repulsive-core", b=0.1)

    @pytest.mark.parametrize("build, message", [
        (lambda v: soft_core(v), "a > 0"),
        (lambda v: repulsive_core(v, 0.1), "a > 0"),
        (lambda v: repulsive_core(0.1, v), "b >= 0")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, False, np.True_])
    def test_core_parameters_must_be_finite(self, build, message, value):
        # NaN and inf passed the bare comparisons a <= 0 and b < 0, and a
        # bool, which compares as 0 or 1, is no length
        with pytest.raises(ValueError, match=message):
            build(value)

    def test_refuses_nan_point(self):
        with pytest.raises(ValueError, match="non-finite evaluation point"):
            evaluate(soft_core(0.1), np.array([1.0, math.nan]))


class TestLoudonEstimate:
    def test_hand_value(self):
        # -2 (ln 100)^2 = -42.4
        got = loudon_estimate(1e-2)
        assert math.isclose(got, -2.0 * math.log(100.0) ** 2, rel_tol=1e-14)
        assert abs(got + 42.4) < 0.1

    def test_domain(self):
        with pytest.raises(ValueError):
            loudon_estimate(0.0)
        with pytest.raises(ValueError):
            loudon_estimate(1.5)
        with pytest.raises(ValueError):  # returned nan
            loudon_estimate(math.nan)


class TestSoftCoreScan:
    def test_rows_and_monotonicity(self):
        radii = [1e-1, 3e-2, 1e-2]
        rows = soft_core_ground_scan(radii, 30.0)
        assert [r.a for r in rows] == radii
        es = [r.e0 for r in rows]
        assert es[0] > es[1] > es[2]
        for r in rows:
            assert math.isclose(r.loudon, loudon_estimate(r.a), rel_tol=1e-14)

    def test_graded_row_is_richardson_of_the_two_finest(self):
        from coulomb1d import refine
        g = Grid.graded(30.0, 1e-2)
        (row,) = soft_core_ground_scan([1e-2], 30.0)
        e = refine(soft_core(1e-2), g, 0, 2)
        coarse, fine = (4 * e[1] - e[0]) / 3, (4 * e[2] - e[1]) / 3
        assert (row.e0, row.error, row.points) == (fine, abs(fine - coarse),
                                                  4 * g.points)
        # converged reference from a far finer graded ladder
        assert abs(row.e0 - (-10.6134364)) <= row.error

    def test_graded_grid_skips_the_uniform_rule(self):
        # 400 points would be refused as a uniform grid at a = 1e-3; given
        # points start a grid graded toward each radius
        from coulomb1d import refine
        rows = soft_core_ground_scan([1e-2, 1e-3], 30.0, points=400)
        assert rows[0].e0 > rows[1].e0
        assert [r.points for r in rows] == [1600, 1600]
        assert all(r.error > 0.0 for r in rows)
        e = refine(soft_core(1e-3), Grid(30.0, 400, core=1e-3), 0, 2)
        assert rows[1].e0 == (4 * e[2] - e[1]) / 3

    def test_refuses_grid_graded_toward_a_wider_core(self):
        # the soft-core scan grades each grid toward its own radius; the
        # repulsive-core study takes a grid and refuses a wider core
        with pytest.raises(ValueError, match="graded toward core"):
            care_interleaving(1e-3, 5e-3, Grid(30.0, 400, core=1e-2), 2)

    def test_odd_companion_level(self):
        # odd levels barely feel the core: E1(a=1e-3) stays within 1% of -1/2
        from coulomb1d import solve
        res = solve(soft_core(1e-3), Grid(half_width=30.0, points=300000), 2)
        assert abs(res.levels[1].energy - (-0.5)) < 0.005

    def test_limit_consistency_odd_levels(self):
        """Odd levels converge to the bare spectrum as the core shrinks."""
        from coulomb1d import solve
        errs1, errs3 = [], []
        for a in (1e-2, 1e-3, 1e-4):
            res = solve(soft_core(a), _graded_x4(a), 4)
            errs1.append(abs(res.levels[1].energy - exact_energy(1)))
            errs3.append(abs(res.levels[3].energy - exact_energy(3)))
        assert errs1[0] > errs1[1] > errs1[2]
        assert errs3[0] > errs3[1] > errs3[2]

    def test_uniform_grid_rule(self):
        # h = 2L/N <= a/5, rounded up to an even count of at least 8
        assert Grid.uniform(30.0, 1e-4) == Grid(30.0, 3000000)
        assert Grid.uniform(1.0, 0.7).points == 16
        assert Grid.uniform(1.0, 10.0).points == 8
        g = Grid.uniform(1.0, 0.07)
        assert g.core is None
        assert 2.0 * g.half_width / g.points <= 0.07 / 5
        care_interleaving(0.07, 0.1, g, 2)
        with pytest.raises(ValueError, match=f"need at least N={g.points} points"):
            care_interleaving(0.07, 0.1, Grid(half_width=1.0, points=g.points - 2), 2)
        with pytest.raises(ValueError):
            Grid.uniform(30.0, 0.0)

    @pytest.mark.parametrize("half_width, a, name", [
        (math.inf, 1e-3, "half_width"), (30.0, math.inf, "core")])
    def test_uniform_grid_rejects_infinite_arguments(self, half_width, a, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            Grid.uniform(half_width, a)

    def test_rejects_out_of_range_radii(self):
        with pytest.raises(ValueError):
            soft_core_ground_scan([0.7], 30.0)
        with pytest.raises(ValueError):
            soft_core_ground_scan([], 30.0)

    def test_radius_range_checked_before_any_solve(self, monkeypatch):
        solved = []
        monkeypatch.setattr("coulomb1d.regularized.refine",
                            lambda *args: solved.append(args))
        with pytest.raises(ValueError, match="0.7"):
            soft_core_ground_scan([1e-2, 0.7], 30.0)
        assert solved == []


class TestCareInterleaving:
    def test_interleaved_inside_regime(self):
        res = care_interleaving(1e-3, 5e-3, Grid(half_width=30.0, points=300000), 4)
        assert res.interleaved is True
        assert [lv.parity for lv in res.levels] == ["even", "odd", "even", "odd"]

    def test_warns_outside_regime(self):
        g = Grid(half_width=20.0, points=40000)
        with pytest.warns(UserWarning, match="regime"):
            care_interleaving(1e-2, 0.5, g, 2)

    def test_zero_offset_reports_pattern_without_claims(self):
        # b = 0 is soft-core-like: deep even ground state far below the rest
        g = Grid(half_width=20.0, points=200000)
        with pytest.warns(UserWarning):
            res = care_interleaving(1e-3, 0.0, g, 3)
        assert res.levels[0].parity == "even"
        assert res.levels[0].energy < 4 * res.levels[1].energy

    def test_flag_equals_parity_alternation(self):
        res = care_interleaving(1e-3, 5e-3, Grid(half_width=30.0, points=300000), 4)
        parities = [lv.parity for lv in res.levels]
        alternates = all(p != q for p, q in zip(parities, parities[1:]))
        assert res.interleaved == alternates

    @pytest.mark.parametrize("a, b, message", [(0.0, 5e-3, "a > 0"),
                                                (1e-3, -1.0, "b >= 0")])
    def test_refuses_parameters_through_the_spec(self, a, b, message):
        # the repulsive-core spec is the one check, made before b / a
        with pytest.raises(ValueError, match=message):
            care_interleaving(a, b, Grid(half_width=30.0, points=1000), 2)

    def test_refuses_unresolved_grid(self):
        with pytest.raises(ValueError, match="need at least N=300000 points"):
            care_interleaving(1e-3, 5e-3, Grid(half_width=30.0, points=1000), 4)


class TestHalfLineSpectrum:
    def test_first_three_levels(self):
        es = half_line_spectrum(Grid(half_width=60.0, points=12000), 3)
        for k, e in enumerate(es, start=1):
            target = -0.5 / k ** 2
            assert abs(e - target) < 0.005 * abs(target)

    def test_matches_odd_exact_energies(self):
        es = half_line_spectrum(Grid(half_width=60.0, points=12000), 3)
        for k, e in enumerate(es, start=1):
            assert abs(e - exact_energy(2 * k - 1)) < 0.01 * abs(exact_energy(2 * k - 1))

    def test_equivalence_with_soft_core_odd_limit(self):
        """Half-line level k, the soft-core odd level, and the closed form
        all agree within a combined 1%."""
        from coulomb1d import solve
        half = half_line_spectrum(Grid(half_width=60.0, points=12000), 2)
        full = solve(soft_core(1e-4), _graded_x4(1e-4), 4)
        odd_full = [lv.energy for lv in full.levels if lv.parity == "odd"]
        for k in (1, 2):
            trio = (half[k - 1], odd_full[k - 1], exact_energy(2 * k - 1))
            ref = exact_energy(2 * k - 1)
            assert max(abs(t - ref) for t in trio) < 0.01 * abs(ref)
