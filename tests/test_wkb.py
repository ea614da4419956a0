"""Tests for the action integral and Bohr quantization."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb1d import action, exact_energy, wkb_energy

_EPS = np.finfo(float).eps


def brute_action(E, samples=1_000_000):
    """Midpoint rule on the substituted integrand, no shortcuts taken."""
    x_t = 1.0 / abs(E)
    step = 0.5 * math.pi / samples
    theta = (np.arange(samples) + 0.5) * step
    s = np.sin(theta)
    x = x_t * s * s
    f = np.sqrt(np.maximum(2.0 * (E + 1.0 / x), 0.0)) * 2.0 * x_t * s * np.cos(theta)
    return 2.0 * float(f.sum()) * step


class TestAction:
    def test_ground_energy_gives_pi(self):
        assert math.isclose(action(-2.0).action, math.pi, rel_tol=1e-12)

    def test_first_excited_gives_two_pi(self):
        assert math.isclose(action(-0.5).action, 2.0 * math.pi, rel_tol=1e-12)

    def test_deep_energy_gives_half_pi(self):
        # oracle: brute-force quadrature, no closed form involved
        oracle = brute_action(-8.0)
        assert math.isclose(oracle, 0.5 * math.pi, rel_tol=1e-9)
        assert math.isclose(action(-8.0).action, 0.5 * math.pi, rel_tol=1e-12)

    @pytest.mark.parametrize("E", [-2.0, -1.0, -0.5, -2.0 / 9.0, -0.125, -0.01])
    def test_closed_form_pi_sqrt(self, E):
        closed = math.pi * math.sqrt(2.0 / abs(E))
        got = action(E).action
        assert math.isclose(got, closed, rel_tol=1e-10)
        assert math.isclose(got, brute_action(E), rel_tol=1e-9)

    def test_turning_points(self):
        res = action(-2.0)
        assert res.turning_points == (-0.5, 0.5)
        res = action(-0.125)
        assert res.turning_points == (-8.0, 8.0)

    def test_orders_16_and_32_agree_to_rounding(self):
        # every E is scaled into |E| in [1/2, 2) before its quadrature, and
        # there the two rules differ by under 3 eps, so no higher order
        # could improve on 32
        for depth in np.linspace(0.5, 2.0, 2001):
            action(-depth, rtol=3 * _EPS)

    def test_monotone_decreasing_in_depth(self):
        depths = np.logspace(-3, 2, 50)
        values = [action(-d).action for d in depths]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_non_negative_energy(self):
        with pytest.raises(ValueError):
            action(0.0)
        with pytest.raises(ValueError):
            action(1.0)

    @pytest.mark.parametrize("E", [-1e303, -1e305, -sys.float_info.max, -1e-300,
                                   -sys.float_info.min])
    def test_extreme_energies_keep_the_closed_form(self, E):
        # the integrand at E itself overflowed from about -1e303 down
        closed = math.pi * math.sqrt(2.0) / math.sqrt(abs(E))
        assert abs(action(E).action - closed) <= 4 * _EPS * closed

    @pytest.mark.parametrize("E", [-1e-310, -5e-324])
    def test_rejects_energy_whose_turning_point_overflows(self, E):
        with pytest.raises(ValueError, match="turning point"):
            action(E)

    @pytest.mark.parametrize("E", [-1.0, -0.3, -1.7])
    @pytest.mark.parametrize("j", [-300, -5, -1, 1, 7, 250])
    def test_power_of_four_scales_exactly(self, E, j):
        # S(4^j E) = S(E)/2^j, with no rounding of its own
        assert action(math.ldexp(E, 2 * j)).action == math.ldexp(action(E).action, -j)


class TestQuantization:
    def test_ground(self):
        assert math.isclose(wkb_energy(0), -2.0, rel_tol=1e-12)

    def test_n_four(self):
        assert math.isclose(wkb_energy(4), -0.08, rel_tol=1e-12)

    def test_matches_exact_spectrum(self):
        for n in range(21):
            e = exact_energy(n)
            assert abs(wkb_energy(n) - e) <= 1e-10 * abs(e)

    def test_maslov_offset_half_shifts_ground_to_minus_eight(self):
        # the off-model offset 1/2 quantizes S(E) = pi/2: the ground state
        # would sit at -8, four times too deep
        s1 = action(-1.0).action
        got = -(s1 / (0.5 * math.pi)) ** 2
        assert math.isclose(got, -8.0, rel_tol=1e-10)

    @given(n=st.integers(0, 10**6))
    @example(n=0)
    @example(n=40)
    @example(n=10**6)
    @settings(max_examples=300, deadline=None)
    def test_linear_law_for_any_n(self, n):
        # S(E) = S_1/sqrt(|E|) holds exactly, so the only error is the
        # rounding of S_1 and of the four operations that follow
        with mp.workdps(30):
            exact = -2 / mp.mpf(n + 1) ** 2
        got = wkb_energy(n)
        assert abs(got - exact) <= 4 * _EPS * abs(exact), n

    def test_one_action_per_energy(self, monkeypatch):
        # one quadrature of S(-1) per energy, and the energy to rounding
        from coulomb1d import wkb
        real, calls = wkb.action, []

        def counting(E, rtol=1e-13):
            calls.append(E)
            return real(E, rtol=rtol)
        monkeypatch.setattr(wkb, "action", counting)
        for n in range(201):
            calls.clear()
            e = exact_energy(n)
            assert abs(wkb_energy(n) - e) <= 4 * _EPS * abs(e), n
            assert calls == [-1.0], n

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            wkb_energy(-1)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5, 10**400, True, False])
    def test_rejects_n_that_is_no_float_integer(self, n):
        with pytest.raises(ValueError):
            wkb_energy(n)

    @pytest.mark.parametrize("n, match", [
        (10**162, "WKB energy -0.0 for target"),
        (int(sys.float_info.max), "target must be finite")],
        ids=["energy-underflows", "target-overflows"])
    def test_rejects_n_whose_energy_leaves_the_float_range(self, n, match):
        # -2/(n + 1)^2 underflows to -0.0 past about 9e161, and (n + 1) pi
        # overflows past float max/pi
        with pytest.raises(ValueError, match=match):
            wkb_energy(n)

