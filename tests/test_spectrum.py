"""Tests for the exact bound-state construction."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coulomb1d import (BoundState, WhittakerParams, cusp_indicator, exact_energy,
                       node_count, normalize, ode_residual, wavefunction,
                       whittaker_w)


class TestExactEnergy:
    def test_ground(self):
        assert exact_energy(0) == -2.0

    def test_first_odd(self):
        assert exact_energy(1) == -0.5

    def test_second_even(self):
        assert exact_energy(2) == -2.0 / 9.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_odd_states_match_3d_hydrogen(self, k):
        # n = 2k-1 reproduces -1/(2 k^2), the s-wave Coulomb series
        assert math.isclose(exact_energy(2 * k - 1), -0.5 / k ** 2, rel_tol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exact_energy(-1)


class TestWavefunction:
    def test_ground_origin_value(self):
        assert abs(wavefunction(0, 0.0) - 0.5641896) < 1e-6
        assert math.isclose(wavefunction(0, 0.0), 1.0 / math.sqrt(math.pi),
                            rel_tol=1e-12)

    def test_second_even_origin_value(self):
        # limit 1/Gamma(-1/2) = -1/(2 sqrt(pi))
        assert math.isclose(wavefunction(2, 0.0), -1.0 / (2 * math.sqrt(math.pi)),
                            rel_tol=1e-12)
        assert abs(wavefunction(2, 0.0) - (-0.2820948)) < 1e-6

    def test_first_odd_closed_form(self):
        # psi_1(x) = 2 x exp(-|x|), one constant across the line
        xs = np.linspace(-8.0, 8.0, 401)
        xs = xs[np.abs(xs) > 1e-12]
        ratio = wavefunction(1, xs) / (xs * np.exp(-np.abs(xs)))
        assert np.max(np.abs(ratio - 2.0)) < 1e-10

    def test_third_odd_closed_form(self):
        # psi_3(x) = sign(x) exp(-|x|/2) |x| (|x| - 2)
        for x in (-5.0, -2.0, -0.7, 0.3, 1.0, 2.0, 4.0, 9.0):
            ref = math.copysign(1.0, x) * math.exp(-abs(x) / 2) * abs(x) * (abs(x) - 2)
            assert math.isclose(wavefunction(3, x), ref, rel_tol=1e-12, abs_tol=1e-12)

    def test_odd_states_vanish_at_origin(self):
        assert wavefunction(1, 0.0) == 0.0
        assert wavefunction(5, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(11))
    def test_parity_bit_for_bit(self, n):
        xs = np.linspace(0.01, 20.0, 100)
        plus = wavefunction(n, xs)
        minus = wavefunction(n, -xs)
        expect = -plus if n % 2 else plus
        assert np.array_equal(minus, expect)

    def test_matches_direct_whittaker_call(self):
        for n in (0, 1, 2, 3, 4, 7):
            for x in (0.3, 1.7, 6.0):
                direct = whittaker_w(
                    WhittakerParams(kappa=(n + 1) / 2, mu=0.5, z=4 * x / (n + 1)))
                assert math.isclose(wavefunction(n, x), direct, rel_tol=1e-10)

    def test_scalar_equals_array_element(self):
        xs = np.array([0.5, 2.5])
        arr = wavefunction(2, xs)
        assert math.isclose(wavefunction(2, 0.5), arr[0], rel_tol=1e-13)

    def test_decay_rate_low_n(self):
        """Tail slope of log|psi| approaches -sqrt(2|E_n|)."""
        for n in (0, 1):
            lo, hi = 20.0 * (n + 1), 40.0 * (n + 1)
            xs = np.linspace(lo, hi, 60)
            slope = np.polyfit(xs, np.log(np.abs(wavefunction(n, xs))), 1)[0]
            target = -2.0 / (n + 1)
            assert abs(slope - target) <= 0.02 * abs(target)

    @pytest.mark.parametrize("n", range(11))
    def test_decay_rate_prefactor_compensated(self, n):
        """With the z^kappa prefactor removed the tail slope is exact.

        The raw log-slope carries a kappa/x correction that only decays
        like 1/x, so beyond n = 1 a 2% band needs the compensation.
        """
        kappa = (n + 1) / 2
        lo, hi = 20.0 * (n + 1), 40.0 * (n + 1)
        xs = np.linspace(lo, hi, 60)
        z = 4.0 * xs / (n + 1)
        compensated = np.log(np.abs(wavefunction(n, xs))) - kappa * np.log(z)
        slope = np.polyfit(xs, compensated, 1)[0]
        target = -2.0 / (n + 1)
        assert abs(slope - target) <= 0.02 * abs(target)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wavefunction(0, math.nan)


def _whitw_psi(n, x):
    """psi_n(x) from mpmath's Whittaker W, with the z = 0 limit."""
    kappa = mp.mpf(n + 1) / 2
    if x == 0.0:
        return 0.0 if n % 2 else float(1 / mp.gamma(1 - kappa))
    val = float(mp.whitw(kappa, 0.5, 4.0 * abs(x) / (n + 1)))
    return -val if (n % 2 and x < 0) else val


class TestNearOrigin:
    """Even states at |x| down to 1e-12, where the cusp sits."""

    def test_mixed_array_with_near_origin_point(self):
        # one point at 1e-11 used to sink the whole 2002-point array
        xs = np.append(np.linspace(-10.0, 10.0, 2001), 1e-11)
        vals = wavefunction(0, xs)
        assert np.all(np.isfinite(vals))
        for i in list(range(0, 2001, 50)) + [1000, 2001]:
            ref = _whitw_psi(0, xs[i])
            assert abs(vals[i] - ref) <= 1e-10 * abs(ref), xs[i]

    def test_tiny_and_unit_argument_n12(self):
        # silently off by 2.6e-10 before, with rtol 1e-11
        xs = np.array([1.3e-11, 1.0])
        for x, v in zip(xs, wavefunction(12, xs)):
            ref = _whitw_psi(12, x)
            assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_cusp_quotient_at_tiny_steps(self):
        quotients = [abs(cusp_indicator(0, h)) for h in (1e-10, 1e-11, 1e-12)]
        assert all(math.isfinite(q) for q in quotients)
        assert quotients[0] < quotients[1] < quotients[2]

    @settings(max_examples=150, deadline=None)
    @given(half_n=st.integers(0, 10), frac=st.floats(0.0, 1.0), negative=st.booleans())
    def test_even_states_finite_and_mirror_exact(self, half_n, frac, negative):
        n = 2 * half_n
        # log-uniform |x| from 1e-13 to 4 (n+1)^2, the default node window
        top = math.log10(4.0 * (n + 1) ** 2)
        x = 10.0 ** (-13.0 + frac * (top + 13.0))
        if negative:
            x = -x
        plus, minus = wavefunction(n, x), wavefunction(n, -x)
        assert math.isfinite(plus)
        assert plus == minus


class TestNormalize:
    def test_first_odd_norm(self):
        # int (2x e^-|x|)^2 dx = 2, so the constant is 1/sqrt(2)
        oracle, _ = quad(lambda x: (2 * x * math.exp(-x)) ** 2, 0, 60)
        assert math.isclose(2 * oracle, 2.0, rel_tol=1e-10)
        assert math.isclose(normalize(1).norm, 1.0 / math.sqrt(2.0), rel_tol=1e-10)

    def test_energy_passthrough(self):
        state = normalize(0)
        assert isinstance(state, BoundState)
        assert state.energy == -2.0
        assert state.parity == "even"

    @pytest.mark.parametrize("n", range(11))
    def test_norm_positive(self, n):
        assert normalize(n).norm > 0

    @pytest.mark.parametrize("n", range(7))
    def test_unit_norm_by_quadrature(self, n):
        c = normalize(n).norm
        val, _ = quad(lambda x: (c * wavefunction(n, x)) ** 2, 0,
                      20.0 * (n + 1) + 40.0, limit=300)
        assert abs(2 * val - 1.0) < 1e-8

    def test_idempotence(self):
        for n in (0, 1, 4):
            c = normalize(n).norm
            val, _ = quad(lambda x: (c * wavefunction(n, x)) ** 2, 0,
                          20.0 * (n + 1) + 40.0, limit=300)
            assert abs(1.0 / math.sqrt(2 * val) - 1.0) < 1e-10


class TestNodeCount:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 2)])
    def test_lowest_state_counts(self, n, expected):
        assert node_count(n) == expected

    @pytest.mark.parametrize("n", range(11))
    def test_node_theorem(self, n):
        assert node_count(n) == n

    def test_window_too_small_detected(self):
        # the outermost node of psi_4 sits at x ~ 4.15
        with pytest.raises(ValueError, match="window"):
            node_count(4, window=(-4.3, 4.3))

    def test_asymmetric_window_rejected(self):
        with pytest.raises(ValueError):
            node_count(2, window=(-1.0, 2.0))


class TestOdeResidual:
    def test_first_odd_at_one(self):
        assert ode_residual(1, 1.0) <= 1e-6

    def test_ground_at_half(self):
        assert ode_residual(0, 0.5) <= 1e-6

    def test_third_at_two(self):
        assert ode_residual(3, 2.0) <= 1e-6

    def test_rejects_origin_region(self):
        with pytest.raises(ValueError):
            ode_residual(0, 0.0)
        with pytest.raises(ValueError):
            ode_residual(0, 0.04)

    def test_negative_side(self):
        assert ode_residual(2, -1.3) <= 1e-6


class TestCuspIndicator:
    def test_ground_quotient_grows(self):
        q2 = abs(cusp_indicator(0, 1e-2))
        q3 = abs(cusp_indicator(0, 1e-3))
        q4 = abs(cusp_indicator(0, 1e-4))
        assert q3 > q2
        assert q4 > q3

    def test_second_even_state(self):
        assert abs(cusp_indicator(2, 1e-3)) > abs(cusp_indicator(2, 1e-2))

    def test_rejects_odd_states(self):
        with pytest.raises(ValueError):
            cusp_indicator(1, 1e-2)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            cusp_indicator(0, 0.5)
        with pytest.raises(ValueError):
            cusp_indicator(0, 0.0)
