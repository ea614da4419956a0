"""Tests for the Tricomi U / Whittaker W evaluation layer."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from coulomb1d import ConvergenceError, WhittakerParams, laguerre, tricomi_u, whittaker_w
from coulomb1d.specfun import _SERIES_Z, _u_array, reciprocal_gamma


def laguerre_series(k, alpha, z):
    # independent oracle: direct summation of the series definition
    total = 0.0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k + int(alpha), k - i) * z ** i / math.factorial(i)
    return total


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 1, 7.3) == 1.0

    def test_degree_one(self):
        # L_1^(1)(z) = 2 - z
        assert laguerre(1, 1, 3.0) == -1.0

    def test_degree_two(self):
        # closed form L_2^(1)(z) = z^2/2 - 3z + 3 gives 0.5 at z = 1
        val = laguerre(2, 1, 1.0)
        assert math.isclose(val, 0.5, rel_tol=1e-14)
        assert math.isclose(val, laguerre_series(2, 1, 1.0), rel_tol=1e-14)

    @pytest.mark.parametrize("k", range(8))
    def test_against_series(self, k):
        for z in (0.3, 1.7, 4.0, 9.5):
            assert math.isclose(laguerre(k, 1, z), laguerre_series(k, 1, z),
                                rel_tol=1e-11, abs_tol=1e-11)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre(-1, 1, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            laguerre(2, 1, math.nan)

    def test_vectorized(self):
        zs = np.array([[0.3, 1.7], [4.0, 9.5]])
        vals = laguerre(5, 1, zs)
        assert vals.shape == zs.shape
        for z, v in zip(zs.ravel(), vals.ravel()):
            assert v == laguerre(5, 1, z)


class TestReciprocalGamma:
    def test_half(self):
        assert math.isclose(reciprocal_gamma(0.5), 1.0 / math.sqrt(math.pi),
                            rel_tol=1e-14)

    def test_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert math.isclose(reciprocal_gamma(-0.5), -1.0 / (2 * math.sqrt(math.pi)),
                            rel_tol=1e-14)

    @pytest.mark.parametrize("m", [0, -1, -2, -5])
    def test_poles_give_zero(self, m):
        assert reciprocal_gamma(float(m)) == 0.0

    def test_matches_gamma_on_positives(self):
        for x in (0.3, 1.0, 2.5, 7.0, 40.0):
            assert math.isclose(reciprocal_gamma(x), 1.0 / math.gamma(x),
                                rel_tol=1e-13)


class TestTricomiU:
    def test_a_zero_is_one(self):
        assert tricomi_u(0, 2, 5.0) == 1.0

    def test_a_one_inverse_z(self):
        # U(1,2,z) = 1/z; oracle: quad of exp(-z t) over the half line
        oracle, _ = quad(lambda t: math.exp(-4.0 * t), 0, 60)
        assert math.isclose(oracle, 0.25, rel_tol=1e-10)
        assert math.isclose(tricomi_u(1, 2, 4.0), 0.25, rel_tol=1e-10)

    def test_a_minus_one_polynomial(self):
        # U(-1,2,z) = z - 2
        assert math.isclose(tricomi_u(-1, 2, 3.0), 1.0, rel_tol=1e-12)
        # the analytically-continued integral route must agree
        assert math.isclose(tricomi_u(-1, 2, 3.0, method="integral"), 1.0,
                            rel_tol=1e-10)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_reduction_identity(self, m, z):
        """Transcendental route vs polynomial route at integer kappa."""
        a = 1.0 - m
        by_integral = tricomi_u(a, 2, z, method="integral")
        by_poly = tricomi_u(a, 2, z, method="laguerre")
        assert by_poly == tricomi_u(a, 2, z)  # default dispatch
        assert abs(by_integral - by_poly) <= 1e-10 * max(abs(by_poly), 1e-300)

    @pytest.mark.parametrize("a", [0.5, -0.5, -1.5, -3.5, -7.5, -2.0, -6.0])
    @pytest.mark.parametrize("z", [0.3, 1.0, 5.0, 20.0, 100.0])
    def test_kummer_recurrence(self, a, z):
        """U(a-1,b,z) = (z+2a-b) U(a,b,z) - a(1+a-b) U(a+1,b,z)."""
        b = 2.0
        lhs = tricomi_u(a - 1.0, b, z)
        rhs = (z + 2 * a - b) * tricomi_u(a, b, z) \
            - a * (1 + a - b) * tricomi_u(a + 1.0, b, z)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-300)

    def test_error_estimate_exposed(self):
        val, err = tricomi_u(0.5, 2, 3.0, full_output=True)
        assert err >= 0.0
        assert err <= 1e-9 * abs(val)

    def test_batched_matches_scalar(self):
        zs = np.array([0.05, 0.7, 3.0, 40.0, 180.0])
        for a in (0.5, -0.5, -4.5):
            batch, _ = _u_array(a, 2.0, zs)
            for z, vb in zip(zs, batch):
                assert math.isclose(vb, tricomi_u(a, 2, z), rel_tol=1e-9)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tricomi_u(math.inf, 2, 1.0)

    def test_rejects_laguerre_method_for_non_integer(self):
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, 1.0, method="laguerre")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, 1.0, method="series")


class TestWhittakerW:
    def test_integer_kappa_polynomial_case(self):
        # W_{1,1/2}(z) = z exp(-z/2)
        val = whittaker_w(WhittakerParams(kappa=1.0, mu=0.5, z=2.0))
        assert math.isclose(val, 2.0 * math.exp(-1.0), rel_tol=1e-12)

    def test_ground_limit_at_zero(self):
        val = whittaker_w(WhittakerParams(kappa=0.5, mu=0.5, z=0.0))
        assert math.isclose(val, 1.0 / math.sqrt(math.pi), rel_tol=1e-12)
        assert abs(val - 0.5642) < 1e-4

    def test_integer_kappa_vanishes_at_zero(self):
        assert whittaker_w(WhittakerParams(kappa=1.0, mu=0.5, z=0.0)) == 0.0

    @pytest.mark.parametrize("kappa", [0.5, 1.5])
    def test_limit_continuity(self, kappa):
        near = whittaker_w(WhittakerParams(kappa=kappa, mu=0.5, z=1e-6))
        limit = whittaker_w(WhittakerParams(kappa=kappa, mu=0.5, z=0.0))
        assert abs(near - limit) <= 1e-4

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 2.0])
    def test_asymptotic_log_form(self, kappa):
        """log W + z/2 - kappa log z decays toward 0 as z grows."""
        resid = []
        for z in (50.0, 100.0, 200.0):
            w = whittaker_w(WhittakerParams(kappa=kappa, mu=0.5, z=z))
            assert w > 0
            resid.append(abs(math.log(w) + 0.5 * z - kappa * math.log(z)))
        # kappa = 1 is exact up to roundoff, so allow a tiny slack
        assert resid[0] >= resid[1] - 1e-12
        assert resid[1] >= resid[2] - 1e-12
        log_scale = abs(-0.5 * 200.0 + kappa * math.log(200.0))
        assert resid[2] <= 1e-3 * log_scale

    def test_rejects_unsupported_mu(self):
        with pytest.raises(ValueError):
            whittaker_w(WhittakerParams(kappa=1.0, mu=0.25, z=1.0))

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            whittaker_w(WhittakerParams(kappa=0.3, mu=0.5, z=1.0))
        with pytest.raises(ValueError):
            whittaker_w(WhittakerParams(kappa=-0.5, mu=0.5, z=1.0))

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            whittaker_w(WhittakerParams(kappa=1.0, mu=0.5, z=-0.1))

    def test_accuracy_against_quadrature_oracle(self):
        """Brute-force check of the even-state seed against scipy.quad."""
        z = 2.0
        # U(1/2,2,z) = (2/sqrt(pi)) int_0^inf exp(-z u^2) sqrt(1+u^2) du
        oracle, _ = quad(lambda u: math.exp(-z * u * u) * math.sqrt(1 + u * u),
                         0, 20, epsabs=1e-14, epsrel=1e-13)
        oracle *= 2.0 / math.sqrt(math.pi)
        assert math.isclose(tricomi_u(0.5, 2, z), oracle, rel_tol=1e-10)


def test_convergence_error_carries_estimate():
    with pytest.raises(ConvergenceError) as info:
        # an absurd tolerance cannot be met; the error reports how far it got
        tricomi_u(0.5, 2, 1.0, rtol=1e-40)
    assert info.value.estimate is not None


def _hyperu(a, z):
    """U(a,2,z): exact rational polynomial for integer a <= 0, else mpmath.

    mpmath's hyperu does not converge at an exact zero of the polynomial
    case, such as U(-1,2,2) = 0.
    """
    if a <= 0 and a == int(a):
        k, x = int(-a), Fraction(float(z))
        lag = sum((-1) ** i * math.comb(k + 1, k - i) * x ** i / math.factorial(i)
                  for i in range(k + 1))
        return float((-1) ** k * math.factorial(k) * lag)
    return float(mp.hyperu(a, 2, z))


def _u_scale(a, z):
    """Largest |U(s,2,z)| over s = a, a+1, ... up past 1, by mpmath.

    The downward recurrence links U(a) to these values, so near a zero
    of U this scale, not |U(a)|, sets the attainable accuracy.
    """
    s, scale = a, abs(_hyperu(a, z))
    while s <= 1.0:
        s += 1.0
        scale = max(scale, abs(_hyperu(s, z)))
    return scale


def _assert_matches_hyperu(a, z, got, rtol=1e-10):
    ref = _hyperu(a, z)
    if abs(got - ref) <= rtol * abs(ref):
        return
    assert abs(got - ref) <= rtol * _u_scale(a, z), (a, z, got, ref)


# both sides of the series/quadrature crossover, down to the cusp region
ORACLE_Z = np.concatenate([np.geomspace(1e-12, 200.0, 25),
                           [0.999 * _SERIES_Z, np.nextafter(_SERIES_Z, 0.0),
                            _SERIES_Z, 1.001 * _SERIES_Z]])


class TestMpmathOracle:
    @pytest.mark.parametrize("n", range(41))
    def test_bound_state_parameters(self, n):
        """U(1 - (n+1)/2, 2, z) for n = 0..40 against mpmath hyperu."""
        a = 1.0 - (n + 1) / 2
        batch, err = _u_array(a, 2.0, ORACLE_Z, rtol=1e-11)
        assert np.all(err >= 0.0)
        for z, vb in zip(ORACLE_Z, batch):
            _assert_matches_hyperu(a, z, vb)
        for z in ORACLE_Z[::4]:
            _assert_matches_hyperu(a, z, tricomi_u(a, 2, z))

    def test_error_estimate_covers_series_error(self):
        zs = np.geomspace(1e-12, 0.999 * _SERIES_Z, 20)
        for a in (0.5, -5.5, -12.5):
            vals, err = _u_array(a, 2.0, zs, rtol=1e-11)
            for z, v, e in zip(zs, vals, err):
                assert abs(v - _hyperu(a, z)) <= max(e, 1e-15 * abs(v))

    def test_small_z_regression(self):
        # the scalar quadrature route was off by 3.7e-10 here
        _assert_matches_hyperu(-5.5, 4e-12, tricomi_u(-5.5, 2, 4e-12))
