"""Tests for the Tricomi U / Whittaker W evaluation layer."""

import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coulomb1d import ConvergenceError, specfun, tricomi_u, wavefunction
from coulomb1d.specfun import (_FEW_POINTS, _K_POWERS, _SEED_Z, _SERIES_TERMS,
                                _SERIES_Z, _digamma, _k_scaled, _powers,
                                _rgamma, _series_coefficients, _u_array,
                                _u_chain, _u_seeds, _u_series)
from coulomb1d.spectrum import _w_values


def laguerre_series(k, alpha, z):
    # independent oracle: direct summation of the series definition
    total = 0.0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k + int(alpha), k - i) * z ** i / math.factorial(i)
    return total


class TestLaguerre:
    """U(-k,2,z) = (-1)^k k! L_k^(1)(z), the polynomial route, against the
    closed forms and the series definition of L_k^(1)."""

    def test_degree_zero(self):
        assert tricomi_u(0, 2, 7.3) == 1.0

    def test_degree_one(self):
        # L_1^(1)(z) = 2 - z
        assert tricomi_u(-1, 2, 3.0) == 1.0

    def test_degree_two(self):
        # closed form L_2^(1)(z) = z^2/2 - 3z + 3 gives 0.5 at z = 1
        val = tricomi_u(-2, 2, 1.0) / 2
        assert math.isclose(val, 0.5, rel_tol=1e-14)
        assert math.isclose(val, laguerre_series(2, 1, 1.0), rel_tol=1e-14)

    @pytest.mark.parametrize("k", range(8))
    def test_against_series(self, k):
        for z in (0.3, 1.7, 4.0, 9.5):
            val = tricomi_u(-k, 2, z) / ((-1) ** k * math.factorial(k))
            assert math.isclose(val, laguerre_series(k, 1, z),
                                rel_tol=1e-11, abs_tol=1e-11)

    def test_vectorized(self):
        zs = np.array([0.3, 1.7, 4.0, 9.5])
        vals, _ = _u_array(-5.0, 2.0, zs)
        assert vals.shape == zs.shape
        for z, v in zip(zs, vals):
            assert v == tricomi_u(-5, 2, z)


def _w(kappa, z):
    """W_{kappa,1/2}(z) from the package's one W evaluator, at
    ``wavefunction``'s default tolerance."""
    return float(_w_values(round(2 * kappa - 1), np.array([z]), rtol=1e-11)[0])


class TestReciprocalGamma:
    """1/Gamma(1 - kappa), the limit of W_{kappa,1/2} at z = 0."""

    def test_half(self):
        assert math.isclose(_w(0.5, 0.0), 1.0 / math.sqrt(math.pi), rel_tol=1e-14)

    def test_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert math.isclose(_w(1.5, 0.0), -1.0 / (2 * math.sqrt(math.pi)),
                            rel_tol=1e-14)

    @pytest.mark.parametrize("m", [0, -1, -2, -5])
    def test_poles_give_zero(self, m):
        assert _w(1.0 - m, 0.0) == 0.0


EPS = np.finfo(float).eps


class TestOwnEvaluators:
    """K0, K1, 1/Gamma and psi, which the U routes take from specfun itself,
    against mpmath."""

    # a log sweep over the table's range x >= 1, which the seeds of z >= 2
    # reach at x = z/2; [1, 2.5] densely, and the table's lower end
    K_X = np.concatenate([np.geomspace(1.0, 1e5, 51), np.linspace(1.0, 2.5, 301),
                          [np.nextafter(1.0, 2.0), 1.001]])

    def test_scaled_bessel_k(self):
        # measured: at most 1.9 eps from the table
        vals = _k_scaled(self.K_X)
        with mp.workdps(30):
            for nu in (0, 1):
                for x, v in zip(self.K_X, vals[nu]):
                    ref = mp.besselk(nu, x) * mp.exp(x)
                    assert abs(v - ref) <= 6 * EPS * ref, (nu, x)

    def test_chebyshev_table_regenerates(self):
        """_K_POWERS is the expansion of sqrt(x) e^x K_nu(x) in t = 2/x - 1
        on 140 Chebyshev nodes at 40 digits, to T_31, with each T_j
        expanded in powers of t exactly; the first Chebyshev coefficient it
        leaves out is below 2e-17."""
        nodes, count = 140, len(_K_POWERS)
        # integer coefficients of T_j in powers of t: T_(j+1) = 2t T_j - T_(j-1)
        powers = [[1], [0, 1]]
        while len(powers) < count:
            nxt = [0] + [2 * c for c in powers[-1]]
            for i, c in enumerate(powers[-2]):
                nxt[i] -= c
            powers.append(nxt)
        with mp.workdps(40):
            theta = [mp.pi * (i + mp.mpf(1) / 2) / nodes for i in range(nodes)]
            x = [2 / (mp.cos(th) + 1) for th in theta]
            for nu in (0, 1):
                f = [mp.sqrt(v) * mp.exp(v) * mp.besselk(nu, v) for v in x]
                cheb = [2 * mp.fsum(fi * mp.cos(j * th) for fi, th in zip(f, theta)) / nodes
                        for j in range(count + 1)]
                cheb[0] /= 2
                assert abs(cheb[-1]) < 2e-17
                got = [float(mp.fsum(cheb[j] * powers[j][k] for j in range(k, count)))
                       for k in range(count)]
                assert np.allclose(_K_POWERS[:, nu], got, rtol=2 * EPS, atol=0.0)
                # the monomial form is well conditioned: the sum of the
                # coefficients' magnitudes is that of the values
                assert np.abs(_K_POWERS[:, nu]).sum() < 1.7

    def test_reciprocal_gamma(self):
        """1/Gamma at every integer and half-integer from -343/2 to 5/2,
        the arguments of the series and of W at z = 0."""
        for twice in range(-343, 6):
            x = twice / 2
            ref = mp.rgamma(x)
            if ref == 0:
                assert _rgamma(x) == 0.0, x
            elif abs(ref) > sys.float_info.max:
                # x = -343/2 overflows, with the sign of 1/Gamma
                assert _rgamma(x) == math.copysign(math.inf, ref), x
            else:
                assert abs(_rgamma(x) - ref) <= 4 * EPS * abs(ref), x

    @pytest.mark.parametrize("x0", [1.0, 1.5, 0.5, -0.5, -9.5, -99.5, -169.5])
    def test_digamma_grids(self, x0):
        """psi(x0 + k), k = 0 .. _SERIES_TERMS: the integer grid from 1 and
        the half-integer grids from a of the series."""
        vals = _digamma(x0, _SERIES_TERMS + 1)
        for k, v in enumerate(vals):
            ref = mp.digamma(x0 + k)
            assert abs(v - ref) <= 2 * EPS * max(1.0, abs(ref)), (x0, k)

    @pytest.mark.parametrize("size", [3, 300])
    def test_powers_round_like_the_sequential_product(self, size):
        """A few points accumulate z^k = z^(k-1) z, bit for bit; more
        points double the table, and z^k still carries at most k - 1
        roundings (long double as the reference)."""
        z = np.random.default_rng(1).uniform(0.05, 2.0, size)
        table = _powers(z, 45)
        seq, exact = np.ones(size), np.ones(size, dtype=np.longdouble)
        for k, row in enumerate(table):
            if size < _FEW_POINTS:
                assert np.array_equal(row, seq), k
            rel = np.abs((row - exact) / exact).max()
            assert rel <= max(k - 1, 0) * 0.5 * EPS * 1.01, k
            seq, exact = seq * z, exact * z

    @pytest.mark.parametrize("a", [-40.5, -100.5, -150.5, -155.5, -161.5, -163.5])
    def test_series_error_estimate_far_down(self, a):
        # the powers z^k and the product with the table round like the
        # terms (k + 4) eps |c_k| z^k of the estimate allow
        zs = np.geomspace(1e-6, 0.999 * _SERIES_Z, 12)
        with np.errstate(over="ignore", invalid="ignore"):
            vals, err, above, _ = _u_series(a, zs)
            accepted = err / np.maximum(np.abs(vals), np.abs(above)) <= 1e-9
        assert accepted.any()
        with mp.workdps(30):
            for z, v, e in zip(zs[accepted], vals[accepted], err[accepted]):
                assert abs(v - _hyperu(a, z)) <= e, (a, z)


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

    @pytest.mark.parametrize("z", [1e-12, 1e-6, 0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_reduction_identity(self, m, z):
        """Polynomial route vs the polynomial summed in exact rational
        arithmetic, at integer kappa."""
        a = 1.0 - m
        exact = _hyperu(a, z)
        assert abs(tricomi_u(a, 2, z) - exact) <= 1e-10 * max(abs(exact), 1e-300)

    @pytest.mark.parametrize("z", [1e-12, 1e-6])
    def test_chain_keeps_the_digits_of_a_tiny_z(self, z):
        """The recurrence's coefficient 2t - 2 + z at t = 1/2, -1/2, ...
        against mpmath, where (z + 2t) - 2 would lose the low digits of z."""
        for twice_a in range(-1, -21, -2):
            a = twice_a / 2
            (val,), _ = _u_chain(a, np.array([z]), 1e-10)
            with mp.workdps(30):
                ref = float(mp.hyperu(a, 2, z))
            assert abs(val - ref) <= 1e-13 * abs(ref), a

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

    @settings(max_examples=60, deadline=None)
    @given(twice_a=st.integers(-121, 3),
           near=st.lists(st.floats(1e-6, np.nextafter(_SERIES_Z, 0.0)), min_size=1, max_size=6),
           far=st.lists(st.floats(_SERIES_Z, 60.0), min_size=1, max_size=6))
    def test_value_independent_of_the_batch(self, twice_a, near, far):
        """A point alone, in a batch of its own side of the series
        crossover and in a batch of both sides: the values agree to their
        error estimates.  Their bits may differ, since the matrix products
        of the series and of the K0/K1 table sum in an order that depends
        on the batch size."""
        a = twice_a / 2
        mixed = np.array(near + far)
        sides = [_u_array(a, 2.0, np.array(side)) for side in (near, far)]
        batches = [_u_array(a, 2.0, mixed),
                   tuple(np.concatenate(rows) for rows in zip(*sides))]
        for i, z in enumerate(mixed):
            (alone,), (alone_err,) = _u_array(a, 2.0, mixed[i:i + 1])
            for vals, errs in batches:
                if a == round(a):  # the polynomial runs point by point
                    assert vals[i] == alone
                assert abs(vals[i] - alone) <= errs[i] + alone_err, (a, z)

    @pytest.mark.parametrize("a", [0.5, -2.5, -3.0])
    def test_empty_batch(self, a):
        vals, err = _u_array(a, 2.0, np.array([]))
        assert vals.shape == err.shape == (0,)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            tricomi_u(0.5, 2, -1.0)

    @pytest.mark.parametrize("z", [True, np.True_])
    def test_rejects_bool_z(self, z):
        # a bool compares as 1, and is no argument
        with pytest.raises(ValueError, match="positive and finite"):
            tricomi_u(0.5, 2, z)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tricomi_u(math.inf, 2, 1.0)

    @pytest.mark.parametrize("a, b, z", [(1.0, 1.5, 3.02e-4), (0.3, 2.0, 1.0),
                                         (2.0, 2.0, 1.0), (0.5, 3.0, 1.0),
                                         (True, 2.0, 1.0), (np.True_, 2.0, 1.0)])
    def test_rejects_parameters_off_the_slice(self, a, b, z):
        with pytest.raises(ValueError):
            tricomi_u(a, b, z)
        with pytest.raises(ValueError):
            _u_array(a, b, np.array([z]))


class TestSeeds:
    SEED_Z = np.geomspace(1e-12, 700.0, 40)

    def test_bessel_seeds_against_hyperu(self):
        """U(1/2,2,z) and U(3/2,2,z), from the series below z = 2 and from
        K0, K1 above, against mpmath hyperu."""
        lo, err_lo, hi, err_hi = _u_seeds(self.SEED_Z)
        with mp.workdps(30):
            for a, vals, errs in ((0.5, lo, err_lo), (1.5, hi, err_hi)):
                for z, v, e in zip(self.SEED_Z, vals, errs):
                    ref = float(mp.hyperu(a, 2, z))
                    assert abs(v - ref) <= 1e-13 * abs(ref), (a, z)
                    assert abs(v - ref) <= e, (a, z)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 0.0, -2.0])
    def test_seed_held_to_the_tolerance(self, a):
        # integer a <= 0 take the polynomial, held to the same bound
        with pytest.raises(ConvergenceError, match="converge"):
            tricomi_u(a, 2, 5.0, rtol=1e-40)

    @pytest.mark.parametrize("a, z", [(-170, 1000.0), (-100, 2000.0)])
    def test_polynomial_past_the_float_range_raises(self, a, z):
        # U(-170,2,1000) = 1.74e494 and U(-100,2,2000) = 6.17e327; the
        # recurrence overflows to inf, which was returned as a value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                tricomi_u(a, 2, z)

    def test_series_past_the_float_range_raises(self):
        # 1/Gamma(a - 1) of every series coefficient overflows from
        # a = -341/2 on; U(-170.5,2,1) is -3.07e308 by mpmath
        with pytest.raises(ValueError, match="float range"):
            tricomi_u(-170.5, 2, 1.0)

    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
    def test_last_half_integer_in_the_float_range(self, z):
        # the series table and the recurrence overflow on the way, and
        # must neither warn nor spoil U(-169.5,2,z), about 1e306
        with mp.workdps(30):
            ref = float(mp.hyperu(-169.5, 2, z))
        assert abs(tricomi_u(-169.5, 2, z) - ref) <= 1e-9 * abs(ref)

    def test_recurrence_past_the_float_range_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                tricomi_u(-170.5, 2, 3.0)

    @pytest.mark.parametrize("z", [5e-324, 1e-323])
    def test_subnormal_argument_raises_without_warning(self, z):
        # 1/(Gamma(a) z), the leading term of the series, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                tricomi_u(0.5, 2, z)

    @pytest.mark.parametrize("a", [-164.5, -165.5, -166.5, -167.5, -169.5])
    def test_overflowed_series_table_is_not_evaluated(self, a, monkeypatch):
        # from a = -333/2 on terms of the series overflow, and every
        # series value would be NaN; at -329/2 and -331/2 their sizes
        # at z = 2 do, which cut the table short: the series gave
        # 1.78e302 for U(-164.5,2,1.4023846153846156) = 2.13e294 and
        # held it to its estimate.  The recurrence serves these points,
        # from seeds that the series gives at 1/2 and 3/2.
        series = specfun._u_series

        def seeds_only(s, z):
            if s == a:
                raise AssertionError("series evaluated")
            return series(s, z)
        monkeypatch.setattr(specfun, "_u_series", seeds_only)
        zs = np.array([0.05, 0.7, 1.4023846153846156, 1.95])
        vals, _ = _u_array(a, 2.0, zs)
        with mp.workdps(30):
            for z, v in zip(zs, vals):
                ref = float(mp.hyperu(a, 2, z))
                assert abs(v - ref) <= 1e-9 * abs(ref), (a, z)

    def test_no_point_below_the_series_crossover_skips_the_series(self, monkeypatch):
        # z = 4 takes the recurrence, and the series table is not built;
        # U(-100.5,2,4) = 8.15e158 lies well inside the float range
        def unbuilt(a):
            raise AssertionError("series table built")
        monkeypatch.setattr(specfun, "_series_coefficients", unbuilt)
        (val,), _ = _u_array(-100.5, 2.0, np.array([_SERIES_Z]))
        with mp.workdps(40):
            ref = float(mp.hyperu(-100.5, 2, _SERIES_Z))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_series_table_refused_exactly_from_minus_329_over_2(self):
        # the terms or their sizes at z = 2 would overflow from a = -329/2
        # on, 1/Gamma(a - 1) itself at -341/2; that is decided before any
        # product leaves the float range (uncached, so every a is built)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refused = [twice / 2 for twice in range(3, -342, -2)
                       if _series_coefficients.__wrapped__(twice / 2) is None]
        assert refused == [twice / 2 for twice in range(-329, -342, -2)]

    def test_refused_series_table_raises_without_warning(self):
        # at a = -341/2 the table builder multiplied by 1/Gamma(-171.5) =
        # inf before it returned None, and a step of the recurrence
        # overflowed; U(-170.5,2,1) = -3.07e308 and its estimate overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                _u_array(-170.5, 2.0, np.array([1.0]))

    def test_no_a_of_the_slice_warns(self):
        # direct calls warned at a = -161.5 to -163.5 (the series' product
        # with its table) and at integer a = -162 to -170 (the polynomial's
        # sum of magnitudes); each a either returns or raises
        zs = np.linspace(0.04, 0.99 * _SERIES_Z, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for twice in range(3, -342, -1):
                try:
                    vals, err = _u_array(twice / 2, 2.0, zs)
                except (ConvergenceError, ValueError):
                    continue
                assert np.isfinite(vals).all() and (err >= 0.0).all()


class TestSeriesBand:
    """z in [2, 4), where the series serves values and the recurrence's
    seeds still come from K0 and K1."""

    BAND_Z = np.append(np.linspace(_SEED_Z, _SERIES_Z, 20, endpoint=False),
                       np.nextafter(_SERIES_Z, 0.0))

    @pytest.mark.parametrize("twice_a", range(3, -82, -2))
    def test_within_the_estimate_against_mpmath(self, twice_a):
        a = twice_a / 2
        vals, err = _u_array(a, 2.0, self.BAND_Z, rtol=1e-11)
        with mp.workdps(30):
            for z, v, e in zip(self.BAND_Z, vals, err):
                assert abs(mp.mpf(v) - mp.hyperu(a, 2, z)) <= e, (a, z)

    def test_even_window_takes_the_series_alone(self, monkeypatch):
        # psi_10 over x in [-10, 10] reaches z = 40/11 < 4
        def forbidden(*args):
            raise AssertionError("recurrence route taken")
        monkeypatch.setattr(specfun, "_u_chain", forbidden)
        monkeypatch.setattr(specfun, "_k_scaled", forbidden)
        assert np.isfinite(wavefunction(10, np.linspace(-10.0, 10.0, 2001))).all()


class TestWhittakerW:
    def test_integer_kappa_polynomial_case(self):
        # W_{1,1/2}(z) = z exp(-z/2)
        assert math.isclose(_w(1.0, 2.0), 2.0 * math.exp(-1.0), rel_tol=1e-12)

    def test_ground_limit_at_zero(self):
        val = _w(0.5, 0.0)
        assert math.isclose(val, 1.0 / math.sqrt(math.pi), rel_tol=1e-12)
        assert abs(val - 0.5642) < 1e-4

    def test_integer_kappa_vanishes_at_zero(self):
        assert _w(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("kappa", [0.5, 1.5])
    def test_limit_continuity(self, kappa):
        assert abs(_w(kappa, 1e-6) - _w(kappa, 0.0)) <= 1e-4

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5, 2.0])
    def test_asymptotic_log_form(self, kappa):
        """log W + z/2 - kappa log z decays toward 0 as z grows."""
        resid = []
        for z in (50.0, 100.0, 200.0):
            w = _w(kappa, z)
            assert w > 0
            resid.append(abs(math.log(w) + 0.5 * z - kappa * math.log(z)))
        # kappa = 1 is exact up to roundoff, so allow a tiny slack
        assert resid[0] >= resid[1] - 1e-12
        assert resid[1] >= resid[2] - 1e-12
        log_scale = abs(-0.5 * 200.0 + kappa * math.log(200.0))
        assert resid[2] <= 1e-3 * log_scale

    def test_rejects_bad_kappa(self):
        # kappa = (n+1)/2 must be a positive half-integer: n = 2 kappa - 1
        with pytest.raises(ValueError):
            wavefunction(2 * 0.3 - 1, 1.0)  # kappa = 0.3
        with pytest.raises(ValueError):
            wavefunction(2 * -0.5 - 1, 1.0)  # kappa = -1/2
        with pytest.raises(ValueError):
            wavefunction(2 * 1.25 - 1, 1.0)  # kappa = 5/4

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


def _exact_polynomial(a, z):
    """U(a,2,z) = (-1)^k k! L_k^(1)(z) for a = -k <= 0, as an exact
    rational at the float z."""
    k, x = int(-a), Fraction(float(z))
    lag = sum((-1) ** i * math.comb(k + 1, k - i) * x ** i / math.factorial(i)
              for i in range(k + 1))
    return (-1) ** k * math.factorial(k) * lag


def _hyperu(a, z):
    """U(a,2,z): exact rational polynomial for integer a <= 0, else mpmath.

    mpmath's hyperu does not converge at an exact zero of the polynomial
    case, such as U(-1,2,2) = 0.
    """
    if a <= 0 and a == int(a):
        return float(_exact_polynomial(a, z))
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
    @pytest.mark.parametrize("n", [*range(41), 60, 100, 160, 240, 300])
    def test_bound_state_parameters(self, n, monkeypatch):
        """U(1 - (n+1)/2, 2, z) for n = 0..40 and up to 300 against mpmath
        hyperu.  From n = 60 on the series rejects some z below 4, and the
        recurrence serves them from series seeds below z = 2 and K0/K1
        seeds above: the K0/K1 table sees only x = z/2 >= 1."""
        k_scaled, seen = specfun._k_scaled, []

        def recorder(x):
            seen.append(x.min())
            return k_scaled(x)
        monkeypatch.setattr(specfun, "_k_scaled", recorder)
        a = 1.0 - (n + 1) / 2
        batch, err = _u_array(a, 2.0, ORACLE_Z, rtol=1e-11)
        assert np.all(err >= 0.0)
        for z, vb in zip(ORACLE_Z, batch):
            _assert_matches_hyperu(a, z, vb)
        for z in ORACLE_Z[::4]:
            _assert_matches_hyperu(a, z, tricomi_u(a, 2, z))
        assert all(x >= 1.0 for x in seen)

    def test_error_estimate_covers_series_error(self):
        zs = np.geomspace(1e-12, 0.999 * _SERIES_Z, 20)
        for a in (0.5, -5.5, -12.5):
            vals, err = _u_array(a, 2.0, zs, rtol=1e-11)
            for z, v, e in zip(zs, vals, err):
                assert abs(v - _hyperu(a, z)) <= max(e, 1e-15 * abs(v))

    @pytest.mark.parametrize("a, z", [
        (-125.5, 1.86), (-57.5, 1.922931521938662), (-92.5, 3.0583481301971602),
        (-39.5, 5.840728332541845)])
    def test_error_estimate_covers_recurrence_error(self, a, z):
        # long chains where a rounding made at a small intermediate U
        # reaches U(a) amplified: an estimate that carried every step's
        # rounding as a seed error fell short here, by up to 13 times
        # (a = -92.5); the series rejects the points below z = 4
        val, err = tricomi_u(a, 2, z, full_output=True)
        assert abs(val - _hyperu(a, z)) <= err

    @pytest.mark.parametrize("a, z", [(-166, 5e-6), (-166, 5.5e-6),
                                      (-121, 1e-4), (-60, 1e-4)])
    def test_error_estimate_covers_polynomial_error(self, a, z):
        # near z = 0 the Laguerre recurrence's roundings add up like k^2:
        # 4 (k + 1) eps of the scale fell short here by 2.31, 3.52, 1.61
        # and 1.34 times
        val, err = tricomi_u(a, 2, z, full_output=True)
        assert abs(Fraction(val) - _exact_polynomial(a, z)) <= err

    def test_small_z_regression(self):
        # the scalar quadrature route was off by 3.7e-10 here
        _assert_matches_hyperu(-5.5, 4e-12, tricomi_u(-5.5, 2, 4e-12))
