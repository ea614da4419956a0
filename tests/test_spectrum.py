"""Tests for the exact bound-state construction."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coulomb1d import (BoundState, exact_energy, node_count, normalize,
                       ode_residual, spectrum, wavefunction)

EPS = np.finfo(float).eps


def cusp_quotient(n, h):
    """One-sided difference quotient [psi_n(h) - psi_n(0)]/h; for even n
    psi' is logarithmically infinite at the origin, so |quotient| grows
    without bound as h shrinks."""
    vals = wavefunction(n, np.array([0.0, h]), rtol=1e-12)
    return (vals[1] - vals[0]) / h


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

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5, 10**400])
    def test_rejects_n_that_is_no_float_integer(self, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            exact_energy(n)

    @pytest.mark.parametrize("n", [1e300, 10**200, 9e161])
    def test_rejects_n_whose_energy_underflows(self, n):
        # (n + 1)^2 past the float range raised OverflowError
        with pytest.raises(ValueError, match="underflows"):
            exact_energy(n)

    def test_strictly_negative_up_to_the_underflow(self):
        for n in (10**8, 10**154):
            assert math.isclose(exact_energy(n), -2.0 / float(n + 1) ** 2,
                                rel_tol=1e-15)
        # subnormal, and (n + 1)^2 is past the float range
        assert exact_energy(8.9e161) == -5e-324

    @pytest.mark.parametrize("function", [normalize, node_count,
                                          lambda n: wavefunction(n, 1.0)],
                             ids=["normalize", "node_count", "wavefunction"])
    def test_state_functions_refuse_infinite_n(self, function):
        with pytest.raises(ValueError, match="non-negative integer"):
            function(math.inf)


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
        # mpmath's W_{(n+1)/2,1/2}(4x/(n+1)) as the direct call
        for n in (0, 1, 2, 3, 4, 7):
            for x in (0.3, 1.7, 6.0):
                assert math.isclose(wavefunction(n, x), _whitw_psi(n, x),
                                    rel_tol=1e-10)

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_edge_shapes(self, n):
        """Empty, 0-d and 2-D x, with and without x = 0, and x = 0 alone
        and among other points."""
        assert wavefunction(n, np.array([])).shape == (0,)
        assert isinstance(wavefunction(n, 0.7), float)
        for origin_row in ([-0.5, 1.0, 2.0], [-0.5, 0.0, 2.0]):
            grid = np.array([[0.5, 3.0, 9.0], origin_row])
            vals = wavefunction(n, grid)
            assert vals.shape == grid.shape
            assert np.array_equal(vals.ravel(), wavefunction(n, grid.ravel()))
        # the limit 1/Gamma(1 - kappa), which vanishes for odd n
        origin = 0.0 if n % 2 else float(mp.rgamma((1 - n) / 2))
        assert wavefunction(n, 0.0) == origin
        assert np.all(wavefunction(n, np.array([0.0, 1.0, -0.0]))[[0, 2]] == origin)

    # U overflows far out at large n, and 1/(Gamma(a) z) at subnormal z,
    # though psi is finite at each point; k! of the odd polynomial
    # U(-k,2,z) does from k = 171 (n = 343) on, and the even series'
    # 1/Gamma(a - 1) from n = 342 on; at x = 1e4 no point takes the series
    @pytest.mark.parametrize("n, x", [(300, [22650.0]), (220, [221.0 ** 2]),
                                      (0, 1e-310), (301, [302.0 ** 2]), (401, 10.0),
                                      (342, 1.0), (342, 1e4), (344, [0.0, 2.0]),
                                      (4, 5e-324)])
    def test_overflow_raises_without_warnings(self, n, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                wavefunction(n, x)

    def test_origin_limit_past_the_float_range(self):
        # 1/Gamma(1 - kappa), the limit at x = 0, overflows on its own
        with pytest.raises(ValueError, match="psi_344 leaves the float range"):
            wavefunction(344, 0.0)


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
        quotients = [abs(cusp_quotient(0, h)) for h in (1e-10, 1e-11, 1e-12)]
        assert all(math.isfinite(q) for q in quotients)
        assert quotients[0] < quotients[1] < quotients[2]

    @settings(max_examples=150, deadline=None)
    @given(half_n=st.integers(0, 10), frac=st.floats(0.0, 1.0), negative=st.booleans())
    def test_even_states_finite_and_mirror_exact(self, half_n, frac, negative):
        n = 2 * half_n
        # log-uniform |x| from 1e-13 to 4 (n+1)^2, eight turning points
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


# -- exact norm integrals, apart from spectrum.normalize ----------------------

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _gamma_half(k):
    """Gamma(k/2) for an integer k >= 1 as (r, h): r sqrt(pi)^h, h in {0, 1}."""
    if k % 2 == 0:
        return Fraction(math.factorial(k // 2 - 1)), 0
    m = k // 2  # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), 1


def _bessel_moment(mu, a, b):
    """int_0^inf t^(mu-1) K_a(t) K_b(t) dt = 2^(mu-3)/Gamma(mu) prod Gamma((mu +- a +- b)/2)
    (Gradshteyn-Ryzhik 6.576.4 at equal arguments), as (r, j): r pi^(2j)."""
    r, h = Fraction(2) ** (mu - 3) / math.factorial(mu - 1), 0
    for k in (mu + a + b, mu + a - b, mu - a + b, mu - a - b):
        g, half = _gamma_half(k)
        r, h = r * g, h + half
    assert h in (0, 4)  # the four arguments share one parity
    return r, h // 4


def exact_norm_integral(n):
    """N = int psi_n^2 dx over the line for even n, exact to 40 digits.

    sqrt(pi) e^(-z/2) U(s,2,z) = A(z) K0(z/2) + B(z) K1(z/2) with
    polynomials A, B: the closed forms at s = 1/2 and 3/2 that
    ``specfun._u_seeds`` takes from z = 2 on, then
    U(s-1) = (z + 2s - 2) U(s) - s(s-1) U(s+1) on the coefficients
    down to s = 1 - nu.  So W = (z/sqrt(pi)) (A K0 + B K1), and with
    z = 2t every term of int W^2 dz is a Bessel moment: N = R/pi + S pi
    with R, S rational.
    """
    assert n % 2 == 0
    s, a = Fraction(1, 2), Fraction(1 - n, 2)
    cur = ([Fraction(1, 2)], [Fraction(1, 2)])
    hi = ([Fraction(-1)], [Fraction(1)])
    while s > a:
        step = [2 * s - 2, Fraction(1)]
        cur, hi = tuple(
            [u - s * (s - 1) * (v[i] if i < len(v) else 0)
             for i, u in enumerate(_poly_mul(step, c))]
            for c, v in zip(cur, hi)), cur
        s -= 1
    A, B = ([c * 2 ** i for i, c in enumerate(p)] for p in cur)  # in t = z/2
    parts = [Fraction(0), Fraction(0)]  # rational, times pi^2
    for poly, weight, ka, kb in ((_poly_mul(A, A), 1, 0, 0),
                                 (_poly_mul(A, B), 2, 0, 1),
                                 (_poly_mul(B, B), 1, 1, 1)):
        for i, c in enumerate(poly):
            r, j = _bessel_moment(i + 3, ka, kb)  # dz z^2 = 8 t^2 dt
            parts[j] += 8 * weight * c * r
    nu = Fraction(n + 1, 2)  # N = 2 int_0^inf psi^2 dx = nu int_0^inf W^2 dz
    with mp.workdps(40):
        R, S = (mp.mpf(p.numerator) / p.denominator for p in parts)
        return +(nu.numerator * (R / mp.pi + S * mp.pi) / nu.denominator)


def exact_odd_integral(n):
    """N for odd n as an exact integer, from the Laguerre form of W:
    W_{m,1/2}(z) = (-1)^(m-1) (m-1)! z e^(-z/2) L_{m-1}^(1)(z), m = (n+1)/2,
    and int_0^inf z^k e^(-z) dz = k!."""
    m = (n + 1) // 2
    lag = [Fraction((-1) ** i * math.comb(m, m - 1 - i), math.factorial(i))
           for i in range(m)]
    moment = sum(c * math.factorial(i + 2) for i, c in enumerate(_poly_mul(lag, lag)))
    total = m * math.factorial(m - 1) ** 2 * moment
    assert total.denominator == 1
    return total.numerator


def integral_error(norm, exact):
    """|1/norm^2 - N| / N, with 1/norm^2 formed exactly."""
    with mp.workdps(40):
        return float(abs(1 / mp.mpf(norm) ** 2 / exact - 1))


class TestClosedFormNorms:
    def test_bessel_moment_oracle_at_ground(self):
        # N_0 = 1/pi + pi/8, the two parts of the oracle at n = 0
        with mp.workdps(40):
            assert abs(exact_norm_integral(0) - (1 / mp.pi + mp.pi / 8)) < mp.mpf(10) ** -38

    def test_even_against_bessel_moments(self):
        for n in range(0, 41, 2):
            assert integral_error(normalize(n).norm, exact_norm_integral(n)) <= 4 * EPS, n

    @pytest.mark.parametrize("n", range(7))
    def test_against_mpmath_quadrature(self, n):
        # 30 digits where W^2 lives; the tail past 3 nu + 20 holds under
        # 4e-6 of the integral, so 15 digits there keep 20 in the sum
        k = mp.mpf(n + 1) / 2
        with mp.workdps(30):
            def w2(z):
                return mp.whitw(k, 0.5, z) ** 2
            head, e1 = mp.quad(w2, [0, 1], error=True)  # tanh-sinh: the even cusp
            body, e2 = mp.quad(w2, [1, 2 * k + 4, 3 * k + 20],
                               method="gauss-legendre", error=True)
            with mp.workdps(15):
                tail, e3 = mp.quad(w2, [3 * k + 20, 2 * k + 60],
                                   method="gauss-legendre", error=True)
            half = head + body + tail
            assert (e1 + e2 + e3) / half < 1e-20
            assert w2(2 * k + 60) / half < 1e-18
            exact = (n + 1) * half / 2
        assert integral_error(normalize(n).norm, exact) <= 4 * EPS

    def test_odd_exactly_the_closed_form(self):
        for n in range(1, 42, 2):
            m = (n + 1) // 2
            assert exact_odd_integral(n) == 2 * m * math.factorial(m) ** 2
            assert normalize(n).norm == 1.0 / math.sqrt(exact_odd_integral(n)), n

    def test_beyond_the_old_quadrature(self):
        # quadrature raised ConvergenceError from n = 60
        assert integral_error(normalize(60).norm, exact_norm_integral(60)) <= 4 * EPS
        norm = normalize(200).norm
        assert math.isfinite(norm) and norm > 0

    def test_float_evaluation_over_the_even_range(self):
        # the closed form at 40 digits, T from mpmath's trigamma, not the sum
        for n in range(0, 339, 2):
            with mp.workdps(40):
                nu = mp.mpf(n + 1) / 2
                exact = (mp.gamma(nu) / mp.pi) ** 2 * (
                    2 * nu ** 2 + nu + 2 * nu ** 3 * mp.psi(1, 1 - nu))
            assert integral_error(normalize(n).norm, exact) <= 6 * EPS, n

    @pytest.mark.parametrize("n", [195, 340, 400])
    def test_past_the_float_range_raises(self, n):
        with pytest.raises(ValueError, match="float range"):
            normalize(n)

    def test_no_wavefunction_evaluated(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("normalize evaluated a wavefunction")
        monkeypatch.setattr(spectrum, "_w_values", forbidden)
        monkeypatch.setattr(spectrum, "_u_array", forbidden)
        for n in range(6):
            assert normalize(n).norm > 0


class TestNodeCount:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 2)])
    def test_lowest_state_counts(self, n, expected):
        assert node_count(n) == expected

    # 150-178 even lost their first node with a sample at x = 4(n+1)/1000,
    # and 180-199 overflowed U in a window of +-4(n+1)^2
    @pytest.mark.parametrize("n", [*range(11), 20, 75, 150, 151, 178, 199, 210])
    def test_node_theorem(self, n):
        assert node_count(n) == n

    def test_node_theorem_through_the_float_range(self):
        assert [node_count(n) for n in range(216)] == list(range(216))

    @pytest.mark.parametrize("n", [0, 3, 20, 210])
    def test_samples_cover_twice_the_turning_point(self, n, monkeypatch):
        real, sizes = spectrum.wavefunction, []

        def recording(n, x):
            sizes.append(x.size)
            assert 0.0 < x.min() and x.max() <= (n + 1) ** 2
            assert x.max() > 0.9 * (n + 1) ** 2
            return real(n, x)
        monkeypatch.setattr(spectrum, "wavefunction", recording)
        node_count(n)
        assert sizes == [10 * (n + 1)]

    def test_sign_change_past_turning_point_raises(self, monkeypatch):
        real = spectrum.wavefunction

        def flipped(n, x):
            vals = real(n, x)
            return np.where(x > 0.75 * (n + 1) ** 2, -vals, vals)
        monkeypatch.setattr(spectrum, "wavefunction", flipped)
        with pytest.raises(ValueError, match="past its turning point"):
            node_count(4)

    def test_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            node_count(230)

    def test_even_series_past_the_float_range_raises(self):
        # an IndexError from the series table before
        with pytest.raises(ValueError, match="float range"):
            node_count(342)


def sign_product_changes(values):
    """The former `spectrum.sign_changes`, from products of np.sign."""
    keep = np.flatnonzero(np.abs(values) > 1e-8 * np.max(np.abs(values)))
    signs = np.sign(values[keep])
    return keep[1:][signs[1:] * signs[:-1] < 0]


# magnitudes from 1 down past the 1e-8 cut, the cut itself, exact zeros
# of both signs, and any double at all
SAMPLES = st.one_of(
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 0.0)),
    st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0]),
    st.floats(width=64),
)


class TestSignChanges:
    @given(st.lists(SAMPLES, min_size=1, max_size=80),
           st.sampled_from([None, math.nan, math.inf, -math.inf]), st.integers(0, 79))
    @example([0.0] * 6, None, 0)
    @example([1.0, -1e-9, 0.0, -1.0, 2e-8, 1.0], None, 0)
    @example([1.0, -1.0, 1.0], math.nan, 1)
    @example([1.0, -1.0, 1.0], -math.inf, 2)
    @settings(max_examples=400, deadline=None)
    def test_matches_sign_products(self, values, special, at):
        x = np.array(values)
        if special is not None:
            x[at % x.size] = special
        got, want = spectrum.sign_changes(x), sign_product_changes(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_skipped_samples_and_non_finite_arrays(self):
        x = np.array([1.0, 1e-9, -0.5, 0.0, -1e-12, 2.0, -3.0])
        np.testing.assert_array_equal(spectrum.sign_changes(x), [2, 5, 6])
        for bad in (np.zeros(5), np.array([1.0, math.nan, -1.0]),
                    np.array([1.0, -math.inf, -1.0])):
            assert spectrum.sign_changes(bad).size == 0


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

    @pytest.mark.parametrize("n, x", [(28, 3.7004), (38, 3.6504)])
    def test_large_n_points_within_reach(self, n, x):
        # at rtol = 1e-13 neither U route reaches these points of large n
        scale = max(1.0, abs(wavefunction(n, x)))
        assert ode_residual(n, x) / scale <= 1e-6


class TestCuspIndicator:
    def test_ground_quotient_grows(self):
        q2 = abs(cusp_quotient(0, 1e-2))
        q3 = abs(cusp_quotient(0, 1e-3))
        q4 = abs(cusp_quotient(0, 1e-4))
        assert q3 > q2
        assert q4 > q3

    def test_second_even_state(self):
        assert abs(cusp_quotient(2, 1e-3)) > abs(cusp_quotient(2, 1e-2))
