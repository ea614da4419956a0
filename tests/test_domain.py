"""Each domain is refused once, where its value enters, before any work.

U's slice is refused by ``specfun._on_slice``, the turning point by
``wkb.action``, a tolerance by ``quadrature._check_tolerance`` and a
boolean position by ``potentials._points``.
The ``bounded`` fixture turns the late discoveries those doors replace
into immediate failures: k! past 170, an ``np.arange`` of more than 10^6
elements, and more than 5 s of wall time all raise ``AssertionError``.
"""

import math
import signal
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from coulomb1d import (action, evaluate, node_count, normalize, ode_residual,
                       pure_coulomb, soft_core, specfun, tricomi_u, wavefunction, wkb)
from coulomb1d.quadrature import gauss_legendre
from coulomb1d.specfun import _u_array


@pytest.fixture
def bounded(monkeypatch):
    factorial, arange = math.factorial, np.arange

    def small_factorial(k):
        if k > 170:
            raise AssertionError(f"{k}! computed")
        return factorial(k)

    def small_arange(*args, **kwargs):
        start, stop, step = (0, args[0], 1) if len(args) == 1 else (*args, 1)[:3]
        if math.ceil((stop - start) / step) > 10 ** 6:
            raise AssertionError(f"np.arange{args} built")
        return arange(*args, **kwargs)

    def expire(signum, frame):
        raise AssertionError("still running after 5 s")

    monkeypatch.setattr(math, "factorial", small_factorial)
    monkeypatch.setattr(np, "arange", small_arange)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a route of U ran")
    for name in ("_u_polynomial", "_u_series", "_u_chain", "_series_coefficients"):
        monkeypatch.setattr(specfun, name, forbidden)


class TestSliceDoor:
    @pytest.mark.parametrize("a", [-171.0, -171.5, -math.inf, math.nan])
    def test_tricomi_u_refuses_before_any_route(self, a, bounded, no_route):
        with pytest.raises(ValueError, match="from -341/2 to 3/2"):
            tricomi_u(a, 2, 1.0)

    @pytest.mark.parametrize("a", [-171.0, -171.5, -math.inf, math.nan])
    def test_u_array_refuses_before_any_route(self, a, bounded, no_route):
        with pytest.raises(ValueError, match="from -341/2 to 3/2"):
            _u_array(a, 2.0, np.array([0.5, 1.0, 3.0]))

    @pytest.mark.parametrize("a", [-170.5 + 1e-13, 0.5 + 1e-15])
    def test_two_a_exactly_an_integer(self, a):
        with pytest.raises(ValueError, match="from -341/2 to 3/2"):
            tricomi_u(a, 2, 1.0)

    @pytest.mark.parametrize("z", [0.33, 1.69])
    def test_points_gained_at_the_lower_end(self, z):
        # U(-341/2,2,z) with z < 2 raised when 1/Gamma(a - 1) was checked
        # in the series table; the recurrence serves these two
        val, err = tricomi_u(-170.5, 2, z, full_output=True)
        with mp.workdps(40):
            ref = float(mp.hyperu(-170.5, 2, z))
        assert abs(val - ref) <= err
        assert abs(val - ref) <= 1e-12 * abs(ref)


class TestSpectrumRefusesFirst:
    @pytest.mark.parametrize("n", [2000001, 2 ** 53, 2 ** 53 + 2])
    def test_wavefunction_past_the_slice(self, n, bounded):
        # 2^53 + 2 made a = (1 - n)/2 an integer float, and k! of it hung
        with pytest.raises(ValueError, match=f"psi_{n} leaves the float range"):
            wavefunction(n, 1.0)

    def test_far_points_build_no_recurrence(self, bounded):
        # the recurrence kept five arrays of steps x points before it
        # overflowed: 32 MB for these 8 points
        x = np.linspace(5.0, 6.0, 8) * 200001 / 4
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="leaves the float range"):
                wavefunction(200000, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_node_count_before_its_samples(self, bounded):
        with pytest.raises(ValueError, match="leaves the float range"):
            node_count(10 ** 9)

    def test_normalize_takes_gamma_first(self, bounded):
        with pytest.raises(ValueError, match="exceeds the float range"):
            normalize(2000001)


@pytest.fixture
def no_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the action's quadrature ran")
    monkeypatch.setattr(wkb, "gauss_legendre", forbidden)


class TestTurningPointDoor:
    @pytest.mark.parametrize("E", [-1e-310, -5e-324])
    def test_subnormal_energy_refused(self, E, no_quadrature):
        with pytest.raises(ValueError, match=r"turning point 1/\|E\| of E="):
            action(E)

    @pytest.mark.parametrize("E", [0.0, -0.0, 1.0, math.inf, -math.inf, math.nan])
    def test_non_negative_or_non_finite_energy_refused(self, E, no_quadrature):
        with pytest.raises(ValueError, match="bound-state energy must be negative"):
            action(E)

    def test_action_points_are_exactly_one_over_e(self):
        # 1/|E| rounded once, from a 53-bit mpmath quotient
        for E in (-2.0, -0.37, -1e-300, -3e-308):
            with mp.workprec(53):
                x_t = float(1 / abs(mp.mpf(E)))
            assert action(E).turning_points == (-x_t, x_t), E


class TestToleranceDoor:
    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf, True, np.True_])
    def test_wavefunction(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            wavefunction(200, 0.3 * 201 / 4, rtol=rtol)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf, True, np.True_])
    def test_tricomi_u(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            tricomi_u(0.5, 2, 1.0, rtol=rtol)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf, True, np.True_])
    def test_gauss_legendre_and_action(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            gauss_legendre(np.sin, 0.0, 1.0, rtol=rtol)
        with pytest.raises(ValueError, match="positive and finite"):
            action(-1.0, rtol=rtol)


class TestPositionDoor:
    # a bool compares as 0 or 1, and is no position: each of these was
    # read as x = 1 or x = 0 (wavefunction(0, True) gave psi_0(1) = 0.2863)
    BOOLS = [True, False, np.True_, np.array([True, False]), [True, False]]

    @pytest.mark.parametrize("x", BOOLS)
    def test_wavefunction(self, x):
        for n in (0, 1):
            with pytest.raises(ValueError, match="got booleans"):
                wavefunction(n, x)

    @pytest.mark.parametrize("x", [True, np.True_])
    def test_ode_residual(self, x):
        with pytest.raises(ValueError, match="got booleans"):
            ode_residual(2, x)

    @pytest.mark.parametrize("x", BOOLS)
    def test_evaluate(self, x):
        for spec in (pure_coulomb(), soft_core(0.1)):
            with pytest.raises(ValueError, match="got booleans"):
                evaluate(spec, x)

    def test_numbers_still_pass(self):
        # integers and floats of every kind are positions
        assert wavefunction(0, 1) == wavefunction(0, 1.0) == wavefunction(0, np.float32(1))
        np.testing.assert_array_equal(wavefunction(1, np.array([1, 2])),
                                      wavefunction(1, [1.0, 2.0]))
        assert ode_residual(2, 1) == ode_residual(2, 1.0)
        assert evaluate(pure_coulomb(), 2) == -0.5
