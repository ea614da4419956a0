"""Each domain is refused once, where its value enters, before any work.

U's slice is refused by ``specfun._on_slice``, the turning point by
``wkb.turning_points`` and a tolerance by ``quadrature._check_tolerance``.
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

from coulomb1d import (action, half_line, node_count, normalize, pure_coulomb,
                       repulsive_core, soft_core, specfun, tricomi_u,
                       turning_points, wavefunction)
from coulomb1d.quadrature import gauss_legendre
from coulomb1d.specfun import _u_array

_FAMILIES = [pure_coulomb(), soft_core(0.1), repulsive_core(0.1, 0.1), half_line()]


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


class TestTurningPointDoor:
    @pytest.mark.parametrize("spec", _FAMILIES, ids=lambda s: s.family)
    @pytest.mark.parametrize("E", [-1e-310, -5e-324])
    def test_subnormal_energy_refused_for_every_family(self, E, spec):
        with pytest.raises(ValueError, match=r"turning point 1/\|E\| of E="):
            turning_points(E, spec)

    @pytest.mark.parametrize("a, b, E", [(0.1, 0.1, -1e-160), (0.1, 2.0, -6e-309)])
    def test_repulsive_core_finite_where_one_over_e_is(self, a, b, E):
        # the discriminant over |E| overflowed to an outer point of inf
        x_in, x_out = turning_points(E, repulsive_core(a, b))
        with mp.workdps(40):
            p = 1 / (2 * abs(mp.mpf(E))) - a
            root = mp.sqrt(p * p - a * a - b / abs(mp.mpf(E)))
            ref_out, ref_in = p + root, (a * a + b / abs(mp.mpf(E))) / (p + root)
        assert abs(x_out - ref_out) <= 4 * np.finfo(float).eps * ref_out
        assert abs(x_in - ref_in) <= 4 * np.finfo(float).eps * ref_in

    def test_action_takes_its_points_from_turning_points(self):
        for E in (-2.0, -0.37, -1e-300):
            assert action(E).turning_points == turning_points(E, pure_coulomb())


class TestToleranceDoor:
    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf])
    def test_wavefunction(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            wavefunction(200, 0.3 * 201 / 4, rtol=rtol)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf])
    def test_tricomi_u(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            tricomi_u(0.5, 2, 1.0, rtol=rtol)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf])
    def test_gauss_legendre_and_action(self, rtol):
        with pytest.raises(ValueError, match="positive and finite"):
            gauss_legendre(np.sin, 0.0, 1.0, rtol=rtol)
        with pytest.raises(ValueError, match="positive and finite"):
            action(-1.0, rtol=rtol)
