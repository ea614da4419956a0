"""Tests for the action integral and Bohr quantization."""

import math

import mpmath as mp
import numpy as np
import pytest

from coulomb1d import (WKBConfig, action, exact_energy, half_line, repulsive_core,
                       soft_core, turning_points, wkb_energy)


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

    def test_monotone_decreasing_in_depth(self):
        depths = np.logspace(-3, 2, 50)
        values = [action(-d).action for d in depths]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_non_negative_energy(self):
        with pytest.raises(ValueError):
            action(0.0)
        with pytest.raises(ValueError):
            action(1.0)


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
        got = wkb_energy(0, WKBConfig(maslov_offset=0.5))
        assert math.isclose(got, -8.0, rel_tol=1e-10)

    def test_closed_form_bracket_holds_for_any_offset(self):
        # S(E) = pi sqrt(2/|E|) is half and twice its target at the ends
        # of [4 g, g/4], so the bracket holds without widening
        for offset in (0.5, 1.0, 2.0):
            for n in range(41):
                target = -2.0 / (n + offset) ** 2
                got = wkb_energy(n, WKBConfig(maslov_offset=offset))
                assert abs(got - target) <= 1e-10 * abs(target), (offset, n)

    def test_root_in_t_takes_few_actions(self, monkeypatch):
        # S is linear in t = 1/sqrt(|E|), so Brent's interpolation lands on
        # the root at once: the two ends of the bracket and one or two
        # iterates, and the energy to rounding
        from coulomb1d import wkb
        real, calls = wkb.action, []

        def counting(E, rtol=1e-13):
            calls.append(E)
            return real(E, rtol=rtol)
        monkeypatch.setattr(wkb, "action", counting)
        for n in range(201):
            calls.clear()
            e = exact_energy(n)
            assert abs(wkb_energy(n) - e) <= 4e-15 * abs(e), n
            assert len(calls) <= 4, n

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            wkb_energy(-1)


def _mp_turning_points(E, spec):
    """Roots of E - V(x) on x > 0 by bracketed mpmath root search, 30 digits."""
    with mp.workdps(30):
        E = mp.mpf(E)
        if spec.family == "repulsive-core":
            a, b = mp.mpf(spec.a), mp.mpf(spec.b)
            g = lambda x: E + (x - b) / (x + a) ** 2
            x_min = a + 2 * b  # V is smallest here
            return (float(mp.findroot(g, (b, x_min), solver="anderson")),
                    float(mp.findroot(g, (x_min, 4 / abs(E)), solver="anderson")))
        a = mp.mpf(spec.a or 0)
        g = lambda x: E + 1 / (x + a)
        return (float(mp.findroot(g, (mp.mpf("1e-40"), 4 / abs(E)),
                                  solver="anderson")),)


_EPS = np.finfo(float).eps
_FLOOR = -1.0 / (4 * (1e-2 + 5e-2))  # of repulsive_core(1e-2, 5e-2)


class TestTurningPoints:
    @pytest.mark.parametrize("spec", [soft_core(1e-6), soft_core(1e-2),
                                      soft_core(0.3), half_line()],
                             ids=["soft-1e-6", "soft-1e-2", "soft-0.3", "half-line"])
    @pytest.mark.parametrize("E", [-3.0, -0.5, -0.07])
    def test_outer_point(self, spec, E):
        (ref,) = _mp_turning_points(E, spec)
        got = turning_points(E, spec)
        x_out = got[1]
        # 1/|E| - a cancels against a, to a few eps of 1/|E|
        assert abs(x_out - ref) <= 4 * _EPS / abs(E)
        assert got[0] == (0.0 if spec.family == "half-line" else -x_out)

    @pytest.mark.parametrize("a, b, E", [
        (1e-2, 5e-2, -0.5), (1e-3, 5e-3, -0.3), (1e-3, 5e-3, -10.0),
        (0.1, 0.0, -0.5),
        (1e-2, 5e-2, _FLOOR * (1 - 1e-6)), (1e-2, 5e-2, _FLOOR * (1 - 1e-9))])
    def test_repulsive_core_band(self, a, b, E):
        spec = repulsive_core(a, b)
        floor = -1.0 / (4 * (a + b))
        # the two roots meet at the floor, so their rounding grows like
        # 1/sqrt of the distance to it
        rtol = 4 * _EPS + _EPS * math.sqrt(abs(floor) / (E - floor))
        got = turning_points(E, spec)
        for x, ref in zip(got, _mp_turning_points(E, spec)):
            assert abs(x - ref) <= rtol * ref, (x, ref)

    def test_floors_rejected(self):
        spec = repulsive_core(1e-2, 5e-2)
        with pytest.raises(ValueError, match="floor"):
            turning_points(_FLOOR * 1.01, spec)
        with pytest.raises(ValueError, match="floor"):
            turning_points(-200.0, soft_core(1e-2))

    def test_rejects_positive_energy(self):
        with pytest.raises(ValueError):
            turning_points(0.5, half_line())
