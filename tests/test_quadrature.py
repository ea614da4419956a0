"""Tests for the Gauss-Legendre order ladder and its stopping rules."""

import math

import mpmath as mp
import numpy as np
import pytest

from coulomb1d import ConvergenceError, tricomi_u
from coulomb1d import quadrature
from coulomb1d.quadrature import gauss_legendre

EPS = np.finfo(float).eps


@pytest.fixture
def orders(monkeypatch):
    """Orders of the rules the ladder asks for, in the order asked."""
    seen = []
    rule = quadrature._rule

    def recording(order):
        seen.append(order)
        return rule(order)

    monkeypatch.setattr(quadrature, "_rule", recording)
    return seen


def _doublings(seen, start):
    return seen == [start * 2 ** i for i in range(len(seen))]


class TestConverged:
    def test_scalar_integrand(self):
        val, err = gauss_legendre(np.sin, 0.0, 1.0)
        assert type(val) is float and type(err) is float
        assert math.isclose(val, 1.0 - math.cos(1.0), rel_tol=1e-14)
        assert err <= 1e-12 * val

    def test_start_order(self, orders):
        gauss_legendre(np.exp, 0.0, 1.0, order=64)
        assert orders[0] == 64 and _doublings(orders, 64)


class TestOutOfReach:
    def test_rounding_floor_stops_the_ladder(self, orders):
        with pytest.raises(ConvergenceError, match="converge") as info:
            gauss_legendre(np.sin, 0.0, 1.0, rtol=1e-40)
        # stopped at the first order whose change sits at the floor
        top = orders[-1]
        assert _doublings(orders, 16) and top <= 128
        assert f"order {top}" in str(info.value)
        assert info.value.error <= top * EPS * abs(info.value.estimate)
        assert math.isclose(info.value.estimate, 1.0 - math.cos(1.0), rel_tol=1e-14)

    def test_cap_at_order_256(self, orders):
        # a kink converges algebraically: the change at 256 is still far
        # above the floor, so only the cap stops the ladder
        with pytest.raises(ConvergenceError, match="order 256") as info:
            gauss_legendre(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, rtol=1e-14)
        assert _doublings(orders, 16) and orders[-1] == 256
        assert info.value.error > 256 * EPS * abs(info.value.estimate)
        assert math.isclose(info.value.estimate, 5.0 / 18.0, rel_tol=1e-4)

    def test_u_estimate_in_u_units(self, orders):
        with pytest.raises(ConvergenceError) as info:
            tricomi_u(0.5, 2, 1.0, rtol=1e-40)
        assert orders == []  # U builds no Gauss-Legendre rule
        (estimate,) = info.value.estimate
        assert abs(estimate - float(mp.hyperu(0.5, 2, 1))) <= 1e-10
