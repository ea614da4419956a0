"""Tests for the Gauss-Legendre comparison of orders 16 and 32."""

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
    """Orders of the rules ``gauss_legendre`` asks for, in the order asked."""
    seen = []
    rule = quadrature._rule

    def recording(order):
        seen.append(order)
        return rule(order)

    monkeypatch.setattr(quadrature, "_rule", recording)
    return seen


class TestConverged:
    def test_scalar_integrand(self, orders):
        val, err = gauss_legendre(np.sin, 0.0, 1.0, rtol=1e-12)
        assert orders == [16, 32]
        assert type(val) is float and type(err) is float
        assert math.isclose(val, 1.0 - math.cos(1.0), rel_tol=1e-14)
        assert err <= 1e-12 * val


class TestOutOfReach:
    def test_rounding_floor_stops_the_ladder(self, orders):
        # a tolerance below the rounding floor raises at order 32, with
        # the order-32 value and its change from order 16
        with pytest.raises(ConvergenceError, match="at order 32") as info:
            gauss_legendre(np.sin, 0.0, 1.0, rtol=1e-40)
        assert orders == [16, 32]
        assert info.value.error <= 32 * EPS * abs(info.value.estimate)
        assert math.isclose(info.value.estimate, 1.0 - math.cos(1.0), rel_tol=1e-14)

    def test_u_estimate_in_u_units(self, orders):
        with pytest.raises(ConvergenceError) as info:
            tricomi_u(0.5, 2, 1.0, rtol=1e-40)
        assert orders == []  # U builds no Gauss-Legendre rule
        (estimate,) = info.value.estimate
        assert abs(estimate - float(mp.hyperu(0.5, 2, 1))) <= 1e-10
