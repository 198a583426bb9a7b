"""Tests for the payoff factories and tail classification."""
import math

import numpy as np
import pytest

from entrysolve import PayoffKind, affine, custom_payoff, limit_at_infinity, power, saturating


class TestFactories:
    def test_power(self):
        h = power(0.5)
        assert h.kind is PayoffKind.POWER
        assert h.params == (0.5,)
        x = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_allclose(h(x), np.sqrt(x), rtol=0.0)
        assert float(h(4.0)) == 2.0

    def test_power_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            power(0.0)
        with pytest.raises(ValueError):
            power(-1.0)

    @pytest.mark.parametrize("factory, args", [
        (power, (math.nan,)), (power, (math.inf,)),
        (affine, (math.nan,)), (affine, (math.inf,)),
        (saturating, (math.nan, 1.0)), (saturating, (2.0, math.nan)),
        (saturating, (math.inf, 1.0))])
    def test_rejects_non_finite_parameters(self, factory, args):
        with pytest.raises(ValueError):
            factory(*args)

    def test_affine(self):
        h = affine(2.5)
        np.testing.assert_allclose(h(np.array([0.4, 2.0])), [1.0, 5.0], rtol=0.0)

    def test_affine_zero_slope_is_degenerate_but_legal(self):
        h = affine(0.0)
        assert float(h(123.0)) == 0.0
        assert limit_at_infinity(h) == 0.0

    def test_affine_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            affine(-0.1)

    def test_saturating(self):
        h = saturating(2.0, 0.3)
        x = np.array([0.1, 1.0, 50.0])
        np.testing.assert_allclose(h(x), 2.0 * (1.0 - np.exp(-0.3 * x)), rtol=1e-15)
        assert float(h(1e9)) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            saturating(0.0, 1.0)
        with pytest.raises(ValueError):
            saturating(1.0, -2.0)

    def test_custom_accepts_monotone_nonnegative(self):
        h = custom_payoff(lambda x: np.log1p(x))
        assert h.kind is PayoffKind.CUSTOM
        assert float(h(math.e - 1.0)) == pytest.approx(1.0)

    def test_custom_rejects_decreasing(self):
        with pytest.raises(ValueError, match="decreasing"):
            custom_payoff(lambda x: 1.0 / (1.0 + x))

    def test_custom_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            custom_payoff(lambda x: x - 1.0)

    def test_custom_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            custom_payoff(lambda x: np.where(x > 100.0, np.inf, x))

    def test_custom_rejects_shape_change(self):
        with pytest.raises(ValueError, match="shape"):
            custom_payoff(lambda x: np.float64(1.0))

    def test_scalar_input_gives_array_semantics(self):
        h = power(2.0)
        out = h(3.0)
        assert out.shape == ()
        assert float(out) == 9.0


class TestLimitAtInfinity:
    def test_power_unbounded(self):
        assert limit_at_infinity(power(0.3)) == np.inf

    def test_affine_unbounded(self):
        assert limit_at_infinity(affine(1.0)) == np.inf

    def test_saturating_cap(self):
        assert limit_at_infinity(saturating(2.1, 0.05)) == 2.1

    def test_custom_bounded(self):
        h = custom_payoff(lambda x: x / (1.0 + x))
        assert limit_at_infinity(h) == pytest.approx(1.0, rel=1e-6)

    def test_custom_unbounded(self):
        h = custom_payoff(lambda x: np.power(x, 0.3))
        assert limit_at_infinity(h) == np.inf

    def test_custom_unclassifiable_slow_growth(self):
        # log growth never settles and never doubles over the probe span
        h = custom_payoff(lambda x: np.log1p(x))
        with pytest.raises(ValueError, match="classify"):
            limit_at_infinity(h)

    def test_constant_helper(self):
        h = custom_payoff(lambda x: np.full_like(x, 3.0))
        np.testing.assert_allclose(h(np.array([0.1, 7.0])), [3.0, 3.0], rtol=0.0)
        assert limit_at_infinity(h) == 3.0
