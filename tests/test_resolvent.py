"""Tests for the resolvent operator.

Closed-form facts used as oracles:
  * h(x) = x with drift alpha x: (R_rho h)(x) = x / (rho - alpha).
  * h constant c: (R_rho h)(x) = c / rho.
  * h(x) = sqrt(x) under the alpha=0.05, beta=0.25 model: frozen
    40-digit quadrature references, computed independently with mpmath.
The identity checks integrate with scipy.integrate.quad, a different
quadrature engine from the one inside the package.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from entrysolve import (
    QuadratureError,
    Side,
    excessive_basis,
    gbm,
    logistic,
    power,
    affine,
    custom_payoff,
    resolvent,
    resolvent_equation_check,
    resolvent_on_grid,
    resolvent_prime,
    resolvent_split,
    speed_density,
)
from entrysolve import custom_diffusion
from entrysolve._quad import fixed_panels, integrate_to_inf, integrate_to_zero

ALPHA, BETA = 0.05, 0.25
SPEC = gbm(ALPHA, BETA)
SQRT = power(0.5)

# frozen references for (R_rho sqrt)(2.0)
R_SQRT_2 = {1.1: 1.3060558151786159181, 0.6: 2.4265326539377502178}


def m_prime(t):
    return speed_density(SPEC, t)


@pytest.fixture(scope="module")
def basis11():
    return excessive_basis(SPEC, 1.1)


@pytest.fixture(scope="module")
def basis06():
    return excessive_basis(SPEC, 0.6)


class TestClosedForms:
    def test_frozen_sqrt_values(self, basis11, basis06):
        for basis, want in ((basis11, R_SQRT_2[1.1]), (basis06, R_SQRT_2[0.6])):
            got = resolvent(basis, m_prime, SQRT, 2.0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_constant_payoff(self, basis11):
        h = custom_payoff(lambda x: np.full_like(x, 3.0))
        for x in (0.5, 2.0, 10.0):
            assert resolvent(basis11, m_prime, h, x) == pytest.approx(3.0 / 1.1, rel=1e-10)

    def test_linear_payoff(self, basis11, basis06):
        # E int e^(-rho t) X_t dt = x / (rho - alpha) for linear drift
        h = affine(1.0)
        for basis in (basis11, basis06):
            for x in (0.7, 2.0, 6.0):
                want = x / (basis.rho - ALPHA)
                assert resolvent(basis, m_prime, h, x) == pytest.approx(want, rel=1e-10)
                assert resolvent_prime(basis, m_prime, h, x) == pytest.approx(
                    1.0 / (basis.rho - ALPHA), rel=1e-9)

    def test_expected_discounted_flow_monte_carlo(self, basis11):
        # simulate int_0^T e^(-rho t) X_t dt with exact lognormal steps,
        # independently of the package's own simulator
        rng = np.random.default_rng(42)
        n, dt, t_max = 4000, 0.02, 30.0
        steps = int(t_max / dt)
        x0, rho = 2.0, 1.1
        z = rng.standard_normal((n, steps))
        logx = math.log(x0) + np.cumsum(
            (ALPHA - 0.5 * BETA ** 2) * dt + BETA * math.sqrt(dt) * z, axis=1)
        paths = np.concatenate([np.full((n, 1), x0), np.exp(logx)], axis=1)
        t = np.arange(steps + 1) * dt
        disc = np.exp(-rho * t)
        vals = np.trapezoid(paths * disc[None, :], dx=dt, axis=1)
        mc, se = float(np.mean(vals)), float(np.std(vals) / math.sqrt(n))
        want = resolvent(basis11, m_prime, affine(1.0), x0)
        assert abs(mc - want) < 3.0 * se
        assert se < 0.05 * want


class TestStructure:
    def test_split_additivity(self, basis11):
        y = 3.0
        for x in (1.5, 3.0, 5.0):
            below = resolvent_split(basis11, m_prime, SQRT, y, Side.BELOW, x)
            above = resolvent_split(basis11, m_prime, SQRT, y, Side.ABOVE, x)
            full = resolvent(basis11, m_prime, SQRT, x)
            assert below + above == pytest.approx(full, rel=1e-10)

    def test_split_pure_phi_above_cutoff(self, basis11):
        # from above the cutoff, income below y is reached only by
        # falling, so the value is proportional to phi
        y = 3.0
        xs = (4.0, 6.0, 9.0)
        ratios = [resolvent_split(basis11, m_prime, SQRT, y, Side.BELOW, x)
                  / float(basis11.phi(x)) for x in xs]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-10)

    def test_split_pure_psi_below_cutoff(self, basis11):
        y = 3.0
        xs = (0.5, 1.2, 2.5)
        ratios = [resolvent_split(basis11, m_prime, SQRT, y, Side.ABOVE, x)
                  / float(basis11.psi(x)) for x in xs]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-10)

    def test_prime_matches_finite_differences(self, basis11):
        for x in (1.0, 2.0, 5.0):
            h = 1e-5 * x
            fd = (resolvent(basis11, m_prime, SQRT, x + h)
                  - resolvent(basis11, m_prime, SQRT, x - h)) / (2.0 * h)
            got = resolvent_prime(basis11, m_prime, SQRT, x)
            assert got == pytest.approx(fd, rel=1e-7)

    def test_grid_matches_scalar(self, basis11):
        xs = np.geomspace(0.5, 8.0, 9)
        vals, primes = resolvent_on_grid(basis11, m_prime, SQRT, xs)
        for k, x in enumerate(xs):
            assert vals[k] == pytest.approx(resolvent(basis11, m_prime, SQRT, x), rel=1e-10)
            assert primes[k] == pytest.approx(
                resolvent_prime(basis11, m_prime, SQRT, x), rel=1e-10)

    def test_grid_validation(self, basis11):
        with pytest.raises(ValueError):
            resolvent_on_grid(basis11, m_prime, SQRT, np.array([]))
        with pytest.raises(ValueError):
            resolvent_on_grid(basis11, m_prime, SQRT, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            resolvent_on_grid(basis11, m_prime, SQRT, np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            resolvent_on_grid(basis11, m_prime, SQRT, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            resolvent_on_grid(basis11, m_prime, SQRT, np.array([1.0, np.inf]))

    def test_scalar_validation(self, basis11):
        with pytest.raises(ValueError):
            resolvent(basis11, m_prime, SQRT, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            resolvent(basis11, m_prime, SQRT, -1.0)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError):
                resolvent(basis11, m_prime, SQRT, x)
            with pytest.raises(ValueError):
                resolvent_prime(basis11, m_prime, SQRT, x)


class TestIdentities:
    def test_flux_identities(self, basis11):
        # (psi' V - psi V') / S' = int_0^x psi h m'   and
        # (phi V' - phi' V) / S' = int_x^inf phi h m'
        b = basis11
        for x in (1.0, 2.0, 4.0):
            v = resolvent(b, m_prime, SQRT, x)
            vp = resolvent_prime(b, m_prime, SQRT, x)
            sp = float(b.scale(x))
            lhs_lo = (float(b.psi_prime(x)) * v - float(b.psi(x)) * vp) / sp
            lhs_hi = (float(b.phi(x)) * vp - float(b.phi_prime(x)) * v) / sp
            rhs_lo, _ = quad(lambda t: float(b.psi(t) * SQRT(t) * m_prime(t)), 0.0, x)
            rhs_hi, _ = quad(lambda t: float(b.phi(t) * SQRT(t) * m_prime(t)),
                             x, np.inf)
            assert lhs_lo == pytest.approx(rhs_lo, rel=1e-8)
            assert lhs_hi == pytest.approx(rhs_hi, rel=1e-8)

    def test_resolvent_equation(self, basis11, basis06):
        # R_q h - R_p h + (q - p) R_q R_p h = 0
        resid = resolvent_equation_check(basis11, basis06, m_prime, SQRT, 2.0)
        scale = abs(resolvent(basis11, m_prime, SQRT, 2.0))
        assert resid < 1e-7 * scale
        with pytest.raises(ValueError):
            resolvent_equation_check(basis11, basis11, m_prime, SQRT, 2.0)

    def test_ode_residual_logistic(self):
        # R_rho h satisfies (sigma^2/2) V'' + mu V' - rho V + h = 0;
        # V'' by central differences of the reported derivative
        spec = logistic(ALPHA, BETA, 0.2)
        basis = excessive_basis(spec, 1.1)

        def mp_log(t):
            return speed_density(spec, t)

        for x in (1.0, 3.0):
            h = 1e-4 * x
            xs = np.array([x - h, x, x + h])
            vals, primes = resolvent_on_grid(basis, mp_log, SQRT, xs)
            vpp = (primes[2] - primes[0]) / (2.0 * h)
            res = (0.5 * float(spec.vol(x)) ** 2 * vpp
                   + float(spec.drift(x)) * primes[1]
                   - 1.1 * vals[1] + float(SQRT(x)))
            assert abs(res) < 1e-5 * abs(1.1 * vals[1])


class TestIntegrability:
    def test_divergent_payoff_raises(self):
        # at rho = 0.15 the growth exponent is ~1.91, so x^2 is not
        # integrable against the resolvent and the tail walk must say so
        basis = excessive_basis(SPEC, 0.15)
        with pytest.raises(QuadratureError, match="not integrable"):
            resolvent(basis, m_prime, power(2.0), 2.0)

    def test_non_finite_window_raises(self):
        # an infinite or NaN window must not be summed into the tail
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_to_inf(lambda t: np.where(t > 1e3, np.inf, t ** -2.0), 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_to_zero(lambda t: np.where(t < 1e-3, np.nan, 1.0), 1.0)

    def test_non_finite_interval_raises(self):
        # NaN strictly inside (2, 3): only the panel nodes of [2, 3] see it
        def f(t):
            return np.where((t > 2.0) & (t < 3.0), np.nan, 1.0 / t)

        a, b = np.array([1.0, 3.0, 2.0, 4.0]), np.array([2.0, 4.0, 3.0, 5.0])
        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            fixed_panels(f, a, b)
        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            fixed_panels(f, 2.0, 3.0)
        np.testing.assert_allclose(fixed_panels(f, a[:2], b[:2]),
                                   np.log(b[:2] / a[:2]), rtol=1e-14)
        assert isinstance(fixed_panels(f, 3.0, 4.0), float)

    def test_same_payoff_fine_at_higher_rate(self, basis11):
        got = resolvent(basis11, m_prime, power(2.0), 2.0)
        # E int e^(-rho t) X_t^2 dt = x^2 / (rho - 2 alpha - beta^2)
        want = 4.0 / (1.1 - 2.0 * ALPHA - BETA ** 2)
        assert got == pytest.approx(want, rel=1e-10)


class TestIntegrandWidth:
    """Panels reach the integrand in blocks of at most 16 panels of 32
    nodes, however many intervals a call covers."""

    LIMIT = 16 * 32

    def test_grid_sweep(self, basis11):
        widths = []

        def h(x):
            widths.append(len(x))
            return np.sqrt(x)

        resolvent_on_grid(basis11, m_prime, custom_payoff(h),
                          np.geomspace(0.05, 50.0, 2000))
        assert widths and max(widths) <= self.LIMIT

    def test_custom_speed_density(self):
        widths = []

        def drift(x):
            widths.append(len(x))
            return 0.4 * x * (math.log(6.0) - np.log(x))

        spec = custom_diffusion(drift, lambda x: 0.35 * x)
        widths.clear()
        speed_density(spec, np.geomspace(1e-4, 1e4, 2000))
        assert widths and max(widths) <= self.LIMIT
