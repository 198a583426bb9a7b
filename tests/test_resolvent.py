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
    ProblemParams,
    QuadratureError,
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
    solve,
    speed_density,
)
from entrysolve import custom_diffusion
from entrysolve import _quad
from entrysolve._quad import fixed_panels, integrate_to_inf, integrate_to_zero
from entrysolve.resolvent import _integrand, _resolvent_values

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

    @pytest.mark.parametrize("spec", [SPEC, logistic(0.05, 0.25, 0.2),
                                      custom_diffusion(lambda x: 0.05 * x,
                                                       lambda x: 0.25 * x)],
                             ids=["gbm", "logistic", "custom"])
    def test_values_only_path_is_bitwise_the_grid_values(self, spec):
        # the value functions take the values without the derivatives;
        # they must be exactly the values resolvent_on_grid returns
        basis = excessive_basis(spec, 1.1)

        def mp(t):
            return speed_density(spec, t)

        xs = np.geomspace(0.5, 8.0, 9)
        vals, _ = resolvent_on_grid(basis, mp, SQRT, xs)
        assert np.array_equal(_resolvent_values(basis, mp, SQRT, xs), vals)

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

        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            fixed_panels(f, [2.0, 3.0])
        for a, b in ((1.0, 2.0), (3.0, 4.0)):
            np.testing.assert_allclose(fixed_panels(f, [a, b]), [math.log(b / a)], rtol=1e-14)

    def test_infinite_node_value_is_not_summed(self):
        # +inf at one interior node: the panel's gap and its mass of |f|
        # are both infinite, which must fail the fit, not pass it; the
        # quarter-width pieces miss the node and give the integral
        nodes = []

        def record(t):
            nodes.append(t.copy())
            return 1.0 / t

        fixed_panels(record, [1.0, 1.5])
        for xs in (np.array([1.0, 1.5]), np.array([1.0, 1.2, 1.5])):
            got = fixed_panels(lambda t: np.where(t == nodes[0][5], np.inf, 1.0 / t), xs)
            np.testing.assert_allclose(got, np.log(xs[1:] / xs[:-1]), rtol=1e-14)

    def test_same_payoff_fine_at_higher_rate(self, basis11):
        got = resolvent(basis11, m_prime, power(2.0), 2.0)
        # E int e^(-rho t) X_t^2 dt = x^2 / (rho - 2 alpha - beta^2)
        want = 4.0 / (1.1 - 2.0 * ALPHA - BETA ** 2)
        assert got == pytest.approx(want, rel=1e-10)


class TestPanelRule:
    """The 33-node Clenshaw-Curtis panel rule with its nested 17-node
    error estimate, from one integrand call per block of panels."""

    def test_one_call_per_panel(self):
        widths = []

        def f(x):
            widths.append(len(x))
            return 1.0 / x

        assert fixed_panels(f, [2.0, 3.0])[0] == pytest.approx(math.log(1.5), rel=1e-14)
        assert widths == [33]

    @pytest.mark.parametrize("s", [-3.2, -0.5, 0.7, 2.9])
    def test_powers(self, s):
        # log-widths on 1, 2, 5 and 6 panels; the reference is
        # (b^s - a^s) / s written without cancellation on the same log-width
        a = 0.5
        width = np.array([0.01, 0.1, 0.45, 0.7, 1.0, 2.2, 3.0])
        b = a * np.exp(width)
        got = [fixed_panels(lambda x: x ** (s - 1.0), [a, bi])[0] for bi in b]
        want = a ** s * np.expm1(s * (np.log(b) - np.log(a))) / s
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_walk_stops_at_the_truncation_limit(self):
        # the window nodes reach the limit itself and no further
        for lo in np.geomspace(0.1, 100.0, 7):
            logs = []

            def f(x):
                logs.append(np.log(x))
                return x ** -1.5

            integrate_to_inf(f, lo, limit=math.exp(30.0))
            assert max(v.max() for v in logs) == 30.0
            logs.clear()
            integrate_to_zero(lambda x: f(x) * x, lo, limit=math.exp(-30.0))
            assert min(v.min() for v in logs) == -30.0


class TestRuns:
    """Touching intervals, b[i] == a[i + 1], integrated from one fit per
    panel of their run, each interval inside the panels it overlaps."""

    @staticmethod
    def powers(s, a, b):
        # integral of x^(s - 1) over [a, b], without cancellation, on the
        # same log-width as the quadrature
        return a ** s * np.expm1(s * (np.log(b) - np.log(a))) / s

    @pytest.mark.parametrize("s", [-3.2, -0.5, 0.7, 2.9])
    def test_powers(self, s):
        # a run across panel edges with intervals of every width from
        # under 1e-10 in ln x to two panels, and a 2000-point run
        rng = np.random.default_rng(7)
        steps = np.concatenate((rng.uniform(0.01, 1.0, 12), [3e-11, 5e-14, 0.2],
                                np.full(3, 1e-11), [0.7]))
        for xs in (0.3 * np.exp(np.cumsum(np.append(0.0, rng.permutation(steps)))),
                   np.geomspace(0.05, 50.0, 2000)):
            got = fixed_panels(lambda x: x ** (s - 1.0), xs)
            np.testing.assert_allclose(got, self.powers(s, xs[:-1], xs[1:]), rtol=1e-14)

    def test_zero_width_interval_in_a_run(self):
        xs = np.array([1.0, 1.5, 2.5, 2.5, 4.0])
        got = fixed_panels(lambda x: 1.0 / x, xs)
        np.testing.assert_allclose(got, np.log(xs[1:] / xs[:-1]), rtol=1e-14, atol=0.0)
        assert got[2] == 0.0

    def test_edges_are_validated(self):
        for xs in ([2.0, 1.0], [1.0, 3.0, 2.0], [0.0, 1.0], [-1.0, 1.0],
                   [1.0, math.inf], [1.0, math.nan, 2.0], [math.nan],
                   [[1.0, 2.0], [2.0, 3.0]], []):
            with pytest.raises(ValueError, match="ascending edges"):
                fixed_panels(lambda x: 1.0 / x, xs)
        got = fixed_panels(lambda x: 1.0 / x, [2.0])
        assert got.shape == (0,)

    def test_calls_cover_the_run_not_each_interval(self):
        widths = []

        def f(x):
            widths.append(len(x))
            return 1.0 / x

        xs = np.geomspace(1.0, np.e, 201)
        np.testing.assert_allclose(fixed_panels(f, xs),
                                   np.diff(np.log(xs)), rtol=1e-14)
        assert widths == [2 * 33]

    def test_non_finite_interval_in_a_run_raises(self):
        # NaN strictly inside (2, 3), the middle interval of a run
        def f(t):
            return np.where((t > 2.0) & (t < 3.0), np.nan, 1.0 / t)

        with pytest.raises(QuadratureError, match=r"\[2\.0, 3\.0\]"):
            fixed_panels(f, [1.0, 2.0, 3.0, 4.0])

    def test_intervals_over_a_failed_panel_are_redone_alone(self):
        # the kink at 2.7 fails its panel at quarter width too, but it is
        # a grid point, so every interval passes on its own; the reference
        # integrates s (x - 2.7) + 1, s = +-1 the interval's side, over
        # [a, a e^w] on the quadrature's log-width w
        xs = np.union1d(np.geomspace(1.0, 9.0, 41), [2.7])
        a, b = xs[:-1], xs[1:]
        got = fixed_panels(lambda x: np.abs(x - 2.7) + 1.0, xs)
        w, s = np.log(b) - np.log(a), np.sign(a + b - 5.4)
        want = s * a * a * np.expm1(2.0 * w) / 2.0 + (1.0 - 2.7 * s) * a * np.expm1(w)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_kinked_payoff_still_raises(self):
        # a kink at x = 3 inside the diagnostics' run: its panel fails both
        # fits, and the interval holding the kink fails on panels of its
        # own; the root find and the coefficients stay above the kink
        kinked = custom_payoff(lambda x: np.maximum(x - 3.0, 0.0) + 0.2 * x)
        params = ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0, h=kinked)
        solution = solve(SPEC, params)
        with pytest.raises(QuadratureError, match="failed to converge"):
            solution.diagnostics


def window_walk(f, start, limit, up):
    """_quad._walk as one integrand call per window: the reference that
    the blocked walk must reproduce bit for bit."""
    total = total_abs = 0.0
    prev_w, calm, grow, near = math.inf, 0, 0, start
    for _ in range(_quad._MAX_WINDOWS):
        far = near * math.exp(_quad._WINDOW if up else -_quad._WINDOW)
        truncated = limit is not None and (far >= limit if up else far <= limit)
        if truncated:
            far = min(far, limit) if up else max(far, limit)
        a, b = (near, far) if up else (far, near)
        va, vb = math.log(a), math.log(b)
        x = np.exp(va + (vb - va) * _quad._WINDOW_NODES)
        wk = float((np.asarray(f(x), dtype=float) * x * _quad._WINDOW_WEIGHTS).sum()) * (vb - va)
        if not math.isfinite(wk):
            raise QuadratureError("not finite")
        total += wk
        total_abs += abs(wk)
        if truncated:
            return total + _quad._tail_estimate(wk, prev_w, "upper" if up else "lower")
        if abs(wk) <= _quad._REL_TOL * max(total_abs, 1e-300):
            calm += 1
            if calm >= 2:
                return total
        else:
            calm = 0
        if up and abs(wk) > abs(prev_w) and math.isfinite(prev_w):
            grow += 1
            if grow >= 4:
                raise QuadratureError("growing")
        else:
            grow = 0
        prev_w, near = wk, far
        if not up and near <= _quad._X_FLOOR:
            return total
    raise QuadratureError("did not converge")


class TestBlockedWalk:
    """The tail walk evaluates up to 7 windows per integrand call and
    takes them in order, as a walk of one window per call would."""

    @pytest.mark.parametrize("h", [power(0.5), power(1.0), affine(0.6)])
    def test_bitwise_the_window_walk(self, basis11, basis06, h):
        for basis in (basis11, basis06):
            f_psi = _integrand(basis.psi, h, m_prime)
            f_phi = _integrand(basis.phi, h, m_prime)
            for x in (1e-3, 0.37, 2.0, 41.0):
                for limit in (None, x * 1e4):
                    assert integrate_to_inf(f_phi, x, limit=limit) == \
                        window_walk(f_phi, x, limit, True)
                for limit in (None, x * 1e-4):
                    assert integrate_to_zero(f_psi, x, limit=limit) == \
                        window_walk(f_psi, x, limit, False)

    def test_integrand_calls_stay_narrow(self, basis11):
        widths = []

        def counted(u):
            def f(x):
                widths.append(len(x))
                return u(x) * np.sqrt(x) * m_prime(x)

            return f

        integrate_to_inf(counted(basis11.phi), 2.0)
        integrate_to_zero(counted(basis11.psi), 2.0)
        assert max(widths) == 7 * 66 <= TestIntegrandWidth.LIMIT
        assert len(widths) < 6

    def test_ignores_what_lies_past_the_stop(self):
        # the walk stops within its first block, whose later windows are
        # NaN: they must not be seen, while an earlier NaN still raises
        seen = []

        def f(x):
            seen.append(x.max())
            return np.exp(-x)

        total = window_walk(f, 1.0, None, True)
        stop = seen[-1]
        assert len(seen) < 7
        past = []

        def nan_past(x):
            past.append(np.count_nonzero(x > 1.5 * stop))
            return np.where(x > 1.5 * stop, np.nan, np.exp(-x))

        assert integrate_to_inf(nan_past, 1.0) == total
        assert sum(past) > 0
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_to_inf(lambda x: np.where(x > 0.5 * stop, np.nan, np.exp(-x)), 1.0)

    def test_no_window_past_the_floor_or_an_overflow(self):
        # the integrand refuses the states a walk of one window per call
        # never asks for: below the window that reaches the floor, and any
        # of a window that overflows before the walk gets there
        def strict(g, lowest):
            def f(x):
                assert np.all(np.isfinite(x)) and x.min() >= lowest
                return g(x)

            return f

        # 1/x never calms, so the walk goes down to the floor
        assert integrate_to_zero(strict(lambda x: 1.0 / x, _quad._X_FLOOR / math.e), 1e-270) \
            == window_walk(lambda x: 1.0 / x, 1e-270, None, False)
        # from 1e306 the sixth window overflows; the walk calms at the fourth
        def decay(x):
            return np.exp(-x / 1e305)

        assert integrate_to_inf(strict(decay, 0.0), 1e306) == window_walk(decay, 1e306, None, True)


class TestIntegrandWidth:
    """Panels reach the integrand in blocks of at most 15 panels of 33
    nodes, 495 points, under LIMIT, however many intervals a call
    covers."""

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

    def test_custom_speed_density_tabulated_once(self):
        # the first call tabulates B over the states' panels; a second
        # call inside them evaluates the table without the drift
        widths = []

        def drift(x):
            widths.append(len(x))
            return 0.4 * x * (math.log(6.0) - np.log(x))

        spec = custom_diffusion(drift, lambda x: 0.35 * x)
        widths.clear()
        first = speed_density(spec, np.geomspace(1e-4, 1e4, 2000))
        assert widths and max(widths) <= self.LIMIT
        widths.clear()
        inside = np.random.default_rng(3).uniform(1e-4, 1e4, 2000)
        speed_density(spec, inside)
        assert widths == []
        np.testing.assert_array_equal(
            speed_density(spec, np.geomspace(1e-4, 1e4, 2000)), first)
