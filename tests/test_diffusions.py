"""Tests for model specs, scale/speed densities and eigenfunction bases.

Frozen reference values were computed with mpmath at 40 significant
digits from the defining equations, independently of this package.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import OdeSolution, quad

from entrysolve import (
    ConstructionError,
    NumericsError,
    ProblemParams,
    custom_diffusion,
    excessive_basis,
    gbm,
    logistic,
    power,
    scale_density,
    solve,
    solve_threshold,
    speed_density,
    wronskian_check,
)
from entrysolve import diffusions
from entrysolve.diffusions import (_CUSTOM_CACHE_SIZE, _RiccatiCore, _b_of_x, _custom_basis,
                                   _scale_exponent)

ALPHA, BETA = 0.05, 0.25
C_EXP = 2.0 * ALPHA / BETA ** 2  # exponent in the scale density, 1.6

# frozen roots of (beta^2/2) t (t - 1) + alpha t = rho for alpha=0.05, beta=0.25
ROOTS = {
    1.1: (5.640538696111658, -6.240538696111658),
    0.6: (4.092038251199550, -4.692038251199550),
    0.1: (1.513835714721705, -2.113835714721705),
}

# frozen: k^(1-Bt) Gamma(Bt) / Gamma(b) with k=0.32, b=5.640538696...,
# Bt = 2b + 1.6, the Wronskian of the gamma=0.2 logistic basis at rho=1.1
LOGISTIC_W_11 = 4087298044132.362955911


def harmonicity_residual(spec, basis, x: np.ndarray) -> float:
    """Max relative residual of (sigma^2/2) u'' + mu u' - rho u over x,
    with u'' taken by central differences of the supplied derivative."""
    worst = 0.0
    for u, up in ((basis.psi, basis.psi_prime), (basis.phi, basis.phi_prime)):
        h = 1e-5 * x
        upp = (up(x + h) - up(x - h)) / (2.0 * h)
        res = 0.5 * spec.vol(x) ** 2 * upp + spec.drift(x) * up(x) - basis.rho * u(x)
        worst = max(worst, float(np.max(np.abs(res) / (basis.rho * np.abs(u(x))))))
    return worst


class TestSpecs:
    def test_gbm_coefficients(self):
        spec = gbm(ALPHA, BETA)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(spec.drift(x), ALPHA * x, rtol=0.0)
        np.testing.assert_allclose(spec.vol(x), BETA * x, rtol=0.0)

    def test_logistic_coefficients(self):
        spec = logistic(ALPHA, BETA, 0.2)
        x = np.array([0.5, 5.0, 10.0])
        np.testing.assert_allclose(spec.drift(x), ALPHA * x * (1.0 - 0.2 * x), rtol=1e-15)
        np.testing.assert_allclose(spec.vol(x), BETA * x, rtol=0.0)
        # drift turns negative above the carrying capacity 1/gamma
        assert spec.drift(6.0) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gbm(0.05, 0.0)
        with pytest.raises(ValueError):
            logistic(0.05, 0.25, -0.1)
        with pytest.raises(ValueError):
            custom_diffusion(None, None)
        with pytest.raises(ValueError, match="positive"):
            custom_diffusion(lambda x: 0.05 * x, lambda x: 0.0 * x)

    @pytest.mark.parametrize("factory, args", [
        (gbm, (math.nan, 0.25)), (gbm, (0.05, math.nan)), (gbm, (0.05, math.inf)),
        (logistic, (math.inf, 0.25, 0.2)), (logistic, (0.05, 0.25, math.nan)),
        (logistic, (0.05, 0.25, math.inf))])
    def test_rejects_non_finite_parameters(self, factory, args):
        with pytest.raises(ValueError):
            factory(*args)

    def test_densities_gbm(self):
        spec = gbm(ALPHA, BETA)
        assert float(speed_density(spec, 1.0)) == pytest.approx(32.0, rel=1e-14)
        x = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(scale_density(spec, x), x ** (-C_EXP), rtol=1e-12)
        np.testing.assert_allclose(
            speed_density(spec, x), 2.0 / (BETA ** 2 * x ** 2) * x ** C_EXP, rtol=1e-12)

    def test_custom_scale_exponent_closed_form(self):
        # log mean-reverting: 2 drift / vol^2 = (2 kappa / sigma^2)(ln 6 - v) / x
        # with v = ln x, so B(v) = (2 kappa / sigma^2)(v ln 6 - v^2 / 2)
        kappa, sigma = 0.4, 0.35
        spec = custom_diffusion(lambda x: kappa * x * (math.log(6.0) - np.log(x)),
                                lambda x: sigma * x)
        x = np.exp(np.linspace(-30.0, 30.0, 2001))
        v = np.log(x)
        want = 2.0 * kappa / sigma ** 2 * (v * math.log(6.0) - 0.5 * v * v)
        got = _b_of_x(spec, x)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert float(_b_of_x(spec, 1.0)) == 0.0
        # an interval centred on the zero of the drift has a near-zero
        # integral, which must still pass the quadrature's error check
        x = np.array([6.0 / 1.01, 6.0 * 1.01])
        v = np.log(x)
        want = 2.0 * kappa / sigma ** 2 * (v * math.log(6.0) - 0.5 * v * v)
        np.testing.assert_allclose(_b_of_x(spec, x), want, rtol=0.0, atol=1e-13)

    def test_densities_positive_domain(self):
        spec = gbm(ALPHA, BETA)
        with pytest.raises(ValueError):
            scale_density(spec, 0.0)
        with pytest.raises(ValueError):
            speed_density(spec, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("spec", [
        gbm(ALPHA, BETA), logistic(ALPHA, BETA, 0.2),
        custom_diffusion(lambda x: ALPHA * x, lambda x: BETA * x),
    ], ids=["gbm", "logistic", "custom"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_densities_reject_non_finite_states(self, spec, bad):
        for density in (scale_density, speed_density):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                density(spec, np.array([1.0, bad]))
            with pytest.raises(ValueError, match="positive and finite"):
                density(spec, bad)


# non-polynomial 2 drift / vol^2 on v = ln x
B_MODELS = {
    "mean_reverting_sqrt_vol": (lambda x: 0.5 * (2.0 - x),
                                lambda x: 0.3 * np.sqrt(x) + 0.01 * x),
    "oscillating_drift": (lambda x: 0.1 * x * np.sin(np.log(x)),
                          lambda x: 0.3 * x * (1.0 + 0.5 * np.tanh(np.log(x)))),
}


class TestScaleExponentTable:
    """B of a CUSTOM model, tabulated on half-unit panels of ln x."""

    @pytest.mark.parametrize("name", sorted(B_MODELS))
    def test_matches_quad(self, name):
        drift, vol = B_MODELS[name]
        spec = custom_diffusion(drift, vol)

        def q(v):
            x = np.exp([v])
            return float(2.0 * x[0] * drift(x)[0] / vol(x)[0] ** 2)

        def integral(a, b):
            return quad(q, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]

        # B at the half-unit steps outward from 0 by quad, then on to each state
        edge_b = {0: 0.0}
        for k in range(1, 67):
            edge_b[k] = edge_b[k - 1] + integral(0.5 * (k - 1), 0.5 * k)
            edge_b[-k] = edge_b[1 - k] - integral(-0.5 * k, 0.5 * (1 - k))
        sweep = np.linspace(0.3, 33.0, 23)
        states = np.concatenate((0.5 * np.arange(-66, 67), sweep, -sweep, [0.0]))
        v = np.log(np.exp(states))
        want = np.array([edge_b[k] + integral(0.5 * k, u)
                         for k, u in zip(np.trunc(2.0 * v).astype(int), v)])
        got = _b_of_x(spec, np.exp(v))
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12
        assert float(_b_of_x(spec, 1.0)) == 0.0

    def test_proportional_vol_at_extreme_states(self):
        # q = 2 x drift / vol^2 is formed without vol^2, which overflows
        # beyond x ~ 1e154 for a proportional volatility
        spec = custom_diffusion(lambda x: ALPHA * x, lambda x: BETA * x)
        x = np.array([1e-300, 1e160, 1e300])
        np.testing.assert_allclose(_b_of_x(spec, x), C_EXP * np.log(x), rtol=1e-12)
        assert float(scale_density(spec, 1e160)) == pytest.approx(
            float(scale_density(gbm(ALPHA, BETA), 1e160)), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_drift_in_span_raises(self, bad):
        spec = custom_diffusion(
            lambda x: np.where((x > 1e5) & (x < 1e8), bad, ALPHA * x),
            lambda x: BETA * x)
        with pytest.raises(NumericsError, match="scale exponent"):
            speed_density(spec, np.geomspace(1e-3, 1e9, 50))
        # states short of the bad span are unaffected
        np.testing.assert_allclose(speed_density(spec, np.array([0.5, 2.0, 1e4])),
                                   speed_density(gbm(ALPHA, BETA), np.array([0.5, 2.0, 1e4])),
                                   rtol=1e-12)


class TestGbmBasis:
    def test_frozen_roots(self):
        spec = gbm(ALPHA, BETA)
        for rho, (b, a) in ROOTS.items():
            basis = excessive_basis(spec, rho)
            # psi = x^b, phi = x^a with psi(1) = phi(1) = 1
            assert float(basis.psi(1.0)) == 1.0
            assert float(basis.phi(1.0)) == 1.0
            assert float(basis.psi(2.0)) == pytest.approx(2.0 ** b, rel=1e-13)
            assert float(basis.phi(2.0)) == pytest.approx(2.0 ** a, rel=1e-13)
            assert basis.wronskian == pytest.approx(b - a, rel=1e-13)

    def test_derivatives_and_wronskian_constancy(self):
        spec = gbm(ALPHA, BETA)
        basis = excessive_basis(spec, 1.1)
        b, a = ROOTS[1.1]
        x = np.geomspace(0.2, 9.0, 41)
        np.testing.assert_allclose(basis.psi_prime(x), b * x ** (b - 1), rtol=1e-12)
        np.testing.assert_allclose(basis.phi_prime(x), a * x ** (a - 1), rtol=1e-12)
        assert wronskian_check(basis, x) < 1e-11

    def test_harmonicity(self):
        spec = gbm(ALPHA, BETA)
        basis = excessive_basis(spec, 1.1)
        assert harmonicity_residual(spec, basis, np.geomspace(0.5, 8.0, 21)) < 1e-6

    def test_rejects_nonpositive_rate(self):
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                excessive_basis(gbm(ALPHA, BETA), rho)


class TestLogisticBasis:
    def test_frozen_wronskian(self):
        basis = excessive_basis(logistic(ALPHA, BETA, 0.2), 1.1)
        assert basis.wronskian == pytest.approx(LOGISTIC_W_11, rel=1e-10)

    def test_monotone_and_normalized(self):
        basis = excessive_basis(logistic(ALPHA, BETA, 0.2), 1.1)
        x = np.geomspace(0.2, 12.0, 60)
        psi, phi = basis.psi(x), basis.phi(x)
        assert np.all(np.diff(psi) > 0.0)
        assert np.all(np.diff(phi) < 0.0)
        assert np.all(phi > 0.0)
        # increasing branch vanishes at the lower boundary
        assert float(basis.psi(1e-6)) < 1e-20

    def test_wronskian_constancy(self):
        basis = excessive_basis(logistic(ALPHA, BETA, 0.2), 1.1)
        assert wronskian_check(basis, np.geomspace(0.3, 10.0, 40)) < 1e-10

    def test_harmonicity(self):
        spec = logistic(ALPHA, BETA, 0.2)
        basis = excessive_basis(spec, 1.1)
        assert harmonicity_residual(spec, basis, np.geomspace(0.5, 6.0, 21)) < 1e-6

    def test_huge_state_overflows_promptly(self):
        # M is +inf past its overflow bound without a hyp1f1 call, whose
        # run time grows linearly in its argument
        basis = excessive_basis(logistic(ALPHA, BETA, 0.2), 0.6)
        start = time.perf_counter()
        with np.errstate(over="ignore"):  # x ** b overflows too
            assert basis.psi(1e300) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_zero_crowding_reduces_to_gbm(self):
        b_log = excessive_basis(logistic(ALPHA, BETA, 0.0), 0.6)
        b_gbm = excessive_basis(gbm(ALPHA, BETA), 0.6)
        x = np.array([0.4, 1.0, 3.0, 7.0])
        np.testing.assert_allclose(b_log.psi(x), b_gbm.psi(x), rtol=1e-14)
        np.testing.assert_allclose(b_log.phi(x), b_gbm.phi(x), rtol=1e-14)
        assert b_log.wronskian == pytest.approx(b_gbm.wronskian, rel=1e-14)


@pytest.fixture(scope="module")
def pair():
    spec_c = custom_diffusion(lambda x: ALPHA * x, lambda x: BETA * x)
    return excessive_basis(spec_c, 1.1), excessive_basis(gbm(ALPHA, BETA), 1.1)


class TestCustomBasis:
    """The shooting route, cross-checked against GBM closed forms."""

    def test_values_match_closed_form(self, pair):
        got, want = pair
        x = np.geomspace(0.3, 8.0, 30)
        np.testing.assert_allclose(got.psi(x), want.psi(x), rtol=5e-6)
        np.testing.assert_allclose(got.phi(x), want.phi(x), rtol=5e-6)

    def test_derivatives_match_closed_form(self, pair):
        got, want = pair
        x = np.geomspace(0.3, 8.0, 30)
        np.testing.assert_allclose(got.psi_prime(x), want.psi_prime(x), rtol=5e-6)
        np.testing.assert_allclose(got.phi_prime(x), want.phi_prime(x), rtol=5e-6)

    def test_wronskian(self, pair):
        got, want = pair
        assert got.wronskian == pytest.approx(want.wronskian, rel=1e-7)
        assert wronskian_check(got, np.geomspace(0.5, 5.0, 20)) < 1e-8

    def test_certified_interval_recorded(self, pair):
        got, _ = pair
        assert 0.0 < got.x_lo < 1.0 < got.x_hi < math.inf

    def test_harmonicity(self):
        # mean-reverting drift not covered by either closed form
        spec = custom_diffusion(
            lambda x: 0.08 * x * (1.0 - x / 4.0) / (1.0 + 0.1 * x),
            lambda x: 0.25 * x)
        basis = excessive_basis(spec, 0.9)
        assert harmonicity_residual(spec, basis, np.geomspace(0.5, 5.0, 15)) < 1e-5

    def test_state_outside_supported_range(self, pair):
        got, _ = pair
        with pytest.raises(ConstructionError, match="supported range"):
            got.psi(1e-16)
        with pytest.raises(ConstructionError, match="supported range"):
            got.phi(1e16)

    def test_empty_states_give_an_empty_array(self, pair):
        got, _ = pair
        for u in (got.psi, got.phi, got.psi_prime, got.phi_prime):
            out = u(np.empty(0))
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_rejects_nonpositive_state(self, pair):
        got, _ = pair
        for bad in (0.0, np.nan, np.inf):
            for u in (got.psi, got.phi, got.psi_prime, got.phi_prime):
                with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                    u(np.array([1.0, bad]))


def dense_integral(sol, v: np.ndarray) -> np.ndarray:
    """integral_0^v of the LSODA dense output of s = (ln u)', for
    ascending v: 8-node Gauss-Legendre on every piece between its steps,
    exact for the output's polynomials of degree at most 12."""
    edges = np.unique(np.concatenate((v, [0.0], sol.ts[(sol.ts > v[0]) & (sol.ts < v[-1])])))
    t, w = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    parts = (sol((mid[:, None] + half[:, None] * t).ravel())[0].reshape(-1, 8) @ w) * half
    cum = np.concatenate(([0.0], np.cumsum(parts)))
    return cum[np.searchsorted(edges, v)] - cum[np.searchsorted(edges, 0.0)]


TABLE_MODELS = {
    "log_mean_reverting": (lambda x: 0.4 * x * (1.79 - np.log(x)), lambda x: 0.35 * x),
    "gbm_as_custom": (lambda x: ALPHA * x, lambda x: BETA * x),
}


class TestBasisTables:
    """psi and phi of a CUSTOM model from Chebyshev tables of s = (ln u)'
    on half-unit panels of ln x, and ln u as its antiderivative from 0."""

    @pytest.mark.parametrize("rho", [0.6, 1.1])
    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_tables_match_the_dense_solution(self, name, rho, monkeypatch):
        branches = []
        branch = _RiccatiCore._branch

        def kept(core, start, end, upward):
            branches.append(branch(core, start, end, upward))
            return branches[-1]

        monkeypatch.setattr(_RiccatiCore, "_branch", kept)
        core = _RiccatiCore(custom_diffusion(*TABLE_MODELS[name]), rho)
        v = np.linspace(-12.0, 12.0, 97)
        x = np.exp(v)
        for which, solution in zip(("psi", "phi"), branches):
            s = solution.sol(v)[0]
            u = np.exp(dense_integral(solution.sol, v))
            np.testing.assert_allclose(core.eval(x, which, False), u, rtol=1e-10)
            np.testing.assert_allclose(core.eval(x, which, True), u * s / x, rtol=1e-10)

    def test_gbm_as_custom_tables_are_linear_and_exact(self, pair):
        got, want = pair
        x = np.geomspace(1e-5, 1e5, 81)
        for which in ("psi", "phi", "psi_prime", "phi_prime"):
            np.testing.assert_allclose(getattr(got, which)(x), getattr(want, which)(x),
                                       rtol=1e-13)
        spec = custom_diffusion(lambda x: ALPHA * x, lambda x: BETA * x)
        core = _RiccatiCore(spec, 1.1)
        core.eval(x, "psi", False)
        _b_of_x(spec, x)
        # ln u and B are linear in ln x: every higher degree is chopped
        for table in (core._tables["psi"], _scale_exponent(spec)):
            assert table._table.terms.shape[0] == 2

    def test_warm_evaluation_makes_no_ode_call(self, monkeypatch):
        core = _RiccatiCore(custom_diffusion(*TABLE_MODELS["log_mean_reverting"]), 0.6)
        x = np.geomspace(0.05, 40.0, 50)
        kinds = [(which, deriv) for which in ("psi", "phi") for deriv in (False, True)]
        cold = [core.eval(x, *kind) for kind in kinds]

        def refuse(*args, **kwargs):
            raise AssertionError("dense output evaluated")

        monkeypatch.setattr(OdeSolution, "__call__", refuse)
        for kind, values in zip(kinds, cold):
            np.testing.assert_array_equal(core.eval(x[5:-5], *kind), values[5:-5])

    def test_upper_edge_reads_the_last_panel(self):
        core = _RiccatiCore(custom_diffusion(*TABLE_MODELS["log_mean_reverting"]), 1.1)
        edge = np.array([core.v_hi])
        for which in ("psi", "phi"):
            # ln u, since psi itself overflows there
            assert np.isfinite(core._tables[which](edge, slope=True)).all()
            # the increasing branch's shot ends there: nothing is sampled past it
            assert core._tables[which]._table.lefts[-1] < core.v_hi

    def test_states_past_the_span_raise_without_a_shot(self, monkeypatch):
        core = _RiccatiCore(custom_diffusion(*TABLE_MODELS["log_mean_reverting"]), 1.1)
        x = np.geomspace(0.1, 10.0, 25)
        kinds = [(which, deriv) for which in ("psi", "phi") for deriv in (False, True)]
        before = [core.eval(x, *kind) for kind in kinds]
        fields = (core.v_lo, core.v_hi, core.wronskian, core.x_lo, core.x_hi)

        def refuse(*args, **kwargs):
            raise AssertionError("shot again")

        monkeypatch.setattr(_RiccatiCore, "_shoot", refuse)
        monkeypatch.setattr(diffusions, "solve_ivp", refuse)
        for far in (math.exp(31.5), math.exp(-31.5)):
            for kind in kinds:
                with pytest.raises(ConstructionError,
                                   match=r"supported range \[9\.36e-14, 1\.07e\+13\]"):
                    core.eval(np.append(x, far), *kind)
        assert (core.v_lo, core.v_hi, core.wronskian, core.x_lo, core.x_hi) == fields
        for kind, values in zip(kinds, before):
            np.testing.assert_array_equal(core.eval(x, *kind), values)


# the demo problem: rho_idle = 0.6, rho_active = 1.1
DEMO_PARAMS = ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0, h=power(0.5))


class TestStiffShot:
    """One LSODA shot per branch, on models that are stiff at large |ln x|."""

    def test_logistic_as_custom_matches_closed_form(self):
        spec_c = custom_diffusion(lambda x: ALPHA * x * (1.0 - 0.2 * x), lambda x: BETA * x)
        spec_l = logistic(ALPHA, BETA, 0.2)
        x = np.geomspace(0.3, 12.0, 40)
        for rho in (0.6, 1.1):
            got, want = excessive_basis(spec_c, rho), excessive_basis(spec_l, rho)
            for which in ("psi", "phi"):
                u = getattr(want, which)
                np.testing.assert_allclose(getattr(got, which)(x), u(x) / u(1.0), rtol=1e-8)
        assert solve_threshold(spec_c, DEMO_PARAMS) == pytest.approx(
            solve_threshold(spec_l, DEMO_PARAMS), rel=1e-8)

    def test_log_mean_reverting_pair_drift_calls(self):
        calls = 0

        def drift(x):
            nonlocal calls
            calls += 1
            return 0.4 * x * (math.log(6.0) - np.log(x))

        spec = custom_diffusion(drift, lambda x: 0.35 * x)
        calls = 0  # the spec probes its callables once
        for rho in (DEMO_PARAMS.rho_idle, DEMO_PARAMS.rho_active):
            excessive_basis(spec, rho)
        assert calls < 50_000

    def test_solve_and_curve_shoot_each_basis_once(self, monkeypatch):
        # the panel rule evaluates the integrand at the truncation limits
        # x_lo and x_hi, which must not read as states outside the span
        shots = []
        shoot = _RiccatiCore._shoot

        def counted(core, v_lo, v_hi):
            shots.append(core._rho)
            return shoot(core, v_lo, v_hi)

        monkeypatch.setattr(_RiccatiCore, "_shoot", counted)
        spec = custom_diffusion(lambda x: 0.4 * x * (math.log(6.0) - np.log(x)),
                                lambda x: 0.35 * x)
        solution = solve(spec, DEMO_PARAMS)
        solution.value_idle(np.linspace(solution.x_star / 50.0, 2.0 * solution.x_star, 201))
        assert sorted(shots) == [DEMO_PARAMS.rho_idle, DEMO_PARAMS.rho_active]

    def test_out_of_span_call_leaves_a_solution_unchanged(self):
        spec = custom_diffusion(lambda x: 0.4 * x * (math.log(6.0) - np.log(x)),
                                lambda x: 0.35 * x)
        solution = solve(spec, DEMO_PARAMS)
        grid = np.linspace(solution.x_star / 50.0, 2.0 * solution.x_star, 201)
        before = solution.value_idle(grid)
        for rho in (DEMO_PARAMS.rho_idle, DEMO_PARAMS.rho_active):
            with pytest.raises(ConstructionError, match="supported range"):
                excessive_basis(spec, rho).phi(math.exp(31.5))
        np.testing.assert_array_equal(solution.value_idle(grid), before)

    def test_non_finite_shot_raises(self):
        # finite on the spec's probe grid, NaN in the middle of the upper span
        spec = custom_diffusion(
            lambda x: np.where((x > 1e5) & (x < 1e8), np.nan, ALPHA * x),
            lambda x: BETA * x)
        with pytest.raises(ConstructionError, match="shooting failed"):
            excessive_basis(spec, 1.1)

    def test_zero_volatility_at_shot_start_raises(self):
        # positive on the spec's probe grid, 0 below 1e-5 where the upward
        # shot starts (x = e^-32)
        spec = custom_diffusion(lambda x: 0.05 * x,
                                lambda x: np.where(x < 1e-5, 0.0, 0.25 * x))
        with pytest.raises(ConstructionError,
                           match=r"volatility squared is 0\.0 at x=1\.26642e-14"):
            excessive_basis(spec, 1.1)

    def test_custom_cache_is_bounded(self):
        for _ in range(_CUSTOM_CACHE_SIZE + 1):
            excessive_basis(custom_diffusion(lambda x: ALPHA * x, lambda x: BETA * x), 1.1)
        assert _custom_basis.cache_info().currsize == _CUSTOM_CACHE_SIZE
        # closed-form bases keep their own cache
        assert excessive_basis(gbm(ALPHA, BETA), 1.1) is excessive_basis(gbm(ALPHA, BETA), 1.1)
        assert excessive_basis.cache_info().hits >= 1
