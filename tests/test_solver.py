"""Tests for the entry-threshold solver and value assembly.

The workhorse configuration is the sqrt payoff under the alpha=0.05,
beta=0.25 linear-drift model with r=0.1, lambda=1, K=C=1. All frozen
numbers were produced by an independent 40-digit mpmath implementation
of the defining integrals, not by this package.
"""
import math
from dataclasses import replace
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from entrysolve import (
    Mode,
    NumericsError,
    ProblemParams,
    QuadratureError,
    Viability,
    affine,
    check_entry_viability,
    coefficients,
    custom_payoff,
    excessive_basis,
    gbm,
    logistic,
    p_independence_audit,
    power,
    resolvent,
    saturating,
    solve,
    solve_threshold,
    speed_density,
)
from entrysolve import _quad
from entrysolve.solver import _assemble, _break_even_state, _threshold_objective
from entrysolve.diffusions import ExcessiveBasis

ALPHA, BETA = 0.05, 0.25
SPEC = gbm(ALPHA, BETA)
PARAMS = ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0, h=power(0.5))

# frozen references for the configuration above (p = 0.5)
X_STAR = 5.144979408677142838
C_I1 = 5.288591565255439693462e-4
D_I2 = 84.81491851859411717284
C_A1 = -1.803852516349583053815e-5
G_IDLE = {2.0: 0.0090191640214976534064,
          3.0: 0.047395646625595100783,
          4.0: 0.1538128226446784302,
          8.0: 1.3579759635797239375}
G_IDLE_STAR = 0.43087281900192150508
G_ACTIVE = {2.0: 0.40508421545796874307, 8.0: 2.3579759635797239375}

# roots of (beta^2/2) t (t-1) + alpha t = rho (same frozen set as the
# basis tests); the threshold closed form needs the active-rate pair
B_ACT, A_ACT = 5.640538696111658, -6.240538696111658
B_IDLE, W_IDLE = 4.092038251199550, 8.784076502399100


@pytest.fixture(scope="module")
def sol():
    return solve(SPEC, PARAMS)


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("r", math.nan), ("r", math.inf), ("lam", math.nan), ("K", math.nan),
        ("K", math.inf), ("C", math.nan), ("C", math.inf), ("p", math.nan)])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            replace(PARAMS, **{field: value})


class TestViability:
    def test_bounded_payoff_below_break_even(self):
        params = replace(PARAMS, h=saturating(2.0, 0.4))
        assert check_entry_viability(params) is Viability.NEVER_ENTER

    def test_boundary_case_is_never_enter(self):
        # cap equal to kappa: the strict inequality h > kappa is never
        # reached, so entry stays worthless
        params = replace(PARAMS, h=saturating(2.1, 0.4))
        assert params.break_even == 2.1
        assert check_entry_viability(params) is Viability.NEVER_ENTER

    def test_bounded_payoff_above_break_even(self):
        params = replace(PARAMS, h=saturating(2.3, 0.4))
        assert check_entry_viability(params) is Viability.VIABLE

    def test_unbounded_payoff_always_viable(self):
        assert check_entry_viability(PARAMS) is Viability.VIABLE

    def test_zero_slope_affine_never_enters(self):
        params = replace(PARAMS, h=affine(0.0))
        assert check_entry_viability(params) is Viability.NEVER_ENTER


class TestBreakEvenState:
    def test_power(self):
        assert _break_even_state(PARAMS) == pytest.approx(2.1 ** 2, rel=1e-12)

    def test_affine(self):
        params = replace(PARAMS, h=affine(2.0))
        assert _break_even_state(params) == pytest.approx(1.05, rel=1e-12)

    def test_saturating(self):
        params = replace(PARAMS, h=saturating(4.0, 0.3))
        want = -math.log1p(-2.1 / 4.0) / 0.3
        assert _break_even_state(params) == pytest.approx(want, rel=1e-10)

    def test_saturating_below_cap_raises(self):
        params = replace(PARAMS, h=saturating(2.0, 0.3))
        with pytest.raises(NumericsError, match="break-even"):
            _break_even_state(params)

    def test_custom_payoff_bisection(self):
        params = replace(PARAMS, h=custom_payoff(lambda x: np.sqrt(x)))
        assert _break_even_state(params) == pytest.approx(2.1 ** 2, rel=1e-10)


class TestThreshold:
    def test_frozen_value(self, sol):
        assert sol.x_star == pytest.approx(X_STAR, rel=1e-12)

    def test_closed_form(self, sol):
        # for h = sqrt(x) the objective integrates in closed form and
        # the root is (kappa (1/2 - a) / (-a))^2 with a the negative
        # active-rate exponent
        want = (2.1 * (0.5 - A_ACT) / (-A_ACT)) ** 2
        assert sol.x_star == pytest.approx(want, rel=1e-10)

    def test_affine_closed_form(self):
        # for h = x the same integral gives x* = kappa (b+c) / (b+c-1)
        # with c the scale-density exponent 2 alpha / beta^2
        c = 2.0 * ALPHA / BETA ** 2
        params = replace(PARAMS, h=affine(1.0))
        want = 2.1 * (B_ACT + c) / (B_ACT + c - 1.0)
        assert solve_threshold(SPEC, params) == pytest.approx(want, rel=1e-10)

    def test_objective_shape(self, sol):
        # F falls on (0, x_C), rises beyond, crosses zero at x*;
        # x_C = kappa^2 = 4.41 for the sqrt payoff
        F = _threshold_objective(SPEC, PARAMS)
        assert F(4.42) < F(3.0) < F(1.0) < 0.0
        assert F(4.42) < F(5.0) < 0.0 < F(6.0)
        assert abs(F(sol.x_star)) < 1e-8

    def test_p_independence(self):
        spread = p_independence_audit(SPEC, PARAMS, (0.2, 0.4, 0.6, 0.8, 1.0))
        assert spread < 1e-6

    def test_p_audit_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            p_independence_audit(SPEC, PARAMS, ())
        with pytest.raises(ValueError):
            p_independence_audit(SPEC, PARAMS, (0.0, 0.5))
        with pytest.raises(ValueError):
            p_independence_audit(SPEC, PARAMS, (0.5, 1.5))


class TestCoefficients:
    def test_frozen_values(self, sol):
        assert sol.c_i1 == pytest.approx(C_I1, rel=1e-10)
        assert sol.d_i2 == pytest.approx(D_I2, rel=1e-10)
        assert sol.c_a1 == pytest.approx(C_A1, rel=1e-10)

    def test_standalone_entry_point(self, sol):
        c_i1, d_i2, c_a1 = coefficients(SPEC, PARAMS, sol.x_star)
        assert (c_i1, d_i2, c_a1) == (sol.c_i1, sol.d_i2, sol.c_a1)

    @pytest.mark.parametrize("h, theta, slope", [
        (power(0.5), mp.mpf("0.5"), mp.mpf(1)), (affine(0.6), mp.mpf(1), mp.mpf("0.6"))])
    def test_c_a1_closed_form_at_p_one(self, h, theta, slope):
        # with psi_a = x^b, phi_a = x^a, W_a = b - a and
        # m' = (2 / beta^2) x^(c-2), c_a1 = -W_a^-1 int_x*^inf phi_a (h - kappa) m'
        # integrates in closed form; x* is the closed-form root of F
        with mp.workdps(40):
            beta, c, kappa = mp.mpf("0.25"), 2 * mp.mpf("0.05") / mp.mpf("0.25") ** 2, 2.1
            disc = mp.sqrt((c - 1) ** 2 + 8 * mp.mpf("1.1") / beta ** 2)
            b, a = (1 - c + disc) / 2, (1 - c - disc) / 2
            x_star = (kappa * (theta - a) / (slope * -a)) ** (1 / theta)
            s0 = a + c - 1
            s1 = s0 + theta
            want = -(2 / beta ** 2) / (b - a) * (kappa * x_star ** s0 / s0
                                                 - slope * x_star ** s1 / s1)
        got = solve(SPEC, replace(PARAMS, p=1.0, h=h)).c_a1
        assert abs(got - float(want)) <= 1e-13 * abs(float(want))

    @pytest.mark.parametrize("spec", [SPEC, logistic(0.05, 0.25, 0.2)])
    def test_threshold_and_c_a1_do_not_depend_on_p(self, spec):
        # both involve only the active rate r + lambda
        sols = [solve(spec, replace(PARAMS, p=p)) for p in (0.0, 0.3, 1.0)]
        assert len({s.x_star for s in sols}) == 1
        assert len({s.c_a1 for s in sols}) == 1


class TestIdleValue:
    def test_frozen_spots(self, sol):
        for x, want in G_IDLE.items():
            assert float(sol.value_idle(x)) == pytest.approx(want, rel=1e-10), x
        assert float(sol.value_idle(sol.x_star)) == pytest.approx(G_IDLE_STAR, rel=1e-10)

    def test_closed_form_below_threshold(self, sol):
        # below x* the value is c_i1 psi at the idle rate, which for
        # this model collapses to an explicit power expression
        xs = np.linspace(0.5, sol.x_star * 0.999, 25)
        pref = 2.0 / (BETA ** 2 * W_IDLE)
        want = (pref * (xs / sol.x_star) ** B_IDLE
                * (math.sqrt(sol.x_star) / (B_IDLE - 0.5) - 2.1 / B_IDLE))
        np.testing.assert_allclose(sol.value_idle(xs), want, rtol=1e-9)

    def test_vanishes_at_origin(self, sol):
        assert float(sol.value_idle(1e-8)) < 1e-30

    def test_monotone(self, sol):
        xs = np.geomspace(0.2, 12.0, 80)
        assert np.all(np.diff(sol.value_idle(xs)) > 0.0)

    def test_scalar_array_consistency(self, sol):
        # array evaluation shares one quadrature sweep across the grid,
        # so it matches per-point calls only to accumulation precision
        xs = np.array([2.0, 6.0, 3.0, sol.x_star])  # unsorted, straddles x*
        vals = sol.value_idle(xs)
        for k, x in enumerate(xs):
            assert vals[k] == pytest.approx(float(sol.value_idle(float(x))), rel=1e-12)

    def test_rejects_nonpositive_state(self, sol):
        with pytest.raises(ValueError):
            sol.value_idle(0.0)
        with pytest.raises(ValueError):
            sol.value_idle(np.array([1.0, -3.0]))
        with pytest.raises(ValueError):
            sol.value_idle(math.nan)
        with pytest.raises(ValueError):
            sol.value_active(np.array([1.0, math.inf]))

    def test_smooth_pasting_by_finite_differences(self, sol):
        eps = sol.x_star * 1e-6
        v = float(sol.value_idle(sol.x_star))
        up = (float(sol.value_idle(sol.x_star + eps)) - v) / eps
        dn = (v - float(sol.value_idle(sol.x_star - eps))) / eps
        assert up == pytest.approx(dn, rel=1e-5)


class TestActiveValue:
    def test_frozen_spots(self, sol):
        for x, want in G_ACTIVE.items():
            assert float(sol.value_active(x)) == pytest.approx(want, rel=1e-10), x
        assert float(sol.value_active(sol.x_star)) == pytest.approx(
            G_IDLE_STAR + 1.0, rel=1e-10)

    def test_exceeds_idle_by_entry_cost_above_threshold(self, sol):
        for x in (6.0, 8.0, 12.0):
            gap = float(sol.value_active(x)) - float(sol.value_idle(x))
            assert gap == pytest.approx(PARAMS.K, rel=1e-12)

    def test_continuously_differentiable_at_threshold(self, sol):
        eps = sol.x_star * 1e-6
        v = float(sol.value_active(sol.x_star))
        up = (float(sol.value_active(sol.x_star + eps)) - v) / eps
        dn = (v - float(sol.value_active(sol.x_star - eps))) / eps
        assert up == pytest.approx(dn, rel=1e-4)

    def test_bellman_consistency(self, sol):
        # the active value must price its own exit option:
        # G_a = R_a h - C/rho_a + lambda p R_a G_i, with G_i fed back
        # through the resolvent as a payoff
        basis_a = excessive_basis(SPEC, PARAMS.rho_active)
        m_prime = partial(speed_density, SPEC)
        g_i = custom_payoff(lambda xs: np.asarray(sol.value_idle(xs), dtype=float))
        for x in (2.0, 4.5):
            rhs = (resolvent(basis_a, m_prime, PARAMS.h, x)
                   - PARAMS.C / PARAMS.rho_active
                   + PARAMS.lam * PARAMS.p * resolvent(basis_a, m_prime, g_i, x))
            assert float(sol.value_active(x)) == pytest.approx(rhs, rel=1e-6)


class TestBranches:
    def test_match_idle_value_on_their_sides(self, sol):
        below = np.linspace(0.5, sol.x_star - 0.2, 9)
        above = np.linspace(sol.x_star + 0.2, 11.0, 9)
        np.testing.assert_array_equal(sol.branch_lower(below), sol.value_idle(below))
        np.testing.assert_array_equal(sol.branch_upper(above), sol.value_idle(above))

    def test_tangential_crossing(self, sol):
        d = lambda x: float(sol.branch_upper(x)) - float(sol.branch_lower(x))
        assert abs(d(sol.x_star)) < 1e-9
        # tangency from below: the gap is negative on both sides and
        # shrinks quadratically toward x*
        assert d(sol.x_star - 0.5) < -1e-4
        assert d(sol.x_star + 0.5) < -1e-4
        assert abs(d(sol.x_star - 1e-4)) < 1e-7
        assert abs(d(sol.x_star + 1e-4)) < 1e-7


class TestDiagnostics:
    def test_healthy_solution(self, sol):
        d = sol.diagnostics
        assert d.pasting_gap_value < 1e-9
        assert d.pasting_gap_slope < 1e-9
        assert d.root_residual < 1e-8
        assert d.growth_margin > 0.0

    def test_assemble_walks_each_boundary_integral_once(self, sol, monkeypatch):
        # three coefficient projections, then one idle-rate sweep
        # (one walk per end) for every diagnostic
        walks = []
        walk = _quad._walk

        def counted(*args, **kwargs):
            walks.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(_quad, "_walk", counted)
        basis_i = excessive_basis(SPEC, PARAMS.rho_idle)
        basis_a = excessive_basis(SPEC, PARAMS.rho_active)
        _assemble(SPEC, PARAMS, sol.x_star, basis_i, basis_a,
                  sol.diagnostics.root_residual)
        assert len(walks) == 5


@pytest.fixture(scope="module")
def ne():
    return solve(SPEC, replace(PARAMS, h=saturating(2.0, 0.4)))


class TestNeverEnterSolution:
    def test_mode_and_fields(self, ne):
        assert ne.mode is Mode.NEVER_ENTER
        assert ne.x_star is None
        assert math.isnan(ne.c_i1) and math.isnan(ne.d_i2) and math.isnan(ne.c_a1)
        assert math.isnan(ne.diagnostics.root_residual)

    def test_idle_value_identically_zero(self, ne):
        assert float(ne.value_idle(3.0)) == 0.0
        np.testing.assert_array_equal(ne.value_idle(np.array([0.5, 7.0])), [0.0, 0.0])
        with pytest.raises(ValueError):
            ne.value_idle(math.nan)

    def test_active_value_is_single_shot(self, ne):
        basis_a = excessive_basis(SPEC, PARAMS.rho_active)
        m_prime = partial(speed_density, SPEC)
        for x in (1.0, 4.0):
            want = resolvent(basis_a, m_prime, ne.params.h, x) - 1.0 / 1.1
            assert float(ne.value_active(x)) == pytest.approx(want, rel=1e-12)
        # flow is bounded by the cap, so the value is bounded too
        assert float(ne.value_active(50.0)) < 2.0 / 1.1

    def test_branches_are_nan(self, ne):
        assert math.isnan(float(ne.branch_lower(2.0)))
        assert np.all(np.isnan(ne.branch_upper(np.array([1.0, 6.0]))))


class TestEdgeProbabilities:
    def test_p_one_threshold_unchanged(self, sol):
        p1 = solve(SPEC, replace(PARAMS, p=1.0))
        assert p1.x_star == pytest.approx(sol.x_star, rel=1e-9)
        gap = float(p1.value_active(8.0)) - float(p1.value_idle(8.0))
        assert gap == pytest.approx(1.0, rel=1e-12)

    def test_p_zero_collapses_to_single_shot(self):
        # certain catastrophe at exit: continuation after re-entry is
        # worthless, the active value is the one-shot resolvent and the
        # upper idle branch loses its phi component
        p0 = solve(SPEC, replace(PARAMS, p=0.0))
        assert abs(p0.d_i2) < 1e-8
        assert p0.c_a1 == pytest.approx(-p0.c_i1, rel=1e-9)
        basis_a = excessive_basis(SPEC, 1.1)
        m_prime = partial(speed_density, SPEC)
        for x in (2.0, 7.0):
            want = resolvent(basis_a, m_prime, PARAMS.h, x) - 1.0 / 1.1
            assert float(p0.value_active(x)) == pytest.approx(want, rel=1e-10)

    def test_overflowing_tail_raises(self):
        # well posed (rho_idle = 0.1 > alpha), but the speed density
        # x^3.04 overflows before the upward tail walk for c_i1 settles
        params = replace(PARAMS, p=1.0, h=power(1.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(QuadratureError, match="not finite"):
            solve(gbm(0.095, BETA), params)


class TestNormalizationInvariance:
    def test_rescaled_bases_leave_values_unchanged(self, sol):
        def rescale(basis, s_psi, s_phi):
            return ExcessiveBasis(
                rho=basis.rho,
                psi=lambda x, b=basis, s=s_psi: s * b.psi(x),
                phi=lambda x, b=basis, s=s_phi: s * b.phi(x),
                psi_prime=lambda x, b=basis, s=s_psi: s * b.psi_prime(x),
                phi_prime=lambda x, b=basis, s=s_phi: s * b.phi_prime(x),
                wronskian=s_psi * s_phi * basis.wronskian,
                scale=basis.scale, x_lo=basis.x_lo, x_hi=basis.x_hi)

        basis_i = rescale(excessive_basis(SPEC, PARAMS.rho_idle), 3.0, 0.25)
        basis_a = rescale(excessive_basis(SPEC, PARAMS.rho_active), 7.0, 1.0)
        alt = _assemble(SPEC, PARAMS, sol.x_star, basis_i, basis_a,
                        sol.diagnostics.root_residual)
        xs = np.array([1.0, 3.0, sol.x_star, 6.0, 10.0])
        np.testing.assert_allclose(alt.value_idle(xs), sol.value_idle(xs), rtol=1e-9)
        np.testing.assert_allclose(alt.value_active(xs), sol.value_active(xs), rtol=1e-9)
        # coefficients themselves are normalization-dependent
        assert alt.c_i1 == pytest.approx(sol.c_i1 / 3.0, rel=1e-9)
