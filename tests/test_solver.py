"""Tests for the entry-threshold solver and value assembly.

The workhorse configuration is the sqrt payoff under the alpha=0.05,
beta=0.25 linear-drift model with r=0.1, lambda=1, K=C=1. All frozen
numbers were produced by an independent 40-digit mpmath implementation
of the defining integrals, not by this package.
"""
import importlib
import math
import warnings
from dataclasses import replace
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from entrysolve import (
    Mode,
    NumericsError,
    ProblemParams,
    QuadratureError,
    Viability,
    affine,
    check_entry_viability,
    coefficients,
    custom_diffusion,
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
from entrysolve import _quad, solver
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

LOG_MR = custom_diffusion(lambda x: 0.4 * x * (math.log(6.0) - np.log(x)),
                          lambda x: 0.35 * x)

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

    @pytest.mark.parametrize("field, value", [
        ("h", lambda x: x), ("h", None), ("K", True), ("C", False), ("r", "0.1"),
        ("lam", None), ("p", 1j)])
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(PARAMS, **{field: value})

    def test_accepts_numpy_numbers(self):
        params = replace(PARAMS, r=np.float64(0.1), K=np.int64(1))
        assert params.break_even == PARAMS.break_even


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

    def test_custom_payoff_above_break_even_at_zero_raises(self):
        # kappa = C + (r + lambda) K = 2.1 < h(0+) = 5: no sign change to bracket
        params = replace(PARAMS, h=custom_payoff(lambda x: 5.0 + x))
        with pytest.raises(ValueError, match=r"kappa=2\.1 already at x=1e-13"):
            solve(SPEC, params)


def walked_root(spec, params) -> float:
    """brentq on F with every evaluation a fresh tail walk down to 0, in
    a bracket grown by 1.5x from x_C (1 + 1e-9)."""
    basis_a = excessive_basis(spec, params.rho_active)
    kappa = params.break_even

    def f(t):
        return basis_a.psi(t) * (params.h(t) - kappa) * speed_density(spec, t)

    def walked(x):
        return _quad.integrate_to_zero(
            f, x, limit=basis_a.x_lo if basis_a.x_lo > 0.0 else None)

    lo = _break_even_state(params) * (1.0 + 1e-9)
    hi = 1.5 * lo
    while walked(hi) <= 0.0:
        hi *= 1.5
    return brentq(walked, lo, hi, xtol=1e-12, rtol=1e-13)


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

    @pytest.mark.parametrize("spec, params", [
        (SPEC, PARAMS),
        (SPEC, replace(PARAMS, h=affine(0.6))),
        (SPEC, replace(PARAMS, h=saturating(4.0, 0.5))),
        (logistic(0.05, 0.25, 0.2), replace(PARAMS, p=1.0)),
        (LOG_MR, PARAMS)])
    def test_matches_brentq_on_walked_objective(self, spec, params):
        # the root of F with every evaluation a fresh walk down to 0,
        # bracketed from x_C as solve_threshold does
        want = walked_root(spec, params)
        assert solve_threshold(spec, params) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_far_root_matches_brentq_on_fine_panels(self):
        # ln(x*/x_C) is about 5.8: the root lies in the fourth marched
        # block (1, 2, 4, then 8 panels), many panels above x_C. A walk
        # down from so far up has no error test and puts the root 1.1e-12
        # low, so the reference is F(x_C) plus 400 short panel integrals
        spec, params = gbm(0.05, 1.5), replace(PARAMS, h=saturating(2.12, 0.5))
        f, limit = solver._threshold_integrand(spec, params)
        x_c = _break_even_state(params) * (1.0 + 1e-9)
        f_c = _quad.integrate_to_zero(f, x_c, limit=limit)

        def fine(x):
            edges = np.geomspace(x_c, x, 401)
            return f_c + math.fsum(_quad.fixed_panels(f, edges)) if x > x_c else f_c

        got = solve_threshold(spec, params)
        assert 5.5 < math.log(got / x_c) < 6.0
        want = brentq(fine, x_c, 1.5 ** 20 * x_c, xtol=1e-15, rtol=1e-15)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_root_on_a_panel_edge(self):
        # for h = sqrt(x), x*/x_C = (1 + 1/(2 |a|))^2 with a the negative
        # active-rate exponent; choose lam so that x* sits on the edge of
        # the march's first two panels, half a unit of ln x above x_C (1 + 1e-9)
        alpha, beta, r = 0.05, 0.5, 0.1
        a = -0.5 / (math.exp(0.25) * math.sqrt(1.0 + 1e-9) - 1.0)
        lam = 0.5 * beta ** 2 * a * (a - 1.0) + alpha * a - r
        spec, params = gbm(alpha, beta), replace(PARAMS, lam=lam)
        got = solve_threshold(spec, params)
        edge = _break_even_state(params) * (1.0 + 1e-9) * math.exp(0.5)
        assert got == pytest.approx(edge, rel=1e-12)
        assert got == pytest.approx(walked_root(spec, params), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec, params, blocks", [
        (SPEC, PARAMS, 1),
        (gbm(0.05, 1.5), replace(PARAMS, h=saturating(2.12, 0.5)), 4)])
    def test_root_find_makes_one_walk_and_one_fit_per_block(self, spec, params, blocks,
                                                             monkeypatch):
        # F(x_C) is one tail walk; the march fits each block in one call
        # and calls the integrand no more: no slope or Newton evaluation
        calls = {"walk": 0, "fit": 0}
        walk, fit = _quad._walk, _quad._fit

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(_quad, "_walk", counted("walk", walk))
        monkeypatch.setattr(_quad, "_fit", counted("fit", fit))
        solve_threshold(spec, params)
        assert calls == {"walk": 1, "fit": blocks}

    @pytest.mark.parametrize("spec", [SPEC, logistic(0.05, 0.25, 0.2), LOG_MR])
    def test_solve_walks_one_tail_for_the_root(self, spec, monkeypatch):
        # one walk down from x_C for F and the three coefficient
        # projections; reading the diagnostics adds one idle-rate sweep
        walks = []
        walk = _quad._walk

        def counted(*args, **kwargs):
            walks.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(_quad, "_walk", counted)
        solution = solve(spec, PARAMS)
        assert len(walks) == 4
        solution.diagnostics
        assert len(walks) == 6

    @pytest.mark.parametrize("above", [6.0, 13.0])
    def test_failed_panel_raises_below_the_root_only(self, monkeypatch, above):
        # f = t - x_C with x_C = 4.41: F(x) = x^2 / 2 - 4.41 x, root 8.82. A
        # NaN above 6 fails the first panel, named by its failing quarter;
        # one above 13 fails a panel past the root's, in the same block
        monkeypatch.setattr(solver, "_threshold_integrand", lambda spec, params: (
            lambda t: np.where(t > above, np.nan, t - 4.41), None))
        if above < 8.82:
            with pytest.raises(QuadratureError, match=r"panel integral on \[5\.66\d*, 6\.41\d*\] failed"):
                solve_threshold(SPEC, PARAMS)
        else:
            assert solve_threshold(SPEC, PARAMS) == pytest.approx(8.82, rel=1e-12)

    def test_bracket_expansion_failure_raises(self, monkeypatch):
        # an integrand negative everywhere: F stays negative past the reach
        monkeypatch.setattr(solver, "_threshold_integrand",
                            lambda spec, params: (lambda t: -np.ones_like(t), None))
        with pytest.raises(NumericsError, match="bracket expansion failed"):
            solve_threshold(SPEC, PARAMS)

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
        # three coefficient projections, then, when the diagnostics are
        # read, one idle-rate sweep (one walk per end) for all of them
        walks = []
        walk = _quad._walk

        def counted(*args, **kwargs):
            walks.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(_quad, "_walk", counted)
        basis_i = excessive_basis(SPEC, PARAMS.rho_idle)
        basis_a = excessive_basis(SPEC, PARAMS.rho_active)
        assembled = _assemble(SPEC, PARAMS, sol.x_star, basis_i, basis_a, lambda: 0.0)
        assert len(walks) == 3
        assembled.diagnostics
        assert len(walks) == 5

    @pytest.mark.parametrize("spec", [SPEC, logistic(0.05, 0.25, 0.2), LOG_MR])
    def test_idle_rate_sweep_waits_for_a_read(self, spec, monkeypatch):
        grids = []
        sweep = solver.resolvent_on_grid

        def counted(basis, *args):
            grids.append(basis.rho)
            return sweep(basis, *args)

        monkeypatch.setattr(solver, "resolvent_on_grid", counted)
        solution = solve(spec, PARAMS)
        assert grids == []
        solution.diagnostics
        assert grids == [PARAMS.rho_idle]

    def test_second_read_is_the_same_object(self):
        solution = solve(SPEC, PARAMS)
        first = solution.diagnostics
        assert solution.diagnostics is first

    def test_root_residual_from_the_root_find(self, sol):
        # |F(x_C) + integral_x_C^x* f|: the same walk down from x_C and a
        # fresh panel integral up to x*
        f, limit = solver._threshold_integrand(SPEC, PARAMS)
        x_c = _break_even_state(PARAMS) * (1.0 + 1e-9)
        want = abs(_quad.integrate_to_zero(f, x_c, limit=limit)
                   + float(_quad.fixed_panels(f, (x_c, sol.x_star))[0]))
        assert sol.diagnostics.root_residual == want


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


COLUMNS = ("value_idle", "value_active", "branch_lower", "branch_upper")


def count_sweeps(monkeypatch) -> list:
    """A list that grows by one per resolvent._grid_integrals call."""
    module = importlib.import_module("entrysolve.resolvent")
    calls, sweep = [], module._grid_integrals

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(module, "_grid_integrals", counted)
    return calls


def curve_grid(x_star):
    return np.union1d(np.linspace(x_star / 50.0, 2.0 * x_star, 201), x_star)


class TestTable:
    def test_one_sweep_per_rate(self, sol, monkeypatch):
        calls = count_sweeps(monkeypatch)
        table = sol.table(curve_grid(sol.x_star))
        assert len(calls) == 2
        assert tuple(table) == COLUMNS

    def test_never_enter_sweeps_once(self, ne, monkeypatch):
        calls = count_sweeps(monkeypatch)
        table = ne.table(np.geomspace(0.5, 20.0, 30))
        assert len(calls) == 1
        assert tuple(table) == COLUMNS

    @pytest.mark.parametrize("spec", [SPEC, logistic(0.05, 0.25, 0.2), LOG_MR],
                             ids=["gbm", "logistic", "custom"])
    def test_matches_the_column_callables(self, spec):
        # table sweeps R_i h over the whole grid, value_idle and
        # value_active over the states above x* only: the panel fits
        # differ, so the columns agree to rounding, not bit for bit
        solution = solve(spec, PARAMS)
        grid = curve_grid(solution.x_star)
        table = solution.table(grid)
        for name in COLUMNS:
            want = getattr(solution, name)(grid)
            assert np.max(np.abs(table[name] - want)) <= 1e-13 * np.max(np.abs(want)), name
        np.testing.assert_array_equal(table["branch_lower"], solution.branch_lower(grid))


class TestColumnSweeps:
    # each callable sweeps only the states its own column needs
    @pytest.mark.parametrize("name, side, sweeps", [
        ("branch_lower", "all", 0), ("value_idle", "below", 0),
        ("value_idle", "above", 1), ("branch_upper", "all", 1),
        ("value_active", "below", 1), ("value_active", "above", 1),
        ("value_active", "all", 2)])
    def test_threshold(self, sol, monkeypatch, name, side, sweeps):
        grid = curve_grid(sol.x_star)
        xs = {"below": grid[grid < sol.x_star], "above": grid[grid >= sol.x_star],
              "all": grid}[side]
        calls = count_sweeps(monkeypatch)
        getattr(sol, name)(xs)
        assert len(calls) == sweeps

    @pytest.mark.parametrize("name, sweeps", [
        ("value_idle", 0), ("value_active", 1), ("branch_lower", 0), ("branch_upper", 0)])
    def test_never_enter(self, ne, monkeypatch, name, sweeps):
        calls = count_sweeps(monkeypatch)
        getattr(ne, name)(np.geomspace(0.5, 20.0, 30))
        assert len(calls) == sweeps


@pytest.fixture(scope="module")
def custom_sol():
    return solve(LOG_MR, PARAMS)


class TestInputShapes:
    # a custom basis rejects empty arrays, so no column may evaluate one
    @pytest.fixture(params=["threshold", "never_enter", "custom"])
    def solution(self, request, sol, ne, custom_sol):
        return {"threshold": sol, "never_enter": ne, "custom": custom_sol}[request.param]

    @staticmethod
    def columns(solution, name, x) -> dict:
        out = getattr(solution, name)(x)
        return out if name == "table" else {name: out}

    @pytest.mark.parametrize("name", COLUMNS + ("table",))
    def test_empty_array(self, solution, name):
        for col in self.columns(solution, name, np.array([])).values():
            assert isinstance(col, np.ndarray) and col.shape == (0,)

    @pytest.mark.parametrize("name", COLUMNS + ("table",))
    def test_two_dimensional_array_keeps_its_shape(self, solution, name):
        x_star = solution.x_star or 4.0
        xs = np.array([[2.0, x_star, 8.0], [3.0, 2.0, 1.5 * x_star]])
        flat = self.columns(solution, name, xs.ravel())
        for key, col in self.columns(solution, name, xs).items():
            assert col.shape == (2, 3)
            np.testing.assert_array_equal(col, flat[key].reshape(2, 3))

    @pytest.mark.parametrize("name", COLUMNS + ("table",))
    def test_scalar_gives_a_float(self, solution, name):
        for col in self.columns(solution, name, 2.0).values():
            assert type(col) is float

    @pytest.mark.parametrize("name", COLUMNS + ("table",))
    def test_non_positive_state_raises(self, solution, name):
        for x in (0.0, -1.0, math.nan, np.array([1.0, -3.0])):
            with pytest.raises(ValueError, match="positive and finite"):
                getattr(solution, name)(x)


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

    def test_huge_logistic_state_raises_promptly(self):
        solution = solve(logistic(ALPHA, BETA, 0.2), PARAMS)
        with pytest.raises(QuadratureError, match="not finite"):
            solution.value_idle(1e300)

    @pytest.mark.parametrize("spec", [gbm(ALPHA, BETA), logistic(ALPHA, BETA, 0.2)],
                             ids=["gbm", "logistic"])
    def test_overflowing_lower_branch_raises(self, spec):
        # psi(1e300) overflows to inf; the lower branch, which value_idle
        # and value_active share below x*, names the state instead
        solution = solve(spec, PARAMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (1e300, np.array([1.0, 1e300])):
                with pytest.raises(NumericsError, match=r"not finite at x=1e\+300"):
                    solution.branch_lower(x)

    def test_overflowing_tail_raises(self):
        # well posed (rho_idle = 0.1 > alpha), but the speed density
        # x^3.04 overflows before the upward tail walk for c_i1 settles;
        # the error names it, and numpy warns of nothing on the way
        params = replace(PARAMS, p=1.0, h=power(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError, match="not finite"):
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
                        lambda: sol.diagnostics.root_residual)
        xs = np.array([1.0, 3.0, sol.x_star, 6.0, 10.0])
        np.testing.assert_allclose(alt.value_idle(xs), sol.value_idle(xs), rtol=1e-9)
        np.testing.assert_allclose(alt.value_active(xs), sol.value_active(xs), rtol=1e-9)
        # coefficients themselves are normalization-dependent
        assert alt.c_i1 == pytest.approx(sol.c_i1 / 3.0, rel=1e-9)
