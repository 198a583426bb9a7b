"""Free-boundary solver for sequential entry under forced exits.

An idle investor may pay K to activate a project that earns flow
h(X) - C until an independent Poisson(lambda) event forces an exit.
Each exit is catastrophic with probability 1-p, ending the game;
otherwise the investor returns to the idle state and may re-enter.

With rho_idle = r + (1-p) lambda and rho_active = r + lambda, the
optimal idle policy is a threshold rule: enter when X >= x*, where x*
is the unique root above the static break-even point x_C of

    F(x) = integral_0^x psi_a(z) (h(z) - kappa) m'(z) dz,
    kappa = C + (r + lambda) K,

with (psi_i, phi_i) and (psi_a, phi_a) the eigenfunction pairs at the
idle and active rates and W_i, W_a their wronskians. F does not involve
p, so the threshold is the same for every success probability.

The three coefficients are projections of the net flow h - kappa on
the eigenfunctions on either side of x*, one tail integral each:

    c_i1 =  W_i^-1 integral_x*^inf phi_i (h - kappa) m',
    d_i2 = -W_i^-1 integral_0^x*   psi_i (h - kappa) m',
    c_a1 = -W_a^-1 integral_x*^inf phi_a (h - kappa) m'.

c_i1 psi_i - d_i2 phi_i is R_i(h - kappa) at x*, so continuity of the
active value at x* leaves c_a1 = -R_a(h - kappa)(x*) / psi_a(x*), whose
part below x* is F(x*) = 0. So c_a1 involves only the active rate and,
like x*, is the same for every p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from ._quad import integrate_to_inf, integrate_to_zero
from .diffusions import DiffusionSpec, ExcessiveBasis, excessive_basis, speed_density
from .errors import NumericsError
from .payoffs import Payoff, PayoffKind, limit_at_infinity
from .resolvent import _integrand, _limits, resolvent_on_grid
# unused; perfbench/tracing.py patches these names
from .resolvent import resolvent, resolvent_prime  # noqa: F401


class Mode(Enum):
    THRESHOLD = "threshold"
    NEVER_ENTER = "never_enter"


class Viability(Enum):
    VIABLE = "viable"
    NEVER_ENTER = "never_enter"


@dataclass(frozen=True)
class ProblemParams:
    """Economic parameters of the entry problem.

    Attributes:
        r: discount rate, > 0.
        lam: Poisson exit intensity, > 0.
        p: per-exit survival (non-catastrophe) probability, in [0, 1].
        K: lump entry cost, >= 0.
        C: running cost while active, >= 0.
        h: revenue flow payoff.
    """

    r: float
    lam: float
    p: float
    K: float
    C: float
    h: Payoff

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"discount rate r must be positive and finite, got {self.r}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"exit intensity lam must be positive and finite, got {self.lam}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability p must lie in [0, 1], got {self.p}")
        if not (0.0 <= self.K < math.inf and 0.0 <= self.C < math.inf):
            raise ValueError(f"costs must be finite and non-negative, got K={self.K}, C={self.C}")
        if self.K + self.C <= 0.0:
            raise ValueError("at least one of K, C must be strictly positive")

    @property
    def rho_idle(self) -> float:
        return self.r + (1.0 - self.p) * self.lam

    @property
    def rho_active(self) -> float:
        return self.r + self.lam

    @property
    def break_even(self) -> float:
        """kappa = C + (r + lambda) K, the flow level that just covers
        running cost plus annuitized entry cost."""
        return self.C + self.rho_active * self.K


@dataclass(frozen=True)
class Diagnostics:
    """Numerical health indicators of a solved problem.

    pasting_gap_value / pasting_gap_slope: relative mismatch of the two
    idle-value branches and their slopes at x*. growth_margin: minimum
    over a check grid of (R_{rho_idle} h - V_idle) / R_{rho_idle} h;
    non-negative when the growth condition holds. root_residual: |F(x*)|.
    """

    pasting_gap_value: float
    pasting_gap_slope: float
    growth_margin: float
    root_residual: float


@dataclass(frozen=True)
class Solution:
    """Solved entry problem with evaluable value functions.

    branch_lower and branch_upper are the two idle-value branches
    extended to the whole state space (c_i1 psi everywhere, resp.
    the resolvent branch everywhere); they cross tangentially at x*
    and are what threshold plots draw. Both return nan in NEVER_ENTER
    mode.
    """

    mode: Mode
    x_star: Optional[float]
    c_i1: float
    d_i2: float
    c_a1: float
    value_idle: Callable[[np.ndarray], np.ndarray]
    value_active: Callable[[np.ndarray], np.ndarray]
    branch_lower: Callable[[np.ndarray], np.ndarray]
    branch_upper: Callable[[np.ndarray], np.ndarray]
    diagnostics: Diagnostics
    spec: DiffusionSpec
    params: ProblemParams


def check_entry_viability(params: ProblemParams) -> Viability:
    """NEVER_ENTER iff the payoff cannot beat kappa even at infinity
    (boundary case included); entering is then never worthwhile."""
    if limit_at_infinity(params.h) <= params.break_even:
        return Viability.NEVER_ENTER
    return Viability.VIABLE


def _break_even_state(params: ProblemParams) -> float:
    """Smallest x with h(x) > kappa (h is continuous non-decreasing)."""
    kappa = params.break_even
    h = params.h
    if h.kind is PayoffKind.POWER:
        return kappa ** (1.0 / h.params[0])
    if h.kind is PayoffKind.AFFINE:
        if h.params[0] <= 0.0:
            raise NumericsError("flat payoff never reaches break-even")
        return kappa / h.params[0]
    if h.kind is PayoffKind.SATURATING:
        cap, scale = h.params
        if kappa >= cap:
            raise NumericsError(
                f"payoff cap {cap:g} never exceeds break-even flow {kappa:g}")
        return -math.log1p(-kappa / cap) / scale
    lo, hi = 1e-13, 1e-13
    for k in range(0, 26):
        hi = 10.0 ** (k - 12)
        if float(h(np.asarray([hi]))[0]) > kappa:
            break
        lo = hi
    else:
        raise NumericsError("break-even state not found below 1e13")
    return brentq(lambda x: float(h(np.asarray([x]))[0]) - kappa, lo, hi,
                  xtol=1e-14, rtol=1e-13)


def _net_flow(params: ProblemParams) -> Callable[[np.ndarray], np.ndarray]:
    """t -> h(t) - kappa, the flow net of the break-even level."""
    kappa = params.break_even
    return lambda t: params.h(t) - kappa


def _threshold_objective(spec: DiffusionSpec, params: ProblemParams) -> Callable[[float], float]:
    basis_a = excessive_basis(spec, params.rho_active)
    m_prime = partial(speed_density, spec)
    lo_lim, _ = _limits(basis_a)
    f = _integrand(basis_a.psi, _net_flow(params), m_prime)

    def objective(x: float) -> float:
        return integrate_to_zero(f, x, limit=lo_lim)

    return objective


def solve_threshold(spec: DiffusionSpec, params: ProblemParams) -> float:
    """Unique root x* > x_C of F; raises NumericsError if the bracket
    cannot be expanded to a sign change."""
    objective = _threshold_objective(spec, params)
    x_c = _break_even_state(params)
    lo = x_c * (1.0 + 1e-9)
    f_lo = objective(lo)
    if not f_lo < 0.0:
        raise NumericsError(
            f"threshold objective not negative at break-even state "
            f"(F({lo:.6g}) = {f_lo:.3e})")
    hi = lo
    f_hi = f_lo
    for _ in range(70):
        hi *= 1.5
        f_hi = objective(hi)
        if f_hi > 0.0:
            break
    else:
        raise NumericsError(
            f"threshold bracket expansion failed: F stayed negative up to "
            f"x = {hi:.6g} (last F = {f_hi:.3e}); check payoff growth")
    return float(brentq(objective, lo, hi, xtol=1e-12, rtol=1e-13))


def _coefs_from_bases(params: ProblemParams, m_prime: Callable, x_star: float,
                      basis_i: ExcessiveBasis,
                      basis_a: ExcessiveBasis) -> tuple[float, float, float]:
    net = _net_flow(params)
    lo_i, hi_i = _limits(basis_i)
    _, hi_a = _limits(basis_a)
    c_i1 = integrate_to_inf(_integrand(basis_i.phi, net, m_prime), x_star,
                            limit=hi_i) / basis_i.wronskian
    d_i2 = -integrate_to_zero(_integrand(basis_i.psi, net, m_prime), x_star,
                              limit=lo_i) / basis_i.wronskian
    if not c_i1 > 0.0:
        raise NumericsError(f"entry coefficient c_i1 = {c_i1:.3e} is not positive")
    c_a1 = -integrate_to_inf(_integrand(basis_a.phi, net, m_prime), x_star,
                             limit=hi_a) / basis_a.wronskian
    return float(c_i1), float(d_i2), float(c_a1)


def coefficients(spec: DiffusionSpec, params: ProblemParams,
                 x_star: float) -> tuple[float, float, float]:
    """Value-function coefficients (c_i1, d_i2, c_a1) at threshold x_star.

    Each is one wronskian-normalized projection of h - kappa, as in the
    module docstring. The formula for c_a1 drops F(x_star), so the three
    hold only at the root x* of F, not at an arbitrary x_star.
    """
    basis_i = excessive_basis(spec, params.rho_idle)
    basis_a = excessive_basis(spec, params.rho_active)
    return _coefs_from_bases(params, partial(speed_density, spec), x_star,
                             basis_i, basis_a)


def _piecewise(x, x_star: float, below: Callable, above: Callable):
    """Evaluate branch callables on the two sides of x_star; each
    receives a sorted unique grid and returns aligned values."""
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x_arr > 0.0) & (x_arr < math.inf)):
        raise ValueError("state values must be positive and finite")
    out = np.empty_like(x_arr)
    lo_mask = x_arr < x_star
    for mask, fn in ((lo_mask, below), (~lo_mask, above)):
        if np.any(mask):
            grid, inv = np.unique(x_arr[mask], return_inverse=True)
            out[mask] = fn(grid)[inv]
    return float(out[0]) if scalar else out


def _relative_gap(a: float, b: float) -> float:
    return float(abs(a - b) / max(abs(a), abs(b), 1e-300))


def _assemble(spec: DiffusionSpec, params: ProblemParams, x_star: float,
              basis_i: ExcessiveBasis, basis_a: ExcessiveBasis,
              root_residual: float) -> Solution:
    """Build the Solution from a threshold and the two bases.

    Kept separate from solve() so that rescaled bases can be injected;
    the value functions must not change under psi -> const * psi.
    """
    m_prime = partial(speed_density, spec)
    kappa = params.break_even
    h = params.h
    rho_i, rho_a = params.rho_idle, params.rho_active
    c_i1, d_i2, c_a1 = _coefs_from_bases(params, m_prime, x_star, basis_i, basis_a)

    def idle_below(grid):
        return c_i1 * basis_i.psi(grid)

    def idle_above(grid):
        vals, _ = resolvent_on_grid(basis_i, m_prime, h, grid)
        return vals - kappa / rho_i + d_i2 * basis_i.phi(grid)

    def active_below(grid):
        vals, _ = resolvent_on_grid(basis_a, m_prime, h, grid)
        return (vals - params.C / rho_a
                + c_i1 * basis_i.psi(grid) + c_a1 * basis_a.psi(grid))

    def active_above(grid):
        vals, _ = resolvent_on_grid(basis_i, m_prime, h, grid)
        return (vals - (params.C + params.K * params.p * params.lam) / rho_i
                + d_i2 * basis_i.phi(grid))

    def value_idle_fn(x):
        return _piecewise(x, x_star, idle_below, idle_above)

    def value_active_fn(x):
        return _piecewise(x, x_star, active_below, active_above)

    def branch_lower_fn(x):
        return _piecewise(x, math.inf, idle_below, idle_below)

    def branch_upper_fn(x):
        return _piecewise(x, math.inf, idle_above, idle_above)

    # every diagnostic from one idle-rate sweep, with x* as a node:
    # the two idle branches and their slopes at x*, and R_i h - V_i
    grid = np.union1d(np.geomspace(x_star / 25.0, 4.0 * x_star, 48), x_star)
    k = int(np.searchsorted(grid, x_star))
    rh, rh_prime = resolvent_on_grid(basis_i, m_prime, h, grid)
    lower = idle_below(grid)
    upper = rh - kappa / rho_i + d_i2 * basis_i.phi(grid)
    at = grid[k:k + 1]
    lower_s = c_i1 * basis_i.psi_prime(at)[0]
    upper_s = rh_prime[k] + d_i2 * basis_i.phi_prime(at)[0]
    v_idle = np.where(grid < x_star, lower, upper)

    diags = Diagnostics(
        pasting_gap_value=_relative_gap(lower[k], upper[k]),
        pasting_gap_slope=_relative_gap(lower_s, upper_s),
        growth_margin=float(np.min((rh - v_idle) / np.maximum(rh, 1e-300))),
        root_residual=abs(root_residual))
    return Solution(
        mode=Mode.THRESHOLD, x_star=x_star,
        c_i1=c_i1, d_i2=d_i2, c_a1=c_a1,
        value_idle=value_idle_fn, value_active=value_active_fn,
        branch_lower=branch_lower_fn, branch_upper=branch_upper_fn,
        diagnostics=diags, spec=spec, params=params)


def _never_enter_solution(spec: DiffusionSpec, params: ProblemParams) -> Solution:
    basis_a = excessive_basis(spec, params.rho_active)
    m_prime = partial(speed_density, spec)

    def value_idle_fn(x):
        return _piecewise(x, math.inf, np.zeros_like, np.zeros_like)

    def active_fn(grid):
        vals, _ = resolvent_on_grid(basis_a, m_prime, params.h, grid)
        return vals - params.C / params.rho_active

    def value_active_fn(x):
        return _piecewise(x, math.inf, active_fn, active_fn)

    nan = float("nan")
    nan_fn = partial(np.full_like, fill_value=nan)

    def branch_nan(x):
        return _piecewise(x, math.inf, nan_fn, nan_fn)

    diags = Diagnostics(nan, nan, nan, nan)
    return Solution(
        mode=Mode.NEVER_ENTER, x_star=None,
        c_i1=nan, d_i2=nan, c_a1=nan,
        value_idle=value_idle_fn, value_active=value_active_fn,
        branch_lower=branch_nan, branch_upper=branch_nan,
        diagnostics=diags, spec=spec, params=params)


def solve(spec: DiffusionSpec, params: ProblemParams) -> Solution:
    """Solve the entry problem end to end.

    Returns a NEVER_ENTER solution (idle value identically 0) when the
    payoff cannot beat the break-even flow, otherwise the threshold
    solution with coefficients and diagnostics.
    """
    if check_entry_viability(params) is Viability.NEVER_ENTER:
        return _never_enter_solution(spec, params)
    x_star = solve_threshold(spec, params)
    residual = _threshold_objective(spec, params)(x_star)
    basis_i = excessive_basis(spec, params.rho_idle)
    basis_a = excessive_basis(spec, params.rho_active)
    return _assemble(spec, params, x_star, basis_i, basis_a, residual)


def p_independence_audit(spec: DiffusionSpec, params: ProblemParams,
                         p_grid: Sequence[float]) -> float:
    """Max pairwise spread of the solved threshold over a grid of
    success probabilities; the threshold equation involves only
    r + lambda, so the spread stays at root-finder tolerance."""
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ValueError("p_grid must be non-empty")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"audit p values must lie in (0, 1], got {p}")
    stars = [solve_threshold(spec, replace(params, p=p)) for p in ps]
    return float(max(stars) - min(stars))
