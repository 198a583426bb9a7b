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

The root find walks the tail once: F(x_C) is one tail walk down to 0,
and every later F(x) adds one fixed-panel integral of
f = psi_a (h - kappa) m' from the largest state so far at which F < 0.
Newton in ln x on the exact slope dF/dln x = x f(x), inside a bracket
grown by 1.5x from x_C and with bisection as fallback, finds the root
and F(x*) together. p_independence_audit re-solves this same F for
each p, so its spread is exactly 0.0 by construction; it cannot see a
p leaking into the threshold equation. An audit independent of F is an
open item in ROADMAP.md.

The three coefficients are projections of the net flow h - kappa on
the eigenfunctions on either side of x*, one tail integral each; c_i1
and d_i2 are the resolvent integrals I_hi and -I_lo at x* over W_i:

    c_i1 =  W_i^-1 integral_x*^inf phi_i (h - kappa) m',
    d_i2 = -W_i^-1 integral_0^x*   psi_i (h - kappa) m',
    c_a1 = -W_a^-1 integral_x*^inf phi_a (h - kappa) m'.

c_i1 psi_i - d_i2 phi_i is R_i(h - kappa) at x*, so continuity of the
active value at x* leaves c_a1 = -R_a(h - kappa)(x*) / psi_a(x*), whose
part below x* is F(x*) = 0. So c_a1 involves only the active rate and,
like x*, is the same for every p.

One column evaluator per mode writes each value branch once: V_i is
c_i1 psi_i below x* and R_i h - kappa/rho_i + d_i2 phi_i above; V_a is
that plus K above and R_a h - C/rho_a + c_i1 psi_i + c_a1 psi_a below.
A Solution callable sweeps only the states its own column needs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from ._quad import fixed_panels, integrate_to_inf, integrate_to_zero
from .diffusions import DiffusionSpec, ExcessiveBasis, excessive_basis, speed_density
from .errors import NumericsError
from .payoffs import Payoff, PayoffKind, limit_at_infinity
from .resolvent import (_grid_integrals, _integrand, _limits, _resolvent_values,
                         resolvent_on_grid)
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
        if not isinstance(self.h, Payoff):
            raise ValueError(f"payoff h must be a Payoff, got {self.h!r}")
        for name in ("r", "lam", "p", "K", "C"):
            value = getattr(self, name)
            # bool is a Real too, but K=True is a slip
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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
    non-negative when the growth condition holds. root_residual: |F(x*)|
    as the root find evaluated it, from its anchor's F plus one panel
    integral up to x*, not from a fresh tail walk.
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
    mode. Each of the four sweeps only the states its own column needs;
    table(x) returns all four in a dict, in field order, one sweep per rate.
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
    table: Callable[[np.ndarray], dict]
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
    if float(h(np.asarray([lo]))[0]) > kappa:
        raise ValueError(f"payoff exceeds the break-even flow kappa={kappa:g} already "
                         f"at x={lo:g}; a custom payoff must vanish at zero")
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


def _threshold_integrand(spec: DiffusionSpec,
                         params: ProblemParams) -> tuple[Callable, Optional[float]]:
    """f = psi_a (h - kappa) m', the integrand of F, and the lower
    truncation limit of the active basis."""
    basis_a = excessive_basis(spec, params.rho_active)
    f = _integrand(basis_a.psi, _net_flow(params), partial(speed_density, spec))
    return f, _limits(basis_a)[0]


def _threshold_objective(spec: DiffusionSpec, params: ProblemParams) -> Callable[[float], float]:
    """x -> F(x), defined for every x > 0.

    The callable keeps an anchor (x_a, F(x_a)): the largest state seen
    so far at which F < 0. At or above x_a, F(x) = F(x_a) plus one
    fixed-panel integral over [x_a, x]; below it, or before any anchor
    exists, F(x) is a tail walk down to 0. A root find that evaluates
    F at its bracket ends walks once and moves the anchor up with the
    bracket's lower end.
    """
    f, lo_lim = _threshold_integrand(spec, params)
    anchor = None

    def objective(x: float) -> float:
        nonlocal anchor
        if anchor is None or x < anchor[0]:
            value = integrate_to_zero(f, x, limit=lo_lim)
        else:
            value = anchor[1] + float(fixed_panels(f, (anchor[0], x))[0])
        if value < 0.0 and (anchor is None or x > anchor[0]):
            anchor = (x, value)
        return value

    return objective


def _threshold_and_residual(spec: DiffusionSpec, params: ProblemParams) -> tuple[float, float]:
    """The root x* > x_C of F and F(x*), from one tail walk.

    The bracket [x_C (1 + 1e-9), 1.5 x_C] grows by 1.5x until F changes
    sign; then Newton runs in v = ln x on the exact slope
    dF/dv = x f(x), positive above x_C, from the bracket's upper end. A
    Newton step that leaves the bracket is replaced by bisection in v.
    The first Newton step below 1e-12 + 1e-13 x (brentq's tolerance)
    ends the search: it is taken, and F is evaluated at the root it
    gives, unless the step rounds to no change in x. A bisection step
    never ends the search.
    """
    objective = _threshold_objective(spec, params)
    f, _ = _threshold_integrand(spec, params)
    lo = _break_even_state(params) * (1.0 + 1e-9)
    f_lo = objective(lo)
    if not f_lo < 0.0:
        raise NumericsError(
            f"threshold objective not negative at break-even state "
            f"(F({lo:.6g}) = {f_lo:.3e})")
    hi = lo
    for _ in range(70):
        hi *= 1.5
        f_hi = objective(hi)
        if f_hi > 0.0:
            break
        lo = hi
    else:
        raise NumericsError(
            f"threshold bracket expansion failed: F stayed negative up to "
            f"x = {hi:.6g} (last F = {f_hi:.3e}); check payoff growth")
    x, fx = hi, f_hi
    for _ in range(100):
        slope = x * float(f(np.asarray([x]))[0])
        step = -fx / slope if slope > 0.0 else math.nan
        if abs(step) * x <= 1e-12 + 1e-13 * x:
            root = x * math.exp(step)
            return root, fx if root == x else objective(root)
        v = math.log(x) + step
        v_lo, v_hi = math.log(lo), math.log(hi)
        if not v_lo < v < v_hi:
            v = 0.5 * (v_lo + v_hi)
        x = math.exp(v)
        fx = objective(x)
        if fx < 0.0:
            lo = x
        else:
            hi = x
    raise NumericsError(f"threshold Newton iteration did not converge in [{lo!r}, {hi!r}]")


def solve_threshold(spec: DiffusionSpec, params: ProblemParams) -> float:
    """Unique root x* > x_C of F; raises NumericsError if the bracket
    cannot be expanded to a sign change."""
    return _threshold_and_residual(spec, params)[0]


def _coefs_from_bases(params: ProblemParams, m_prime: Callable, x_star: float,
                      basis_i: ExcessiveBasis,
                      basis_a: ExcessiveBasis) -> tuple[float, float, float]:
    net = _net_flow(params)
    _, i_lo, i_hi = _grid_integrals(basis_i, m_prime, net, [x_star])
    c_i1 = i_hi[0] / basis_i.wronskian
    d_i2 = -i_lo[0] / basis_i.wronskian
    if not c_i1 > 0.0:
        raise NumericsError(f"entry coefficient c_i1 = {c_i1:.3e} is not positive")
    c_a1 = -integrate_to_inf(_integrand(basis_a.phi, net, m_prime), x_star,
                             limit=_limits(basis_a)[1]) / basis_a.wronskian
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


def _piecewise(x, columns: Callable, names: tuple) -> dict:
    """The named columns at states x: columns(grid, names) on the
    ascending unique states, each column shaped like x (a float for a
    scalar x)."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < math.inf)):
        raise ValueError("state values must be positive and finite")
    grid, inv = np.unique(x_arr.ravel(), return_inverse=True)
    cast = float if x_arr.ndim == 0 else np.asarray
    return {name: cast(col[inv].reshape(x_arr.shape))
            for name, col in columns(grid, names).items()}


def _evaluators(columns: Callable) -> dict:
    """Solution's callables over columns(grid, names): each value
    function asks for its own column alone, table for all four."""
    names = ("value_idle", "value_active", "branch_lower", "branch_upper")

    def column(name):
        return lambda x: _piecewise(x, columns, (name,))[name]

    return {**{name: column(name) for name in names},
            "table": lambda x: _piecewise(x, columns, names)}


def _on(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """fn(xs), not called for no states: fn is a resolvent sweep, which
    needs at least one state."""
    return fn(xs) if xs.size else xs


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
    h = params.h
    c_i1, d_i2, c_a1 = _coefs_from_bases(params, m_prime, x_star, basis_i, basis_a)

    def lower(xs):
        return c_i1 * basis_i.psi(xs)

    def upper(xs, rh=None):
        if rh is None:
            rh = _resolvent_values(basis_i, m_prime, h, xs)
        return rh - params.break_even / params.rho_idle + d_i2 * basis_i.phi(xs)

    def columns(grid, names):
        # a branch spans the grid for its own column, else its side of x*
        k = int(np.searchsorted(grid, x_star))
        j = 0 if "branch_upper" in names else k
        low = cache(lambda: lower(grid[:grid.size if "branch_lower" in names else k]))
        up = cache(lambda: _on(upper, grid[j:]))

        def active_below(xs):
            return (_resolvent_values(basis_a, m_prime, h, xs) - params.C / params.rho_active
                    + low()[:k] + c_a1 * basis_a.psi(xs))

        make = {"value_idle": lambda: np.concatenate((low()[:k], up()[k - j:])),
                "value_active": lambda: np.concatenate((_on(active_below, grid[:k]),
                                                        up()[k - j:] + params.K)),
                "branch_lower": low, "branch_upper": up}
        return {name: make[name]() for name in names}

    # every diagnostic from one idle-rate sweep, with x* as a node:
    # the two idle branches and their slopes at x*, and R_i h - V_i
    grid = np.union1d(np.geomspace(x_star / 25.0, 4.0 * x_star, 48), x_star)
    k = int(np.searchsorted(grid, x_star))
    rh, rh_prime = resolvent_on_grid(basis_i, m_prime, h, grid)
    lo, up = lower(grid), upper(grid, rh)
    at = grid[k:k + 1]
    v_idle = np.where(grid < x_star, lo, up)
    diags = Diagnostics(
        pasting_gap_value=_relative_gap(lo[k], up[k]),
        pasting_gap_slope=_relative_gap(c_i1 * basis_i.psi_prime(at)[0],
                                        rh_prime[k] + d_i2 * basis_i.phi_prime(at)[0]),
        growth_margin=float(np.min((rh - v_idle) / np.maximum(rh, 1e-300))),
        root_residual=abs(root_residual))
    return Solution(
        mode=Mode.THRESHOLD, x_star=x_star, c_i1=c_i1, d_i2=d_i2, c_a1=c_a1,
        **_evaluators(columns), diagnostics=diags, spec=spec, params=params)


def _never_enter_solution(spec: DiffusionSpec, params: ProblemParams) -> Solution:
    basis_a = excessive_basis(spec, params.rho_active)
    m_prime = partial(speed_density, spec)
    nan = float("nan")
    nan_like = partial(np.full_like, fill_value=nan)

    def active(xs):
        return _resolvent_values(basis_a, m_prime, params.h, xs) - params.C / params.rho_active

    def columns(grid, names):
        make = {"value_idle": np.zeros_like, "value_active": partial(_on, active),
                "branch_lower": nan_like, "branch_upper": nan_like}
        return {name: make[name](grid) for name in names}

    return Solution(
        mode=Mode.NEVER_ENTER, x_star=None, c_i1=nan, d_i2=nan, c_a1=nan,
        **_evaluators(columns), diagnostics=Diagnostics(nan, nan, nan, nan),
        spec=spec, params=params)


def solve(spec: DiffusionSpec, params: ProblemParams) -> Solution:
    """Solve the entry problem end to end.

    Returns a NEVER_ENTER solution (idle value identically 0) when the
    payoff cannot beat the break-even flow, otherwise the threshold
    solution with coefficients and diagnostics.
    """
    if check_entry_viability(params) is Viability.NEVER_ENTER:
        return _never_enter_solution(spec, params)
    x_star, residual = _threshold_and_residual(spec, params)
    basis_i = excessive_basis(spec, params.rho_idle)
    basis_a = excessive_basis(spec, params.rho_active)
    return _assemble(spec, params, x_star, basis_i, basis_a, residual)


def p_independence_audit(spec: DiffusionSpec, params: ProblemParams,
                         p_grid: Sequence[float]) -> float:
    """Max pairwise spread of the solved threshold over a grid of
    success probabilities.

    Each p re-solves the same F, which involves only r + lambda, so the
    spread is exactly 0.0: this checks that p reaches no part of the
    root find, not the paper's result. An audit independent of F is an
    open item in ROADMAP.md.
    """
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ValueError("p_grid must be non-empty")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"audit p values must lie in (0, 1], got {p}")
    stars = [solve_threshold(spec, replace(params, p=p)) for p in ps]
    return float(max(stars) - min(stars))
