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

The root find walks the tail once, for F(x_C), then adds F up over
fitted half-unit panels of ln x marched up from x_C, and solves for x*
on the series of the panel where F turns positive. p_independence_audit
re-solves this same F for each p, so its spread is exactly 0.0 by
construction; it cannot see a p leaking into the threshold equation.
An audit independent of F is an open item in ROADMAP.md.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from ._quad import (_BLOCK, _PANEL_WIDTH, _log_sampler, _pieces, fixed_panels,
                    integrate_to_inf, integrate_to_zero)
from .diffusions import DiffusionSpec, ExcessiveBasis, excessive_basis, speed_density
from .errors import NumericsError, QuadratureError
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
    as the root find's F(x_C) plus a fixed_panels integral over [x_C, x*].
    All are computed on first read, with one idle-rate sweep.
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
    spec: DiffusionSpec
    params: ProblemParams
    _diagnostics: Callable[[], Diagnostics] = field(repr=False, compare=False)

    @cached_property
    def diagnostics(self) -> Diagnostics:
        """Computed on first read, then kept."""
        return self._diagnostics()


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
    """x -> F(x), one tail walk down to 0 per call."""
    f, lo_lim = _threshold_integrand(spec, params)
    return partial(integrate_to_zero, f, limit=lo_lim)


def _series_root(series: np.ndarray, target: float) -> float:
    """t in [-1, 1] where the increasing Chebyshev series S, S(-1) = 0, reaches
    target: Newton with bisection, on S(t) as t + 1 times its slope from -1."""
    twice = (2.0 * series[:0:-1]).tolist()

    def slope(t0, t1):
        # _quad._clenshaw_slope on floats: on 1-element arrays it costs 10x
        b1 = b2 = d1 = d2 = 0.0
        t0, t1 = 2.0 * t0, 2.0 * t1
        for c in twice:
            b1, b2, d1, d2 = c + t0 * b1 - b2, b1, t1 * d1 + b1 - d2, d1
        return 0.5 * (b1 + t1 * d1) - d2

    lo, hi, t = -1.0, 1.0, min(target / slope(-1.0, 1.0) - 1.0, 1.0)
    for _ in range(100):
        gap = (t + 1.0) * slope(-1.0, t) - target
        lo, hi = (t, hi) if gap < 0.0 else (lo, t)
        step = -gap / s if (s := slope(t, t)) > 0.0 else math.inf  # S' <= 0: bisect
        if abs(step) <= 1e-12:
            return t + step
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    return t


_REACH_PANELS = math.ceil(70 * math.log(1.5) / _PANEL_WIDTH)  # march up to x_C 1.5^70


def _threshold_and_residual(spec: DiffusionSpec,
                            params: ProblemParams) -> tuple[float, Callable[[], float]]:
    """The root x* > x_C of F and a callable for |F(x*)|: F(x_C (1 + 1e-9))
    from one tail walk, then half-unit panels fitted a block of 1, 2, 4, 8,
    then 15 per integrand call, up to the one where F turns positive."""
    f, _ = _threshold_integrand(spec, params)
    x_c = _break_even_state(params) * (1.0 + 1e-9)
    f_c = total = _threshold_objective(spec, params)(x_c)
    if not f_c < 0.0:
        raise NumericsError(f"threshold objective not negative at break-even state "
                            f"(F({x_c:.6g}) = {f_c:.3e})")
    sample = _log_sampler(lambda x: np.asarray(f(x), dtype=float) * x)  # dx = x dv
    v_c, done, block = math.log(x_c), 0, 1
    while done < _REACH_PANELS:
        n = min(block, _REACH_PANELS - done)
        lefts, widths, series, integrals, failed, gaps = _pieces(
            sample, v_c + _PANEL_WIDTH * np.arange(done, done + n), np.full(n, _PANEL_WIDTH))
        for j, integral in enumerate(integrals):
            if j in failed:
                a, b = np.exp([lefts[j], lefts[j] + widths[j]]).tolist()
                raise QuadratureError(f"panel integral on [{a}, {b}] failed to converge "
                                      f"(refined disagreement {gaps[failed == j][0]:.3e})")
            if total + integral > 0.0:
                t = _series_root(series[:, j], -total)
                x_star = math.exp(lefts[j] + 0.5 * widths[j] * (t + 1.0))
                return x_star, lambda: abs(f_c + float(fixed_panels(f, (x_c, x_star))[0]))
            total += integral
        done, block = done + n, min(2 * block, _BLOCK)
    raise NumericsError(
        f"threshold bracket expansion failed: F stayed negative up to x = "
        f"{x_c * math.exp(_PANEL_WIDTH * done):.6g} (last F = {total:.3e}); check payoff growth")


def solve_threshold(spec: DiffusionSpec, params: ProblemParams) -> float:
    """Unique root x* > x_C of F; NumericsError if F stays negative past x_C 1.5^70."""
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
              root_residual: Callable[[], float]) -> Solution:
    """Build the Solution from a threshold and the two bases; its
    diagnostics call root_residual when first read.

    Kept separate from solve() so that rescaled bases can be injected;
    the value functions must not change under psi -> const * psi.
    """
    m_prime = partial(speed_density, spec)
    h = params.h
    c_i1, d_i2, c_a1 = _coefs_from_bases(params, m_prime, x_star, basis_i, basis_a)

    def lower(xs):
        # psi may overflow at huge states; the check below reports it
        with np.errstate(over="ignore"):
            low = c_i1 * basis_i.psi(xs)
        bad = ~np.isfinite(low)
        if bad.any():
            raise NumericsError(f"lower branch c_i1 psi is not finite at x={xs[bad][0]:.6g}")
        return low

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

    def diagnostics():
        # every diagnostic from one idle-rate sweep, with x* as a node:
        # the two idle branches and their slopes at x*, and R_i h - V_i
        grid = np.union1d(np.geomspace(x_star / 25.0, 4.0 * x_star, 48), x_star)
        k = int(np.searchsorted(grid, x_star))
        rh, rh_prime = resolvent_on_grid(basis_i, m_prime, h, grid)
        lo, up = lower(grid), upper(grid, rh)
        at = grid[k:k + 1]
        v_idle = np.where(grid < x_star, lo, up)
        return Diagnostics(
            pasting_gap_value=_relative_gap(lo[k], up[k]),
            pasting_gap_slope=_relative_gap(c_i1 * basis_i.psi_prime(at)[0],
                                            rh_prime[k] + d_i2 * basis_i.phi_prime(at)[0]),
            growth_margin=float(np.min((rh - v_idle) / np.maximum(rh, 1e-300))),
            root_residual=root_residual())

    return Solution(
        mode=Mode.THRESHOLD, x_star=x_star, c_i1=c_i1, d_i2=d_i2, c_a1=c_a1,
        **_evaluators(columns), spec=spec, params=params, _diagnostics=diagnostics)


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
        **_evaluators(columns), spec=spec, params=params,
        _diagnostics=lambda: Diagnostics(nan, nan, nan, nan))


def solve(spec: DiffusionSpec, params: ProblemParams) -> Solution:
    """Solve the entry problem end to end.

    Returns a NEVER_ENTER solution (idle value identically 0) when the
    payoff cannot beat the break-even flow, otherwise the threshold
    solution with coefficients and diagnostics.
    """
    return _solve_each(spec, params, [params.p])[0]


def _solve_each(spec: DiffusionSpec, params: ProblemParams,
                ps: Sequence[float]) -> list[Solution]:
    """solve at each p in ps from one root find: x* does not involve p."""
    at = [replace(params, p=p) for p in ps]
    if check_entry_viability(params) is Viability.NEVER_ENTER:
        return [_never_enter_solution(spec, q) for q in at]
    x_star, residual = _threshold_and_residual(spec, params)
    return [_assemble(spec, q, x_star, excessive_basis(spec, q.rho_idle),
                      excessive_basis(spec, q.rho_active), residual) for q in at]


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
