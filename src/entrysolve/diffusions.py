"""State-process models and their monotone rho-excessive eigenfunctions.

A model is a positive 1-D diffusion dX = drift(X) dt + vol(X) dW on
(0, inf). For each discount rate rho > 0 the generator equation
A u = rho u has (up to scaling) a unique increasing solution psi and a
unique decreasing solution phi; together with the scale and speed
densities they are the raw material for resolvent and threshold
computations.

Three kinds are supported:
  * GBM: drift alpha*x, vol beta*x; psi and phi are pure powers.
  * LOGISTIC: drift alpha*x*(1 - gamma*x), vol beta*x; psi and phi
    combine a power with confluent hypergeometric factors M and U.
  * CUSTOM: arbitrary drift/vol callables; psi and phi are built
    numerically from a Riccati equation for s = (ln u)' on the log axis,
    collocated at the 33 Chebyshev nodes of every half-unit panel of
    |ln x| <= 32 when the basis is built, each branch marched from the
    end where it vanishes. x_lo = e^-30 to x_hi = e^30 is where such a
    basis is defined: outside it the basis raises. One table type
    (_PanelTable) then serves both ln u and the exponent B of the scale
    and speed densities, as antiderivatives from x = 1 of s and of
    2 x drift / vol^2: _quad's Chebyshev fits on half-unit panels of
    ln x, grown outward as far as the states asked for reach, each piece
    chopped to its own degrees above rounding, so later calls need no
    drift or vol. The fits of s read its collocated values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
# unused; perfbench/tracing.py patches this name
from scipy.integrate import solve_ivp  # noqa: F401

from ._quad import (_DEGREE, _PANEL_WIDTH, _clenshaw_slope, _derivative_map, _log_sampler,
                    _nodes, _pieces)
from .errors import ConstructionError, QuadratureError
from .hypergeometric import _m_vec, _u_vec

_SPAN = 30.0
_SHOT_BUFFER = 2.0
_NEWTON_STEPS = 40
# two models' (rho_idle, rho_active) pairs
_CUSTOM_CACHE_SIZE = 4


class DiffusionKind(Enum):
    GBM = "gbm"
    LOGISTIC = "logistic"
    CUSTOM = "custom"


_PROBE = np.array([1e-3, 0.1, 1.0, 10.0, 1e3])


@dataclass(frozen=True)
class DiffusionSpec:
    """Parameters of a positive 1-D diffusion.

    Attributes:
        kind: GBM, LOGISTIC or CUSTOM.
        alpha: linear drift coefficient (GBM, LOGISTIC).
        beta: proportional volatility (GBM, LOGISTIC); must be > 0.
        gamma: crowding coefficient of the logistic drift; 0 reduces
            to GBM.
        custom_drift: vectorized drift callable (CUSTOM only).
        custom_vol: vectorized volatility callable (CUSTOM only),
            positive on (0, inf).
    """

    kind: DiffusionKind
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    custom_drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    custom_vol: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind in (DiffusionKind.GBM, DiffusionKind.LOGISTIC):
            if not math.isfinite(self.alpha):
                raise ValueError(f"drift alpha must be finite, got {self.alpha}")
            if not 0.0 < self.beta < math.inf:
                raise ValueError(f"volatility beta must be finite and > 0, got {self.beta}")
            if self.custom_drift is not None or self.custom_vol is not None:
                raise ValueError(f"{self.kind.value} model does not take custom callables")
            if self.kind is DiffusionKind.GBM and self.gamma != 0.0:
                raise ValueError("GBM does not take a crowding coefficient gamma")
            if self.kind is DiffusionKind.LOGISTIC and not 0.0 <= self.gamma < math.inf:
                raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")
        else:
            if self.custom_drift is None or self.custom_vol is None:
                raise ValueError("CUSTOM model needs both custom_drift and custom_vol")
            v = np.asarray(self.custom_vol(_PROBE), dtype=float)
            d = np.asarray(self.custom_drift(_PROBE), dtype=float)
            if v.shape != _PROBE.shape or d.shape != _PROBE.shape:
                raise ValueError("custom drift/vol must be vectorized and preserve shape")
            if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
                raise ValueError("custom drift/vol take non-finite values on the probe grid")
            if np.any(v <= 0.0):
                raise ValueError("custom volatility must be positive on (0, inf)")

    def drift(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is DiffusionKind.GBM:
            return self.alpha * x
        if self.kind is DiffusionKind.LOGISTIC:
            return self.alpha * x * (1.0 - self.gamma * x)
        return np.asarray(self.custom_drift(x), dtype=float)

    def vol(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is DiffusionKind.CUSTOM:
            return np.asarray(self.custom_vol(x), dtype=float)
        return self.beta * x


def gbm(alpha: float, beta: float) -> DiffusionSpec:
    return DiffusionSpec(kind=DiffusionKind.GBM, alpha=alpha, beta=beta)


def logistic(alpha: float, beta: float, gamma: float) -> DiffusionSpec:
    return DiffusionSpec(kind=DiffusionKind.LOGISTIC, alpha=alpha, beta=beta, gamma=gamma)


def custom(drift: Callable, vol: Callable) -> DiffusionSpec:
    return DiffusionSpec(kind=DiffusionKind.CUSTOM, custom_drift=drift, custom_vol=vol)


# ---------------------------------------------------------------------------
# scale and speed densities


def _compensated_cumsum(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.cumsum and the running sum of the rounding error of every step
    (a vectorized two-sum): their sum is within about an ulp of the
    exact partial sums however long they run."""
    s = np.cumsum(t)
    prev = np.concatenate(([0.0], s[:-1]))
    t_kept = s - prev
    return s, np.cumsum((prev - (s - t_kept)) + (t - t_kept))


@dataclass(frozen=True)
class _Table:
    """Pieces of v = ln x covering the coarse panels k_lo <= k < k_hi,
    ascending: left edges, widths, antiderivative series of g in
    t in [-1, 1] (one row per degree) and integrals, kept whole for
    growth; then each piece's series with the degrees above its own chop
    zeroed, cut to the highest degree any piece keeps, the degrees kept,
    and G at the left edges as a compensated sum g_sum + g_carry."""

    k_lo: int
    k_hi: int
    lefts: np.ndarray
    widths: np.ndarray
    coefs: np.ndarray
    integrals: np.ndarray
    terms: np.ndarray
    degrees: np.ndarray
    g_sum: np.ndarray
    g_carry: np.ndarray


class _PanelTable:
    """G(v) = integral_0^v g of a function g of v = ln x, tabulated.

    The table grows outward from v = 0, panel by panel, as far as the
    states asked for reach and never past panel k_max, with _quad's fits
    of g = sample(v) on (n, 33) arrays of panel nodes; a piece no fit
    accepts raises QuadratureError naming `what`. Each piece drops its
    trailing degrees below `chop` of its largest coefficient, so a value
    does not depend on how far the table has grown. G at the piece edges
    is the compensated sum of the piece integrals, outward from v = 0 on
    each side, so G(0) = 0.
    """

    def __init__(self, sample: Callable, chop: float, what: str, k_max: float = math.inf):
        self._sample, self._chop, self._what, self._k_max = sample, chop, what, k_max
        empty = np.empty(0)
        self._table = _Table(0, 0, empty, empty, np.empty((_DEGREE + 2, 0)), empty,
                             np.empty((1, 0)), np.empty(0, dtype=np.intp), empty, empty)

    def _fitted(self, k_lo: int, k_hi: int) -> tuple:
        """Fitted pieces of the coarse panels k_lo <= k < k_hi."""
        lefts = _PANEL_WIDTH * np.arange(k_lo, k_hi, dtype=float)
        lefts, widths, coefs, integrals, failed, gaps = _pieces(
            self._sample, lefts, np.full(lefts.size, _PANEL_WIDTH))
        if failed.size:
            j = failed[0]
            raise QuadratureError(
                f"{self._what} has no accurate panel fit on "
                f"x in [{math.exp(lefts[j]):.6g}, {math.exp(lefts[j] + widths[j]):.6g}] "
                f"(refined disagreement {gaps[0]:.3e})")
        return lefts, widths, coefs, integrals

    def _grow(self, k_lo: int, k_hi: int) -> _Table:
        old = self._table
        parts = [(old.lefts, old.widths, old.coefs, old.integrals)]
        if k_lo < old.k_lo:
            parts.insert(0, self._fitted(k_lo, old.k_lo))
        if k_hi > old.k_hi:
            parts.append(self._fitted(old.k_hi, k_hi))
        lefts, widths, coefs, integrals = (np.concatenate(p, axis=-1) for p in zip(*parts))
        n_neg = int(np.searchsorted(lefts, 0.0))
        up = _compensated_cumsum(integrals[n_neg:])
        down = _compensated_cumsum(integrals[:n_neg][::-1])
        g_sum, g_carry = (np.concatenate((-d[::-1], [0.0], u))[:lefts.size]
                          for d, u in zip(down, up))
        size = np.abs(coefs)
        above = size > self._chop * size.max(axis=0)
        degrees = np.where(above.any(axis=0), len(coefs) - 1 - np.argmax(above[::-1], axis=0), 0)
        terms = np.where(np.arange(len(coefs))[:, None] <= degrees, coefs, 0.0)
        self._table = _Table(k_lo, k_hi, lefts, widths, coefs, integrals,
                             terms[:1 + degrees.max(initial=0)], degrees, g_sum, g_carry)
        return self._table

    def __call__(self, v: np.ndarray, slope: bool = False):
        """G at finite log states v, a 1-d array; with slope, (G, g)."""
        table = self._table
        if v.size:
            k_lo = math.floor(float(np.min(v)) / _PANEL_WIDTH)
            k_hi = min(math.floor(float(np.max(v)) / _PANEL_WIDTH) + 1, self._k_max)
            if k_lo < table.k_lo or k_hi > table.k_hi:
                table = self._grow(min(k_lo, table.k_lo), max(k_hi, table.k_hi))
        piece = np.searchsorted(table.lefts, v, side="right") - 1
        t = 2.0 * (v - table.lefts[piece]) / table.widths[piece] - 1.0
        # the other pieces' degrees above this are zeros, which add nothing
        terms = table.terms[:1 + table.degrees[piece].max(initial=0)]
        g = table.g_sum[piece] + (table.g_carry[piece] + (t + 1.0) * _clenshaw_slope(
            terms, piece, np.full_like(t, -1.0), t))
        if not slope:
            return g
        return g, _clenshaw_slope(terms, piece, t, t) / (0.5 * table.widths[piece])


@lru_cache(maxsize=_CUSTOM_CACHE_SIZE)
def _scale_exponent(spec: DiffusionSpec) -> _PanelTable:
    """B(v) = integral_0^v q of a CUSTOM model, with q = 2 x drift / vol^2
    formed as 2 (x / vol)(drift / vol), so that vol^2 never overflows."""

    def q(x: np.ndarray) -> np.ndarray:
        vol = spec.vol(x)
        return 2.0 * (x / vol) * (spec.drift(x) / vol)

    return _PanelTable(_log_sampler(q), 1e-15, "scale exponent: 2 drift / vol^2")


def _b_of_x(spec: DiffusionSpec, x: np.ndarray) -> np.ndarray:
    """B(x) = integral_1^x 2 drift / vol^2; S' = e^-B, speed has e^+B."""
    x = np.asarray(x, dtype=float)
    if spec.kind is DiffusionKind.GBM:
        c = 2.0 * spec.alpha / spec.beta ** 2
        return c * np.log(x)
    if spec.kind is DiffusionKind.LOGISTIC:
        c = 2.0 * spec.alpha / spec.beta ** 2
        k = c * spec.gamma
        return c * np.log(x) - k * x
    return _scale_exponent(spec)(np.log(x).ravel()).reshape(x.shape)


def _check_states(x: np.ndarray) -> None:
    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        raise ValueError(
            f"state values must be positive and finite, got {x[~ok].flat[0]}")


def scale_density(spec: DiffusionSpec, x) -> np.ndarray:
    """Scale density S'(x) = exp(-B(x))."""
    x = np.asarray(x, dtype=float)
    _check_states(x)
    return np.exp(-_b_of_x(spec, x))


def speed_density(spec: DiffusionSpec, x) -> np.ndarray:
    """Speed density m'(x) = 2 exp(B(x)) / vol(x)^2."""
    x = np.asarray(x, dtype=float)
    _check_states(x)
    return 2.0 * np.exp(_b_of_x(spec, x)) / spec.vol(x) ** 2


# ---------------------------------------------------------------------------
# excessive basis


@dataclass(frozen=True)
class ExcessiveBasis:
    """Monotone solutions of A u = rho u with associated data.

    psi is increasing with psi(0+) = 0; phi is decreasing. For models
    with an entrance-like upper boundary phi may approach a positive
    limit rather than 0. The wronskian is
    (psi' phi - phi' psi) / S', constant in x.

    x_lo and x_hi bound where a numeric basis is defined (it raises
    ConstructionError outside them); closed-form bases use (0, inf).
    """

    rho: float
    psi: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    wronskian: float
    scale: Callable[[np.ndarray], np.ndarray]
    x_lo: float = 0.0
    x_hi: float = math.inf


def _gbm_roots(alpha: float, beta: float, rho: float) -> tuple[float, float]:
    """Roots of (beta^2/2) t (t-1) + alpha t = rho; b > 0 > a when rho > 0."""
    half = 0.5 - alpha / beta ** 2
    disc = math.sqrt(half * half + 2.0 * rho / beta ** 2)
    return half + disc, half - disc


def _gbm_basis(spec: DiffusionSpec, rho: float) -> ExcessiveBasis:
    b, a = _gbm_roots(spec.alpha, spec.beta, rho)

    def psi(x):
        return np.power(np.asarray(x, dtype=float), b)

    def phi(x):
        return np.power(np.asarray(x, dtype=float), a)

    def psi_prime(x):
        return b * np.power(np.asarray(x, dtype=float), b - 1.0)

    def phi_prime(x):
        return a * np.power(np.asarray(x, dtype=float), a - 1.0)

    return ExcessiveBasis(
        rho=rho, psi=psi, phi=phi, psi_prime=psi_prime, phi_prime=phi_prime,
        wronskian=b - a, scale=lambda x: scale_density(spec, x))


def _logistic_basis(spec: DiffusionSpec, rho: float) -> ExcessiveBasis:
    # near 0 the drift is ~ alpha*x, so the exponent b matches the GBM root
    b, _ = _gbm_roots(spec.alpha, spec.beta, rho)
    c = 2.0 * spec.alpha / spec.beta ** 2
    k = c * spec.gamma
    bt = 2.0 * b + c

    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, b) * _m_vec(b, bt, k * x)

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, b) * _u_vec(b, bt, k * x)

    def psi_prime(x):
        x = np.asarray(x, dtype=float)
        m0 = _m_vec(b, bt, k * x)
        m1 = _m_vec(b + 1.0, bt + 1.0, k * x)
        return np.power(x, b - 1.0) * (b * m0 + (k * x) * (b / bt) * m1)

    def phi_prime(x):
        x = np.asarray(x, dtype=float)
        u0 = _u_vec(b, bt, k * x)
        u1 = _u_vec(b + 1.0, bt + 1.0, k * x)
        return np.power(x, b - 1.0) * (b * u0 - (k * x) * b * u1)

    x_ref = np.asarray([1.0])
    w = float(((psi_prime(x_ref) * phi(x_ref) - phi_prime(x_ref) * psi(x_ref))
               / scale_density(spec, x_ref))[0])
    return ExcessiveBasis(
        rho=rho, psi=psi, phi=phi, psi_prime=psi_prime, phi_prime=phi_prime,
        wronskian=w, scale=lambda x: scale_density(spec, x))


class _RiccatiCore:
    """Numerically built psi/phi pair for a CUSTOM model.

    Solves s' = s - s^2 + r(v) - q(v) s on v = ln x for s = (ln u)',
    with q = 2 x drift / vol^2 and r = 2 x^2 rho / vol^2, by collocation
    (_collocate) at the nodes of the tables' half-unit panels of ln x in
    [-32, 32], from one call of drift and of vol, marching up for psi
    and down for phi; values that are not finite raise, without numpy
    warnings. Each branch's _PanelTable of s reads those panels as
    states reach them; u = exp(integral_0^v s), so u(1) = 1. A state
    outside [x_lo, x_hi] = [e^-30, e^30] raises.
    """

    def __init__(self, spec: DiffusionSpec, rho: float):
        self._spec = spec
        self._rho = rho
        self._shoot(-_SPAN, _SPAN)

    @np.errstate(all="ignore")
    def _shoot(self, v_lo: float, v_hi: float) -> None:
        k_lo, k_hi = (round(v / _PANEL_WIDTH) for v in (v_lo - _SHOT_BUFFER, v_hi + _SHOT_BUFFER))
        lefts = _PANEL_WIDTH * np.arange(k_lo, k_hi, dtype=float)
        nodes = _nodes(lefts, np.full(lefts.size, _PANEL_WIDTH))
        x = np.exp(nodes.ravel())
        d, s2 = self._spec.drift(x), self._spec.vol(x) ** 2
        bad = np.flatnonzero(~((s2 > 0.0) & (s2 < math.inf)))
        if bad.size:
            raise ConstructionError(
                f"volatility squared is {s2[bad[0]]} at x={x[bad[0]]:.6g}, where the "
                f"shot for rho={self._rho} needs it positive and finite")
        q = np.reshape(2.0 * x * d / s2, nodes.shape)
        r = np.reshape(2.0 * x * x * self._rho / s2, nodes.shape)
        failed = (f"eigenfunction shooting failed for rho={self._rho} "
                  f"on x in [{math.exp(v_lo):.3g}, {math.exp(v_hi):.3g}]")
        up = _collocate(q, r, 1.0, failed)
        down = _collocate(q[::-1, ::-1], r[::-1, ::-1], -1.0, failed)[::-1, ::-1]
        if np.any(up < -1e-9):
            raise ConstructionError("increasing eigenfunction lost monotonicity")
        if np.any(down > 1e-9):
            raise ConstructionError("decreasing eigenfunction lost monotonicity")
        # psi = phi = S' = 1 at x = 1, so the wronskian is psi'(1) - phi'(1)
        self.wronskian = float(up[-k_lo, 0] - down[-k_lo, 0])
        # the rows hold s to a few ulp, so their series are chopped at 64 ulp
        self._tables = {which: _PanelTable(
            _panel_rows(nodes, rows, f"(ln {which})'"),
            64.0 * np.finfo(float).eps, f"(ln {which})'", round(v_hi / _PANEL_WIDTH))
            for which, rows in (("psi", up), ("phi", down))}
        self.v_lo, self.v_hi = v_lo, v_hi
        self.x_lo, self.x_hi = math.exp(v_lo), math.exp(v_hi)

    def eval(self, x: np.ndarray, which: str, deriv: bool) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _check_states(x)
        v = np.log(x).ravel()
        if v.size and not (float(np.min(v)) >= self.v_lo and float(np.max(v)) <= self.v_hi):
            raise ConstructionError(
                f"state outside supported range [{self.x_lo:.3g}, {self.x_hi:.3g}]")
        if deriv:
            w, s = self._tables[which](v, slope=True)
            out = np.exp(w) * s / x.ravel()
        else:
            out = np.exp(self._tables[which](v))
        return out.reshape(np.shape(x)) if np.shape(x) else out[0]


def _collocate(q: np.ndarray, r: np.ndarray, sign: float, failed: str) -> np.ndarray:
    """s on the (n, 33) panel rows of a march along which v rises for
    sign = 1 and falls for sign = -1; ConstructionError(failed) if
    Newton does not reach finite values within _NEWTON_STEPS.

    The march starts on the root of s^2 - (1 - q) s - r = 0 taken with
    the sign, as Newton does at every node. Each panel's first node
    takes the last value of the one before; at the other 32 the
    derivative of the panel's interpolant meets the equation. A step
    solves the (n, 32, 32) blocks for each panel's own change and its
    change per change of its first node, then carries those along."""
    s = 0.5 * ((1.0 - q) + sign * np.sqrt((1.0 - q) ** 2 + 4.0 * r))
    # along the march, d/dv is the sign times the derivative along the nodes
    d = (sign * 2.0 / _PANEL_WIDTH) * _derivative_map()
    # the roots at each panel's first node are those at the last before
    q, r, inner = q[:, 1:], r[:, 1:], s[:, 1:]
    for _ in range(_NEWTON_STEPS):
        residual = s @ d[1:].T - (inner * (1.0 - q - inner) + r)
        jac = d[1:, 1:] - (1.0 - q - 2.0 * inner)[:, :, None] * np.eye(_DEGREE)
        rhs = np.stack((-residual, np.broadcast_to(-d[1:, 0], inner.shape)), axis=-1)
        try:
            own, per_head = np.moveaxis(np.linalg.solve(jac, rhs), -1, 0)
        except np.linalg.LinAlgError:  # an exactly singular block
            raise ConstructionError(failed) from None
        head_steps = [0.0]
        for a, b in zip(own[:-1, -1].tolist(), per_head[:-1, -1].tolist()):
            head_steps.append(a + b * head_steps[-1])
        step = own + per_head * np.array(head_steps)[:, None]
        inner += step
        s[1:, 0] = s[:-1, -1]
        if not np.all(np.isfinite(inner)):
            raise ConstructionError(failed)
        if np.max(np.abs(step) / (1.0 + np.abs(inner))) <= 1e-13:
            return s
    raise ConstructionError(failed)


def _panel_rows(nodes: np.ndarray, rows: np.ndarray, what: str) -> Callable:
    """sample(v) = the rows of the panels whose nodes v holds, one panel
    to a row; any other node raises, as nothing is interpolated."""
    def sample(v: np.ndarray) -> np.ndarray:
        at = np.rint((v[:, 0] - nodes[0, 0]) / _PANEL_WIDTH).astype(np.intp)
        missed = np.any(nodes[at] != v, axis=1)
        if missed.any():
            lo, hi = np.exp(v[missed][0, [0, -1]])
            raise ConstructionError(
                f"{what} is known only at its panels' nodes, not on x in [{lo:.6g}, {hi:.6g}]")
        return rows[at]

    return sample


@lru_cache(maxsize=_CUSTOM_CACHE_SIZE)
def _custom_basis(spec: DiffusionSpec, rho: float) -> ExcessiveBasis:
    core = _RiccatiCore(spec, rho)
    return ExcessiveBasis(
        rho=rho,
        psi=lambda x: core.eval(x, "psi", False),
        phi=lambda x: core.eval(x, "phi", False),
        psi_prime=lambda x: core.eval(x, "psi", True),
        phi_prime=lambda x: core.eval(x, "phi", True),
        wronskian=core.wronskian,
        scale=lambda x: scale_density(spec, x),
        x_lo=core.x_lo, x_hi=core.x_hi)


@lru_cache(maxsize=128)
def _closed_form_basis(spec: DiffusionSpec, rho: float) -> ExcessiveBasis:
    if spec.kind is DiffusionKind.LOGISTIC and spec.gamma != 0.0:
        return _logistic_basis(spec, rho)
    return _gbm_basis(spec, rho)


def excessive_basis(spec: DiffusionSpec, rho: float) -> ExcessiveBasis:
    """Increasing/decreasing solutions of A u = rho u for this model.

    Results are cached per (spec, rho). CUSTOM bases, which hold the
    collocated values of two branches and their panel tables each and
    whose specs are new with every new callable, have a cache of their
    own of _CUSTOM_CACHE_SIZE entries.
    Raises ConstructionError if a numeric basis cannot be built or
    loses monotonicity.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"discount rate rho must be positive and finite, got {rho}")
    if spec.kind is DiffusionKind.CUSTOM:
        return _custom_basis(spec, rho)
    return _closed_form_basis(spec, rho)


def _cache_info():
    """functools' cache statistics summed over both basis caches, so
    that excessive_basis.cache_info() reads as for a single cache."""
    infos = (_closed_form_basis.cache_info(), _custom_basis.cache_info())
    return type(infos[0])(*map(sum, zip(*infos)))


excessive_basis.cache_info = _cache_info


def wronskian_check(basis: ExcessiveBasis, grid) -> float:
    """Max relative deviation of (psi' phi - phi' psi)/S' from its
    stored constant over the given state grid."""
    x = np.asarray(grid, dtype=float)
    w = (basis.psi_prime(x) * basis.phi(x) - basis.phi_prime(x) * basis.psi(x)) \
        / basis.scale(x)
    return float(np.max(np.abs(w - basis.wronskian)) / abs(basis.wronskian))
