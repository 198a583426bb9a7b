"""Quadrature helpers on the logarithmic state axis.

Every integral in this package runs over (0, inf) against integrands that
decay like powers or exponentials of the state. Working on v = ln(x) with
composite fixed-order panels equidistributes resolution across scales
and keeps evaluation vectorized and deterministic.

One panel rule does all the work, and the CUSTOM scale exponent table
in diffusions uses it too: Clenshaw-Curtis on the 33 Chebyshev-Lobatto
nodes of each panel, ends included, whose every second node carries the
nested 17-node rule that estimates the error. One integrand call gives
both sums for up to 15 panels, so the arrays the integrand builds stay
small however many intervals are asked for.

fixed_panels integrates finite intervals elementwise over arrays of
endpoints, each on panels at most 0.5 wide. An interval whose 33- and
17-node sums disagree beyond 1e-8 of its integral of |f| is redone once
on panels a quarter as wide; one that still disagrees, a non-finite one
included, raises QuadratureError naming its endpoints.

The two open-ended entry points share one walker, which integrates
unit-width log windows of two panels each away from a finite endpoint,
down toward 0 or up toward infinity, until two windows in a row add less
than 1e-12 of the accumulated L1 mass. It raises QuadratureError when a
window's integral is not finite, when 240 windows do not suffice, and,
on the way up, when four windows in a row grow. When a hard truncation
limit is supplied (numeric bases are only known on a finite working
interval) the remaining tail is estimated by geometric extrapolation of
the observed per-window decay.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

# x below this is treated as the lower boundary itself
_X_FLOOR = 1e-280
# the _DEGREE + 1 Chebyshev-Lobatto nodes of [-1, 1], ascending; the
# nested rule takes every second one
_DEGREE = 32
_NODES = -np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
_PANEL_WIDTH = 0.5
_WINDOW = 1.0
_REL_TOL = 1e-12
_MAX_WINDOWS = 240
# panels per integrand call: 15 x 33 nodes bound the width of every array f sees
_BLOCK = 15


def _antiderivative_map(n: int) -> np.ndarray:
    """Matrix taking values at the n + 1 Chebyshev-Lobatto nodes (every
    _DEGREE / n-th of _NODES) to the Chebyshev coefficients of the
    antiderivative of their interpolant that vanishes at t = -1."""
    # by discrete orthogonality at these nodes, the inverse of the
    # Chebyshev-Vandermonde matrix is its transpose, scaled
    to_coefs = np.polynomial.chebyshev.chebvander(_NODES[::_DEGREE // n], n).T * (2.0 / n)
    to_coefs[:, [0, -1]] *= 0.5
    to_coefs[[0, -1]] *= 0.5
    return np.polynomial.chebyshev.chebint(to_coefs, lbnd=-1.0, axis=0)


# Clenshaw-Curtis weights of both rules, all positive: each antiderivative
# at t = 1, where every T_k is 1 (no BLAS or LAPACK at import)
_WEIGHTS = _antiderivative_map(_DEGREE).sum(axis=0)
_NESTED_WEIGHTS = _antiderivative_map(_DEGREE // 2).sum(axis=0)


def _panels(va: np.ndarray, vb: np.ndarray, width: float) -> tuple:
    """Cut each log interval [va_i, vb_i] into the fewest equal panels
    at most `width` wide; return every panel's interval index, midpoint
    and half-width."""
    span = vb - va
    counts = np.ceil(span / width).astype(np.intp)
    owner = np.repeat(np.arange(va.size), counts)
    half = 0.5 * span[owner] / counts[owner]
    k = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    return owner, va[owner] + (2 * k + 1) * half, half


def _panel_sums(f: Callable, mid: np.ndarray, half: np.ndarray) -> tuple:
    """Integrals of f(x) dx over each panel [mid - half, mid + half] in
    v = ln x by the 33- and the nested 17-node rule, and of |f(x)| dx by
    the 33-node rule. Each call of f sees at most _BLOCK panels."""
    hi = np.empty(mid.size)
    lo = np.empty(mid.size)
    mass = np.empty(mid.size)
    for start in range(0, mid.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        x = np.exp((mid[block, None] + half[block, None] * _NODES).ravel())
        vals = np.asarray(f(x), dtype=float) * x  # jacobian dx = x dv
        vals = vals.reshape(-1, _NODES.size) * half[block, None]
        hi[block] = (vals * _WEIGHTS).sum(axis=1)
        lo[block] = (vals[:, ::2] * _NESTED_WEIGHTS).sum(axis=1)
        mass[block] = (np.abs(vals) * _WEIGHTS).sum(axis=1)
    return hi, lo, mass


def _log_panels(f: Callable, va: np.ndarray, vb: np.ndarray, width: float) -> tuple:
    """_panel_sums' three integrals over x in [e^va_i, e^vb_i],
    elementwise, on panels at most `width` wide in v."""
    owner, mid, half = _panels(va, vb, width)
    return tuple(np.bincount(owner, sums, minlength=va.size)
                 for sums in _panel_sums(f, mid, half))


# the walker's panel nodes and weights, on its window scaled to [0, 1]
_, _WINDOW_MID, _WINDOW_HALF = _panels(np.zeros(1), np.ones(1), _PANEL_WIDTH / _WINDOW)
_WINDOW_NODES = (_WINDOW_MID[:, None] + _WINDOW_HALF[:, None] * _NODES).ravel()
_WINDOW_WEIGHTS = (_WINDOW_HALF[:, None] * _WEIGHTS).ravel()


def _unconverged(hi: np.ndarray, lo: np.ndarray, mass: np.ndarray, tol: float) -> np.ndarray:
    """Indices where the two rules disagree beyond tol of the mass; a
    non-finite sum never passes."""
    return np.flatnonzero(~(np.abs(hi - lo) <= tol * np.maximum(mass, 1e-300)))


# a non-finite sum raises QuadratureError, so numpy's overflow warnings
# from f would only repeat it (here and in _walk)
@np.errstate(over="ignore", invalid="ignore")
def fixed_panels(f: Callable, a, b):
    """Integrate f over finite intervals [a, b], 0 < a <= b, elementwise
    over arrays of endpoints; scalar endpoints give a float.

    Each interval is cut into panels at most 0.5 wide in ln x, each
    integrated by 33-node Clenshaw-Curtis with the panel ends as nodes,
    so f is evaluated at a and b (as exp(ln a), exp(ln b)). The nested
    17-node rule estimates the error; disagreement beyond 1e-8 of the
    integral of |f| triggers one refinement, and persistent disagreement
    (a non-finite integral included) raises QuadratureError naming the
    interval.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bad = ~((0.0 < a) & (a <= b) & (b < math.inf))
    if bad.any():
        j = np.argmax(bad)
        raise ValueError(f"need 0 < a <= b < inf, got [{a.flat[j]}, {b.flat[j]}]")
    va, vb = np.log(a.ravel()), np.log(b.ravel())
    hi, lo, mass = _log_panels(f, va, vb, _PANEL_WIDTH)
    redo = _unconverged(hi, lo, mass, 1e-8)
    if redo.size:
        hi2, lo2, mass2 = _log_panels(f, va[redo], vb[redo], _PANEL_WIDTH / 4.0)
        failed = _unconverged(hi2, lo2, mass2, 1e-7)
        if failed.size:
            j = failed[0]
            raise QuadratureError(
                f"panel integral on [{a.flat[redo[j]]}, {b.flat[redo[j]]}] failed to "
                f"converge (refined disagreement {abs(float(hi2[j]) - float(lo2[j])):.3e})")
        hi[redo] = hi2
    return float(hi[0]) if scalar else hi.reshape(a.shape)


def _tail_estimate(last: float, prev: float, where: str) -> float:
    # geometric extrapolation of per-window contributions beyond a hard limit
    if last == 0.0:
        return 0.0
    if prev == 0.0 or abs(last) >= abs(prev):
        raise QuadratureError(
            f"cannot extrapolate non-decaying tail beyond the {where} truncation limit")
    q = abs(last) / abs(prev)
    if q > 0.9:
        raise QuadratureError(
            f"tail decay too slow (ratio {q:.3f}) beyond the {where} truncation limit")
    return last * q / (1.0 - q)


@np.errstate(over="ignore", invalid="ignore")
def _walk(f: Callable, start: float, limit: float | None, up: bool) -> float:
    """Integrate f from start toward infinity (up) or toward 0, one log
    window at a time; limit, when given, truncates the walk there."""
    total = 0.0
    total_abs = 0.0
    prev_w = math.inf
    calm = 0
    grow = 0
    near = start
    for _ in range(_MAX_WINDOWS):
        far = near * math.exp(_WINDOW if up else -_WINDOW)
        truncated = limit is not None and (far >= limit if up else far <= limit)
        if truncated:
            far = min(far, limit) if up else max(far, limit)
        a, b = (near, far) if up else (far, near)
        va, vb = math.log(a), math.log(b)
        x = np.exp(va + (vb - va) * _WINDOW_NODES)
        wk = float((np.asarray(f(x), dtype=float) * x * _WINDOW_WEIGHTS).sum()) * (vb - va)
        if not math.isfinite(wk):
            raise QuadratureError(f"integrand is not finite on [{a:.3g}, {b:.3g}]")
        total += wk
        total_abs += abs(wk)
        if truncated:
            return total + _tail_estimate(wk, prev_w, "upper" if up else "lower")
        if abs(wk) <= _REL_TOL * max(total_abs, 1e-300):
            calm += 1
            if calm >= 2:
                return total
        else:
            calm = 0
        if up and abs(wk) > abs(prev_w) and math.isfinite(prev_w):
            grow += 1
            if grow >= 4:
                raise QuadratureError(
                    f"integrand keeps growing toward infinity above {start}; "
                    "the payoff is not integrable against this resolvent")
        else:
            grow = 0
        prev_w = wk
        near = far
        if not up and near <= _X_FLOOR:
            return total
    toward, side = ("infinity", "above") if up else ("the lower boundary", "below")
    raise QuadratureError(
        f"integral toward {toward} did not converge within {_MAX_WINDOWS} "
        f"windows {side} {start}")


def integrate_to_zero(f: Callable, hi: float, *, limit: float | None = None) -> float:
    """Integrate f over (0, hi], walking log windows down from hi."""
    if hi <= 0.0:
        raise ValueError(f"upper endpoint must be positive, got {hi}")
    if hi <= _X_FLOOR or (limit is not None and hi <= limit):
        return 0.0
    return _walk(f, hi, limit, up=False)


def integrate_to_inf(f: Callable, lo: float, *, limit: float | None = None) -> float:
    """Integrate f over [lo, inf), walking log windows up from lo."""
    if lo <= 0.0:
        raise ValueError(f"lower endpoint must be positive, got {lo}")
    if limit is not None and lo >= limit:
        return 0.0
    return _walk(f, lo, limit, up=True)
