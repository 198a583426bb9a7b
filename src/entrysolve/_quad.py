"""Quadrature helpers on the logarithmic state axis.

Every integral in this package runs over (0, inf) against integrands that
decay like powers or exponentials of the state. Working on v = ln(x) with
composite fixed-order Gauss-Legendre panels equidistributes resolution
across scales and keeps evaluation vectorized and deterministic.

One panel routine does all the work: it sums 32-node (or 16-node)
Gauss-Legendre panels and hands the integrand at most 16 panels per
call, so the arrays the integrand builds stay small however many
intervals are asked for.

fixed_panels integrates finite intervals elementwise over arrays of
endpoints, each on panels at most 0.5 wide. An interval whose 32- and
16-node sums disagree beyond 1e-8 of its integral of |f| is redone once
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
_NODES = 32
_PANEL_WIDTH = 0.5
_WINDOW = 1.0
_REL_TOL = 1e-12
_MAX_WINDOWS = 240
# panels per integrand call: bounds the width of every array f sees
_BLOCK = 16

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


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


def _panel_sums(f: Callable, mid: np.ndarray, half: np.ndarray,
                nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(x) dx and of |f(x)| dx over each panel
    [mid - half, mid + half] in v = ln x, by `nodes`-point Gauss-Legendre.
    Each call of f sees at most _BLOCK panels."""
    t, w = _gl_nodes(nodes)
    sums = np.empty(mid.size)
    abs_sums = np.empty(mid.size)
    for lo in range(0, mid.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        v = (mid[block, None] + half[block, None] * t).ravel()
        x = np.exp(v)
        vals = np.asarray(f(x), dtype=float) * x  # jacobian dx = x dv
        terms = vals.reshape(-1, nodes) * (half[block, None] * w)
        sums[block] = terms.sum(axis=1)
        abs_sums[block] = np.abs(terms).sum(axis=1)
    return sums, abs_sums


def _log_panels(f: Callable, va: np.ndarray, vb: np.ndarray, width: float,
                nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(x) dx and of |f(x)| dx over x in [e^va_i, e^vb_i],
    elementwise, on panels at most `width` wide in v."""
    owner, mid, half = _panels(va, vb, width)
    sums, abs_sums = _panel_sums(f, mid, half, nodes)
    return (np.bincount(owner, sums, minlength=va.size),
            np.bincount(owner, abs_sums, minlength=va.size))


# the walker's panels, on its window scaled to [0, 1]
_, _WINDOW_MID, _WINDOW_HALF = _panels(np.zeros(1), np.ones(1), _PANEL_WIDTH / _WINDOW)


def _unconverged(hi: np.ndarray, lo: np.ndarray, mass: np.ndarray, tol: float) -> np.ndarray:
    """Indices where the two orders disagree beyond tol of the mass; a
    non-finite sum never passes."""
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(~(np.abs(hi - lo) <= tol * np.maximum(mass, 1e-300)))


def fixed_panels(f: Callable, a, b):
    """Integrate f over finite intervals [a, b], 0 < a <= b, elementwise
    over arrays of endpoints; scalar endpoints give a float.

    For each interval a nested lower-order pass estimates the error;
    disagreement beyond 1e-8 of the integral of |f| triggers one
    refinement, and persistent disagreement (a non-finite integral
    included) raises QuadratureError naming the interval.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bad = ~((0.0 < a) & (a <= b) & (b < math.inf))
    if bad.any():
        j = np.argmax(bad)
        raise ValueError(f"need 0 < a <= b < inf, got [{a.flat[j]}, {b.flat[j]}]")
    va, vb = np.log(a.ravel()), np.log(b.ravel())
    hi, mass = _log_panels(f, va, vb, _PANEL_WIDTH, _NODES)
    lo, _ = _log_panels(f, va, vb, _PANEL_WIDTH, _NODES // 2)
    redo = _unconverged(hi, lo, mass, 1e-8)
    if redo.size:
        hi2, mass2 = _log_panels(f, va[redo], vb[redo], _PANEL_WIDTH / 4.0, _NODES)
        lo2, _ = _log_panels(f, va[redo], vb[redo], _PANEL_WIDTH / 4.0, _NODES // 2)
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
        sums, _ = _panel_sums(f, va + (vb - va) * _WINDOW_MID, (vb - va) * _WINDOW_HALF, _NODES)
        wk = float(sums.sum())
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
