"""Quadrature helpers on the logarithmic state axis.

Every integral in this package runs over (0, inf) against integrands that
decay like powers or exponentials of the state. Working on v = ln(x) with
composite fixed-order Gauss-Legendre panels equidistributes resolution
across scales and keeps evaluation vectorized and deterministic.

The two open-ended entry points share one walker. It integrates
unit-width log windows away from a finite endpoint, down toward 0 or up
toward infinity, until two windows in a row add less than 1e-12 of the
accumulated L1 mass. It raises QuadratureError when a window's integral
is not finite, when 240 windows do not suffice, and, on the way up, when
four windows in a row grow. When a hard truncation limit is supplied
(numeric bases are only known on a finite working interval) the
remaining tail is estimated by geometric extrapolation of the observed
per-window decay.
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

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def _log_panels(f: Callable, va: float, vb: float, max_width: float, nodes: int) -> float:
    """Integrate f(x) dx over x in [e^va, e^vb] with log-axis panels."""
    if vb <= va:
        return 0.0
    nseg = max(1, int(math.ceil((vb - va) / max_width)))
    edges = np.linspace(va, vb, nseg + 1)
    t, w = _gl_nodes(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    v = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    x = np.exp(v)
    vals = np.asarray(f(x), dtype=float) * x  # jacobian dx = x dv
    return float(np.sum(vals.reshape(nseg, nodes) * (half[:, None] * w[None, :])))


def fixed_panels(f: Callable, a: float, b: float) -> float:
    """Integrate f over a finite interval [a, b], 0 < a <= b.

    A nested lower-order pass estimates the error; disagreement beyond
    1e-8 relative triggers one refinement, and persistent disagreement
    raises QuadratureError.
    """
    if not (0.0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    va, vb = math.log(a), math.log(b)
    hi = _log_panels(f, va, vb, _PANEL_WIDTH, _NODES)
    lo = _log_panels(f, va, vb, _PANEL_WIDTH, _NODES // 2)
    scale = max(abs(hi), 1e-300)
    if abs(hi - lo) <= 1e-8 * scale:
        return hi
    hi2 = _log_panels(f, va, vb, _PANEL_WIDTH / 4.0, _NODES)
    lo2 = _log_panels(f, va, vb, _PANEL_WIDTH / 4.0, _NODES // 2)
    if abs(hi2 - lo2) <= 1e-7 * max(abs(hi2), 1e-300):
        return hi2
    raise QuadratureError(
        f"panel integral on [{a}, {b}] failed to converge "
        f"(refined disagreement {abs(hi2 - lo2):.3e})")


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
        wk = _log_panels(f, math.log(a), math.log(b), _PANEL_WIDTH, _NODES)
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
