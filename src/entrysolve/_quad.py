"""Quadrature helpers on the logarithmic state axis.

Every integral in this package runs over (0, inf) against integrands that
decay like powers or exponentials of the state. Working on v = ln(x) with
composite fixed-order panels equidistributes resolution across scales
and keeps evaluation vectorized and deterministic.

One panel rule does all the work: Clenshaw-Curtis on the 33
Chebyshev-Lobatto nodes of each panel, ends included, at most 15 panels
per integrand call. A panel is fitted once, as the Chebyshev series of
its interpolant's antiderivative; the largest gap between that and the
nested 17-node rule's antiderivative at the nodes is its error. The fits
serve fixed_panels and the tables of diffusions; the same series give
the differentiation matrix of diffusions' collocation.

fixed_panels integrates between the ascending edges of one run,
[xs_i, xs_(i+1)] for each i. The run is cut into the fewest equal
panels at most 0.5 wide in ln x, and each interval takes its part of
the panels it overlaps. A panel whose gap is not within 1e-8 of its
integral of |f| is refitted as four quarter-width pieces at 1e-7. An
interval over a piece that still fails, a non-finite one included, is
redone as a run of its own; failing alone, it raises QuadratureError
naming the interval.

The open-ended entry points share one walker: unit-width log windows of
two panels each, up to 7 per integrand call but taken one at a time,
away from a finite endpoint toward 0 or infinity until two windows in a
row add less than 1e-12 of the accumulated L1 mass. It raises
QuadratureError when a window's integral is not finite, when 240
windows do not suffice, and, on the way up, when four windows in a row
grow. Given a hard truncation limit (numeric bases are only known on a
finite working interval) the remaining tail is extrapolated
geometrically from the per-window decay.
"""
from __future__ import annotations

import math
from functools import lru_cache
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
_EPS = np.finfo(float).eps


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


# Clenshaw-Curtis weights, all positive: the antiderivative at t = 1,
# where every T_k is 1 (no BLAS or LAPACK at import)
_WEIGHTS = _antiderivative_map(_DEGREE).sum(axis=0)


@lru_cache(maxsize=1)
def _cheb_maps() -> tuple[np.ndarray, np.ndarray]:
    """The parabola through a panel's values at t = -1, 0, 1, on the
    nodes; and the map from the values less it, then those three, to the
    antiderivative series, the gap between it and the nested rule's at
    the nodes, and the integral. Built on first use, not at import."""
    t = _NODES
    parabola = np.stack((0.5 * t * (t - 1.0), 1.0 - t * t, 0.5 * t * (t + 1.0)))
    anti = _antiderivative_map(_DEGREE)
    gap = np.polynomial.chebyshev.chebvander(t, _DEGREE + 1) @ anti
    gap[:, ::2] -= (np.polynomial.chebyshev.chebvander(t, _DEGREE // 2 + 1)
                    @ _antiderivative_map(_DEGREE // 2))
    # both rules integrate the parabola exactly: its series is that of
    # the 3-node interpolant, and it leaves no gap
    par_anti = np.zeros((_DEGREE + 2, 3))
    par_anti[:4] = _antiderivative_map(2)
    maps = np.block([[anti, par_anti],
                     [gap, np.zeros((_DEGREE + 1, 3))],
                     [_WEIGHTS, par_anti.sum(axis=0)]])
    return parabola, maps.T


@lru_cache(maxsize=1)
def _derivative_map() -> np.ndarray:
    """Chebyshev differentiation matrix on the 33 nodes: values there to
    the derivative in t of their interpolant there, the second derivative
    of _antiderivative_map's series. Built on first use, not at import."""
    d = (np.polynomial.chebyshev.chebvander(_NODES, _DEGREE - 1)
         @ np.polynomial.chebyshev.chebder(_antiderivative_map(_DEGREE), 2, axis=0))
    # rows summing to 0, as a constant's derivative does, cut the error of
    # smooth values' derivatives from about 1e-11 to 3e-13
    d[np.diag_indices_from(d)] -= d.sum(axis=1)
    return d


def _clenshaw_slope(coefs: np.ndarray, piece: np.ndarray, t0: np.ndarray,
                    t1: np.ndarray) -> np.ndarray:
    """(S(t1) - S(t0)) / (t1 - t0), S'(t0) if t1 = t0, for S = sum_k
    coefs[k, piece] T_k elementwise, accurate however close t1 is to t0:
    Clenshaw's recurrence for 2 b_k at t0 with its divided differences
    d_k = 2 t1 d_(k+1) + 2 b_(k+1)(t0) - d_(k+2)."""
    twice = 2.0 * coefs[:, piece]
    t0, t1 = 2.0 * t0, 2.0 * t1
    b1 = b2 = d1 = d2 = np.zeros_like(t0)
    for c in twice[:0:-1]:
        b1, b2, d1, d2 = c + t0 * b1 - b2, b1, t1 * d1 + b1 - d2, d1
    return 0.5 * (b1 + t1 * d1) - d2


def _log_sampler(fx: Callable) -> Callable:
    """sample(v) = fx(e^v) on an (n, 33) array of log nodes, with each
    call of fx seeing at most _BLOCK rows."""
    def sample(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape)
        for lo in range(0, len(v), _BLOCK):
            x = np.exp(v[lo:lo + _BLOCK].ravel())
            out[lo:lo + _BLOCK] = np.reshape(fx(x), (-1, _NODES.size))
        return out

    return sample


def _nodes(lefts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The (n, 33) nodes of v at which _fit samples the pieces
    [left, left + width], ascending along each row."""
    return lefts[:, None] + (0.5 * widths)[:, None] * (_NODES + 1.0)


def _quarters(lefts: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lefts and widths of the four quarter-width pieces of each piece
    [left, left + width], ascending, as _pieces refits them."""
    quarter = np.repeat(0.25 * widths, 4)
    return (lefts[:, None] + quarter.reshape(-1, 4) * np.arange(4.0)).ravel(), quarter


def _fit(sample: Callable, lefts: np.ndarray, widths: np.ndarray, tol: float):
    """Antiderivative series (one row per piece), integrals, fit gaps and
    the indices that fail tol, of g = sample(v) on the pieces
    [left, left + width] of v; a piece where g is not finite fails."""
    parabola, maps = _cheb_maps()
    with np.errstate(all="ignore"):
        vals = sample(_nodes(lefts, widths)) * (0.5 * widths)[:, None]
        # both rules are exact for the parabola through the middle and end
        # nodes, so rounding scales with g less it
        ends = vals[:, ::_DEGREE // 2]
        dev = vals - np.einsum("ij,jk->ik", ends, parabola)
        # einsum: BLAS sums depend on a row's place, a fit on its neighbours
        fit = np.einsum("ij,jk->ik", np.concatenate((dev, ends), axis=1), maps)
        gap = np.abs(fit[:, _DEGREE + 2:-1]).max(axis=1)
        mass = np.einsum("ij,j->i", np.abs(vals), _WEIGHTS)
        # strictly: an infinite gap never passes an infinite mass
        bad = np.flatnonzero(~(gap < tol * np.maximum(mass, 1e-300)))
    return fit[:, :_DEGREE + 2], fit[:, -1], gap, bad


def _pieces(sample: Callable, lefts: np.ndarray, widths: np.ndarray) -> tuple:
    """Lefts, widths, series (one column each) and integrals of the fitted
    pieces of the panels [left, left + width], each failing 1e-8 replaced
    in place by four quarter-width ones at 1e-7; those still failing and
    their gaps."""
    coefs, integrals, _, redo = _fit(sample, lefts, widths, 1e-8)
    failed, gaps = redo, np.empty(0)
    if redo.size:
        sub, quarter = _quarters(lefts[redo], widths[redo])
        sub_coefs, sub_integrals, sub_gaps, sub_failed = _fit(sample, sub, quarter, 1e-7)
        counts = np.ones(lefts.size, dtype=np.intp)
        counts[redo] = 4
        at = ((np.cumsum(counts) - 4)[redo, None] + np.arange(4)).ravel()
        lefts, widths, coefs, integrals = (
            np.repeat(a, counts, axis=0) for a in (lefts, widths, coefs, integrals))
        lefts[at], widths[at], coefs[at], integrals[at] = sub, quarter, sub_coefs, sub_integrals
        failed, gaps = at[sub_failed], sub_gaps[sub_failed]
    return lefts, widths, coefs.T, integrals, failed, gaps


# the walker's panel nodes and weights: two panels of half its window,
# which is scaled to [0, 1]
_WINDOW_NODES = (np.array([[0.25], [0.75]]) + 0.25 * _NODES).ravel()
_WINDOW_WEIGHTS = np.tile(0.25 * _WEIGHTS, 2)


def _run_sums(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Integrals of f over [xs_i, xs_(i+1)] from one fit per panel of the
    run. An interval over a piece no fit accepts is redone alone, and
    alone raises QuadratureError."""
    v = np.log(xs)
    span = v[-1] - v[0]
    if span == 0.0:
        return np.zeros(v.size - 1)
    n = math.ceil(span / _PANEL_WIDTH)
    width = span / n
    lefts, widths, coefs, integrals, failed, gaps = _pieces(
        _log_sampler(lambda x: np.asarray(f(x), dtype=float) * x),  # dx = x dv
        v[0] + width * np.arange(n), np.full(n, width))
    if v.size == 2:
        if failed.size:
            raise QuadratureError(
                f"panel integral on [{xs[0]}, {xs[1]}] failed to converge "
                f"(refined disagreement {gaps[0]:.3e})")
        return integrals.sum(keepdims=True)
    # to the highest degree any piece needs: k c_k is about half the
    # interpolant's coefficient a_(k-1), dropped below rounding
    size = np.abs(coefs) * np.arange(len(coefs))[:, None]
    coefs = coefs[:1 + np.max(np.flatnonzero(np.any(size > _EPS * size.max(axis=0), axis=1)),
                              initial=0)]
    # pieces end where the next starts, tiling the run; an interval takes
    # its own ends in its first and last piece, the piece's edges between
    va, vb = v[:-1], v[1:]
    rights = np.append(lefts[1:], v[-1])
    head = np.searchsorted(lefts, va, side="right") - 1
    tail = np.searchsorted(lefts, vb, side="left") - 1
    n_seg = tail - head + 1
    seg = np.repeat(np.arange(va.size), n_seg)
    piece = head[seg] + np.arange(seg.size) - (np.cumsum(n_seg) - n_seg)[seg]
    lo = np.where(piece == head[seg], va[seg], lefts[piece])
    hi = np.where(piece == tail[seg], vb[seg], rights[piece])
    half = 0.5 * widths[piece]
    slope = _clenshaw_slope(coefs, piece, (lo - lefts[piece]) / half - 1.0,
                            (hi - lefts[piece]) / half - 1.0)
    sums = np.bincount(seg, (hi - lo) / half * slope, minlength=va.size)
    failed_before = np.bincount(failed + 1, minlength=lefts.size + 1).cumsum()
    for i in np.flatnonzero(failed_before[tail + 1] > failed_before[head]):
        sums[i:i + 1] = _run_sums(f, xs[i:i + 2])
    return sums


# a non-finite sum raises QuadratureError, so numpy's overflow warnings
# from f would only repeat it (here and in _walk)
@np.errstate(over="ignore", invalid="ignore")
def fixed_panels(f: Callable, xs) -> np.ndarray:
    """Integrals of f over [xs_i, xs_(i+1)] for the ascending edges
    0 < xs_0 <= xs_1 <= ... < inf of one run; one edge gives an empty
    array.

    The run is cut into the fewest equal panels at most 0.5 wide in
    ln x and fitted once per panel, the panel ends among the nodes, so f
    is evaluated at the run's ends as exp(ln xs_0), exp(ln xs_-1). An
    interval over a panel no fit accepts is redone alone, and alone
    raises QuadratureError (see the module docstring).
    """
    xs = np.asarray(xs, dtype=float)
    if not (xs.ndim == 1 and xs.size and 0.0 < xs[0] and xs[-1] < math.inf
            and np.all(xs[:-1] <= xs[1:])):
        raise ValueError(f"need 1-D ascending edges 0 < xs_0 <= ... < inf, got {xs}")
    return _run_sums(f, xs)


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
    window at a time, limit truncating the walk; windows are evaluated
    _BLOCK // 2 to an integrand call, those past the stop never seen."""
    total = total_abs = 0.0
    prev_w, calm, grow, taken, near = math.inf, 0, 0, 0, start
    step = math.exp(_WINDOW if up else -_WINDOW)
    while taken < _MAX_WINDOWS:
        # up to the limit (then the last end) or the floor; a window that
        # overflows only on its own, as a walk of one window per call would
        ends = [near]
        while len(ends) <= min(_BLOCK // 2, _MAX_WINDOWS - taken):
            far = ends[-1] * step
            if limit is not None and (far >= limit if up else far <= limit):
                far = limit
            elif far == math.inf and len(ends) > 1:
                break
            ends.append(far)
            if far in (limit, math.inf) or (not up and far <= _X_FLOOR):
                break
        fars = ends[1:]
        lo, hi = (ends[:-1], fars) if up else (fars, ends[:-1])
        va = np.array([math.log(e) for e in lo])
        span = np.array([math.log(e) for e in hi]) - va
        x = np.exp(va[:, None] + span[:, None] * _WINDOW_NODES)
        vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        sums = (vals * x * _WINDOW_WEIGHTS).sum(axis=1)
        for j, far in enumerate(fars):
            wk = float(sums[j]) * float(span[j])
            if not math.isfinite(wk):
                raise QuadratureError(f"integrand is not finite on [{lo[j]:.3g}, {hi[j]:.3g}]")
            total += wk
            total_abs += abs(wk)
            if far == limit:
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
            prev_w, near, taken = wk, far, taken + 1
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
