"""Revenue-flow payoff functions h(x) for the entry model.

A payoff is a non-negative, non-decreasing flow received while the
project is active, as a function of the state x > 0. The factories
below cover the shapes used in practice; ``custom`` wraps any callable
after probing it for the same basic sanity requirements.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class PayoffKind(Enum):
    POWER = "power"
    AFFINE = "affine"
    SATURATING = "saturating"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Payoff:
    """Flow payoff h with vectorized evaluator and shape metadata.

    Attributes:
        kind: which factory built this payoff.
        evaluator: vectorized callable, ndarray in, ndarray out.
        params: the factory parameters, for reporting.
    """

    kind: PayoffKind
    evaluator: Callable[[np.ndarray], np.ndarray]
    params: tuple

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


_PROBE = np.array([1e-4, 1e-2, 0.5, 1.0, 3.0, 10.0, 1e3, 1e6])


def _validate(evaluator: Callable[[np.ndarray], np.ndarray], label: str) -> None:
    vals = np.asarray(evaluator(_PROBE), dtype=float)
    if vals.shape != _PROBE.shape:
        raise ValueError(f"{label} payoff evaluator must preserve input shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{label} payoff takes non-finite values on (0, inf)")
    if np.any(vals < 0.0):
        raise ValueError(f"{label} payoff takes negative values; flows must be >= 0")
    if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
        raise ValueError(f"{label} payoff is decreasing on the probe grid")


def power(theta: float) -> Payoff:
    """h(x) = x**theta with theta > 0."""
    if theta <= 0.0:
        raise ValueError(f"power payoff needs theta > 0, got {theta}")

    def ev(x: np.ndarray) -> np.ndarray:
        return np.power(x, theta)

    return Payoff(PayoffKind.POWER, ev, (theta,))


def affine(slope: float) -> Payoff:
    """h(x) = slope * x. slope = 0 is allowed and gives the degenerate
    zero payoff, for which entry is never worthwhile."""
    if slope < 0.0:
        raise ValueError(f"affine payoff needs slope >= 0, got {slope}")

    def ev(x: np.ndarray) -> np.ndarray:
        return slope * x

    return Payoff(PayoffKind.AFFINE, ev, (slope,))


def saturating(cap: float, scale: float) -> Payoff:
    """h(x) = cap * (1 - exp(-scale * x)), bounded by cap."""
    if cap <= 0.0 or scale <= 0.0:
        raise ValueError(f"saturating payoff needs cap > 0 and scale > 0, got {cap}, {scale}")

    def ev(x: np.ndarray) -> np.ndarray:
        return cap * (-np.expm1(-scale * x))

    return Payoff(PayoffKind.SATURATING, ev, (cap, scale))


def custom(evaluator: Callable[[np.ndarray], np.ndarray]) -> Payoff:
    """Wrap a user callable; it is probed for shape, finiteness,
    non-negativity and monotonicity before acceptance."""
    def ev(x: np.ndarray) -> np.ndarray:
        return np.asarray(evaluator(x), dtype=float)

    _validate(ev, "custom")
    return Payoff(PayoffKind.CUSTOM, ev, (evaluator,))


def limit_at_infinity(h: Payoff) -> float:
    """Limit of h at +infinity, or +inf if h grows without bound.

    Probes x = 1e4 * 2**k. Raises ValueError if the probe sequence is
    neither settling nor clearly growing.
    """
    if h.kind is PayoffKind.POWER:
        return np.inf
    if h.kind is PayoffKind.AFFINE:
        return np.inf if h.params[0] > 0.0 else 0.0
    if h.kind is PayoffKind.SATURATING:
        return float(h.params[0])
    xs = 1e4 * np.power(2.0, np.arange(0, 24))
    vals = np.asarray(h(xs), dtype=float)
    diffs = np.abs(np.diff(vals))
    scale = np.maximum(1.0, np.abs(vals[:-1]))
    if np.all(diffs[-4:] <= 1e-10 * scale[-4:]):
        return float(vals[-1])
    if np.all(np.diff(vals)[-4:] > 0.0) and vals[-1] > 2.0 * vals[len(vals) // 2]:
        return np.inf
    raise ValueError("cannot classify payoff tail: neither settled nor clearly growing")
