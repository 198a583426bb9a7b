"""Confluent hypergeometric functions M (Kummer) and U (Tricomi).

The increasing and decreasing eigenfunctions of mean-reverting state
models reduce to M and U with first parameter a > 0 and argument z >= 0
proportional to state, which is the regime this module targets.

Evaluation strategy:
  * M: scipy.special.hyp1f1, after rejecting a non-positive integer b
    (a pole of M). Against 40-digit references it is good to about
    1e-14 relative over the logistic models' parameters and z up to 700.
  * U: Laplace integral U(a,b,z) = gamma(a)^-1 integral_0^inf e^(-zt)
    t^(a-1) (1+t)^(b-a-1) dt, rescaled to s = z t. A generalized
    Gauss-Laguerre rule with weight s^(a-1) e^(-s) handles a >= 3 or
    z >= 0.75 at near machine precision; outside that window an adaptive
    two-piece quadrature with an endpoint-flattening substitution is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import hyp1f1, roots_genlaguerre

from .errors import AccuracyError

_GL_NODES = 128


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and float(b).is_integer()


@dataclass(frozen=True)
class HypergeometricArgs:
    """Argument triple (a, b, z) with the domain checks shared by M and U."""

    a: float
    b: float
    z: float

    def __post_init__(self):
        if _is_nonpositive_integer(self.b):
            raise ValueError(f"second parameter b={self.b} is a non-positive integer")
        if self.z < 0.0:
            raise ValueError(f"argument z={self.z} must be non-negative")


def _m_vec(a: float, b: float, z) -> np.ndarray:
    """Vectorized M(a, b, z) over a float array z (signed z allowed)."""
    if _is_nonpositive_integer(b):
        raise ValueError(f"second parameter b={b} is a non-positive integer")
    return hyp1f1(a, b, np.asarray(z, dtype=float))


def kummer_m(args: HypergeometricArgs) -> float:
    """Kummer's function M(a, b, z) = sum_n (a)_n z^n / ((b)_n n!)."""
    return float(_m_vec(args.a, args.b, np.asarray([args.z]))[0])


@lru_cache(maxsize=64)
def _genlaguerre_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    s, w = roots_genlaguerre(n, alpha)
    return s, w


def _u_prefactor(a: float, b: float, z: np.ndarray) -> np.ndarray:
    return np.exp((1.0 - b) * np.log(z) - math.lgamma(a))


def _u_scalar_quad(a: float, b: float, z: float) -> float:
    """Adaptive evaluation of the Laplace integral, accurate for all z > 0.

    Splits at s = z; the lower piece uses s = z * w^(1/a) to flatten the
    s^(a-1) weight so QUADPACK sees a smooth integrand.
    """
    pw = b - a - 1.0

    def f_low(wv: float) -> float:
        u = wv ** (1.0 / a)
        return math.exp(-z * u) * (1.0 + u) ** pw

    i1, e1 = quad(f_low, 0.0, 1.0, epsabs=1e-300, epsrel=1e-13, limit=200)
    i1 *= z ** (b - 1.0) / a

    def f_high(s: float) -> float:
        return math.exp(-s + (a - 1.0) * math.log(s)) * (z + s) ** pw

    i2, e2 = quad(f_high, z, np.inf, epsabs=1e-300, epsrel=1e-13, limit=200)
    total = i1 + i2
    if total != 0.0 and (abs(e1) + abs(e2)) > 1e-9 * abs(total):
        raise AccuracyError(
            f"adaptive quadrature for U(a={a}, b={b}, z={z}) reported "
            f"error {abs(e1) + abs(e2):.3e} against value {total:.3e}")
    return float(_u_prefactor(a, b, np.asarray(z)) * total)


def _u_vec(a: float, b: float, z) -> np.ndarray:
    """Vectorized U(a, b, z) for z > 0, a > 0."""
    if a <= 0.0:
        raise ValueError(f"first parameter a={a} must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("argument z must be positive (U diverges at z = 0 for b >= 1)")
    out = np.empty_like(z)
    fast = (a >= 3.0) | (z >= 0.75)
    if np.any(fast):
        s, w = _genlaguerre_rule(a - 1.0, _GL_NODES)
        zf = z[fast]
        vals = np.sum(w[None, :] * (zf[:, None] + s[None, :]) ** (b - a - 1.0), axis=1)
        out[fast] = _u_prefactor(a, b, zf) * vals
    slow = ~fast
    if np.any(slow):
        out[slow] = [_u_scalar_quad(a, b, float(zi)) for zi in z[slow]]
    return out


def tricomi_u(args: HypergeometricArgs) -> float:
    """Tricomi's function U(a, b, z) for a > 0, z > 0.

    Positive and strictly decreasing in z; dU/dz = -a U(a+1, b+1, z).
    """
    if args.a <= 0.0:
        raise ValueError(f"first parameter a={args.a} must be positive")
    if args.z <= 0.0:
        raise ValueError(
            f"argument z={args.z} is outside the domain (U diverges at z = 0 for b >= 1)")
    return _u_scalar_quad(args.a, args.b, args.z)
