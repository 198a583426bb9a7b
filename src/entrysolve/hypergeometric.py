"""Confluent hypergeometric functions M (Kummer) and U (Tricomi).

The increasing and decreasing eigenfunctions of mean-reverting state
models reduce to M and U with first parameter a > 0 and argument z >= 0
proportional to state, which is the regime this module targets.

Evaluation strategy:
  * M: scipy.special.hyp1f1, after rejecting a non-positive integer b
    (a pole of M). Against 40-digit references it is good to about
    1e-14 relative over the logistic models' parameters and z up to 700.
  * U: the Laplace integral (DLMF 13.4.4) rescaled to s = z t,
        U(a,b,z) = z^(1-b) / gamma(a) integral_0^inf e^(-s) s^(a-1) (z+s)^(b-a-1) ds,
    by fixed-node rules, each applied to a whole array of z at once.
    One 128-node generalized Gauss-Laguerre rule with weight
    s^(a-1) e^(-s) is used where it is accurate: z >= 0.75 for
    b >= a + 1, any z for a >= 3 and b >= a + 4, and z >= 5 for b < a + 1
    (_laguerre_floor). Below that the integral is split in three pieces:
      - [0, z], as s = z t: 20-node Gauss-Jacobi with weight t^(a-1),
        built by Golub-Welsch; the factor z^(1-b) cancels here;
      - [z, 1], on v = ln s: 12 Gauss-Legendre panels of 16 nodes whose
        widths double from both ends toward the middle, so that the
        panels next to s = z and s = 1 stay narrow however small z is;
      - [1, inf): 64-node Gauss-Laguerre in s - 1.
    Against mpmath at 40 digits the split is within 3.1e-14 relative
    for a in [0.05, 2.99], b in [0.4, 12.88] and z in [1e-4, 0.75]; over
    a up to 15, b from a - 5 to a + 10 and z up to 10 within 1e-13; and
    within 2.1e-13 for b from -2.5 to 30 and z down to 1e-250.
    A value that is not finite and positive (U overflows at small z
    when b is large) raises AccuracyError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad  # noqa: F401  unused; perfbench/tracing.py patches this name
from scipy.linalg import eigh_tridiagonal
from scipy.special import hyp1f1, roots_genlaguerre, roots_laguerre

from .errors import AccuracyError

_GL_NODES = 128
# points per Laguerre-sum block: a (points x nodes) temporary of 64 KB stays
# under glibc's 128 KB mmap threshold; larger ones can be mapped or trimmed
# and faulted in again on every call, which costs as much as the sum itself
_GL_BLOCK = 64
# the three pieces of the small-a, small-z rule
_JACOBI_NODES = 20
_PANELS = 12
_PANEL_NODES = 16
_TAIL_NODES = 64


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


@lru_cache(maxsize=64)
def _split_rule(a: float) -> tuple[np.ndarray, ...]:
    """Nodes and weights of the [0, z] and [1, inf) pieces of the split.

    Gauss-Jacobi for weight t^(a-1) on [0, 1] by Golub-Welsch, from the
    recurrence of the Jacobi polynomials P^(0, a-1) mapped to t = (1+x)/2:
    scipy's roots_sh_jacobi misses the first moment by 4e-12 at a = 0.05.
    Gauss-Laguerre in s - 1, with e^(-1) s^(a-1) folded into the weights.
    """
    beta = a - 1.0
    k = np.arange(1.0, _JACOBI_NODES)
    m = 2.0 * k + beta
    diag = np.concatenate(([a / (a + 1.0)], 0.5 + 0.5 * beta * beta / (m * (m + 2.0))))
    off = k * (k + beta) / (m * np.sqrt(m * m - 1.0))
    t, vecs = eigh_tridiagonal(diag, off, lapack_driver="stev")
    y, w = roots_laguerre(_TAIL_NODES)
    s = 1.0 + y
    return t, vecs[0] ** 2 / a, s, w * np.exp((a - 1.0) * np.log(s) - 1.0)


def _graded_panels() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], one row per panel;
    the panel widths double from both ends toward the middle."""
    half = 2.0 ** np.arange(_PANELS // 2)
    edges = np.cumsum(np.concatenate(([0.0], half, half[::-1])))
    edges /= edges[-1]
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    mid, rad = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return mid[:, None] + rad[:, None] * x, rad[:, None] * w


# the middle piece's nodes are v = r ln z, from r = 0 (s = 1) to r = 1 (s = z)
_PANEL_R, _PANEL_W = _graded_panels()


def _laguerre_floor(a: float, b: float) -> float:
    """Smallest z at which U is one generalized Laguerre sum; below it
    the three-piece split is used.

    The sum loses accuracy as the singularity of (z+s)^(b-a-1) at s = -z
    nears the rule's first nodes. Against mpmath it is within 3e-14 for
    z >= 0.75 when b >= a + 1, and at every z when also a >= 3 and
    b >= a + 4. For b < a + 1 it is off by 1e-10 at z = 0.76 with
    b = a - 5, and by 1.7e-2 at z = 0.05 with a = 3.7, b = 0.4, but
    within 1e-13 from z = 5.
    """
    if b < a + 1.0:
        return 5.0
    if a >= 3.0 and b >= a + 4.0:
        return 0.0
    return 0.75


def _u_laguerre(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """U over a 1-D array z by one generalized Gauss-Laguerre sum."""
    s, w = _genlaguerre_rule(a - 1.0, _GL_NODES)
    vals = np.empty_like(z)
    for lo in range(0, z.size, _GL_BLOCK):
        terms = z[lo:lo + _GL_BLOCK, None] + s
        np.power(terms, b - a - 1.0, out=terms)
        terms *= w
        vals[lo:lo + _GL_BLOCK] = terms.sum(axis=1)
    return np.exp((1.0 - b) * np.log(z) - math.lgamma(a)) * vals


def _u_split(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """U over a 1-D array z by the three-piece split, one
    (points x 16) panel at a time."""
    pw = b - a - 1.0
    t, wt, s_tail, w_tail = _split_rule(a)
    zc = z[:, None]
    lz = np.log(zc)
    # [0, z] with s = z t: z^(1-b) z^a z^pw = 1
    total = np.sum(wt * np.exp(pw * np.log1p(t) - zc * t), axis=1)
    # [z, 1] with s = e^v: e^(-s) s^(a-1) (z+s)^pw z^(1-b) ds
    # = e^(ln z (a r + 1 - b) - s) (z+s)^pw dv; for z > 1 this piece is
    # negative and takes [1, z] back out of the last one
    exponents = a * _PANEL_R + (1.0 - b)
    for r, w, c in zip(_PANEL_R, _PANEL_W, exponents):
        s = np.exp(lz * r)
        total -= lz[:, 0] * np.sum(w * np.exp(lz * c - s + pw * np.log(zc + s)), axis=1)
    # [1, inf)
    total += np.sum(w_tail * np.exp(pw * np.log(zc + s_tail) + (1.0 - b) * lz), axis=1)
    return total / math.gamma(a)


def _u_vec(a: float, b: float, z) -> np.ndarray:
    """Vectorized U(a, b, z) for z > 0, a > 0.

    Raises AccuracyError naming (a, b, z) for a value that is not finite
    and positive.
    """
    if a <= 0.0:
        raise ValueError(f"first parameter a={a} must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("argument z must be positive (U diverges at z = 0 for b >= 1)")
    out = np.empty_like(z)
    fast = z >= _laguerre_floor(a, b)
    with np.errstate(all="ignore"):
        if np.any(fast):
            out[fast] = _u_laguerre(a, b, z[fast])
        if not np.all(fast):
            out[~fast] = _u_split(a, b, z[~fast])
    bad = ~(np.isfinite(out) & (out > 0.0))
    if np.any(bad):
        raise AccuracyError(f"U(a={a}, b={b}, z={float(z[bad].flat[0])!r}) evaluated to "
                            f"{out[bad].flat[0]}, not a finite positive number")
    return out


def tricomi_u(args: HypergeometricArgs) -> float:
    """Tricomi's function U(a, b, z) for a > 0, z > 0.

    Positive and strictly decreasing in z; dU/dz = -a U(a+1, b+1, z).
    """
    return float(_u_vec(args.a, args.b, np.asarray([args.z]))[0])
