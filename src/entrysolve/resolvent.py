"""Resolvent operator R_rho applied to flow payoffs.

For a payoff h and the monotone eigenfunction pair (psi, phi) at rate
rho, the resolvent has the one-dimensional representation

    (R_rho h)(x) = W^-1 [ phi(x) I_lo(x) + psi(x) I_hi(x) ],
    I_lo(x) = integral_0^x psi h m' dz,
    I_hi(x) = integral_x^inf phi h m' dz,

with W the wronskian and m' the speed density. Its derivative drops
the boundary terms: (R_rho h)'(x) = W^-1 [ phi'(x) I_lo + psi'(x) I_hi ].

Integrals run on the log-state axis; tails are walked window by window
until they stop contributing, so payoff integrability is verified at
the first evaluation (a diverging upper tail raises QuadratureError).
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from ._quad import fixed_panels, integrate_to_inf, integrate_to_zero
from .diffusions import ExcessiveBasis
from .payoffs import Payoff


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"


def _limits(basis: ExcessiveBasis) -> tuple:
    lo = basis.x_lo if basis.x_lo > 0.0 else None
    hi = basis.x_hi if math.isfinite(basis.x_hi) else None
    return lo, hi


def _integrand(u: Callable, g: Callable, m_prime: Callable) -> Callable:
    """t -> u(t) g(t) m'(t), with u an eigenfunction and g a flow."""
    def f(t):
        return u(t) * g(t) * m_prime(t)

    return f


def _check_scalar_state(x) -> float:
    if np.ndim(x) != 0:
        raise ValueError("state x must be a scalar; use resolvent_on_grid for arrays")
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"state x must be positive and finite, got {x}")
    return x


def resolvent(basis: ExcessiveBasis, m_prime: Callable, h: Payoff, x) -> float:
    """(R_rho h)(x) for a non-negative payoff h: resolvent_on_grid at x."""
    values, _ = resolvent_on_grid(basis, m_prime, h, [_check_scalar_state(x)])
    return float(values[0])


def resolvent_prime(basis: ExcessiveBasis, m_prime: Callable, h: Payoff, x) -> float:
    """d/dx of (R_rho h) at x: the derivative from resolvent_on_grid at x."""
    _, primes = resolvent_on_grid(basis, m_prime, h, [_check_scalar_state(x)])
    return float(primes[0])


def resolvent_split(basis: ExcessiveBasis, m_prime: Callable, h: Payoff,
                    y, side: Side, x) -> float:
    """Resolvent of h restricted below y (Side.BELOW) or above y
    (Side.ABOVE); the two sides sum to the full resolvent."""
    x = _check_scalar_state(x)
    y = _check_scalar_state(y)
    lo_lim, hi_lim = _limits(basis)
    f_psi = _integrand(basis.psi, h, m_prime)
    f_phi = _integrand(basis.phi, h, m_prime)
    phi_x = float(basis.phi(np.asarray([x]))[0])
    psi_x = float(basis.psi(np.asarray([x]))[0])
    if side is Side.BELOW:
        if x >= y:
            val = phi_x * integrate_to_zero(f_psi, y, limit=lo_lim)
        else:
            val = phi_x * integrate_to_zero(f_psi, x, limit=lo_lim) \
                + psi_x * fixed_panels(f_phi, x, y)
    else:
        if x < y:
            val = psi_x * integrate_to_inf(f_phi, y, limit=hi_lim)
        else:
            val = phi_x * fixed_panels(f_psi, y, x) \
                + psi_x * integrate_to_inf(f_phi, x, limit=hi_lim)
    return float(val / basis.wronskian)


def resolvent_on_grid(basis: ExcessiveBasis, m_prime: Callable, h: Payoff,
                      xs) -> tuple[np.ndarray, np.ndarray]:
    """(R_rho h) and its derivative on an ascending positive grid.

    One tail walk per end, plus one elementwise panel sweep per branch
    over all grid intervals, accumulated from each end with a cumulative
    sum; the cost is O(grid) rather than O(grid^2).

    Returns:
        (values, primes) as float arrays aligned with xs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-D array")
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise ValueError("grid states must be positive and finite")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("grid states must be strictly increasing")
    lo_lim, hi_lim = _limits(basis)
    f_psi = _integrand(basis.psi, h, m_prime)
    f_phi = _integrand(basis.phi, h, m_prime)
    i_lo = np.cumsum(np.concatenate((
        [integrate_to_zero(f_psi, xs[0], limit=lo_lim)],
        fixed_panels(f_psi, xs[:-1], xs[1:]))))
    i_hi = np.cumsum(np.concatenate((
        [integrate_to_inf(f_phi, xs[-1], limit=hi_lim)],
        fixed_panels(f_phi, xs[:-1], xs[1:])[::-1])))[::-1]
    w = basis.wronskian
    values = (basis.phi(xs) * i_lo + basis.psi(xs) * i_hi) / w
    primes = (basis.phi_prime(xs) * i_lo + basis.psi_prime(xs) * i_hi) / w
    return values, primes


class _LogLogTable:
    """Positive function tabulated on a log grid, interpolated as a
    cubic spline in (ln x, ln f) with linear log-log tail extension."""

    def __init__(self, xs: np.ndarray, vals: np.ndarray):
        good = np.isfinite(vals) & (vals > 0.0)
        if np.count_nonzero(good) < 4:
            raise ValueError("too few positive values to tabulate")
        lx, lv = np.log(xs[good]), np.log(vals[good])
        self._spline = CubicSpline(lx, lv)
        self._lo, self._hi = lx[0], lx[-1]
        self._slope_lo = float(self._spline(self._lo, 1))
        self._slope_hi = float(self._spline(self._hi, 1))
        self._val_lo = float(lv[0])
        self._val_hi = float(lv[-1])

    def __call__(self, x) -> np.ndarray:
        lx = np.log(np.asarray(x, dtype=float))
        out = np.where(
            lx < self._lo, self._val_lo + self._slope_lo * (lx - self._lo),
            np.where(lx > self._hi, self._val_hi + self._slope_hi * (lx - self._hi),
                     self._spline(np.clip(lx, self._lo, self._hi))))
        return np.exp(out)


def resolvent_equation_check(basis_q: ExcessiveBasis, basis_p: ExcessiveBasis,
                             m_prime: Callable, h: Payoff, x) -> float:
    """Residual |R_q h - R_p h + (q - p) R_q(R_p h)| at x.

    The inner R_p h is tabulated on a log grid around x and
    interpolated, so the outer application is a single quadrature
    level. q must differ from p.
    """
    x = _check_scalar_state(x)
    q, p = basis_q.rho, basis_p.rho
    if q == p:
        raise ValueError("resolvent equation is degenerate at q == p")
    span = np.exp(np.linspace(math.log(x) - 9.0, math.log(x) + 9.0, 500))
    # keep the table inside the range where the basis stays well in
    # float range; beyond it the outer integrand is negligible anyway
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(basis_p.psi(span)) + np.abs(basis_p.phi(span))
        ok = np.isfinite(mag) & (mag < 1e250)
    span = span[ok]
    inner_vals, _ = resolvent_on_grid(basis_p, m_prime, h, span)
    table = _LogLogTable(span, inner_vals)

    rq = resolvent(basis_q, m_prime, h, x)
    rp = resolvent(basis_p, m_prime, h, x)
    rq_rp = resolvent(basis_q, m_prime, table, x)
    return abs(rq - rp + (q - p) * rq_rp)
