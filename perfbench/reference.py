"""Reference values computed apart from entrysolve, and the checks that
compare the program's outputs with them or with properties the method
must have.

Nothing here imports entrysolve: the closed forms are written out from
the model, and the logistic threshold is the root of
F(x) = int_0^x psi(z) (h(z) - kappa) m'(z) dz with psi built from
scipy.special.hyp1f1 and F integrated by scipy.integrate.quad.

Every check raises CheckFailed with a message naming what was off.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import hyp1f1

# x* against an independent root or closed form (relative)
X_STAR_RTOL = 1e-9
# x* of the custom route on GBM coefficients against the closed form
CUSTOM_X_STAR_RTOL = 1e-8
# value columns against closed forms, relative to the largest |value|
VALUE_RTOL = 1e-9
# V_a - V_i = K above x*, V_i >= max(0, V_a - K), p-monotonicity, all
# relative to the largest |value| on the curve
IDENTITY_RTOL = 1e-9
# one-sided finite-difference slopes of V_i at x* (relative mismatch)
SMOOTH_FIT_RTOL = 1e-4
# (vol^2/2) u'' + drift u' - rho u, relative to rho |u|
GENERATOR_RTOL = 1e-5
# Monte Carlo agreement, in (combined) standard errors
MC_SIGMA = 4.5
# a multiplier row may beat the 1.0 row by at most this many combined sigma
SCAN_SIGMA = 3.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# model pieces


def payoff_fn(payoff: tuple):
    """Vectorised h for ("power", theta), ("affine", slope) or
    ("saturating", cap, scale)."""
    kind = payoff[0]
    if kind == "power":
        theta = payoff[1]
        return lambda x: np.power(x, theta)
    if kind == "affine":
        slope = payoff[1]
        return lambda x: slope * np.asarray(x, dtype=float)
    if kind == "saturating":
        cap, scale = payoff[1], payoff[2]
        return lambda x: cap * -np.expm1(-scale * np.asarray(x, dtype=float))
    raise ValueError(f"unknown payoff {payoff!r}")


def break_even_state(payoff: tuple, kappa: float) -> float:
    kind = payoff[0]
    if kind == "power":
        return kappa ** (1.0 / payoff[1])
    if kind == "affine":
        return kappa / payoff[1]
    cap, scale = payoff[1], payoff[2]
    return -math.log1p(-kappa / cap) / scale


def gbm_roots(alpha: float, beta: float, rho: float) -> tuple[float, float]:
    """(b, a): roots of (beta^2/2) t (t - 1) + alpha t - rho, b > 0 > a."""
    s2 = beta * beta
    mid = 0.5 - alpha / s2
    disc = math.sqrt(mid * mid + 2.0 * rho / s2)
    return mid + disc, mid - disc


def power_form(payoff: tuple) -> tuple[float, float]:
    """(scale, theta) with h(x) = scale * x^theta, for power and affine."""
    if payoff[0] == "power":
        return 1.0, payoff[1]
    if payoff[0] == "affine":
        return payoff[1], 1.0
    raise ValueError(f"{payoff[0]} payoff has no power form")


def gbm_power_x_star(alpha, beta, r, lam, K, C, payoff) -> float:
    """(kappa (theta - a) / (-a s))^(1/theta), a the negative root at r + lam."""
    s, theta = power_form(payoff)
    kappa = C + (r + lam) * K
    _, a = gbm_roots(alpha, beta, r + lam)
    return (kappa * (theta - a) / (-a * s)) ** (1.0 / theta)


def gbm_power_curve(alpha, beta, r, lam, p, K, C, payoff, x):
    """Closed-form (x*, V_i, V_a, lower branch, upper branch) on x.

    V_i = c x^b_i below x* and A_i s x^theta - kappa/rho_i + d x^a_i
    above, with (c, d) fitted by value matching and smooth fit at x*;
    A_rho = 1 / (rho - alpha theta - beta^2 theta (theta - 1) / 2).
    V_a = V_i + K above x*; below it is
    A_a s x^theta - C/rho_a + c x^b_i + e x^b_a, e by value matching.
    """
    s, theta = power_form(payoff)
    x = np.asarray(x, dtype=float)
    rho_i, rho_a = r + (1.0 - p) * lam, r + lam
    kappa = C + rho_a * K
    b_i, a_i = gbm_roots(alpha, beta, rho_i)
    b_a, _ = gbm_roots(alpha, beta, rho_a)
    xs = gbm_power_x_star(alpha, beta, r, lam, K, C, payoff)

    def resolvent_coef(rho):
        return s / (rho - alpha * theta - 0.5 * beta * beta * theta * (theta - 1.0))

    A_i, A_a = resolvent_coef(rho_i), resolvent_coef(rho_a)
    lhs = np.array([[xs ** b_i, -xs ** a_i],
                    [b_i * xs ** (b_i - 1.0), -a_i * xs ** (a_i - 1.0)]])
    rhs = np.array([A_i * xs ** theta - kappa / rho_i,
                    A_i * theta * xs ** (theta - 1.0)])
    c, d = np.linalg.solve(lhs, rhs)

    def lower(z):
        return c * z ** b_i

    def upper(z):
        return A_i * z ** theta - kappa / rho_i + d * z ** a_i

    def active_below(z):
        return A_a * z ** theta - C / rho_a + c * z ** b_i

    e = (upper(xs) + K - active_below(xs)) / xs ** b_a
    below = x < xs
    v_i = np.where(below, lower(x), upper(x))
    v_a = np.where(below, active_below(x) + e * x ** b_a, upper(x) + K)
    return xs, v_i, v_a, lower(x), upper(x)


def threshold_root(alpha, beta, gamma, r, lam, K, C, payoff) -> float:
    """x* > x_C as the root of F for GBM (gamma = 0) or the logistic model.

    psi(z) = z^b M(b, 2b + c, k z) at rho = r + lam, with c = 2 alpha /
    beta^2 and k = c gamma; m'(z) is proportional to z^(c-2) e^(-k z).
    """
    rho_a = r + lam
    kappa = C + rho_a * K
    c = 2.0 * alpha / beta ** 2
    k = c * gamma
    b, _ = gbm_roots(alpha, beta, rho_a)
    bt = 2.0 * b + c
    h = payoff_fn(payoff)

    def integrand(z):
        return (z ** (b + c - 2.0) * hyp1f1(b, bt, k * z) * math.exp(-k * z)
                * (float(h(z)) - kappa))

    def F(x):
        # QUADPACK may flag roundoff at this tolerance near x_C, where
        # h - kappa changes sign; the root still agrees to ~1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-12, limit=400)[0]

    lo = break_even_state(payoff, kappa) * (1.0 + 1e-9)
    hi = lo
    for _ in range(70):
        hi *= 1.5
        if F(hi) > 0.0:
            break
    else:
        raise ValueError("reference threshold bracket not found")
    return brentq(F, lo, hi, xtol=1e-15, rtol=1e-15)


# ---------------------------------------------------------------------------
# checks


def check_x_star(label: str, got: float, want: float, rtol: float = X_STAR_RTOL) -> None:
    err = abs(got - want) / abs(want)
    _require(err <= rtol, f"{label}: x* = {got!r}, reference {want!r} "
                          f"(rel err {err:.2e} > {rtol:.0e})")


def check_columns(label: str, got: dict, want: dict, rtol: float = VALUE_RTOL) -> None:
    """Each named column within rtol of its reference, relative to the
    largest |reference| in that column."""
    for name, ref in want.items():
        ref = np.asarray(ref, dtype=float)
        err = float(np.max(np.abs(np.asarray(got[name]) - ref)))
        scale = float(np.max(np.abs(ref)))
        _require(err <= rtol * scale,
                 f"{label}: column {name} off by {err:.3e} "
                 f"(> {rtol:.0e} x {scale:.3e})")


def _one_sided_slope(x0: float, f0: float, xs, fs, step: float) -> float:
    # derivative at x0 of the polynomial through (x0, f0) and the rows
    # (xs, fs) on one side; with four rows the error is O(step^4)
    t = np.concatenate([[0.0], (np.asarray(xs) - x0) / step])
    f = np.concatenate([[f0], fs])
    coef = np.linalg.solve(np.vander(t, increasing=True), f)
    return float(coef[1] / step)


def check_curve(label: str, x, v_i, v_a, x_star: float, K: float) -> None:
    """Smooth fit at x*, V_a - V_i = K above x*, V_i >= max(0, V_a - K).

    x must hold x* as a row with grid rows on both sides. Each slope is
    a one-sided five-point difference: x* and the four nearest rows on
    that side, skipping rows closer to x* than a quarter of the grid step.
    """
    x, v_i, v_a = (np.asarray(a, dtype=float) for a in (x, v_i, v_a))
    scale = max(float(np.max(np.abs(v_i))), float(np.max(np.abs(v_a))), 1e-300)
    j = int(np.argmin(np.abs(x - x_star)))
    _require(abs(x[j] - x_star) <= 1e-12 * x_star,
             f"{label}: x* = {x_star!r} is not a row of the curve")
    step = (x[-1] - x[0]) / (x.size - 1)
    left = np.flatnonzero(x < x_star - 0.25 * step)[-4:]
    right = np.flatnonzero(x > x_star + 0.25 * step)[:4]
    _require(left.size == 4 and right.size == 4,
             f"{label}: too few rows around x* for a smooth-fit check")
    s_lo = _one_sided_slope(x[j], v_i[j], x[left], v_i[left], step)
    s_hi = _one_sided_slope(x[j], v_i[j], x[right], v_i[right], step)
    gap = abs(s_lo - s_hi) / max(abs(s_lo), abs(s_hi), 1e-300)
    _require(gap <= SMOOTH_FIT_RTOL,
             f"{label}: smooth fit fails at x*: slopes {s_lo:.9g} below, "
             f"{s_hi:.9g} above (rel gap {gap:.2e} > {SMOOTH_FIT_RTOL:.0e})")
    above = x >= x_star
    err = float(np.max(np.abs(v_a[above] - v_i[above] - K)))
    _require(err <= IDENTITY_RTOL * scale,
             f"{label}: V_a - V_i differs from K = {K!r} by {err:.3e} above x*")
    floor = np.maximum(0.0, v_a - K)
    worst = float(np.max(floor - v_i))
    _require(worst <= IDENTITY_RTOL * scale,
             f"{label}: V_i falls below max(0, V_a - K) by {worst:.3e}")


def check_p_group(label: str, members) -> None:
    """members: (p, x_star, x, v_i) for one model and payoff at several p.
    x* must not depend on p, and V_i must not increase as p falls."""
    members = sorted(members, key=lambda m: m[0])
    stars = [m[1] for m in members]
    spread = (max(stars) - min(stars)) / min(stars)
    _require(spread <= X_STAR_RTOL,
             f"{label}: x* varies with p (rel spread {spread:.2e})")
    for (p_lo, _, x_lo, v_lo), (p_hi, _, x_hi, v_hi) in zip(members, members[1:]):
        _require(x_lo.shape == x_hi.shape and np.allclose(x_lo, x_hi, rtol=1e-12, atol=0.0),
                 f"{label}: curves at p={p_lo} and p={p_hi} have different grids")
        scale = max(float(np.max(np.abs(v_hi))), 1e-300)
        rise = float(np.max(v_lo - v_hi))
        _require(rise <= IDENTITY_RTOL * scale,
                 f"{label}: V_i rises by {rise:.3e} as p falls from {p_hi} to {p_lo}")


def check_generator(label: str, drift, vol, u, rho: float, x) -> None:
    """(vol^2/2) u'' + drift u' = rho u at x, derivatives by five-point
    central differences of u itself."""
    x = np.asarray(x, dtype=float)
    dx = 5e-4 * x
    u0 = u(x)
    up1, um1, up2, um2 = u(x + dx), u(x - dx), u(x + 2.0 * dx), u(x - 2.0 * dx)
    d1 = (8.0 * (up1 - um1) - (up2 - um2)) / (12.0 * dx)
    d2 = (16.0 * (up1 + um1) - (up2 + um2) - 30.0 * u0) / (12.0 * dx * dx)
    res = np.abs(0.5 * vol(x) ** 2 * d2 + drift(x) * d1 - rho * u0) / (rho * np.abs(u0))
    worst = float(np.max(res))
    _require(worst <= GENERATOR_RTOL,
             f"{label}: generator residual {worst:.2e} > {GENERATOR_RTOL:.0e}")


def check_mc_value(label: str, mean: float, stderr: float, want: float) -> None:
    dev = abs(mean - want) / stderr
    _require(dev <= MC_SIGMA,
             f"{label}: Monte Carlo {mean:.6g} +- {stderr:.2g} is {dev:.2f} "
             f"sigma from the analytic {want:.6g} (limit {MC_SIGMA})")


def check_mc_pair(label: str, a: tuple, b: tuple) -> None:
    """Two independent estimates (mean, stderr) of one value agree."""
    dev = abs(a[0] - b[0]) / math.hypot(a[1], b[1])
    _require(dev <= MC_SIGMA,
             f"{label}: estimates {a[0]:.6g} and {b[0]:.6g} differ by "
             f"{dev:.2f} combined sigma (limit {MC_SIGMA})")


def check_scan(label: str, multipliers, rows) -> None:
    """rows: (mean, stderr) per multiplier; none may beat the 1.0 row by
    more than SCAN_SIGMA combined sigma."""
    ref = rows[list(multipliers).index(1.0)]
    for m, row in zip(multipliers, rows):
        excess = (row[0] - ref[0]) / math.hypot(row[1], ref[1])
        _require(excess <= SCAN_SIGMA,
                 f"{label}: multiplier {m:g} beats 1.0 by {excess:.2f} "
                 f"combined sigma (limit {SCAN_SIGMA})")
