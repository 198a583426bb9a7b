"""Each check of the benchmark accepts a correct output and rejects a
deliberately perturbed one. Run with:

    python3 -m pytest perfbench/test_checks.py
"""
import math

import numpy as np
import pytest

import reference as ref

# GBM with h(x) = sqrt(x); the named configuration of the acceptance suite
GBM = dict(alpha=0.05, beta=0.25, r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0)
PAYOFF = ("power", 0.5)


def _curve(p=GBM["p"]):
    x_star = ref.gbm_power_x_star(GBM["alpha"], GBM["beta"], GBM["r"], GBM["lam"],
                                  GBM["K"], GBM["C"], PAYOFF)
    x = np.unique(np.append(np.linspace(x_star / 50.0, 2.0 * x_star, 201), x_star))
    args = dict(GBM, p=p)
    _, v_i, v_a, lower, upper = ref.gbm_power_curve(
        args["alpha"], args["beta"], args["r"], args["lam"], args["p"],
        args["K"], args["C"], PAYOFF, x)
    return x_star, x, v_i, v_a, lower, upper


def test_closed_form_threshold_matches_acceptance_reference():
    x_star, *_ = _curve()
    assert abs(x_star - 5.144979) <= 1e-6


def test_threshold_root_matches_closed_form_on_gbm():
    want, *_ = _curve()
    got = ref.threshold_root(GBM["alpha"], GBM["beta"], 0.0, GBM["r"], GBM["lam"],
                             GBM["K"], GBM["C"], PAYOFF)
    assert abs(got - want) <= 1e-12 * want


def test_threshold_root_matches_logistic_reference():
    got = ref.threshold_root(0.05, 0.25, 0.2, GBM["r"], GBM["lam"], GBM["K"], GBM["C"],
                             PAYOFF)
    # the acceptance suite freezes this threshold to 6 decimals
    assert abs(got - 5.235711) <= 1e-5


def test_x_star_check_rejects_relative_error_of_1e6():
    x_star, *_ = _curve()
    ref.check_x_star("gbm", x_star * (1.0 + 1e-12), x_star)
    with pytest.raises(ref.CheckFailed):
        ref.check_x_star("gbm", x_star * (1.0 + 1e-6), x_star)


def test_column_check_rejects_one_perturbed_value():
    _, x, v_i, *_ = _curve()
    ref.check_columns("gbm", {"V_i": v_i.copy()}, {"V_i": v_i})
    bad = v_i.copy()
    bad[150] *= 1.0 + 1e-6
    with pytest.raises(ref.CheckFailed):
        ref.check_columns("gbm", {"V_i": bad}, {"V_i": v_i})


def test_curve_check_accepts_closed_form():
    x_star, x, v_i, v_a, *_ = _curve()
    ref.check_curve("gbm", x, v_i, v_a, x_star, GBM["K"])


def test_curve_check_rejects_a_kink_at_x_star():
    x_star, x, v_i, v_a, *_ = _curve()
    kinked = np.where(x > x_star, v_i * (1.0 + 0.01 * (x - x_star) / x_star), v_i)
    with pytest.raises(ref.CheckFailed, match="smooth fit"):
        ref.check_curve("gbm", x, kinked, v_a, x_star, GBM["K"])


def test_curve_check_rejects_wrong_gap_above_x_star():
    x_star, x, v_i, v_a, *_ = _curve()
    shifted = np.where(x > 1.5 * x_star, v_a + 1e-6, v_a)
    with pytest.raises(ref.CheckFailed, match="V_a - V_i"):
        ref.check_curve("gbm", x, v_i, shifted, x_star, GBM["K"])


def test_curve_check_rejects_idle_value_below_its_floor():
    x_star, x, v_i, v_a, *_ = _curve()
    low = v_i.copy()
    k = int(np.argmin(np.abs(x - 0.2 * x_star)))
    low[k] = -1e-3
    with pytest.raises(ref.CheckFailed, match="max\\(0, V_a - K\\)"):
        ref.check_curve("gbm", x, low, v_a, x_star, GBM["K"])


def test_curve_check_needs_the_threshold_row():
    x_star, x, v_i, v_a, *_ = _curve()
    keep = x != x_star
    with pytest.raises(ref.CheckFailed, match="not a row"):
        ref.check_curve("gbm", x[keep], v_i[keep], v_a[keep], x_star, GBM["K"])


def test_p_group_check():
    members = []
    for p in (0.3, 0.6, 0.9):
        x_star, x, v_i, *_ = _curve(p)
        members.append((p, x_star, x, v_i))
    ref.check_p_group("gbm", members)
    moved = [(p, s * (1.0 + 1e-6) if p == 0.6 else s, x, v) for p, s, x, v in members]
    with pytest.raises(ref.CheckFailed, match="varies with p"):
        ref.check_p_group("gbm", moved)
    swapped = [(0.9, *members[0][1:]), (0.3, *members[2][1:])]
    with pytest.raises(ref.CheckFailed, match="rises"):
        ref.check_p_group("gbm", swapped)


def test_generator_check():
    alpha, beta, rho = GBM["alpha"], GBM["beta"], 0.6
    b, a = ref.gbm_roots(alpha, beta, rho)

    def drift(x):
        return alpha * x

    def vol(x):
        return beta * x

    x = np.geomspace(0.2, 20.0, 25)
    for root in (b, a):
        ref.check_generator("gbm", drift, vol, lambda z, e=root: z ** e, rho, x)
    with pytest.raises(ref.CheckFailed, match="generator residual"):
        ref.check_generator("gbm", drift, vol, lambda z: z ** (b * (1.0 + 1e-3)), rho, x)


def test_mc_value_check_rejects_five_sigma():
    ref.check_mc_value("mc", 1.0 + 1.0 * 0.01, 0.01, 1.0)
    with pytest.raises(ref.CheckFailed):
        ref.check_mc_value("mc", 1.0 + 5.0 * 0.01, 0.01, 1.0)
    with pytest.raises(ref.CheckFailed):
        ref.check_mc_value("mc", 1.0 - 5.0 * 0.01, 0.01, 1.0)


def test_mc_pair_check_rejects_five_combined_sigma():
    se = 0.01
    ref.check_mc_pair("mc", (1.0, se), (1.0 + 2.0 * math.hypot(se, se), se))
    with pytest.raises(ref.CheckFailed):
        ref.check_mc_pair("mc", (1.0, se), (1.0 + 5.0 * math.hypot(se, se), se))


def test_scan_check_rejects_a_better_multiplier():
    ms = (0.85, 1.0, 1.15)
    se = 0.01
    ref.check_scan("mc", ms, [(0.99, se), (1.0, se), (1.0 + 2.0 * math.hypot(se, se), se)])
    with pytest.raises(ref.CheckFailed, match="beats 1.0"):
        ref.check_scan("mc", ms, [(1.0 + 4.0 * math.hypot(se, se), se), (1.0, se), (0.98, se)])
