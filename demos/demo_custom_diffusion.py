"""
Entry threshold for a user-supplied diffusion.

Solves the entry problem for a log mean-reverting state process
(drift 0.4 x (ln 6 - ln x), volatility 0.35 x) where no closed-form
basis exists: the increasing and decreasing solutions of the resolvent
ODE are built numerically by Chebyshev collocation on the log axis. A
Monte Carlo spot check confirms the numbers, and re-entering plain GBM
through the same custom route reproduces the closed-form threshold.

The whole demo, Monte Carlo check included, takes about 1.5 s on a
2-vCPU Xeon. Run from repo root:
    python3 demos/demo_custom_diffusion.py
"""

import math
import time

import numpy as np

import entrysolve as es

PARAMS = es.ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0,
                          h=es.power(0.5))


def main() -> None:
    print("=== Log mean-reverting model ===")
    spec = es.custom_diffusion(
        lambda x: 0.4 * x * (math.log(6.0) - np.log(x)),
        lambda x: 0.35 * x)
    t0 = time.perf_counter()
    sol = es.solve(spec, PARAMS)
    print(f" solved in {time.perf_counter() - t0:.1f}s")
    print(f" entry threshold x* = {sol.x_star:.6f}")
    for x in (2.0, 3.0, sol.x_star, 7.0):
        print(f" x = {x:7.4f}: G_idle = {float(sol.value_idle(x)):9.6f},"
              f" G_active = {float(sol.value_active(x)):9.6f}")
    d = sol.diagnostics
    print(f" |F(x*)| = {d.root_residual:.2e},"
          f" pasting gaps = {d.pasting_gap_value:.2e} (value)"
          f" / {d.pasting_gap_slope:.2e} (slope)")

    print("\n=== Monte Carlo spot check (10k paths) ===")
    cfg = es.SimConfig(n_paths=10_000, seed=11, dt=0.05,
                       formulation=es.Formulation.THINNED)
    est = es.simulate_idle_value(spec, PARAMS, sol.x_star, 3.0, cfg)
    target = float(sol.value_idle(3.0))
    print(f" idle value at x0 = 3: MC {est.mean:.5f} +- {est.stderr:.5f},"
          f" analytic {target:.5f},"
          f" deviation {(est.mean - target) / est.stderr:.2f} sigma")

    print("\n=== GBM re-entered as a custom model ===")
    custom_gbm = es.custom_diffusion(lambda x: 0.05 * x, lambda x: 0.25 * x)
    x_numeric = es.solve_threshold(custom_gbm, PARAMS)
    x_closed = es.solve_threshold(es.gbm(0.05, 0.25), PARAMS)
    print(f" numeric-basis threshold   = {x_numeric:.9f}")
    print(f" closed-form-basis result  = {x_closed:.9f}")
    print(f" relative difference       = "
          f"{abs(x_numeric - x_closed) / x_closed:.2e}")


if __name__ == "__main__":
    main()
