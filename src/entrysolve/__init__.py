"""Optimal entry thresholds for sequential investment under forced exits.

An idle investor watches a one-dimensional diffusion X and may pay K to
activate a project earning flow h(X) - C until an independent Poisson
event forces an exit; each exit is catastrophic with probability 1 - p.
This package solves for the optimal entry threshold and the idle/active
value functions, exposes the underlying diffusion machinery (minimal
excessive functions, resolvents), and cross-checks the analytic answers
with a Monte Carlo policy simulator.

Typical use:

    import entrysolve as es

    spec = es.gbm(alpha=0.05, beta=0.25)
    params = es.ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0,
                              h=es.power(0.5))
    solution = es.solve(spec, params)
    solution.x_star, solution.value_idle(2.0)
"""
from .diffusions import (DiffusionKind, DiffusionSpec, ExcessiveBasis,
                         excessive_basis, gbm, logistic, scale_density,
                         speed_density, wronskian_check)
from .diffusions import custom as custom_diffusion
from .errors import AccuracyError, ConstructionError, NumericsError, QuadratureError
from .hypergeometric import HypergeometricArgs, kummer_m, tricomi_u
from .payoffs import Payoff, PayoffKind, affine, limit_at_infinity, power, saturating
from .payoffs import custom as custom_payoff
from .resolvent import (resolvent, resolvent_equation_check, resolvent_on_grid,
                        resolvent_prime)
from .simulate import (Formulation, PolicyEstimate, SimConfig,
                       simulate_active_value, simulate_idle_value,
                       threshold_suboptimality_scan)
from .solver import (Diagnostics, Mode, ProblemParams, Solution, Viability,
                     check_entry_viability, coefficients, p_independence_audit,
                     solve, solve_threshold)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConstructionError",
    "Diagnostics",
    "DiffusionKind",
    "DiffusionSpec",
    "ExcessiveBasis",
    "Formulation",
    "HypergeometricArgs",
    "Mode",
    "NumericsError",
    "Payoff",
    "PayoffKind",
    "PolicyEstimate",
    "ProblemParams",
    "QuadratureError",
    "SimConfig",
    "Solution",
    "Viability",
    "affine",
    "check_entry_viability",
    "coefficients",
    "custom_diffusion",
    "custom_payoff",
    "excessive_basis",
    "gbm",
    "kummer_m",
    "limit_at_infinity",
    "logistic",
    "p_independence_audit",
    "power",
    "resolvent",
    "resolvent_equation_check",
    "resolvent_on_grid",
    "resolvent_prime",
    "saturating",
    "scale_density",
    "simulate_active_value",
    "simulate_idle_value",
    "solve",
    "solve_threshold",
    "speed_density",
    "threshold_suboptimality_scan",
    "tricomi_u",
    "wronskian_check",
]
