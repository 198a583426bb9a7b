"""The benchmark's tracer patches entrysolve module attributes by name.

perfbench/tracing.py is loaded by path and only read. Installing it
fails if a module no longer binds a hooked name, so a refactor that
drops one fails here rather than only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np

import entrysolve as es

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for module, attr, original in saved:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in saved:
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_grid_sweep_goes_through_the_hooked_panel_name():
    # the per-layer panel metrics read 0 if resolvent_on_grid stops
    # calling fixed_panels through the resolvent module's name
    spec = es.gbm(0.05, 0.25)
    basis = es.excessive_basis(spec, 1.1)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        es.resolvent_on_grid(basis, lambda t: es.speed_density(spec, t),
                             es.power(0.5), np.geomspace(0.5, 4.0, 20))
    finally:
        tracer.uninstall()
    assert tracer.counts["quad.panel.calls"] >= 1
    assert tracer.counts["quad.integrand_points"] > 0


def test_logistic_u_at_p_one_makes_no_quadpack_calls():
    # rho_idle = 0.1 puts U's first parameter below 3: the small-a,
    # small-z rule, which must not fall back to scipy's quad
    spec = es.logistic(0.05, 0.25, 0.2)
    params = es.ProblemParams(r=0.1, lam=1.0, p=1.0, K=1.0, C=1.0, h=es.power(0.5))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        solution = es.solve(spec, params)
        solution.value_idle(np.linspace(solution.x_star / 50.0, 2.0 * solution.x_star, 201))
    finally:
        tracer.uninstall()
    assert tracer.counts["hypergeometric.u_quadpack.calls"] == 0
    assert tracer.counts["hypergeometric.u.calls"] > 0
