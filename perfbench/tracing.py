"""Per-layer tracing from the benchmark's own code.

Tracer.install() replaces, in each entrysolve module's namespace, the
names through which that module calls into another layer (for example
solver.resolvent_on_grid or diffusions.solve_ivp) with wrappers that
record a span and counts per call; uninstall() puts the originals back.
Spans nest: a layer's self time is its span time minus the time of its
direct child spans. Spans and counts stay in memory until write().
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

SPAN_FIELDS = ("name", "parent", "start_s", "end_s")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span index, child seconds]
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()
        self.pool_busy = 0.0
        self.pool_capacity = 0.0

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span called name. before(args, kwargs) may
        return replacement (args, kwargs); after(result, seconds) sees
        the result and the span's duration."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[frame[0]] = (name, parent, start - tracer._t0, end - tracer._t0)
                took = end - start
                tracer.counts[name + ".calls"] += 1
                tracer.inclusive[name] += took
                tracer.self_time[name] += took - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += took
            if after is not None:
                after(result, took)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, module, attr: str, make):
        """Set module.attr to make(original) until uninstall(); return
        the original."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return original

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        self._replace(module, attr, lambda fn: self.wrap(name, fn, **hooks))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in self.self_time.items() if n.split(".")[0] == layer)

    # -- hooks ---------------------------------------------------------------

    def _count_integrand(self, args, kwargs):
        # the integrand is the first argument of every _quad entry point
        f = args[0]
        counts = self.counts

        def counted(x):
            counts["quad.integrand_points"] += len(x)
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _count_points(self, key: str, index: int):
        counts = self.counts

        def before(args, kwargs):
            counts[key] += len(args[index])
            return args, kwargs

        return before

    def _count_nfev(self, result, seconds) -> None:
        self.counts["diffusions.ode_rhs_evals"] += int(result.nfev)

    def _objective_counter(self, make_objective):
        counts = self.counts

        def threshold_objective(*args, **kwargs):
            objective = make_objective(*args, **kwargs)

            def counted(x):
                counts["solver.objective_evals"] += 1
                return objective(x)

            return counted

        return threshold_objective

    def _paths_by_formulation(self, fn):
        """fn in a simulate.run span, with its paths and seconds counted
        per formulation; cfg is the fifth argument of both entry points."""
        traced = self.wrap("simulate.run", fn)
        counts, inclusive = self.counts, self.inclusive

        def run(*args, **kwargs):
            key = f"simulate.{args[4].formulation.value}"
            t0 = time.perf_counter()
            out = traced(*args, **kwargs)
            inclusive[key] += time.perf_counter() - t0
            counts[key + "_paths"] += (out[0] if isinstance(out, list) else out).n_paths
            return out

        return run

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        cli, diffusions, hypergeometric, resolvent, simulate, solver = (
            importlib.import_module(f"entrysolve.{name}") for name in
            ("cli", "diffusions", "hypergeometric", "resolvent", "simulate", "solver"))
        self.basis_cache = diffusions.excessive_basis
        self.cache_before = self.basis_cache.cache_info()
        p = self.patch
        p(cli, "main", "cli.main")
        p(cli, "solve", "solver.solve")
        p(cli, "solve_threshold", "solver.solve_threshold")
        p(cli, "p_independence_audit", "solver.p_independence_audit")
        p(solver, "solve", "solver.solve")
        p(solver, "solve_threshold", "solver.solve_threshold")
        p(solver, "_piecewise", "solver.evaluate")
        self._replace(solver, "_threshold_objective", self._objective_counter)
        for module in (solver, diffusions):
            p(module, "excessive_basis", "diffusions.excessive_basis")
        p(solver, "speed_density", "diffusions.speed_density")
        p(diffusions, "solve_ivp", "diffusions.ode", after=self._count_nfev)
        p(solver, "resolvent", "resolvent.scalar")
        p(solver, "resolvent_prime", "resolvent.scalar")
        p(solver, "resolvent_on_grid", "resolvent.grid",
          before=self._count_points("resolvent.grid_points", 3))
        for module in (solver, resolvent):
            p(module, "integrate_to_zero", "quad.tail", before=self._count_integrand)
            p(module, "integrate_to_inf", "quad.tail", before=self._count_integrand)
        p(resolvent, "fixed_panels", "quad.panel", before=self._count_integrand)
        p(diffusions, "_m_vec", "hypergeometric.m",
          before=self._count_points("hypergeometric.m_points", 2))
        p(diffusions, "_u_vec", "hypergeometric.u",
          before=self._count_points("hypergeometric.u_points", 2))
        p(hypergeometric, "quad", "hypergeometric.u_quadpack")
        for attr in ("threshold_suboptimality_scan", "simulate_active_value"):
            self._replace(simulate, attr, self._paths_by_formulation)
        p(simulate, "_map_blocks", "simulate.pool", after=self._pool_result)
        # forked pool workers call _simulate_block through this name and
        # report their busy time inside the block result
        self.simulate_block = self._replace(simulate, "_simulate_block", _timed_block)
        self.usable_cpus = simulate._usable_cpus

    def _pool_result(self, outs, seconds) -> None:
        self.counts["simulate.blocks"] += len(outs)
        self.pool_busy += sum(o["bench_busy_s"] for o in outs)
        self.pool_capacity += seconds * min(len(outs), self.usable_cpus())

    # -- output ----------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        info = self.basis_cache.cache_info()
        with open(path, "w", encoding="utf-8") as fh:
            spans = [(n, parent, round(a, 7), round(b, 7)) for n, parent, a, b in self.spans]
            json.dump({"span_fields": SPAN_FIELDS, "spans": spans,
                       "counts": dict(self.counts),
                       "inclusive_s": dict(self.inclusive),
                       "self_s": dict(self.self_time),
                       "basis_cache": info._asdict(), **extra}, fh)


def _timed_block(block):
    def timed(*args):
        t0 = time.perf_counter()
        out = block(*args)
        return dict(out, bench_busy_s=time.perf_counter() - t0)

    return timed


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(tr: Tracer, overhead_s: float, blocks: list) -> dict:
    """Every per-layer metric; blocks holds (seconds, path_steps) of
    the blocks timed in-process. Layers a workload does not reach
    read 0."""
    c, t = tr.counts, tr.inclusive
    info = tr.basis_cache.cache_info()
    hits = info.hits - tr.cache_before.hits
    misses = info.misses - tr.cache_before.misses
    block_s = sum(b[0] for b in blocks)
    steps = sum(b[1] for b in blocks)
    values = {
        "cli.audit_s": t["solver.p_independence_audit"],
        "solver.threshold_s": t["solver.solve_threshold"],
        "solver.objective_evals": c["solver.objective_evals"],
        "solver.self_s": tr.layer_self("solver"),
        "resolvent.grid_calls": c["resolvent.grid.calls"],
        "resolvent.grid_points": c["resolvent.grid_points"],
        "resolvent.grid_s": t["resolvent.grid"],
        "resolvent.scalar_calls": c["resolvent.scalar.calls"],
        "resolvent.scalar_s": t["resolvent.scalar"],
        "quad.tail_walks": c["quad.tail.calls"],
        "quad.tail_s": t["quad.tail"],
        "quad.panel_calls": c["quad.panel.calls"],
        "quad.panel_s": t["quad.panel"],
        "quad.integrand_points": c["quad.integrand_points"],
        "diffusions.basis_calls": c["diffusions.excessive_basis.calls"],
        "diffusions.basis_cache_hit_ratio": _ratio(hits, hits + misses),
        "diffusions.basis_build_s": t["diffusions.excessive_basis"],
        "diffusions.ode_solves": c["diffusions.ode.calls"],
        "diffusions.ode_rhs_evals": c["diffusions.ode_rhs_evals"],
        "diffusions.ode_s": t["diffusions.ode"],
        "diffusions.speed_density_s": t["diffusions.speed_density"],
        "hypergeometric.m_points": c["hypergeometric.m_points"],
        "hypergeometric.m_s": t["hypergeometric.m"],
        "hypergeometric.u_points": c["hypergeometric.u_points"],
        "hypergeometric.u_s": t["hypergeometric.u"],
        "hypergeometric.u_quadpack_calls": c["hypergeometric.u_quadpack.calls"],
        "hypergeometric.u_quadpack_s": t["hypergeometric.u_quadpack"],
        "simulate.blocks": c["simulate.blocks"],
        "simulate.block_s": _ratio(block_s, len(blocks)),
        "simulate.ns_per_path_step": _ratio(1e9 * block_s, steps),
        "simulate.pool_efficiency": _ratio(tr.pool_busy, tr.pool_capacity),
        "simulate.full_paths_per_s": _ratio(c["simulate.full_paths"], t["simulate.full"]),
        "simulate.thinned_paths_per_s": _ratio(c["simulate.thinned_paths"],
                                               t["simulate.thinned"]),
        "trace.overhead_s": overhead_s,
    }
    return {name: (value, UNITS[name]) for name, value in values.items()}


UNITS = {
    "cli.audit_s": "s",
    "solver.threshold_s": "s",
    "solver.objective_evals": "count",
    "solver.self_s": "s",
    "resolvent.grid_calls": "count",
    "resolvent.grid_points": "count",
    "resolvent.grid_s": "s",
    "resolvent.scalar_calls": "count",
    "resolvent.scalar_s": "s",
    "quad.tail_walks": "count",
    "quad.tail_s": "s",
    "quad.panel_calls": "count",
    "quad.panel_s": "s",
    "quad.integrand_points": "count",
    "diffusions.basis_calls": "count",
    "diffusions.basis_cache_hit_ratio": "ratio",
    "diffusions.basis_build_s": "s",
    "diffusions.ode_solves": "count",
    "diffusions.ode_rhs_evals": "count",
    "diffusions.ode_s": "s",
    "diffusions.speed_density_s": "s",
    "hypergeometric.m_points": "count",
    "hypergeometric.m_s": "s",
    "hypergeometric.u_points": "count",
    "hypergeometric.u_s": "s",
    "hypergeometric.u_quadpack_calls": "count",
    "hypergeometric.u_quadpack_s": "s",
    "simulate.blocks": "count",
    "simulate.block_s": "s",
    "simulate.ns_per_path_step": "ns",
    "simulate.pool_efficiency": "ratio",
    "simulate.full_paths_per_s": "paths/s",
    "simulate.thinned_paths_per_s": "paths/s",
    "trace.overhead_s": "s",
}
