"""Benchmark of entrysolve: one command, named workloads, one process.

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a source checkout and imports entrysolve from its
src/ directory. It runs whole rounds of the workload's operations, as
many as bring the run nearest to --seconds (at least one), checks every
output and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with times at the machine's
reference speed (workloads.Stopwatch), and prints the machine's speed
during the run on standard error. --trace 1 runs one untraced
round and then one traced round, reports the per-layer metrics, and
writes the spans and counts to perfbench/out/. See perfbench/README.md.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _age_at_start() -> float:
    """Seconds from the start of this process to _STARTED, from the
    kernel's start time (10 ms ticks); 0 where that is not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    age -= time.perf_counter() - _STARTED
    return age if 0.0 <= age < 10.0 else 0.0


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "entrysolve", "__init__.py")):
        raise SystemExit(f"perfbench: no entrysolve sources under {src}")
    sys.path.insert(0, src)
    import entrysolve
    where = os.path.dirname(os.path.dirname(os.path.abspath(entrysolve.__file__)))
    if where != src:
        raise SystemExit(f"perfbench: imported entrysolve from {where}, not {src}")
    return entrysolve


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (the simulator's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _traced(workload, seed: int) -> dict:
    from tracing import Tracer, layer_metrics

    # trace.overhead_s compares the two rounds' timed work at reference
    # speed: their wall times differ by more than that with the machine's
    watch = workload.watch
    watch.sampling = False
    t0, work0 = time.perf_counter(), watch.scaled_s
    workload.run_round(0)
    untraced, untraced_work = time.perf_counter() - t0, watch.scaled_s - work0
    tracer = Tracer()
    tracer.install()
    try:
        t0, work0 = time.perf_counter(), watch.scaled_s
        workload.run_round(1)
        traced, traced_work = time.perf_counter() - t0, watch.scaled_s - work0
        blocks = workload.time_blocks(tracer.simulate_block, 1)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"trace_{workload.name}_seed{seed}.json"),
                 {"workload": workload.name, "seed": seed,
                  "untraced_round_s": untraced, "traced_round_s": traced,
                  "untraced_work_ref_s": untraced_work, "traced_work_ref_s": traced_work})
    return layer_metrics(tracer, traced_work - untraced_work, blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    age = _age_at_start()
    es = _import_program()
    from workloads import CALIBRATION_REF_S, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](es, args.seed, OUT)
    setup_s = age + time.perf_counter() - _STARTED

    if args.trace:
        metrics = _traced(workload, args.seed)
    else:
        # stop once a further round of the same length would end further
        # past --seconds than stopping now falls short of it
        t0 = time.perf_counter()
        index = 0
        while True:
            started = time.perf_counter()
            workload.run_round(index)
            index += 1
            now = time.perf_counter()
            if now - t0 + (now - started) / 2.0 >= args.seconds:
                break
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (_peak_rss_mb(), "MB"),
                   **workload.metrics()}

    watch = workload.watch
    speed = CALIBRATION_REF_S / statistics.median(watch.calibrations)
    print(f"perfbench: machine at {speed:.3f} of reference speed (median of "
          f"{len(watch.calibrations)} calibrations); timed work {watch.wall_s:.3f} s "
          f"wall, {watch.scaled_s:.3f} s at reference speed", file=sys.stderr)
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
