"""Monte Carlo valuation of threshold entry policies.

Estimates the expected discounted payoff of the policy "enter whenever
idle and X >= threshold" under two equivalent formulations:

  * FULL: discount at r, exits at Poisson(lambda) jumps, each jump
    catastrophic with probability 1-p (catastrophes hit idle paths too
    and permanently end the path).
  * THINNED: catastrophe risk folded into the discount, r + (1-p)
    lambda, with surviving exits arriving at rate lambda * p and no
    catastrophe draws.

Paths are simulated in fixed blocks of 4096 (the last block is padded:
random draws always span the full block width and unused columns are
discarded), with three independent Philox streams per block, keyed by
(seed, block index, tag): tag 0 drives diffusion noise, tag 1 the
exponential jump clock, tag 2 the catastrophe marks. Each stream is
read as an endless (row, 4096) matrix whose rows are drawn only when a
live path first reaches them, a chunk at a time: 64 rows of normals, 16
of jump times (running sums of the exponential gaps, carried from chunk
to chunk) and 16 of marks. Row r, column j does not depend on the
chunking, so the values are bitwise those of drawing every row up
front; in FULL, where a block's paths are usually all dead long before
t_max, most jump and mark rows are never drawn. Normal rows are dropped
once every live path has moved past them, so the noise buffer holds
only the rows between the slowest and the fastest path, and the jump
and mark buffers only the rows up to the furthest jump any lane has
reached. Per-path noise consumption depends only on the path's own jump
count, so each path's result is a function of (seed, path index) alone
under this block layout. Jump times are handled exactly: a step
containing a jump is advanced in sub-segments that end precisely at the
jump. Only the paths that move do work: after a step's first
sub-segment only the paths that have just jumped are advanced, and in
FULL a path killed by a catastrophe is dropped from the block.

Blocks are independent, so they may run in forked worker processes, one
per usable CPU. The per-block sums are still reduced with math.fsum in
block order, so results do not depend on the number of workers and each
path's result remains a function of (seed, path index) alone.

GBM steps use the exact lognormal transition; logistic and custom
models use Euler-Maruyama on the log state. Paths stop at
min(horizon_T, time when the discount factor falls below
discount_floor).
"""
from __future__ import annotations

import math
import multiprocessing as mp
import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .diffusions import DiffusionKind, DiffusionSpec
from .solver import ProblemParams

_BLOCK = 4096
_CHUNK = 64          # normal rows per draw
_JUMP_CHUNK = 16     # jump-time and mark rows per draw


class Formulation(Enum):
    FULL = "full"
    THINNED = "thinned"


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    Attributes:
        n_paths: number of Monte Carlo paths, >= 1.
        seed: base seed for the per-block Philox streams.
        dt: diffusion step, > 0.
        horizon_T: hard time truncation.
        discount_floor: alternative truncation: a path stops once
            exp(-rho t) < discount_floor.
        formulation: FULL or THINNED.
    """

    n_paths: int
    seed: int = 0
    dt: float = 0.01
    horizon_T: float = 200.0
    discount_floor: float = 1e-6
    formulation: Formulation = Formulation.FULL

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.horizon_T > 0.0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        if not 0.0 < self.discount_floor < 1.0:
            raise ValueError(
                f"discount_floor must lie in (0, 1), got {self.discount_floor}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PolicyEstimate:
    """Estimate of a policy value with sampling error and run metadata.

    Besides the run settings, metadata holds the work of the whole run,
    summed over blocks and shared by every row simulated with it:
    path_substeps (lanes advanced, summed over sub-segments), jumps,
    noise_rows_drawn and jump_rows_drawn (rows of 4096 draws each).
    """

    mean: float
    stderr: float
    n_paths: int
    n_entries_mean: float
    catastrophe_fraction: float
    metadata: dict


class _RowDealer:
    """Serves entries of an implicit (inf, width) matrix whose rows
    fill(out) writes in stream order, a whole number of chunks at a time.

    Rows are made only when a path first asks for them, and release()
    drops the rows every live path has moved past, while row r, column j
    stays a fixed function of the stream.
    """

    def __init__(self, fill, width: int, chunk: int):
        self._fill = fill
        self._width = width
        self._chunk = chunk
        self._buf = np.empty((0, width))
        self._base = 0
        self.rows_drawn = 0

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries (rows[i], cols[i]); no row may lie below the last
        release floor."""
        top = self._base + len(self._buf)
        need = int(rows.max(initial=-1))
        if need >= top:
            live = len(self._buf)
            fresh = ((need - top) // self._chunk + 1) * self._chunk
            buf = np.empty((live + fresh, self._width))
            buf[:live] = self._buf
            self._fill(buf[live:])
            self._buf = buf
            self.rows_drawn += fresh
        return self._buf.take((rows - self._base) * self._width + cols)

    def release(self, floor: int) -> None:
        """Drop the rows below floor, which must be the minimum row
        pointer over every live path, moving or not."""
        if floor > self._base:
            self._buf = self._buf[floor - self._base:]
            self._base = floor


def _jump_fill(rng: np.random.Generator, rate: float, width: int):
    """fill(out) for the jump-time matrix: row r holds each lane's
    (r+1)-th jump time, the running sum of exponential gaps carried
    across chunks, so every value is bitwise that of one cumsum over all
    rows."""
    carry = np.zeros(width)

    def fill(out):
        gaps = rng.exponential(1.0 / rate, size=out.shape)
        np.maximum(gaps, 1e-12, out=gaps)
        gaps[0] += carry
        np.cumsum(gaps, axis=0, out=out)
        carry[:] = out[-1]

    return fill


def _log_stepper(spec: DiffusionSpec):
    """Per-segment update of y = ln X over durations dtv with noise z."""
    if spec.kind is DiffusionKind.GBM:
        mu = spec.alpha - 0.5 * spec.beta ** 2
        beta = spec.beta

        def advance(y, dtv, z):
            return y + mu * dtv + beta * np.sqrt(dtv) * z

        return advance
    if spec.kind is DiffusionKind.LOGISTIC:
        alpha, beta, gamma = spec.alpha, spec.beta, spec.gamma

        def advance(y, dtv, z):
            mu = alpha * (1.0 - gamma * np.exp(y)) - 0.5 * beta ** 2
            return y + mu * dtv + beta * np.sqrt(dtv) * z

        return advance

    def advance(y, dtv, z):
        x = np.exp(y)
        sig = spec.vol(x) / x
        mu = spec.drift(x) / x - 0.5 * sig * sig
        return y + mu * dtv + sig * np.sqrt(dtv) * z

    return advance


def _simulate_block(spec, params, thresholds, start_flags, x0, cfg,
                    block_idx):
    full = cfg.formulation is Formulation.FULL
    rho = params.r if full else params.rho_idle
    rate = params.lam if full else params.lam * params.p
    t_max = min(cfg.horizon_T, math.log(1.0 / cfg.discount_floor) / rho)
    n_steps = int(math.ceil(t_max / cfg.dt))
    width = _BLOCK
    n_used = min(width, cfg.n_paths - block_idx * width)
    nt = len(thresholds)
    th = np.asarray(thresholds, dtype=float)[:, None]
    h, p, big_k, run_c = params.h, params.p, params.K, params.C

    def stream(tag):
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence((cfg.seed, block_idx, tag))))

    noise = stream(0)
    dealer = _RowDealer(lambda out: noise.standard_normal(out=out), width, _CHUNK)
    lane = np.arange(width)
    jptr = np.zeros(width, dtype=np.int64)
    if rate > 0.0:
        jumps = _RowDealer(_jump_fill(stream(1), rate, width), width, _JUMP_CHUNK)
        next_jump = jumps.take(jptr, lane)
    else:
        # thinned formulation with p = 0: no surviving exits at all
        jumps = None
        next_jump = np.full(width, np.inf)
    if full:
        mark_rng = stream(2)
        marks = _RowDealer(lambda out: mark_rng.random(out=out), width, _JUMP_CHUNK)

    advance = _log_stepper(spec)
    # Per-path state is kept compact over the working set: the lanes
    # (block columns) still simulated, in lane order. In FULL a lane
    # leaves it at the end of the step in which a catastrophe kills it;
    # its accumulators are then scattered back to column lane[i].
    y = np.full(width, math.log(x0))
    x = np.full(width, float(x0))
    active = np.repeat(np.asarray(start_flags, dtype=bool)[:, None], width, axis=1)
    tot = np.zeros((nt, width))
    fee = np.zeros((nt, width))
    ent = np.zeros((nt, width), dtype=np.int64)
    ptr = np.zeros(width, dtype=np.int64)
    f = h(x) - run_c
    totals, fees, entries = np.zeros_like(tot), np.zeros_like(fee), np.zeros_like(ent)

    def pay_entry(flat, fee_k):
        # flat: C-order indices into the (nt, lanes) accumulators;
        # fee_k = K * discount, a scalar or one value per index
        tot.put(flat, tot.take(flat) - fee_k)
        fee.put(flat, fee.take(flat) + fee_k)
        ent.put(flat, ent.take(flat) + 1)

    def enter_idle(disc):
        enter = (x >= th) > active
        flat = np.flatnonzero(enter)
        if flat.size:
            pay_entry(flat, big_k * disc)
            active[...] |= enter

    substeps = n_jumps = 0
    enter_idle(1.0)
    for k in range(n_steps):
        t0k = k * cfg.dt
        t1k = min(t0k + cfg.dt, t_max)
        # First sub-segment: from t0k to the step end or the lane's next
        # jump, normally for every lane at full width. Later ones only
        # move the lanes that have just jumped.
        sel = slice(None)
        t_cur = t0k
        t_tar = np.minimum(next_jump, t1k)
        move = t_tar > t_cur
        if not move.all():
            # (k - 1) dt + dt can round below k dt: a lane whose next
            # jump fell in between takes it now, after a move of length 0
            due = next_jump <= t_cur
            next_jump[due] = t_tar[due] = t_cur
            move |= due
            sel = np.flatnonzero(move)
            t_tar = t_tar[sel]
        gone = []
        while t_tar.size:
            substeps += t_tar.size
            dtv = t_tar - t_cur
            ys = advance(y[sel], dtv, dealer.take(ptr[sel], lane[sel]))
            ptr[sel] += 1
            xs = np.exp(ys)
            f_new = np.exp(-rho * t_tar) * (h(xs) - run_c)
            tot[:, sel] += (0.5 * (f[sel] + f_new) * dtv) * active[:, sel]
            y[sel] = ys
            x[sel] = xs
            f[sel] = f_new
            jumped = t_tar == next_jump[sel]
            pos = np.flatnonzero(jumped)
            if not pos.size:
                break
            n_jumps += pos.size
            if isinstance(sel, np.ndarray):
                pos = sel[pos]
            t_cur = t_tar[jumped]
            xj = xs[jumped]
            if full:
                died = marks.take(jptr[pos], lane[pos]) >= p
                if died.any():
                    gone.append(pos[died])
                    pos, t_cur, xj = pos[~died], t_cur[~died], xj[~died]
            jptr[pos] += 1
            next_jump[pos] = jumps.take(jptr[pos], lane[pos])
            # every exit ends the project; re-entry is immediate when the
            # state is already at or above the threshold
            reenter = xj >= th
            active[:, pos] = reenter
            if reenter.any():
                rows, cols = np.nonzero(reenter)
                pay_entry(rows * lane.size + pos[cols],
                          big_k * np.exp(-rho * t_cur)[cols])
            t_tar = np.minimum(next_jump[pos], t1k)
            move = t_tar > t_cur
            sel, t_cur, t_tar = pos[move], t_cur[move], t_tar[move]
        if gone:
            dead = np.concatenate(gone)
            out = lane[dead]
            totals[:, out], fees[:, out], entries[:, out] = \
                tot[:, dead], fee[:, dead], ent[:, dead]
            keep = np.ones(lane.size, dtype=bool)
            keep[dead] = False
            keep = np.flatnonzero(keep)
            lane, y, x, f, ptr, jptr, next_jump = (
                a.take(keep) for a in (lane, y, x, f, ptr, jptr, next_jump))
            active, tot, fee, ent = (
                a.take(keep, axis=1) for a in (active, tot, fee, ent))
            if not lane.size:
                break
        enter_idle(math.exp(-rho * t1k))
        dealer.release(int(ptr.min()))
    totals[:, lane], fees[:, lane], entries[:, lane] = tot, fee, ent

    sl = slice(0, n_used)
    return {
        "sum_v": totals[:, sl].sum(axis=1),
        "sum_sq": (totals[:, sl] ** 2).sum(axis=1),
        "sum_entries": entries[:, sl].sum(axis=1).astype(float),
        "sum_fees": fees[:, sl].sum(axis=1),
        # in FULL the lanes left in the working set are the survivors
        "dead": float(n_used - np.count_nonzero(lane < n_used)) if full else math.nan,
        "t_max": t_max,
        "rho": rho,
        # work over the whole block width, padding lanes included
        "path_substeps": substeps,
        "jumps": n_jumps,
        "noise_rows_drawn": dealer.rows_drawn,
        "jump_rows_drawn": 0 if jumps is None else jumps.rows_drawn,
    }


# Work counters each block returns; _run_policy sums them over blocks.
_WORK_KEYS = ("path_substeps", "jumps", "noise_rows_drawn", "jump_rows_drawn")

# Set by the pool initializer in forked workers only, never in the caller.
_worker_job: Optional[tuple] = None


def _init_worker(job: tuple) -> None:
    global _worker_job
    _worker_job = job


def _worker_block(block_idx: int) -> dict:
    return _simulate_block(*_worker_job, block_idx)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(job: tuple, n_blocks: int) -> list[dict]:
    """_simulate_block(*job, b) for b = 0 .. n_blocks - 1, in block order.

    Blocks run in a fork-context process pool with one worker per usable
    CPU (at most one per block). Forked workers inherit job, so custom
    drift, volatility and payoff callables need no pickling. Blocks run
    in this process when there is one block or one CPU, when fork is
    unavailable, or when this process is itself a daemonic pool worker.
    """
    n_workers = min(n_blocks, _usable_cpus())
    if (n_workers < 2 or "fork" not in mp.get_all_start_methods()
            or mp.current_process().daemon):
        return [_simulate_block(*job, b) for b in range(n_blocks)]
    with mp.get_context("fork").Pool(n_workers, _init_worker, (job,)) as pool:
        return pool.map(_worker_block, range(n_blocks), chunksize=1)


def _run_policy(spec: DiffusionSpec, params: ProblemParams, thresholds,
                start_flags, x0: float, cfg: SimConfig) -> list[PolicyEstimate]:
    """Evaluate several (threshold, start_active) policy rows on one
    shared set of paths; row i is bit-identical to a standalone run."""
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"starting state x0 must be positive and finite, got {x0}")
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not t > 0.0:
            raise ValueError(f"threshold must be positive (or inf), got {t}")
    start_flags = [bool(s) for s in start_flags]
    if len(start_flags) != len(thresholds):
        raise ValueError("one start flag is required per threshold row")
    n = cfg.n_paths
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    nt = len(thresholds)
    parts = {key: [[] for _ in range(nt)] for key in
             ("sum_v", "sum_sq", "sum_entries", "sum_fees")}
    dead_parts: list[float] = []
    work = dict.fromkeys(_WORK_KEYS, 0)
    t_max = rho = 0.0
    job = (spec, params, thresholds, start_flags, x0, cfg)
    for out in _map_blocks(job, n_blocks):
        for key in parts:
            for i in range(nt):
                parts[key][i].append(float(out[key][i]))
        dead_parts.append(out["dead"])
        for key in work:
            work[key] += out[key]
        t_max, rho = out["t_max"], out["rho"]

    full = cfg.formulation is Formulation.FULL
    fee_bound = params.K * params.rho_active / params.rho_idle
    results = []
    for i, th in enumerate(thresholds):
        mean = math.fsum(parts["sum_v"][i]) / n
        if n > 1:
            var = (math.fsum(parts["sum_sq"][i]) - n * mean * mean) / (n - 1)
            stderr = math.sqrt(max(var, 0.0) / n)
        else:
            stderr = 0.0
        mean_fees = math.fsum(parts["sum_fees"][i]) / n
        probe = 4.0 * max(x0, th if math.isfinite(th) else x0, 1.0)
        bias = math.exp(-rho * t_max) \
            * float(params.h(np.asarray([probe]))[0]) / rho
        metadata = {
            "formulation": cfg.formulation.value,
            "dt": cfg.dt,
            "horizon_T": cfg.horizon_T,
            "discount_floor": cfg.discount_floor,
            "t_max": t_max,
            "block_width": _BLOCK,
            "seed": cfg.seed,
            "threshold": th,
            "start_active": start_flags[i],
            "mean_discounted_fees": mean_fees,
            "fee_bound": fee_bound,
            "truncation_bias_bound": bias,
            **work,
        }
        results.append(PolicyEstimate(
            mean=mean, stderr=stderr, n_paths=n,
            n_entries_mean=math.fsum(parts["sum_entries"][i]) / n,
            catastrophe_fraction=(math.fsum(dead_parts) / n) if full else math.nan,
            metadata=metadata))
    return results


def simulate_idle_value(spec: DiffusionSpec, params: ProblemParams, threshold,
                        x0: float, cfg: SimConfig) -> PolicyEstimate:
    """Value of starting idle at x0 under the given entry threshold.

    threshold may be math.inf, in which case the policy never enters
    and the estimate is exactly 0 +- 0.
    """
    return _run_policy(spec, params, [threshold], [False], x0, cfg)[0]


def simulate_active_value(spec: DiffusionSpec, params: ProblemParams, threshold,
                          x0: float, cfg: SimConfig) -> PolicyEstimate:
    """Value of starting active (no initial fee) at x0; after the first
    exit the path follows the idle threshold policy."""
    return _run_policy(spec, params, [threshold], [True], x0, cfg)[0]


def threshold_suboptimality_scan(spec: DiffusionSpec, params: ProblemParams,
                                 x0: float, multipliers: Sequence[float],
                                 cfg: SimConfig,
                                 base_threshold: Optional[float] = None
                                 ) -> list[PolicyEstimate]:
    """Idle-value estimates at thresholds m * x_star for each multiplier m.

    All multipliers share one set of simulated paths (common random
    numbers), so differences between rows are far better resolved than
    their individual stderr suggests; each row is still bit-identical
    to a standalone simulate_idle_value run at the same threshold.
    base_threshold overrides the internally solved x_star, which is
    useful for configurations with no finite threshold.
    """
    ms = [float(m) for m in multipliers]
    if not ms:
        raise ValueError("multipliers must be non-empty")
    if not all(m > 0.0 for m in ms):
        raise ValueError("multipliers must be positive")
    if 1.0 not in ms:
        raise ValueError("multipliers must include 1.0 as the reference point")
    if base_threshold is None:
        from .solver import solve_threshold
        base_threshold = solve_threshold(spec, params)
    return _run_policy(spec, params, [m * base_threshold for m in ms],
                       [False] * len(ms), x0, cfg)
