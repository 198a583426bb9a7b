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
t_max, most jump and mark rows are never drawn. Rows are kept in rings
whose space is reused once every live path has moved past a row, so
the noise buffer holds only the rows between the slowest and the
fastest path, and the jump and mark buffers only the rows up to the
furthest jump any lane has reached. Per-path noise consumption depends
only on the path's own jump count, so each path's result is a function
of (seed, path index) alone under this block layout. Jump times are handled exactly: a step
containing a jump is advanced in sub-segments that end precisely at the
jump. Only the paths that move do work: after a step's first
sub-segment only the paths that have just jumped are advanced, and in
FULL a path killed by a catastrophe is dropped from the working set.

Consecutive blocks are simulated side by side in groups of up to
_GROUP, as one set of lanes, which spreads the per-step overhead over
more paths. A group's matrices are its blocks' matrices placed next to
each other: each block keeps its own streams and chunking, and its sums
are reduced over its own columns. A group draws a row for each of its
blocks that still has a live path once any of its paths needs it, so
it may draw more rows than its blocks would alone, but never other
values. Groups are independent, so they may run in forked worker
processes, one per usable CPU. The per-block sums are still reduced
with math.fsum in block order, so results depend neither on the number
of workers nor on the grouping, and each path's result remains a
function of (seed, path index) alone.

GBM steps use the exact lognormal transition; logistic and custom
models use Euler-Maruyama on the log state. Paths stop at
min(horizon_T, time when the discount factor falls below
discount_floor).
"""
from __future__ import annotations

import math
import multiprocessing as mp
import numbers
import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .diffusions import DiffusionKind, DiffusionSpec
from .solver import ProblemParams

_BLOCK = 4096
_GROUP = 4           # most blocks one pool task simulates side by side
_CHUNK = 64          # normal rows per draw
_JUMP_CHUNK = 16     # jump-time and mark rows per draw


class Formulation(Enum):
    FULL = "full"
    THINNED = "thinned"


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    Attributes:
        n_paths: number of Monte Carlo paths, an integer >= 1.
        seed: base seed for the per-block Philox streams, an integer >= 0.
        dt: diffusion step, finite and > 0.
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
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            # bool is an Integral too, but True paths or seed False is a slip
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
    noise_rows_drawn and jump_rows_drawn (rows of 4096 draws each; a
    group draws each row for all its blocks that still have a live path,
    and counts it once per such block).
    """

    mean: float
    stderr: float
    n_paths: int
    n_entries_mean: float
    catastrophe_fraction: float
    metadata: dict


class _RowDealer:
    """Serves entries of an implicit (inf, width) matrix: the (inf,
    _BLOCK) matrices of a group's blocks side by side, block b's rows
    written by fills[b](out=...) in stream order, one C-contiguous
    (chunk, _BLOCK) out at a time.

    Rows are made only when a path first asks for them. They are kept
    in a ring whose length is a power of two times chunk, row r at ring
    row r mod that length, so release() drops the rows every live path
    has moved past just by raising a floor, and later rows reuse their
    space. Row r, column j of each block stays a fixed function of that
    block's stream. retire() stops drawing for blocks with no live path
    left. rows_drawn counts rows of _BLOCK draws, one per block and row.
    """

    def __init__(self, fills, chunk: int):
        self._fills = list(fills)
        self._chunk = chunk
        self._ring = np.empty((chunk, _BLOCK * len(self._fills)))
        self._base = self._top = 0
        self.rows_drawn = 0

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries (rows[i], cols[i]); no row may lie below the last
        release floor."""
        need = int(rows.max(initial=-1))
        if need >= self._top:
            self._draw(need)
        ring = self._ring
        return ring.take((rows & (len(ring) - 1)) * ring.shape[1] + cols)

    def _draw(self, need: int) -> None:
        chunk, old = self._chunk, len(self._ring)
        top = self._top + ((need - self._top) // chunk + 1) * chunk
        size = old
        while top - self._base > size:
            size *= 2
        if size > old:
            held = np.arange(self._base, self._top)
            ring = np.empty((size, self._ring.shape[1]))
            ring[held & (size - 1)] = self._ring[held & (old - 1)]
            self._ring = ring
        # a group of one fills the ring in place, wider ones via part
        part = np.empty((chunk, _BLOCK)) if len(self._fills) > 1 else None
        for r in range(self._top, top, chunk):
            at = self._ring[r & (size - 1):][:chunk]
            for b, fill in enumerate(self._fills):
                if fill is None:
                    continue
                if part is None:
                    fill(out=at)
                else:
                    fill(out=part)
                    at[:, b * _BLOCK:(b + 1) * _BLOCK] = part
                self.rows_drawn += chunk
        self._top = top

    def release(self, floor: int) -> None:
        """Drop the rows below floor, which must be the minimum row
        pointer over every live path, moving or not."""
        self._base = max(self._base, floor)

    def retire(self, live: np.ndarray) -> None:
        """Draw no more rows for the blocks b with live[b] false."""
        self._fills = [f if keep else None for f, keep in zip(self._fills, live)]


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


def _simulate_block(spec, params, thresholds, start_flags, x0, cfg, blocks):
    """Simulate a group of consecutive blocks side by side: blocks is a
    range of block indices, or one index for a group of one. Returns
    one dict for the group; its per-block entries are arrays with one
    row per block in block order, each reduced over that block's own
    used columns."""
    if not isinstance(blocks, range):
        blocks = range(blocks, blocks + 1)
    full = cfg.formulation is Formulation.FULL
    rho = params.r if full else params.rho_idle
    rate = params.lam if full else params.lam * params.p
    t_max = min(cfg.horizon_T, math.log(1.0 / cfg.discount_floor) / rho)
    n_steps = int(math.ceil(t_max / cfg.dt))
    width = _BLOCK * len(blocks)
    nt = len(thresholds)
    th = np.asarray(thresholds, dtype=float)[:, None]
    h, p, big_k, run_c = params.h, params.p, params.K, params.C

    def streams(tag):
        return [np.random.Generator(np.random.Philox(
            np.random.SeedSequence((cfg.seed, b, tag)))) for b in blocks]

    dealer = _RowDealer([rng.standard_normal for rng in streams(0)], _CHUNK)
    lane = np.arange(width)
    jptr = np.zeros(width, dtype=np.int64)
    if rate > 0.0:
        jumps = _RowDealer([_jump_fill(rng, rate, _BLOCK) for rng in streams(1)],
                           _JUMP_CHUNK)
        next_jump = jumps.take(jptr, lane)
    else:
        # thinned formulation with p = 0: no surviving exits at all
        jumps = None
        next_jump = np.full(width, np.inf)
    if full:
        marks = _RowDealer([rng.random for rng in streams(2)], _JUMP_CHUNK)

    advance = _log_stepper(spec)
    # Per-path state is kept compact over the working set: the lanes
    # (group columns) still simulated, in lane order. In FULL a lane
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
            if len(blocks) > 1:
                edges = np.searchsorted(lane, np.arange(0, width + 1, _BLOCK))
                for source in (dealer, jumps, marks):
                    source.retire(np.diff(edges) > 0)
        enter_idle(math.exp(-rho * t1k))
        dealer.release(int(ptr.min()))
    totals[:, lane], fees[:, lane], entries[:, lane] = tot, fee, ent

    lo = _BLOCK * np.arange(len(blocks))
    hi = lo + np.minimum(_BLOCK, cfg.n_paths - _BLOCK * np.asarray(blocks))
    sums = {key: np.array([a[:, i:j].sum(axis=1) for i, j in zip(lo, hi)], dtype=float)
            for key, a in zip(_SUM_KEYS, (totals, totals ** 2, entries, fees))}
    # in FULL the lanes left in the working set are the survivors
    alive = np.searchsorted(lane, hi) - np.searchsorted(lane, lo)
    return dict(
        sums, dead=(hi - lo - alive).astype(float) if full else np.full(len(blocks), math.nan),
        t_max=t_max, rho=rho,
        # work over the whole group width, padding lanes included
        path_substeps=substeps, jumps=n_jumps,
        noise_rows_drawn=dealer.rows_drawn,
        jump_rows_drawn=0 if jumps is None else jumps.rows_drawn)


# Per-block sums of each policy row, reduced with math.fsum in block order.
_SUM_KEYS = ("sum_v", "sum_sq", "sum_entries", "sum_fees")
# Work counters each group returns; _run_policy sums them over groups.
_WORK_KEYS = ("path_substeps", "jumps", "noise_rows_drawn", "jump_rows_drawn")

# Set by the pool initializer in forked workers only, never in the caller.
_worker_job: Optional[tuple] = None


def _init_worker(job: tuple) -> None:
    global _worker_job
    _worker_job = job


def _worker_group(blocks: range) -> dict:
    return _simulate_block(*_worker_job, blocks)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(job: tuple, n_blocks: int) -> list[dict]:
    """_simulate_block(*job, group) for consecutive groups that cover
    blocks 0 .. n_blocks - 1, in block order.

    A group holds min(_GROUP, ceil(n_blocks / CPUs)) blocks (the last
    one fewer), so each usable CPU gets about the same share. Groups run
    in a fork-context process pool with one worker per usable CPU (at
    most one per group). Forked workers inherit job, so custom drift,
    volatility and payoff callables need no pickling. Groups run in this
    process when there is one group or one CPU, when fork is
    unavailable, or when this process is itself a daemonic pool worker.
    """
    cpus = _usable_cpus()
    size = min(_GROUP, -(-n_blocks // cpus))
    groups = [range(b, min(b + size, n_blocks)) for b in range(0, n_blocks, size)]
    n_workers = min(len(groups), cpus)
    if (n_workers < 2 or "fork" not in mp.get_all_start_methods()
            or mp.current_process().daemon):
        return [_simulate_block(*job, group) for group in groups]
    with mp.get_context("fork").Pool(n_workers, _init_worker, (job,)) as pool:
        return pool.map(_worker_group, groups, chunksize=1)


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
    outs = _map_blocks((spec, params, thresholds, start_flags, x0, cfg), n_blocks)
    sums = {key: [math.fsum(col) for col in np.concatenate([out[key] for out in outs]).T]
            for key in _SUM_KEYS}
    dead = math.fsum(np.concatenate([out["dead"] for out in outs]))
    work = {key: sum(out[key] for out in outs) for key in _WORK_KEYS}
    t_max, rho = outs[-1]["t_max"], outs[-1]["rho"]

    full = cfg.formulation is Formulation.FULL
    fee_bound = params.K * params.rho_active / params.rho_idle
    results = []
    for i, th in enumerate(thresholds):
        mean = sums["sum_v"][i] / n
        if n > 1:
            var = (sums["sum_sq"][i] - n * mean * mean) / (n - 1)
            stderr = math.sqrt(max(var, 0.0) / n)
        else:
            stderr = 0.0
        mean_fees = sums["sum_fees"][i] / n
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
            n_entries_mean=sums["sum_entries"][i] / n,
            catastrophe_fraction=(dead / n) if full else math.nan,
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
