"""Tests for the Monte Carlo policy simulator.

Frozen analytic references (threshold and idle values for the sqrt
payoff under the alpha=0.05, beta=0.25 model with r=0.1, lambda=1,
K=C=1) come from an independent 40-digit mpmath computation.
"""
import math

import numpy as np
import pytest

from entrysolve import (
    Formulation,
    ProblemParams,
    SimConfig,
    custom_diffusion,
    gbm,
    logistic,
    power,
    simulate_active_value,
    simulate_idle_value,
    threshold_suboptimality_scan,
)
from entrysolve import simulate
from entrysolve.simulate import _run_policy

SPEC = gbm(0.05, 0.25)
PARAMS = ProblemParams(r=0.1, lam=1.0, p=0.5, K=1.0, C=1.0, h=power(0.5))
X_STAR = 5.144979408677143
G_IDLE_2 = 0.0090191640214976534064
G_ACTIVE_2 = 0.40508421545796874307


def cfg(n=20_000, seed=3, dt=0.05, form=Formulation.THINNED, **kw):
    return SimConfig(n_paths=n, seed=seed, dt=dt, formulation=form, **kw)


def record_groups(monkeypatch) -> list:
    """Patch _map_blocks to keep every group result it returns, in order."""
    outs = []
    real_map = simulate._map_blocks

    def recording_map(job, n_blocks):
        result = real_map(job, n_blocks)
        outs.extend(result)
        return result

    monkeypatch.setattr(simulate, "_map_blocks", recording_map)
    return outs


class TestDeterminism:
    def test_bit_identical_repeats(self):
        a = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=3000))
        b = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=3000))
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.n_entries_mean == b.n_entries_mean

    def test_seed_changes_result(self):
        a = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=3000, seed=3))
        b = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=3000, seed=4))
        assert a.mean != b.mean

    def test_result_per_path_independent_of_batch_size(self):
        # growing n must extend, not reshuffle, the sample: the first
        # block is shared, so with n = one block the means agree exactly
        a = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=4096))
        b = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=8192))
        # cannot compare means directly (b averages more paths), but a
        # rerun at n=4096 after the n=8192 run is still bit-identical
        c = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=4096))
        assert a.mean == c.mean
        assert b.n_paths == 8192


class TestPinnedOutput:
    """Repr-exact output of a 2-block run, recorded from the simulator
    before blocks were run in worker processes and before per-step work
    was restricted to the lanes that move. Unlike the repeat and
    batch-size tests above, this compares against earlier output, so it
    catches any change to the noise served to a path (for instance
    normal-matrix rows dropped while a live path still needs them)."""

    # float64 x* that solve() returns for SPEC, PARAMS
    XS = 5.144979408677133
    # (formulation, x0) -> per row (idle, active): (mean, stderr, n_entries_mean)
    PINNED = {
        (Formulation.FULL, XS): (
            (0.417035894915015, 0.017995684137355143, 1.7100830078125),
            (1.417035894915015, 0.017995684137355143, 0.7100830078125)),
        (Formulation.FULL, 2.0): (
            (0.006960372269975258, 0.0018256699893624943, 0.03662109375),
            (0.40307918698741485, 0.005128341833364632, 0.0325927734375)),
        (Formulation.THINNED, XS): (
            (0.4303817004710364, 0.008020983904799363, 9.12939453125),
            (1.4303817004710364, 0.008020983904799365, 8.12939453125)),
        (Formulation.THINNED, 2.0): (
            (0.008556265870149718, 0.000549212251245231, 3.0233154296875),
            (0.4042709818163777, 0.002988501731835574, 2.99755859375)),
    }

    @pytest.mark.parametrize("form, x0", list(PINNED),
                             ids=[f"{f.value}-x0={x:g}" for f, x in PINNED])
    def test_two_block_run_matches_pinned_values(self, form, x0):
        rows = _run_policy(SPEC, PARAMS, [self.XS, self.XS], [False, True], x0,
                           SimConfig(n_paths=8192, seed=123, dt=0.04,
                                     formulation=form))
        got = tuple((r.mean, r.stderr, r.n_entries_mean) for r in rows)
        assert got == self.PINNED[(form, x0)]

    @pytest.mark.parametrize("cpus", (1, 2), ids=lambda c: f"cpus={c}")
    @pytest.mark.parametrize("form, x0", list(PINNED),
                             ids=[f"{f.value}-x0={x:g}" for f, x in PINNED])
    def test_pinned_values_in_one_group_or_two(self, form, x0, cpus, monkeypatch):
        # one CPU runs both blocks side by side in one in-process group,
        # two CPUs run one block per forked worker
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        self.test_two_block_run_matches_pinned_values(form, x0)


class TestEulerPinnedOutput:
    """Repr-exact output of a 2-block run (the second one padded) for the
    two kinds stepped by Euler on ln X, recorded before jump times and
    marks were drawn lazily. At p = 0.9 some FULL lanes see dozens of
    jumps, so the jump and mark buffers grow several times per block."""

    PARAMS = ProblemParams(r=0.1, lam=1.0, p=0.9, K=1.0, C=1.0, h=power(0.5))
    # name -> (spec, threshold, x0)
    MODELS = {
        "logistic": (logistic(0.05, 0.25, 0.2), 5.2357, 3.0),
        "custom": (custom_diffusion(lambda x: 0.4 * x * (1.79 - np.log(x)),
                                    lambda x: 0.35 * x), 7.0, 4.0),
    }
    # (model, formulation) -> per row (idle, active): (mean, stderr, n_entries_mean)
    PINNED = {
        ("logistic", Formulation.FULL): (
            (0.192571126271859, 0.01243638242937709, 1.4552),
            (0.850553054635136, 0.015650063578585824, 1.429)),
        ("logistic", Formulation.THINNED): (
            (0.19969953988723557, 0.008318685911135881, 11.9078),
            (0.8569584238251988, 0.01191874724301938, 11.8778)),
        ("custom", Formulation.FULL): (
            (0.6907935367691573, 0.019159979354649585, 2.9738),
            (1.6283803022001015, 0.023436290048282314, 2.8814)),
        ("custom", Formulation.THINNED): (
            (0.6958341496567605, 0.012988258599279798, 23.468),
            (1.633668016311329, 0.017445325542805663, 23.363)),
    }

    @pytest.mark.parametrize("model, form", list(PINNED),
                             ids=[f"{m}-{f.value}" for m, f in PINNED])
    def test_two_block_run_matches_pinned_values(self, model, form):
        spec, th, x0 = self.MODELS[model]
        rows = _run_policy(spec, self.PARAMS, [th, th], [False, True], x0,
                           SimConfig(n_paths=5000, seed=11, dt=0.1,
                                     formulation=form))
        got = tuple((r.mean, r.stderr, r.n_entries_mean) for r in rows)
        assert got == self.PINNED[(model, form)]

    @pytest.mark.parametrize("cpus", (1, 2), ids=lambda c: f"cpus={c}")
    @pytest.mark.parametrize("model, form", list(PINNED),
                             ids=[f"{m}-{f.value}" for m, f in PINNED])
    def test_pinned_values_in_one_group_or_two(self, model, form, cpus, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        self.test_two_block_run_matches_pinned_values(model, form)


class TestBlockPool:
    def test_worker_pool_matches_in_process_run(self, monkeypatch):
        # lambda drift and volatility cannot be pickled: forked workers
        # must inherit them, and the worker count must not change a bit
        spec = custom_diffusion(lambda x: 0.05 * x, lambda x: 0.25 * x)
        run_cfg = cfg(n=8192, dt=0.1, horizon_T=3.0, form=Formulation.FULL)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        pooled = simulate_idle_value(spec, PARAMS, X_STAR, 4.0, run_cfg)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        alone = simulate_idle_value(spec, PARAMS, X_STAR, 4.0, run_cfg)
        assert pooled.n_entries_mean > 0.0
        assert (pooled.mean, pooled.stderr, pooled.n_entries_mean,
                pooled.catastrophe_fraction) == (
            alone.mean, alone.stderr, alone.n_entries_mean,
            alone.catastrophe_fraction)

    def test_worker_groups_of_two_match_single_blocks(self, monkeypatch):
        # four blocks on two CPUs: each forked worker runs one group of
        # two blocks side by side, the last block padded
        spec = custom_diffusion(lambda x: 0.05 * x, lambda x: 0.25 * x)
        run_cfg = cfg(n=14_000, dt=0.1, horizon_T=3.0, form=Formulation.FULL)
        outs = record_groups(monkeypatch)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        pooled = simulate_idle_value(spec, PARAMS, X_STAR, 4.0, run_cfg)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(simulate, "_GROUP", 1)
        alone = simulate_idle_value(spec, PARAMS, X_STAR, 4.0, run_cfg)
        assert [len(out["dead"]) for out in outs] == [2, 2, 1, 1, 1, 1]
        assert pooled.n_entries_mean > 0.0
        assert repr((pooled.mean, pooled.stderr, pooled.n_entries_mean,
                     pooled.catastrophe_fraction)) == repr(
            (alone.mean, alone.stderr, alone.n_entries_mean,
             alone.catastrophe_fraction))


class TestGroups:
    """Blocks simulated side by side in one group give every estimate
    bit for bit as when each block runs alone."""

    # p = 0.2 kills every FULL lane well before t_max, so blocks of a
    # group die at different steps and stop drawing one by one
    PARAMS = ProblemParams(r=0.1, lam=1.0, p=0.2, K=1.0, C=1.0, h=power(0.5))
    MODELS = {
        "gbm": (SPEC, X_STAR, 2.0),
        "logistic": (logistic(0.05, 0.25, 0.2), 5.2357, 3.0),
        "custom": (custom_diffusion(lambda x: 0.4 * x * (1.79 - np.log(x)),
                                    lambda x: 0.35 * x), 7.0, 4.0),
    }

    @pytest.mark.parametrize("n", (16_384, 13_000))
    @pytest.mark.parametrize("form", list(Formulation), ids=lambda f: f.value)
    @pytest.mark.parametrize("model", list(MODELS))
    def test_four_block_group_matches_single_blocks(self, model, form, n,
                                                    monkeypatch):
        spec, th, x0 = self.MODELS[model]
        run_cfg = SimConfig(n_paths=n, seed=21, dt=0.1, horizon_T=40.0,
                            formulation=form)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        outs = record_groups(monkeypatch)

        def run(group):
            monkeypatch.setattr(simulate, "_GROUP", group)
            outs.clear()
            rows = _run_policy(spec, self.PARAMS, [th, 0.8 * th], [False, True],
                               x0, run_cfg)
            return repr([(r.mean, r.stderr, r.n_entries_mean, r.catastrophe_fraction,
                          r.metadata["mean_discounted_fees"]) for r in rows]), list(outs)

        grouped, (group,) = run(4)
        single, blocks = run(1)
        assert len(group["dead"]) == len(blocks) == 4
        assert grouped == single
        for key in ("path_substeps", "jumps"):
            assert group[key] == sum(out[key] for out in blocks)
        # a group draws each row for every block that still has a live
        # path, and counts it once per such block
        for key in ("noise_rows_drawn", "jump_rows_drawn"):
            most = 4 * max(out[key] for out in blocks)
            if form is Formulation.FULL:
                # blocks whose paths have all died stop drawing
                assert sum(out[key] for out in blocks) <= group[key] <= most
            else:
                assert group[key] == most


class TestRowSharing:
    def test_scan_rows_match_standalone_runs(self):
        rows = threshold_suboptimality_scan(
            SPEC, PARAMS, 2.0, (0.8, 1.0, 1.25), cfg(n=3000),
            base_threshold=X_STAR)
        for m, row in zip((0.8, 1.0, 1.25), rows):
            alone = simulate_idle_value(SPEC, PARAMS, m * X_STAR, 2.0, cfg(n=3000))
            assert row.mean == alone.mean
            assert row.stderr == alone.stderr
            assert row.metadata["threshold"] == m * X_STAR

    def test_scan_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            threshold_suboptimality_scan(SPEC, PARAMS, 2.0, (), cfg(n=10),
                                         base_threshold=X_STAR)
        with pytest.raises(ValueError, match="include 1.0"):
            threshold_suboptimality_scan(SPEC, PARAMS, 2.0, (0.8, 1.2), cfg(n=10),
                                         base_threshold=X_STAR)
        with pytest.raises(ValueError, match="positive"):
            threshold_suboptimality_scan(SPEC, PARAMS, 2.0, (-0.5, 1.0), cfg(n=10),
                                         base_threshold=X_STAR)


class TestPolicyMechanics:
    def test_infinite_threshold_never_enters(self):
        est = simulate_idle_value(SPEC, PARAMS, math.inf, 2.0, cfg(n=2000))
        assert est.mean == 0.0
        assert est.stderr == 0.0
        assert est.n_entries_mean == 0.0
        assert est.metadata["mean_discounted_fees"] == 0.0

    def test_idle_above_threshold_equals_active_minus_fee(self):
        # starting idle at x0 >= threshold triggers entry at t=0, so on
        # the same seed every path is the active path minus one fee
        idle = simulate_idle_value(SPEC, PARAMS, X_STAR, 6.0, cfg(n=3000))
        active = simulate_active_value(SPEC, PARAMS, X_STAR, 6.0, cfg(n=3000))
        assert idle.mean == pytest.approx(active.mean - PARAMS.K, rel=1e-12)
        assert idle.n_entries_mean >= 1.0

    def test_fee_accounting(self):
        est = simulate_idle_value(SPEC, PARAMS, X_STAR, 4.0, cfg(n=5000))
        md = est.metadata
        assert md["fee_bound"] == pytest.approx(
            PARAMS.K * PARAMS.rho_active / PARAMS.rho_idle)
        assert 0.0 < md["mean_discounted_fees"] <= md["fee_bound"]
        assert est.n_entries_mean > 0.0

    def test_thinned_p_zero_enters_at_most_once(self):
        params = ProblemParams(r=0.1, lam=1.0, p=0.0, K=1.0, C=1.0, h=power(0.5))
        est = simulate_idle_value(SPEC, params, 3.0, 2.0, cfg(n=4000))
        assert 0.0 < est.n_entries_mean < 1.0


class TestCatastropheAccounting:
    def test_certain_survival_has_no_catastrophes(self):
        params = ProblemParams(r=0.1, lam=1.0, p=1.0, K=1.0, C=1.0, h=power(0.5))
        est = simulate_idle_value(SPEC, params, X_STAR, 2.0,
                                  cfg(n=2000, form=Formulation.FULL))
        assert est.catastrophe_fraction == 0.0

    def test_certain_catastrophe_kills_almost_all_paths(self):
        # p = 0: the first exit mark ends the path, and with t_max much
        # longer than 1/lambda almost every path sees a mark
        params = ProblemParams(r=0.1, lam=1.0, p=0.0, K=1.0, C=1.0, h=power(0.5))
        est = simulate_idle_value(SPEC, params, X_STAR, 2.0,
                                  cfg(n=2000, form=Formulation.FULL))
        assert est.catastrophe_fraction > 0.99

    def test_thinned_reports_nan_fraction(self):
        est = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=1000))
        assert math.isnan(est.catastrophe_fraction)


class TestAgreement:
    def test_full_and_thinned_agree_with_each_other_and_analytics(self):
        idle_t = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg())
        idle_f = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0,
                                     cfg(form=Formulation.FULL))
        gap = abs(idle_t.mean - idle_f.mean)
        assert gap < 3.0 * math.hypot(idle_t.stderr, idle_f.stderr)
        assert abs(idle_t.mean - G_IDLE_2) < 3.0 * idle_t.stderr
        assert abs(idle_f.mean - G_IDLE_2) < 3.0 * idle_f.stderr

    def test_active_value_matches_analytics(self):
        est = simulate_active_value(SPEC, PARAMS, X_STAR, 2.0, cfg())
        assert abs(est.mean - G_ACTIVE_2) < 3.0 * est.stderr
        assert est.stderr < 0.05

    def test_euler_step_bias_under_refinement(self):
        # logistic paths need Euler stepping; halving dt must not move
        # the estimate by more than sampling noise
        spec = logistic(0.05, 0.25, 0.2)
        coarse = simulate_idle_value(spec, PARAMS, 5.2357, 3.0, cfg(n=8000, dt=0.05))
        fine = simulate_idle_value(spec, PARAMS, 5.2357, 3.0, cfg(n=8000, dt=0.025))
        assert abs(coarse.mean - fine.mean) < 3.0 * math.hypot(
            coarse.stderr, fine.stderr)


class TestMetadata:
    def test_truncation_is_the_tighter_of_horizon_and_floor(self):
        est = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, cfg(n=100))
        # thinned discounting at rho_idle = 0.6: the floor binds first
        want = min(200.0, math.log(1e6) / 0.6)
        assert est.metadata["t_max"] == pytest.approx(want, rel=1e-12)
        assert est.metadata["formulation"] == "thinned"
        assert est.metadata["seed"] == 3
        assert est.metadata["start_active"] is False
        assert est.metadata["truncation_bias_bound"] < 1e-4

    def test_horizon_can_bind_instead(self):
        est = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0,
                                  cfg(n=100, horizon_T=5.0))
        assert est.metadata["t_max"] == 5.0

    def test_full_draws_only_the_rows_its_live_paths_reach(self):
        # acceptance configuration, one block: every path is dead long
        # before t_max, so far fewer jump rows are drawn than the
        # lam * t_max + 12 sqrt(lam * t_max) + 30 = 309 an up-front
        # buffer would need, and far fewer noise rows than steps
        run_cfg = SimConfig(n_paths=4096, seed=123, dt=0.04,
                            formulation=Formulation.FULL)
        md = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, run_cfg).metadata
        mean_jumps = PARAMS.lam * md["t_max"]
        assert int(mean_jumps + 12.0 * math.sqrt(mean_jumps) + 30.0) == 309
        assert 0 < md["jump_rows_drawn"] <= 32
        n_steps = math.ceil(md["t_max"] / run_cfg.dt)
        assert 0 < md["noise_rows_drawn"] < n_steps // 4
        assert 0 < md["jumps"] < md["path_substeps"]

    def test_work_counters_add_up_in_thinned(self):
        # no lane dies in THINNED, so each lane takes one sub-segment
        # per step plus one per jump inside a step, and the counters
        # are summed over the blocks, padding lanes included
        run_cfg = cfg(n=5000, horizon_T=4.0)
        rows = _run_policy(SPEC, PARAMS, [X_STAR], [True], 2.0, run_cfg)
        md = rows[0].metadata
        n_steps = math.ceil(md["t_max"] / run_cfg.dt)
        assert md["jumps"] > 0
        assert md["path_substeps"] == 2 * 4096 * n_steps + md["jumps"]
        assert md["noise_rows_drawn"] % simulate._CHUNK == 0
        assert md["jump_rows_drawn"] % simulate._JUMP_CHUNK == 0
        no_exits = ProblemParams(r=0.1, lam=1.0, p=0.0, K=1.0, C=1.0, h=power(0.5))
        md = simulate_idle_value(SPEC, no_exits, X_STAR, 2.0, run_cfg).metadata
        assert (md["jumps"], md["jump_rows_drawn"]) == (0, 0)
        assert md["path_substeps"] == 2 * 4096 * n_steps

    def test_jump_between_steps_is_taken(self, monkeypatch):
        # step 5 ends at 5 * 0.1 + 0.1 = 0.6, step 6 starts at 6 * 0.1 =
        # 0.6000000000000001: a jump pinned at the latter falls between
        # them, and the lane must take it rather than stop moving
        assert 5 * 0.1 + 0.1 < 6 * 0.1
        fill = simulate._jump_fill

        def pinned(rng, rate, width):
            inner = fill(rng, rate, width)
            first = True

            def pinned_fill(out):
                nonlocal first
                inner(out)
                if first:
                    # lane 0's first jump; its second comes later
                    assert out[1, 0] > 6 * 0.1
                    out[0, 0] = 6 * 0.1
                    first = False

            return pinned_fill

        monkeypatch.setattr(simulate, "_jump_fill", pinned)
        run_cfg = cfg(n=4096, dt=0.1)
        md = simulate_idle_value(SPEC, PARAMS, X_STAR, 2.0, run_cfg).metadata
        n_steps = math.ceil(md["t_max"] / run_cfg.dt)
        assert md["path_substeps"] == 4096 * n_steps + md["jumps"]


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, horizon_T=-1.0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, discount_floor=1.5)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, seed=-1)
        for field in ("dt", "horizon_T", "discount_floor"):
            with pytest.raises(ValueError):
                SimConfig(n_paths=10, **{field: math.nan})
        assert SimConfig(n_paths=10, horizon_T=math.inf).horizon_T == math.inf

    def test_config_rejects_an_infinite_step(self):
        # ceil(t_max / inf) = 0 steps would give mean 0 and stderr 0
        with pytest.raises(ValueError, match="dt"):
            SimConfig(n_paths=10, dt=math.inf)

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 100.5), ("n_paths", 100.0), ("seed", 1.5), ("seed", "1"),
        ("n_paths", True), ("seed", False)])
    def test_config_rejects_non_integer_counts(self, field, value):
        kwargs = {"n_paths": 10, field: value}
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        config = SimConfig(n_paths=np.int64(10), seed=np.uint32(7))
        assert (config.n_paths, config.seed) == (10, 7)

    def test_run_rejects_bad_states(self):
        with pytest.raises(ValueError):
            simulate_idle_value(SPEC, PARAMS, X_STAR, -2.0, cfg(n=10))
        with pytest.raises(ValueError):
            simulate_idle_value(SPEC, PARAMS, 0.0, 2.0, cfg(n=10))
        with pytest.raises(ValueError):
            simulate_idle_value(SPEC, PARAMS, X_STAR, math.nan, cfg(n=10))
