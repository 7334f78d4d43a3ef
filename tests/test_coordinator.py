"""Unit tests for repro.core.coordinator."""

import numpy as np
import pytest

from repro.core import (
    DistributedConfig,
    DistributedRun,
    pagerank_open,
    run_distributed_pagerank,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        DistributedConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_groups": 0},
            {"algorithm": "dpr9"},
            {"alpha": 1.0},
            {"t1": -1},
            {"t1": 5, "t2": 1},
            {"delivery_prob": 1.5},
            {"hop_delay": -0.1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            DistributedConfig(**kwargs)


class TestRunMechanics:
    def test_reaches_target_and_stops(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=8, t1=1, t2=1, seed=2,
            target_relative_error=1e-4, max_time=500.0,
        )
        assert res.converged
        assert res.time_to_target is not None
        assert res.final_relative_error <= 1.5e-4

    def test_max_time_budget_respected(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=8, t1=1, t2=1, seed=2,
            target_relative_error=1e-30, max_time=10.0,
        )
        assert not res.converged
        assert res.trace.times[-1] <= 10.0

    def test_deterministic_given_seed(self, contest_small):
        a = run_distributed_pagerank(
            contest_small, n_groups=6, t1=0, t2=4, seed=9, max_time=30.0
        )
        b = run_distributed_pagerank(
            contest_small, n_groups=6, t1=0, t2=4, seed=9, max_time=30.0
        )
        np.testing.assert_array_equal(a.ranks, b.ranks)
        assert a.traffic.total_messages == b.traffic.total_messages

    def test_seed_changes_trajectory(self, contest_small):
        a = run_distributed_pagerank(
            contest_small, n_groups=6, t1=0, t2=4, seed=9, max_time=30.0
        )
        b = run_distributed_pagerank(
            contest_small, n_groups=6, t1=0, t2=4, seed=10, max_time=30.0
        )
        assert not np.array_equal(a.ranks, b.ranks)

    def test_result_fields_consistent(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=5, t1=1, t2=1, seed=1, max_time=20.0
        )
        assert res.ranks.shape == (contest_small.n_pages,)
        assert res.outer_iterations.shape == (5,)
        assert res.inner_sweeps.shape == (5,)
        assert res.max_outer_iterations == res.outer_iterations.max()
        assert res.traffic.total_bytes > 0

    def test_explicit_partition_and_reference(self, contest_small):
        from repro.graph import make_partition

        part = make_partition(contest_small, 4, "site")
        ref = pagerank_open(contest_small, tol=1e-13).ranks
        res = run_distributed_pagerank(
            contest_small, partition=part, reference=ref,
            n_groups=4, t1=1, t2=1, max_time=30.0,
        )
        np.testing.assert_array_equal(res.reference, ref)

    def test_partition_group_count_mismatch(self, contest_small):
        from repro.graph import make_partition

        part = make_partition(contest_small, 4, "site")
        with pytest.raises(ValueError):
            run_distributed_pagerank(
                contest_small, partition=part, n_groups=8, max_time=1.0
            )

    def test_config_override_merging(self, contest_small):
        cfg = DistributedConfig(n_groups=4, t1=1.0, t2=1.0)
        res = run_distributed_pagerank(
            contest_small, cfg, algorithm="dpr2", max_time=10.0
        )
        assert res.config.algorithm == "dpr2"
        assert res.config.n_groups == 4


class TestFaultInjection:
    def test_converges_despite_node_pauses(self, contest_small):
        """§4.2: nodes may sleep/suspend; DPR still converges."""
        cfg = DistributedConfig(
            n_groups=8, t1=1.0, t2=1.0, seed=4,
            pause_faults=4, pause_horizon=20.0, pause_mean_outage=10.0,
        )
        run = DistributedRun(contest_small, cfg)
        res = run.run(max_time=600.0, target_relative_error=1e-4)
        assert res.converged
        assert sum(ranker.skipped_wakes for ranker in run.rankers) > 0

    def test_converges_despite_message_loss(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=8, t1=1, t2=1, seed=5,
            delivery_prob=0.5, target_relative_error=1e-4, max_time=800.0,
        )
        assert res.converged
        assert res.dropped_updates > 0


class TestWarmStart:
    def test_exact_warm_start_converges_faster(self, contest_small):
        """Seeding with the centralized fixed point must beat cold."""
        cfg = DistributedConfig(n_groups=8, t1=1.0, t2=1.0, seed=2)
        cold = DistributedRun(contest_small, cfg)
        cold_res = cold.run(target_relative_error=1e-4, max_time=500.0)

        warm = DistributedRun(contest_small, cfg)
        warm.warm_start(warm.reference)
        warm_res = warm.run(target_relative_error=1e-4, max_time=500.0)

        assert warm_res.converged and cold_res.converged
        assert warm_res.time_to_target < cold_res.time_to_target
        assert (
            warm_res.outer_iterations.mean()
            < cold_res.outer_iterations.mean()
        )

    def test_warm_start_seeds_afferent_state(self, contest_small):
        """The carried ranks must survive into X, not just into r."""
        cfg = DistributedConfig(n_groups=8, t1=1.0, t2=1.0, seed=2)
        run = DistributedRun(contest_small, cfg)
        run.warm_start(run.reference)
        blocks = run.system.blocks
        for g in range(run.n_groups):
            expected = np.zeros(run.system.group_size(g))
            for src in run.system.sources_of(g):
                expected += blocks.cross[(src, g)] @ run.reference[blocks.pages[src]]
            run._refresh_group(g)
            np.testing.assert_allclose(run._x[run._slices[g]], expected)

    def test_warm_start_rejects_wrong_shape(self, contest_small):
        cfg = DistributedConfig(n_groups=4, t1=1.0, t2=1.0)
        run = DistributedRun(contest_small, cfg)
        with pytest.raises(ValueError, match="warm-start"):
            run.warm_start(np.ones(contest_small.n_pages + 3))
