"""Unit tests for repro.core.ranker (the rankers' wake chains)."""

import numpy as np
import pytest

from repro.core import run_distributed_pagerank
from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.ranker import PageRanker


@pytest.fixture
def wired(contest_small):
    """A 4-ranker event engine with delivery wiring, not yet started."""
    cfg = DistributedConfig(
        n_groups=4, algorithm="dpr1", t1=1.0, t2=1.0, aggregation_delay=0.0
    )
    run = DistributedRun(contest_small, cfg)
    return run.sim, run, run.transport, run.rankers


class TestLifecycle:
    def test_start_schedules_first_wake(self, wired):
        sim, _, _, rankers = wired
        rankers[0].start()
        assert sim.pending == 1

    def test_double_start_rejected(self, wired):
        _, _, _, rankers = wired
        rankers[0].start()
        with pytest.raises(RuntimeError):
            rankers[0].start()

    def test_second_run_rejected(self, wired):
        """The first sample starts every simulated process; a second
        run would rewind the simulator's clock instead."""
        sim, run, _, _ = wired
        run.run(max_time=3.0)
        assert sim.now == 3.0
        with pytest.raises(RuntimeError, match="once"):
            run.run(max_time=3.0)

    def test_wakes_advance_iterations(self, wired):
        sim, run, _, rankers = wired
        for rk in rankers:
            rk.start(initial_delay=0.0)
        sim.run(until=10.0)
        assert (run._outer >= 3).all()

    def test_emits_updates_to_transport(self, wired):
        sim, run, transport, rankers = wired
        for rk in rankers:
            rk.start(initial_delay=0.0)
        sim.run(until=5.0)
        run._land_inbox()
        # Cross traffic must have flowed between groups.
        assert transport.accountant.data_messages > 0
        for g in range(4):
            assert (run._recv_gen[run._aff_pairs[g]] >= 0).any()

    def test_mean_wait_zero_is_clamped(self, wired):
        _, run, _, _ = wired
        rk = PageRanker(run, 0, mean_wait=0.0, seed=1)
        assert rk.mean_wait > 0


class TestPausing:
    def test_paused_ranker_does_no_work(self, wired):
        sim, run, _, rankers = wired
        rankers[0].paused = True
        rankers[0].start(initial_delay=0.0)
        sim.run(until=10.0)
        assert run._outer[0] == 0
        assert rankers[0].skipped_wakes > 0

    def test_resume_restores_progress(self, wired):
        sim, run, _, rankers = wired
        rankers[0].paused = True
        rankers[0].start(initial_delay=0.0)
        sim.schedule(5.0, setattr, rankers[0], "paused", False)
        sim.run(until=20.0)
        assert run._outer[0] > 0


class TestDeltaSuppression:
    def test_suppression_reduces_messages(self, contest_small):
        def run(tol):
            return run_distributed_pagerank(
                contest_small, n_groups=4, t1=1.0, t2=1.0, seed=2,
                aggregation_delay=0.0, send_threshold=tol, max_time=60.0,
            )

        plain, suppressed = run(0.0), run(1e-6)
        assert suppressed.traffic.data_messages < plain.traffic.data_messages
        # Suppression only withholds sends: the ranks still converge.
        assert suppressed.final_relative_error < 1e-4
        assert np.array_equal(suppressed.outer_iterations, plain.outer_iterations)

    def test_suppression_preserves_correctness(self, contest_small):
        res = run_distributed_pagerank(
            contest_small,
            n_groups=4,
            send_threshold=1e-10,
            t1=1.0,
            t2=1.0,
            seed=3,
            max_time=200.0,
            target_relative_error=1e-5,
        )
        assert res.converged
