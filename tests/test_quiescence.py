"""Tests for reference-free (quiescence) termination detection.

The paper's DPR loops run forever ("while true"); this repo adds a
termination rule grounded in the paper's own Theorem 3.3: when every
ranker's outer-step change is tiny and stays tiny, the system is at
its fixed point.  These tests check the rule fires, fires *correctly*
(the detected state really is converged), and does not fire early.
"""

import pytest

from repro.core import pagerank_open, run_distributed_pagerank
from repro.linalg.norms import relative_l1_error


class TestQuiescence:
    def test_detects_convergence_without_reference(self, contest_small):
        res = run_distributed_pagerank(
            contest_small,
            n_groups=6,
            t1=1.0,
            t2=1.0,
            seed=2,
            quiescence_delta=1e-9,
            max_time=1000.0,
        )
        assert res.quiescent
        assert res.quiescence_time is not None
        # The self-detected state really is the centralized solution.
        reference = pagerank_open(contest_small, tol=1e-13).ranks
        assert relative_l1_error(res.ranks, reference) < 1e-5

    def test_run_stops_at_quiescence(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=6, t1=1.0, t2=1.0, seed=2,
            quiescence_delta=1e-9, max_time=1000.0,
        )
        # The simulation ended at detection, not at the time budget.
        assert res.trace.times[-1] < 1000.0
        assert res.trace.times[-1] == res.quiescence_time

    def test_no_quiescence_when_disabled(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=6, t1=1.0, t2=1.0, seed=2, max_time=30.0,
        )
        assert not res.quiescent
        assert res.quiescence_time is None

    def test_does_not_fire_before_any_iteration(self, contest_small):
        """Idle rankers (huge waits) must not look quiescent."""
        res = run_distributed_pagerank(
            contest_small, n_groups=6, t1=500.0, t2=500.0, seed=2,
            quiescence_delta=1e-9, max_time=50.0, sample_interval=5.0,
        )
        assert not res.quiescent

    def test_tight_delta_converges_tighter(self, contest_small):
        reference = pagerank_open(contest_small, tol=1e-13).ranks
        loose = run_distributed_pagerank(
            contest_small, n_groups=6, t1=1.0, t2=1.0, seed=3,
            quiescence_delta=1e-4, max_time=1000.0, reference=reference,
        )
        tight = run_distributed_pagerank(
            contest_small, n_groups=6, t1=1.0, t2=1.0, seed=3,
            quiescence_delta=1e-10, max_time=1000.0, reference=reference,
        )
        assert loose.quiescent and tight.quiescent
        assert loose.quiescence_time <= tight.quiescence_time
        assert tight.final_relative_error <= loose.final_relative_error

    def test_quiescence_with_dpr2(self, contest_small):
        res = run_distributed_pagerank(
            contest_small, n_groups=6, algorithm="dpr2", t1=1.0, t2=1.0,
            seed=4, quiescence_delta=1e-9, max_time=2000.0,
        )
        assert res.quiescent

    def test_invalid_quiescence_samples(self, contest_small):
        from repro.core.coordinator import DistributedConfig, DistributedRun

        run = DistributedRun(contest_small, DistributedConfig(n_groups=2))
        with pytest.raises(ValueError, match="quiescence_samples"):
            run.run(quiescence_delta=1e-9, quiescence_samples=0)
        # Rejected before the run started anything.
        assert run.sim.now == 0.0 and run.sim.pending == 0
