"""Unit tests for repro.core.ranker (the asynchronous process wrapper)."""

import pytest

from repro.core.dpr import DPRNode
from repro.core.open_system import GroupSystem
from repro.core.ranker import PageRanker
from repro.graph import make_partition
from repro.net.bandwidth import TrafficAccountant
from repro.net.simulator import Simulator
from repro.net.transport import IndirectTransport
from repro.overlay.pastry import PastryOverlay


@pytest.fixture
def wired(contest_small):
    """A 4-ranker system with delivery wiring, not yet started."""
    part = make_partition(contest_small, 4, "site")
    system = GroupSystem(contest_small, part)
    sim = Simulator()
    overlay = PastryOverlay(4, seed=0)
    acc = TrafficAccountant(4)
    transport = IndirectTransport(sim, overlay, acc, aggregation_delay=0.0)
    rankers = [
        PageRanker(
            sim,
            DPRNode(g, system.diag(g), system.beta_e[g], mode="dpr1"),
            system,
            transport,
            mean_wait=1.0,
            seed=g,
        )
        for g in range(4)
    ]
    transport.attach(lambda dst, u: rankers[dst].receive(u))
    return sim, system, transport, rankers


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

    def test_wakes_advance_iterations(self, wired):
        sim, _, _, rankers = wired
        for rk in rankers:
            rk.start(initial_delay=0.0)
        sim.run(until=10.0)
        assert all(rk.node.outer_iterations >= 3 for rk in rankers)

    def test_emits_updates_to_transport(self, wired):
        sim, system, transport, rankers = wired
        for rk in rankers:
            rk.start(initial_delay=0.0)
        sim.run(until=5.0)
        # Cross traffic must have flowed between groups.
        assert transport.accountant.data_messages > 0
        assert all(len(rk.node._latest_values) > 0 for rk in rankers)

    def test_mean_wait_zero_is_clamped(self, wired):
        sim, system, transport, rankers = wired
        rk = PageRanker(
            sim,
            DPRNode(0, system.diag(0), system.beta_e[0]),
            system,
            transport,
            mean_wait=0.0,
            seed=1,
        )
        assert rk.mean_wait > 0


class TestPausing:
    def test_paused_ranker_does_no_work(self, wired):
        sim, _, _, rankers = wired
        rankers[0].paused = True
        rankers[0].start(initial_delay=0.0)
        sim.run(until=10.0)
        assert rankers[0].node.outer_iterations == 0
        assert rankers[0].skipped_wakes > 0

    def test_resume_restores_progress(self, wired):
        sim, _, _, rankers = wired
        rankers[0].paused = True
        rankers[0].start(initial_delay=0.0)
        sim.schedule(5.0, setattr, rankers[0], "paused", False)
        sim.run(until=20.0)
        assert rankers[0].node.outer_iterations > 0


class TestDeltaSuppression:
    def test_suppression_reduces_messages(self, contest_small):
        def run(tol):
            part = make_partition(contest_small, 4, "site")
            system = GroupSystem(contest_small, part)
            sim = Simulator()
            acc = TrafficAccountant(4)
            transport = IndirectTransport(
                sim, PastryOverlay(4, seed=0), acc, aggregation_delay=0.0
            )
            rankers = [
                PageRanker(
                    sim,
                    DPRNode(g, system.diag(g), system.beta_e[g]),
                    system,
                    transport,
                    mean_wait=1.0,
                    seed=g,
                    suppress_tol=tol,
                )
                for g in range(4)
            ]
            transport.attach(lambda dst, u: rankers[dst].receive(u))
            for rk in rankers:
                rk.start(initial_delay=0.0)
            sim.run(until=60.0)
            return acc.data_messages, sum(r.suppressed_sends for r in rankers)

        plain_msgs, plain_suppressed = run(0.0)
        sup_msgs, sup_suppressed = run(1e-6)
        assert plain_suppressed == 0
        assert sup_suppressed > 0
        assert sup_msgs < plain_msgs

    def test_suppression_preserves_correctness(self, contest_small):
        from repro.core import run_distributed_pagerank

        res = run_distributed_pagerank(
            contest_small,
            n_groups=4,
            suppress_tol=1e-10,
            t1=1.0,
            t2=1.0,
            seed=3,
            max_time=200.0,
            target_relative_error=1e-5,
        )
        assert res.converged
