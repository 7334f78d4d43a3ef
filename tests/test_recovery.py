"""Unit tests for heartbeat failure detection and checkpoint takeover."""

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.recovery import Checkpointer, CheckpointStore, RecoveryManager
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.simulator import Simulator


class FakeRanker:
    def __init__(self, group=0):
        self.group = group
        self.crashed = False
        self.paused = False
        self.started = False
        self.node = FakeNode(group)

    def start(self):
        self.started = True


class FakeNode:
    def __init__(self, group):
        self.group = group
        self.state = {"group": group, "value": 0}

    def state_dict(self):
        return dict(self.state)

    def load_state_dict(self, state):
        self.state = dict(state)


class TestHeartbeatMonitor:
    def make(self, n=4, interval=1.0, miss=2):
        sim = Simulator()
        rankers = [FakeRanker(g) for g in range(n)]
        hb = HeartbeatMonitor(sim, rankers, interval=interval, miss_threshold=miss)
        return sim, rankers, hb

    def test_detects_crash_after_threshold(self):
        sim, rankers, hb = self.make(interval=1.0, miss=2)
        deaths = []
        hb.add_death_callback(deaths.append)
        hb.start()
        rankers[1].crashed = True
        sim.run(until=10.0)
        assert deaths == [1]
        assert hb.deaths_detected == 1
        assert hb.is_dead(1)
        assert not hb.is_dead(0)

    def test_detection_latency_bound(self):
        sim, rankers, hb = self.make(interval=2.0, miss=3)
        when = []
        hb.add_death_callback(lambda g: when.append(sim.now))
        hb.start()
        sim.schedule_at(1.0, setattr, rankers[0], "crashed", True)
        sim.run(until=30.0)
        # Crash at t=1; sweeps at 2, 4, 6 accumulate the three misses.
        assert when == [6.0]
        assert when[0] - 1.0 <= (hb.miss_threshold + 1) * hb.interval

    def test_paused_ranker_still_beats(self):
        sim, rankers, hb = self.make(interval=1.0, miss=1)
        hb.start()
        rankers[2].paused = True
        sim.run(until=10.0)
        assert hb.deaths_detected == 0
        assert not hb.is_dead(2)

    def test_recovered_ranker_rejoins(self):
        sim, rankers, hb = self.make(interval=1.0, miss=1)
        hb.start()
        rankers[3].crashed = True
        # A replacement is swapped into the live list at t=5.
        sim.schedule_at(5.0, rankers.__setitem__, 3, FakeRanker(3))
        sim.run(until=10.0)
        assert hb.deaths_detected == 1
        assert hb.rejoins == 1
        assert not hb.is_dead(3)

    def test_double_start_rejected(self):
        _, _, hb = self.make()
        hb.start()
        with pytest.raises(RuntimeError):
            hb.start()

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, [], interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, [], interval=1.0, miss_threshold=0)


class TestCheckpointStore:
    def test_keeps_newest(self):
        store = CheckpointStore()
        store.save(0, 1.0, {"value": "old"})
        store.save(0, 2.0, {"value": "new"})
        assert store.latest(0) == (2.0, {"value": "new"})
        assert store.saves == 2
        assert len(store) == 1

    def test_missing_group(self):
        assert CheckpointStore().latest(7) is None


class TestCheckpointer:
    def test_periodic_snapshots_skip_crashed(self):
        sim = Simulator()
        rankers = [FakeRanker(g) for g in range(3)]
        rankers[1].crashed = True
        store = CheckpointStore()
        cp = Checkpointer(sim, rankers, store, interval=2.0)
        cp.start()
        sim.run(until=5.0)
        assert store.latest(0) is not None
        assert store.latest(1) is None  # crashed: never snapshotted
        # Two ticks (t=2, t=4) over two live rankers.
        assert store.saves == 4

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Checkpointer(Simulator(), [], CheckpointStore(), interval=0.0)

    def test_double_start_rejected(self):
        cp = Checkpointer(Simulator(), [], CheckpointStore(), interval=1.0)
        cp.start()
        with pytest.raises(RuntimeError):
            cp.start()


class TestRecoveryManager:
    def make(self, n=4):
        sim = Simulator()
        rankers = [FakeRanker(g) for g in range(n)]
        store = CheckpointStore()
        built = []

        def factory(group, epoch):
            built.append((group, epoch))
            return FakeRanker(group)

        mgr = RecoveryManager(sim, rankers, store, factory)
        return sim, rankers, store, mgr, built

    def test_successor_ring_order(self):
        _, rankers, _, mgr, _ = self.make()
        assert mgr.successor_of(1) == 2
        rankers[2].crashed = True
        assert mgr.successor_of(1) == 3
        assert mgr.successor_of(3) == 0

    def test_takeover_restores_checkpoint(self):
        _, rankers, store, mgr, built = self.make()
        store.save(1, 3.0, {"group": 1, "value": 42})
        dead = rankers[1]
        dead.crashed = True
        mgr.on_death(1)
        replacement = rankers[1]
        assert replacement is not dead
        assert replacement.started
        assert replacement.node.state == {"group": 1, "value": 42}
        assert built == [(1, 0)]
        assert mgr.takeover_count == 1
        group, successor, _, restored = mgr.takeovers[0]
        assert (group, successor, restored) == (1, 2, True)

    def test_takeover_without_checkpoint_starts_blank(self):
        _, rankers, _, mgr, _ = self.make()
        rankers[0].crashed = True
        mgr.on_death(0)
        assert rankers[0].started
        assert mgr.takeovers[0][3] is False

    def test_epoch_increments_per_group(self):
        _, rankers, _, mgr, built = self.make()
        rankers[1].crashed = True
        mgr.on_death(1)
        rankers[1].crashed = True  # the replacement crashes too
        mgr.on_death(1)
        assert built == [(1, 0), (1, 1)]

    def test_unrecoverable_when_no_survivor(self):
        _, rankers, _, mgr, built = self.make(n=2)
        for rk in rankers:
            rk.crashed = True
        mgr.on_death(0)
        assert mgr.unrecoverable == 1
        assert built == []


class GroupStepper:
    """Group 0 of an event engine, stepped by hand: ``step`` wakes it
    and returns its ranks, ``r`` is its live slice."""

    def __init__(self, run):
        self.run = run
        self.sl = run._slices[0]

    @property
    def r(self):
        return self.run._r[self.sl]

    def step(self):
        self.run._wake(0)
        return self.r.copy()


class TestMidRunStateRoundTrip:
    def test_bit_identical_continuation(self, contest_small):
        """Snapshot a group mid-run, restore it into a blank replacement,
        and both must produce bit-identical vectors from then on."""
        cfg = DistributedConfig(n_groups=4, algorithm="dpr1")
        original, other = (DistributedRun(contest_small, cfg) for _ in range(2))
        node, clone = GroupStepper(original), GroupStepper(other)
        for _ in range(5):
            node.step()
        state = original.rankers[0].node.state_dict()
        other._make_replacement(0, 0).node.load_state_dict(state)
        for _ in range(3):
            np.testing.assert_array_equal(node.step(), clone.step())
        np.testing.assert_array_equal(node.r, clone.r)
