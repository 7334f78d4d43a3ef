"""Unit tests for repro.net.failures."""

import numpy as np
import pytest

from repro.net.failures import (
    BernoulliLoss,
    ChaosModel,
    NodeCrashInjector,
    NodePauseInjector,
    NoLoss,
)
from repro.net.simulator import Simulator


class TestNoLoss:
    def test_always_delivers(self):
        loss = NoLoss()
        assert all(loss.delivered(0, i) for i in range(100))


class TestBernoulliLoss:
    def test_p1_always_delivers(self):
        loss = BernoulliLoss(1.0, seed=0)
        assert all(loss.delivered(0, i) for i in range(200))

    def test_p0_never_delivers(self):
        loss = BernoulliLoss(0.0, seed=0)
        assert not any(loss.delivered(0, i) for i in range(200))

    def test_rate_near_p(self):
        loss = BernoulliLoss(0.7, seed=1)
        hits = sum(loss.delivered(0, 1) for _ in range(5000))
        assert 0.65 < hits / 5000 < 0.75

    def test_seed_reproducible(self):
        a = BernoulliLoss(0.5, seed=3)
        b = BernoulliLoss(0.5, seed=3)
        assert [a.delivered(0, 0) for _ in range(50)] == [
            b.delivered(0, 0) for _ in range(50)
        ]

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)


class _FakeRanker:
    def __init__(self):
        self.paused = False
        self.crashed = False


class TestNodePauseInjector:
    def test_pause_and_resume_events(self):
        sim = Simulator()
        rankers = [_FakeRanker() for _ in range(4)]
        inj = NodePauseInjector(n_faults=3, horizon=10.0, mean_outage=2.0, seed=0)
        inj.install(sim, rankers)
        assert len(inj.injected) == 3
        sim.run()
        # After all pause+resume events, every ranker is unpaused.
        assert not any(r.paused for r in rankers)

    def test_paused_during_outage(self):
        sim = Simulator()
        rankers = [_FakeRanker()]
        inj = NodePauseInjector(n_faults=1, horizon=0.0, mean_outage=5.0, seed=1)
        inj.install(sim, rankers)
        node, start, outage = inj.injected[0]
        sim.run(until=start + outage / 2)
        assert rankers[node].paused
        sim.run()
        assert not rankers[node].paused

    def test_zero_faults(self):
        sim = Simulator()
        inj = NodePauseInjector(n_faults=0, horizon=1.0, mean_outage=1.0)
        inj.install(sim, [_FakeRanker()])
        assert inj.injected == []

    def test_rejects_negative_faults(self):
        with pytest.raises(ValueError):
            NodePauseInjector(n_faults=-1, horizon=1.0, mean_outage=1.0)

    def test_zero_length_pause_window(self):
        """mean_outage=0 and horizon=0 degenerate to pause+resume at
        t=0; the run must neither error nor leave anyone paused."""
        sim = Simulator()
        rankers = [_FakeRanker() for _ in range(3)]
        inj = NodePauseInjector(n_faults=5, horizon=0.0, mean_outage=0.0, seed=2)
        inj.install(sim, rankers)
        assert all(start == 0.0 and outage == 0.0 for _, start, outage in inj.injected)
        sim.run()
        assert not any(r.paused for r in rankers)

    def test_same_seed_same_schedule(self):
        """Deterministic injection: identical seeds draw identical
        (node, start, outage) triples."""
        a = NodePauseInjector(n_faults=6, horizon=10.0, mean_outage=2.0, seed=9)
        b = NodePauseInjector(n_faults=6, horizon=10.0, mean_outage=2.0, seed=9)
        a.install(Simulator(), [_FakeRanker() for _ in range(4)])
        b.install(Simulator(), [_FakeRanker() for _ in range(4)])
        assert a.injected == b.injected


class TestNodeCrashInjector:
    def test_crash_prob_one_kills_everyone(self):
        sim = Simulator()
        rankers = [_FakeRanker() for _ in range(5)]
        inj = NodeCrashInjector(crash_prob=1.0, after=2.0, horizon=3.0, seed=0)
        inj.install(sim, rankers)
        assert len(inj.injected) == 5
        assert all(2.0 <= when <= 5.0 for _, when in inj.injected)
        sim.run()
        assert all(r.crashed for r in rankers)

    def test_crash_prob_zero_draws_nothing(self):
        sim = Simulator()
        inj = NodeCrashInjector(crash_prob=0.0, seed=0)
        inj.install(sim, [_FakeRanker() for _ in range(10)])
        assert inj.injected == []
        assert sim.pending == 0

    def test_not_crashed_before_scheduled_time(self):
        sim = Simulator()
        rankers = [_FakeRanker()]
        inj = NodeCrashInjector(crash_prob=1.0, after=5.0, horizon=0.0, seed=1)
        inj.install(sim, rankers)
        sim.run(until=4.9)
        assert not rankers[0].crashed
        sim.run()
        assert rankers[0].crashed

    def test_max_crashes_bounds_the_doomed_set(self):
        sim = Simulator()
        rankers = [_FakeRanker() for _ in range(10)]
        inj = NodeCrashInjector(crash_prob=1.0, max_crashes=3, seed=0)
        inj.install(sim, rankers)
        assert len(inj.injected) == 3

    def test_crashes_through_live_list(self):
        """The injector kills whoever occupies the slot at crash time —
        a recovered replacement, not the original object."""
        sim = Simulator()
        rankers = [_FakeRanker()]
        inj = NodeCrashInjector(crash_prob=1.0, after=5.0, horizon=0.0, seed=0)
        inj.install(sim, rankers)
        original = rankers[0]
        replacement = _FakeRanker()
        sim.schedule_at(1.0, rankers.__setitem__, 0, replacement)
        sim.run()
        assert replacement.crashed
        assert not original.crashed

    def test_same_seed_same_schedule(self):
        a = NodeCrashInjector(crash_prob=0.5, after=1.0, horizon=4.0, seed=6)
        b = NodeCrashInjector(crash_prob=0.5, after=1.0, horizon=4.0, seed=6)
        a.install(Simulator(), [_FakeRanker() for _ in range(20)])
        b.install(Simulator(), [_FakeRanker() for _ in range(20)])
        assert a.injected == b.injected

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NodeCrashInjector(crash_prob=1.5)
        with pytest.raises(ValueError):
            NodeCrashInjector(crash_prob=0.5, after=-1.0)
        with pytest.raises(ValueError):
            NodeCrashInjector(crash_prob=0.5, max_crashes=-1)


class TestChaosModel:
    def test_inactive_by_default_and_draws_nothing(self):
        chaos = ChaosModel(seed=0)
        assert not chaos.active
        assert not chaos.duplicate()
        assert chaos.reorder_delay() == 0.0
        assert not chaos.ack_lost()
        # No randomness consumed: a fresh generator stays in sync.
        assert chaos._rng.random() == ChaosModel(seed=0)._rng.random()

    def test_duplicate_prob_one(self):
        chaos = ChaosModel(duplicate_prob=1.0, seed=0)
        assert chaos.active
        assert all(chaos.duplicate() for _ in range(20))

    def test_ack_loss_prob_one(self):
        chaos = ChaosModel(ack_loss_prob=1.0, seed=0)
        assert all(chaos.ack_lost() for _ in range(20))

    def test_reorder_delay_bounded(self):
        chaos = ChaosModel(reorder_prob=1.0, reorder_max_delay=2.5, seed=3)
        delays = [chaos.reorder_delay() for _ in range(100)]
        assert all(0.0 <= d <= 2.5 for d in delays)
        assert any(d > 0.0 for d in delays)

    def test_reorder_without_max_delay_is_noop(self):
        chaos = ChaosModel(reorder_prob=1.0, reorder_max_delay=0.0, seed=0)
        assert chaos.reorder_delay() == 0.0

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChaosModel(duplicate_prob=2.0)
        with pytest.raises(ValueError):
            ChaosModel(ack_loss_prob=-0.5)
        with pytest.raises(ValueError):
            ChaosModel(reorder_max_delay=-1.0)


class TestBatchDraws:
    """An ``n``-way draw is the same stream as ``n`` scalar draws."""

    def test_no_loss_batch_is_all_true(self):
        assert NoLoss().delivered_batch(7).tolist() == [True] * 7
        assert NoLoss().delivered_batch(0).size == 0

    @pytest.mark.parametrize("prob", [0.0, 0.3, 0.85, 1.0])
    def test_bernoulli_batch_matches_scalar_stream(self, prob):
        batch, scalar = BernoulliLoss(prob, seed=9), BernoulliLoss(prob, seed=9)
        # Two batches back to back: a split draw continues the stream.
        got = np.concatenate([batch.delivered_batch(13), batch.delivered_batch(50)])
        assert got.dtype == bool
        assert got.tolist() == [scalar.delivered(0, 1) for _ in range(63)]
        assert batch._rng.random() == scalar._rng.random()

    @pytest.mark.parametrize("prob", [0.0, 0.1, 1.0])
    def test_chaos_batches_match_scalar_stream(self, prob):
        knobs = dict(duplicate_prob=prob, ack_loss_prob=prob, seed=4)
        batch, scalar = ChaosModel(**knobs), ChaosModel(**knobs)
        dup, lost = batch.duplicates(40), batch.acks_lost(25)
        assert dup.dtype == lost.dtype == bool
        assert dup.tolist() == [scalar.duplicate() for _ in range(40)]
        assert lost.tolist() == [scalar.ack_lost() for _ in range(25)]
        assert batch._rng.random() == scalar._rng.random()

    def test_zero_probability_chaos_leaves_its_generator_untouched(self):
        chaos = ChaosModel(seed=0)
        before = chaos._rng.bit_generator.state
        assert not chaos.duplicates(100).any() and not chaos.acks_lost(100).any()
        assert chaos._rng.bit_generator.state == before
        # Likewise a certain delivery draws nothing.
        loss = BernoulliLoss(1.0, seed=0)
        before = loss._rng.bit_generator.state
        assert loss.delivered_batch(100).all()
        assert loss._rng.bit_generator.state == before
