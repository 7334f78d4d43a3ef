"""Tests for ranker state checkpoint/restore (§4.2's "shutdown")."""

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.pagerank import pagerank_open
from repro.net.message import ScoreUpdate

T = 1.0


def make_run(graph, **overrides):
    """A synchronous event engine, four rankers, one wake per period."""
    cfg = dict(n_groups=4, schedule="sync", t1=T, t2=T, sample_interval=T, seed=3)
    return DistributedRun(graph, DistributedConfig(**{**cfg, **overrides}))


def advance(run, rounds):
    """Run ``rounds`` more wakes of every ranker (the first call starts
    the run; later calls continue its simulator)."""
    if run.sim.now == 0.0:
        run.run(max_time=rounds * T + T / 2)
    else:
        run.sim.run(until=run.sim.now + rounds * T)
    run._land_inbox()


def take_over(run, g, state):
    """What the recovery manager does: a blank replacement for group
    ``g``, restored from ``state``, swapped in and started."""
    run.rankers[g].crashed = True
    replacement = run._make_replacement(g, 0)
    replacement.node.load_state_dict(state)
    run.rankers[g] = replacement
    replacement.start()
    return replacement


class TestStateDict:
    def test_roundtrip_identical_state(self, contest_small):
        run = make_run(contest_small)
        advance(run, 3)
        node = run.rankers[0].node
        state = node.state_dict()
        advance(run, 2)
        run._make_replacement(0, 0).node.load_state_dict(state)
        back = node.state_dict()
        assert back.keys() == state.keys()
        for key in state:
            np.testing.assert_array_equal(back[key], state[key])

    def test_restored_node_continues_identically(self, contest_small):
        """A group restored from a snapshot of its current state steps
        exactly as if nothing had happened."""
        a, b = make_run(contest_small), make_run(contest_small)
        advance(a, 3)
        advance(b, 3)
        take_over(b, 0, b.rankers[0].node.state_dict())
        sl = a._slices[0]
        a._wake(0)
        b._wake(0)
        assert a._r[sl].tobytes() == b._r[sl].tobytes()

    def test_snapshot_is_deep_copy(self, contest_small):
        run = make_run(contest_small)
        advance(run, 1)
        state = run.rankers[0].node.state_dict()
        frozen = {k: np.array(v) for k, v in state.items()}
        advance(run, 1)  # mutate after snapshot
        for key, value in frozen.items():
            np.testing.assert_array_equal(state[key], value)
        assert run._outer[0] == 2
        run._make_replacement(0, 0).node.load_state_dict(state)
        assert run._outer[0] == 1

    def test_stale_protection_survives_restart(self, contest_small):
        """Generation stamps in the checkpoint reject replayed updates."""
        run = make_run(contest_small)
        src = run.system.sources_of(0)[0]
        p = run.system.blocks.pair_position[(src, 0)]
        segment = run._pairs[p][2]
        values = np.full(segment.stop - segment.start, 5.0)
        run._on_deliver(0, ScoreUpdate(src, 0, values, 1, generation=7))
        state = run.rankers[0].node.state_dict()
        run._make_replacement(0, 0).node.load_state_dict(state)
        run._on_deliver(0, ScoreUpdate(src, 0, values / 5.0, 1, generation=6))
        run._land_inbox()
        assert run._stale[0] == 1
        np.testing.assert_array_equal(run._recv[segment], values)

    def test_group_mismatch_rejected(self, contest_small):
        run = make_run(contest_small)
        with pytest.raises(ValueError, match="group"):
            run.rankers[1].node.load_state_dict(run.rankers[0].node.state_dict())

    def test_mode_mismatch_rejected(self, contest_small):
        state = make_run(contest_small, algorithm="dpr1").rankers[0].node.state_dict()
        other = make_run(contest_small, algorithm="dpr2")
        with pytest.raises(ValueError, match="mode"):
            other.rankers[0].node.load_state_dict(state)

    def test_shape_mismatch_rejected(self, contest_small):
        run = make_run(contest_small)
        node = run.rankers[0].node
        state = node.state_dict()
        state["r"] = np.zeros(state["r"].size + 1)
        with pytest.raises(ValueError, match="shape"):
            node.load_state_dict(state)


class TestCrashRestartScenario:
    def test_crash_restart_converges_to_centralized(self, contest_small):
        """Run synchronously, 'crash' one ranker mid-run (losing nothing
        but its uptime), restore it from checkpoint onto a replacement,
        finish, and verify the final ranks still match centralized
        PageRank."""
        run = make_run(contest_small)
        advance(run, 10)
        checkpoint = run.rankers[2].node.state_dict()
        take_over(run, 2, checkpoint)
        advance(run, 60)

        reference = pagerank_open(contest_small, tol=1e-13).ranks
        ranks = run.assemble_ranks()
        err = np.abs(ranks - reference).sum() / np.abs(reference).sum()
        assert err < 1e-6
