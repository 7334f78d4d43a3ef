"""Hybrid fault-tolerant fast path: equivalence and boundary tests.

Contracts under test (DESIGN.md §13):

1. **Exact contract** — on a synchronous fault-free config the hybrid
   engine takes the fully inherited flat path and must be
   *bit-identical* to both the flat and event engines (rank bytes,
   traffic counters, iteration counts).
2. **Replay contract** — with faults active under ``schedule="sync"``
   the hybrid engine replays fault traffic at round granularity; for
   crash/pause/suppression scenarios without mid-round timing effects
   the replay reproduces the event engine bit-for-bit, and the tests
   pin that (stronger than the documented ε tolerance).
3. **ε contract** — on the full churn scenario (reliable transport +
   chaos + recovery) and under ``schedule="async"`` the engines agree
   on the ε verdict and fault-machinery counters; ranks agree to
   within the documented tolerance, not bitwise.

Boundary coverage: crash windows at the first round, the last round,
spanning consecutive rounds, and spanning every round of the run —
the state bridge must survive fast→replay→fast transitions wherever
the schedule puts them.
"""

import os

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.experiments.chaos import CHURN_SCENARIO
from repro.graph import google_contest_like

#: CI's chaos job sweeps this (1..3); the ε-level equivalences must
#: hold for any seed.  Bit-identity assertions keep pinned seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

#: T1 = T2 = 10 -> synchronous period T = 10.
T = 10.0


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(400, 10, seed=11)


BASE = dict(
    n_groups=8,
    algorithm="dpr2",
    transport="direct",
    partition_strategy="url",
    t1=T,
    t2=T,
    seed=5,
    schedule="sync",
    sample_interval=T,
)


def run_engine(graph, engine, *, rounds=8, **overrides):
    base = dict(BASE)
    base.update(overrides)
    max_time = rounds * T + 5.0
    return run_distributed_pagerank(graph, engine=engine, max_time=max_time, **base)


def assert_bit_identical(a, b):
    """Bitwise rank equality plus exact traffic/counter agreement."""
    assert a.ranks.tobytes() == b.ranks.tobytes()
    assert a.traffic.data_messages == b.traffic.data_messages
    assert a.traffic.data_bytes == b.traffic.data_bytes
    assert np.array_equal(a.outer_iterations, b.outer_iterations)
    assert np.array_equal(a.inner_sweeps, b.inner_sweeps)
    assert a.dropped_updates == b.dropped_updates


# ---------------------------------------------------------------------------
# Contract 1: fault-free sync == flat == event, bit for bit.
# ---------------------------------------------------------------------------


def test_fault_free_sync_bit_identical_to_flat_and_event(graph):
    event = run_engine(graph, "event")
    flat = run_engine(graph, "flat")
    hybrid = run_engine(graph, "hybrid")
    assert_bit_identical(event, hybrid)
    assert_bit_identical(flat, hybrid)
    assert hybrid.fidelity == "exact"
    assert hybrid.fast_rounds == 8
    assert hybrid.replayed_rounds == 0


def test_loss_only_stays_on_exact_fast_path(graph):
    """Plain message loss is flat-bridgeable: no fault plane, no replay."""
    event = run_engine(graph, "event", delivery_prob=0.7)
    flat = run_engine(graph, "flat", delivery_prob=0.7)
    hybrid = run_engine(graph, "hybrid", delivery_prob=0.7)
    assert_bit_identical(event, hybrid)
    assert_bit_identical(flat, hybrid)
    assert hybrid.fidelity == "exact"
    assert hybrid.replayed_rounds == 0
    assert hybrid.dropped_updates > 0


# ---------------------------------------------------------------------------
# Contract 2: replay rounds reproduce the event engine.  Crash windows
# at every boundary the state bridge can cross.
# ---------------------------------------------------------------------------

#: (crash_after, crash_horizon) placing the crash window at the named
#: round boundary of an 8-round (T = 10) run.
CRASH_WINDOWS = {
    "first": (0.5, 9.0),
    "last": (70.5, 9.0),
    "consecutive": (15.0, 25.0),
    "every": (0.5, 79.0),
}


@pytest.mark.parametrize("window", sorted(CRASH_WINDOWS))
def test_crash_windows_match_event_engine(graph, window):
    after, horizon = CRASH_WINDOWS[window]
    knobs = dict(crash_prob=0.5, crash_after=after, crash_horizon=horizon)
    event = run_engine(graph, "event", **knobs)
    hybrid = run_engine(graph, "hybrid", **knobs)
    assert_bit_identical(event, hybrid)
    assert event.crashed_groups == hybrid.crashed_groups
    assert hybrid.crashed_groups > 0, "scenario must actually crash groups"
    assert hybrid.fidelity == "approximate"
    assert hybrid.replayed_rounds > 0


def test_pause_faults_match_event_engine(graph):
    knobs = dict(pause_faults=6, pause_horizon=60.0, pause_mean_outage=8.0)
    event = run_engine(graph, "event", **knobs)
    hybrid = run_engine(graph, "hybrid", **knobs)
    assert_bit_identical(event, hybrid)
    assert hybrid.replayed_rounds > 0


def test_suppression_matches_event_engine(graph):
    baseline = run_engine(graph, "hybrid", rounds=16)
    event = run_engine(graph, "event", rounds=16, send_threshold=1e-6)
    hybrid = run_engine(graph, "hybrid", rounds=16, send_threshold=1e-6)
    assert_bit_identical(event, hybrid)
    # Suppression genuinely withheld converged updates.
    assert hybrid.traffic.data_messages < baseline.traffic.data_messages


def test_dpr1_crash_matches_event_engine(graph):
    knobs = dict(
        algorithm="dpr1", crash_prob=0.5, crash_after=15.0, crash_horizon=20.0
    )
    event = run_engine(graph, "event", **knobs)
    hybrid = run_engine(graph, "hybrid", **knobs)
    assert_bit_identical(event, hybrid)
    assert hybrid.crashed_groups > 0


def test_recovery_restores_from_checkpoint(graph):
    """Crash + heartbeat + checkpoint + takeover, no chaos on the wire."""
    knobs = dict(
        crash_prob=0.5,
        crash_after=15.0,
        crash_horizon=20.0,
        heartbeat_interval=2.0,
        heartbeat_miss_threshold=2,
        checkpoint_interval=5.0,
        recovery=True,
    )
    event = run_engine(graph, "event", rounds=20, **knobs)
    hybrid = run_engine(graph, "hybrid", rounds=20, **knobs)
    assert hybrid.takeovers > 0
    assert hybrid.checkpoint_saves > 0
    assert event.crashed_groups == hybrid.crashed_groups
    assert event.deaths_detected == hybrid.deaths_detected
    assert event.takeovers == hybrid.takeovers
    assert event.checkpoint_saves == hybrid.checkpoint_saves
    # Recovery is ε-level, not bitwise: heartbeat deaths and restores
    # happen at event times *inside* a round, so the replay sees them
    # at the round boundary instead (documented tolerance, DESIGN §13).
    np.testing.assert_allclose(event.ranks, hybrid.ranks, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# Contract 3: ε equivalence on the full churn scenario and async.
# ---------------------------------------------------------------------------


def _churn(graph, engine, seed, **overrides):
    scenario = dict(CHURN_SCENARIO)
    return run_distributed_pagerank(
        graph,
        n_groups=8,
        engine=engine,
        seed=seed,
        max_time=405.0,
        **scenario,
        **overrides,
    )


@pytest.mark.parametrize("seed", sorted({5, CHAOS_SEED}))
def test_full_churn_same_epsilon_verdict(graph, seed):
    """With a convergence target the engines trip at (possibly)
    different sample times, so only the verdict and the pre-trip fault
    counters are comparable — not time-accumulating counters like
    checkpoint saves."""
    event = _churn(graph, "event", seed, target_relative_error=1e-4)
    hybrid = _churn(graph, "hybrid", seed, target_relative_error=1e-4)
    assert event.converged == hybrid.converged
    assert event.converged, "scenario must actually reach the target"
    assert event.final_relative_error <= 1e-4
    assert hybrid.final_relative_error <= 1e-4
    assert event.crashed_groups == hybrid.crashed_groups
    assert event.deaths_detected == hybrid.deaths_detected
    assert event.takeovers == hybrid.takeovers
    assert hybrid.fidelity == "approximate"
    assert hybrid.retransmits > 0


def test_full_churn_fixed_horizon_equivalence(graph):
    """Without a target both engines run the identical horizon: every
    fault counter agrees exactly and ranks agree to the documented
    tolerance."""
    event = _churn(graph, "event", 5)
    hybrid = _churn(graph, "hybrid", 5)
    assert event.crashed_groups == hybrid.crashed_groups
    assert event.deaths_detected == hybrid.deaths_detected
    assert event.takeovers == hybrid.takeovers
    assert event.checkpoint_saves == hybrid.checkpoint_saves
    assert abs(event.final_relative_error - hybrid.final_relative_error) < 1e-5
    np.testing.assert_allclose(event.ranks, hybrid.ranks, rtol=0, atol=1e-6)


def test_async_flat_request_dispatches_and_converges(graph):
    """schedule="async" on a flat request runs (round-batched) instead
    of being rejected, and still reaches the target."""
    result = run_distributed_pagerank(
        graph,
        n_groups=8,
        engine="flat",
        schedule="async",
        algorithm="dpr2",
        transport="direct",
        partition_strategy="url",
        t1=5.0,
        t2=15.0,
        seed=5,
        sample_interval=50.0,
        max_time=400.0,
        target_relative_error=1e-4,
    )
    assert result.config.engine == "hybrid"
    assert result.fidelity == "approximate"
    assert result.converged
    assert result.final_relative_error < 1e-4
    # Round-batched credit: at most one step per group per round.
    assert result.max_outer_iterations <= 40


# ---------------------------------------------------------------------------
# Satellite: sub-period sampling on a round-boundary engine is an error.
# ---------------------------------------------------------------------------


def test_subperiod_sampling_is_an_error_by_default():
    with pytest.raises(ValueError, match="whole multiple of the synchronous period"):
        DistributedConfig(
            n_groups=4, engine="flat", schedule="sync", t1=T, t2=T,
            sample_interval=7.0,
        )


# ---------------------------------------------------------------------------
# Satellite: the replayed reliable transport keeps a coherent sequence
# window (no gaps, nothing beyond next_seq) after the run drains.
# ---------------------------------------------------------------------------


def test_reliable_window_state_is_coherent(graph):
    from repro.core.hybrid import HybridEngine

    cfg = DistributedConfig(
        n_groups=8,
        engine="hybrid",
        algorithm="dpr2",
        transport="direct",
        partition_strategy="url",
        t1=T,
        t2=T,
        seed=CHAOS_SEED,
        schedule="sync",
        sample_interval=T,
        reliable=True,
        ack_loss_prob=0.15,
        delivery_prob=0.85,
    )
    engine = HybridEngine(graph, cfg)
    result = engine.run(max_time=85.0)
    assert result.retransmits > 0
    state = engine._arq.window_state()
    assert state, "ARQ replay saw traffic"
    for (src, dst), window in state.items():
        assert src != dst
        pending = window["pending"]
        assert pending == sorted(set(pending))
        assert all(0 <= seq < window["next_seq"] for seq in pending)
