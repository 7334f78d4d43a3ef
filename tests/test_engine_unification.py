"""What the engines share after the collapse of ``repro.core``.

One sampler, one round loop, one round-charging rule and one fault-plane
builder serve all four engines; these tests pin the behaviour that
sharing is supposed to buy:

* the same stop rule (``quiescence_samples``) on every engine, with the
  same stop sample on a synchronous config;
* the Monte-Carlo engine inheriting the loop's sample-clock drift check
  while keeping its own "ensemble exhausted" stop;
* the event and hybrid engines drawing one fault schedule from one
  seed;
* every lossless flat round costing exactly the calibrated round, over
  both transports (the indirect one replays its full pair set once).
"""

import numpy as np
import pytest

from repro.core.coordinator import (
    DistributedConfig,
    DistributedRun,
    run_distributed_pagerank,
)
from repro.core.engine import MonteCarloEngine, SynchronousEngine
from repro.core.hybrid import HybridEngine
from repro.graph import google_contest_like

T = 4.0
SYNC = dict(
    n_groups=6, algorithm="dpr2", transport="direct", seed=3,
    schedule="sync", t1=T, t2=T, sample_interval=T,
)


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(600, 15, seed=7)


# -- (i) one stop rule on every engine -------------------------------------


@pytest.mark.parametrize("samples", [1, 3])
def test_quiescence_parity_across_engines(graph, samples):
    results = {
        engine: run_distributed_pagerank(
            graph, engine=engine, max_time=2000.0, quiescence_delta=1e-9,
            quiescence_samples=samples, **SYNC,
        )
        for engine in ("event", "flat", "hybrid")
    }
    event = results["event"]
    assert event.quiescent
    for engine in ("flat", "hybrid"):
        res = results[engine]
        assert res.quiescent
        assert res.quiescence_time == event.quiescence_time
        assert res.trace.times == event.trace.times
        assert res.trace.relative_errors == event.trace.relative_errors
        assert res.traffic.total_bytes == event.traffic.total_bytes
        assert res.ranks.tobytes() == event.ranks.tobytes()


def test_fewer_quiescence_samples_stop_earlier(graph):
    one, three = (
        run_distributed_pagerank(
            graph, engine="event", max_time=2000.0, quiescence_delta=1e-9,
            quiescence_samples=n, **SYNC,
        )
        for n in (1, 3)
    )
    # The streak starts at the same sample either way.
    assert three.quiescence_time == one.quiescence_time + 2 * T


@pytest.mark.parametrize(
    "engine_class",
    [DistributedRun, SynchronousEngine, HybridEngine, MonteCarloEngine],
)
def test_every_engine_validates_quiescence_samples(graph, engine_class):
    engine = {
        DistributedRun: "event", SynchronousEngine: "flat",
        HybridEngine: "hybrid", MonteCarloEngine: "mc",
    }[engine_class]
    cfg = DistributedConfig(engine=engine, **SYNC)
    with pytest.raises(ValueError, match="quiescence_samples"):
        engine_class(graph, cfg).run(quiescence_delta=1e-9, quiescence_samples=0)


# -- (ii) the mc engine runs the shared loop -------------------------------


def test_mc_raises_on_sample_clock_drift(graph):
    # 0.2 / 0.1 is exactly 2, so validation accepts the cadence, but
    # 0.1 summed six times is 0.6 while 0.2 summed three times is
    # 0.6000000000000001.
    kwargs = dict(SYNC, t1=0.1, t2=0.1, sample_interval=0.2, walks_per_page=4)
    flat = SynchronousEngine(graph, DistributedConfig(engine="flat", **kwargs))
    with pytest.raises(ValueError, match="sample clock drifted") as flat_err:
        flat.run(max_time=10.0)
    mc = MonteCarloEngine(graph, DistributedConfig(engine="mc", **kwargs))
    with pytest.raises(ValueError, match="sample clock drifted") as mc_err:
        mc.run(max_time=10.0)
    assert str(mc_err.value) == str(flat_err.value)


def test_mc_ends_at_first_sample_seeing_an_empty_ensemble(graph):
    cfg = DistributedConfig(
        engine="mc", walks_per_page=4, **dict(SYNC, sample_interval=3 * T)
    )
    engine = MonteCarloEngine(graph, cfg)
    res = engine.run(max_time=1e6)
    assert engine.state.alive == 0
    assert not res.converged and not res.quiescent
    # Samples land every third tick, before that tick's round; rounds
    # run until the sample that observes the empty ensemble, and none
    # after it.
    rounds = res.max_outer_iterations
    assert (rounds + 1) % 3 == 0
    assert res.trace.times[-1] == (rounds + 1) * T
    assert res.trace.max_outer_iterations[-1] == rounds
    # Only the last sample can have seen it empty: the token population
    # was still shrinking — the estimate still growing — before it.
    assert res.trace.mean_ranks[-1] > res.trace.mean_ranks[-2]


# -- (iii) one fault schedule from one seed --------------------------------

FAULTS = dict(
    n_groups=8, algorithm="dpr2", transport="direct", seed=9,
    schedule="sync", t1=T, t2=T, sample_interval=T,
    reliable=True, ack_loss_prob=0.1, delivery_prob=0.9,
    pause_faults=5, pause_horizon=40.0, pause_mean_outage=6.0,
    crash_prob=0.5, crash_after=8.0, crash_horizon=30.0,
    heartbeat_interval=3.0, heartbeat_miss_threshold=2,
    checkpoint_interval=5.0, recovery=True,
)


def test_event_and_hybrid_build_the_same_fault_schedule(graph):
    event = DistributedRun(graph, DistributedConfig(engine="event", **FAULTS))
    hybrid = HybridEngine(graph, DistributedConfig(engine="hybrid", **FAULTS))
    a, b = event.faults, hybrid._faults
    assert a.crash_injector.injected == b.crash_injector.injected
    assert a.crash_injector.injected, "scenario crashes someone"
    assert a.pause_injector.injected == b.pause_injector.injected
    assert len(a.pause_injector.injected) == FAULTS["pause_faults"]
    for name in ("interval", "miss_threshold"):
        assert getattr(a.heartbeat, name) == getattr(b.heartbeat, name)
    assert a.checkpointer.interval == b.checkpointer.interval == 5.0
    assert a.recovery is not None and b.recovery is not None
    assert event.recovery is a.recovery
    # Same reliability parameters; the hybrid swaps in its own ARQ
    # endpoint for reliable + direct.
    assert vars(a.retry) == vars(b.retry)
    assert a.chaos.ack_loss_prob == b.chaos.ack_loss_prob == 0.1
    assert b.reliable is hybrid._arq


def test_shared_fault_plane_reports_the_same_crashes(graph):
    results = [
        run_distributed_pagerank(graph, engine=engine, max_time=200.0, **FAULTS)
        for engine in ("event", "hybrid")
    ]
    event, hybrid = results
    assert event.crashed_groups == hybrid.crashed_groups > 0
    assert event.takeovers == hybrid.takeovers == event.crashed_groups


# -- (iv) a lossless round costs the calibration ----------------------------


def test_flat_memo_is_the_calibration(graph):
    for transport in ("direct", "indirect"):
        cfg = DistributedConfig(engine="flat", **{**SYNC, "transport": transport})
        engine = SynchronousEngine(graph, cfg)
        per_round = engine.calibrated_round_traffic()
        res = engine.run(max_time=5 * T)
        # Direct rounds are charged in closed form; only the indirect
        # full pair set needs its simulator replay remembered.
        assert (engine._calibration is None) == (transport == "direct")
        assert res.max_outer_iterations == 5
        assert res.traffic.total_bytes == 5 * per_round.total_bytes
        assert res.traffic.total_messages == 5 * per_round.total_messages
        assert np.array_equal(res.outer_iterations, np.full(6, 5))
