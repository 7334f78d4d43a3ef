"""Flat bulk-synchronous engine == event engine, bit for bit.

The contract under test: with ``schedule="sync"`` (every ranker wakes
on the same fixed period T = (T1+T2)/2) the vectorized
:class:`~repro.core.engine.SynchronousEngine` must reproduce the
event-driven :class:`~repro.core.coordinator.DistributedRun`
*exactly* — identical rank bytes, identical message/byte totals,
identical iteration counters — not merely to within tolerance.

Timing convention used throughout: T1 = T2 = 10 gives period T = 10;
``max_time = rounds * T + 5`` leaves a sub-period drain margin so the
event engine's in-flight deliveries of the final round (including the
indirect transport's aggregation flushes) are all recorded before the
clock stops, without admitting an extra tick.
"""

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.core.engine import MonteCarloEngine, SynchronousEngine
from repro.core.hybrid import HybridEngine
from repro.core.ranker import DistributedRun
from repro.experiments.chaos import CHURN_SCENARIO
from repro.graph import google_contest_like, ring_web, two_site_web

#: Common wait parameters: T1 = T2 = 10 -> synchronous period T = 10.
T = 10.0

ENGINES = {
    "event": DistributedRun,
    "flat": SynchronousEngine,
    "hybrid": HybridEngine,
    "mc": MonteCarloEngine,
}


def assert_traffic_conserved(accountant):
    """Byte conservation in a run's accountant: every byte charged
    leaves one node, and every byte but a lookup's reaches one."""
    assert accountant.bytes_out.sum() == (
        accountant.data_bytes + accountant.lookup_bytes + accountant.ack_bytes
    )
    assert accountant.bytes_in.sum() == accountant.data_bytes + accountant.ack_bytes


def run_engine(graph, config, reference=None, **run_args):
    """Run the engine ``config`` names on ``graph``; its traffic must
    be conserved."""
    engine = ENGINES[config.engine](graph, config, reference=reference)
    result = engine.run(**run_args)
    assert_traffic_conserved(engine.accountant)
    return result


def run_both(graph, *, rounds=6, reference=None, target_relative_error=None, **overrides):
    """Run both engines on ``graph`` under the synchronous schedule."""
    base = dict(
        n_groups=8,
        algorithm="dpr2",
        transport="direct",
        partition_strategy="url",
        delivery_prob=1.0,
        t1=T,
        t2=T,
        seed=5,
        schedule="sync",
        sample_interval=T,
    )
    base.update(overrides)
    run_args = dict(max_time=rounds * T + 5.0, target_relative_error=target_relative_error)
    event, flat = (
        run_engine(graph, DistributedConfig(engine=name, **base), reference, **run_args)
        for name in ("event", "flat")
    )
    return event, flat


def assert_equivalent(event, flat):
    """Bitwise rank equality plus exact traffic/counter agreement."""
    assert event.ranks.tobytes() == flat.ranks.tobytes()
    et, ft = event.traffic, flat.traffic
    assert et.data_messages == ft.data_messages
    assert et.data_bytes == ft.data_bytes
    assert et.lookup_messages == ft.lookup_messages
    assert et.lookup_bytes == ft.lookup_bytes
    assert np.array_equal(event.outer_iterations, flat.outer_iterations)
    assert np.array_equal(event.inner_sweeps, flat.inner_sweeps)
    assert event.dropped_updates == flat.dropped_updates


GRAPHS = {
    "contest": lambda: google_contest_like(800, 20, seed=42),
    "contest2": lambda: google_contest_like(600, 12, seed=7),
    "twosite": lambda: two_site_web(pages_per_site=40, cross_links=12, seed=3),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", ["dpr1", "dpr2"])
def test_engines_agree_direct(graph_name, algorithm):
    event, flat = run_both(GRAPHS[graph_name](), algorithm=algorithm)
    assert_equivalent(event, flat)
    assert event.traffic.data_messages > 0


@pytest.mark.parametrize("algorithm", ["dpr1", "dpr2"])
def test_engines_agree_indirect(algorithm):
    graph = GRAPHS["contest"]()
    event, flat = run_both(
        graph, algorithm=algorithm, transport="indirect", overlay="chord"
    )
    # Indirect transport records hop-by-hop forwarding as data traffic
    # (lookups only exist on the direct transport's DHT resolution).
    assert_equivalent(event, flat)
    assert event.traffic.data_messages > 0


@pytest.mark.parametrize("p", [0.7, 0.3])
def test_engines_agree_under_loss(p):
    """Lossy delivery: both engines consume the same Bernoulli stream."""
    graph = GRAPHS["contest"]()
    event, flat = run_both(graph, delivery_prob=p, seed=9)
    assert_equivalent(event, flat)
    assert event.dropped_updates > 0


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("codec", ["delta", "delta-q16"])
def test_engines_agree_under_codec(codec, epsilon):
    """A wire codec, lossless or budgeted: both engines make one codec
    call per source emission over the same compressed segments, so the
    candidate threshold θ = ε_pair / (2·len) reads the same compressed
    pair length and every verdict, frame and byte agrees."""
    event, flat = run_both(GRAPHS["contest"](), codec=codec, comm_epsilon=epsilon)
    assert_equivalent(event, flat)
    assert event.traffic.paper_data_bytes == flat.traffic.paper_data_bytes
    assert event.codec_stats == flat.codec_stats
    stats = event.codec_stats
    if epsilon:
        # The budget is spent: frames ship quantized, not all exact.
        assert stats["exact_flushes"] < stats["frames"]
    else:
        assert stats["exact_flushes"] == stats["frames"] > 0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(engine="flat", transport="indirect", delivery_prob=0.7),
        dict(engine="hybrid", n_groups=8, **CHURN_SCENARIO),
        dict(
            engine="hybrid", schedule="async", t1=2.0, t2=8.0, transport="indirect",
            pause_faults=3, pause_horizon=30.0, pause_mean_outage=10.0,
        ),
        dict(engine="mc", transport="indirect"),
    ],
    ids=["flat-indirect-lossy", "hybrid-churn", "hybrid-async-pause-indirect", "mc-indirect"],
)
def test_traffic_conserved(overrides):
    """The engines outside the pairs above conserve bytes too (the
    event engine's fault paths are pinned in test_event_digests)."""
    config = DistributedConfig(**{**dict(n_groups=6, seed=3, schedule="sync"), **overrides})
    result = run_engine(GRAPHS["contest"](), config, max_time=200.0)
    assert result.traffic.total_bytes > 0


def test_single_group_degenerate():
    """K = 1: no cross traffic at all, ranks still bit-identical."""
    graph = GRAPHS["contest"]()
    event, flat = run_both(graph, n_groups=1)
    assert_equivalent(event, flat)
    assert event.traffic.total_messages == 0


def test_empty_groups_degenerate():
    """K far above the page count leaves most groups empty."""
    graph = ring_web(12)
    for algorithm in ("dpr1", "dpr2"):
        event, flat = run_both(
            graph, n_groups=20, algorithm=algorithm, partition_strategy="contiguous"
        )
        assert_equivalent(event, flat)


def test_trace_and_convergence_agree():
    """Sampled traces line up at the shared round boundaries."""
    graph = GRAPHS["contest"]()
    reference_run = run_distributed_pagerank(
        graph, n_groups=8, algorithm="dpr2", max_time=1.0, seed=5
    )
    event, flat = run_both(
        graph, reference=reference_run.reference, target_relative_error=1e-3, rounds=40
    )
    assert event.converged == flat.converged
    assert event.time_to_target == flat.time_to_target
    ea, fa = event.trace.as_arrays(), flat.trace.as_arrays()
    assert ea["time"].tobytes() == fa["time"].tobytes()
    assert ea["relative_error"].tobytes() == fa["relative_error"].tobytes()
    assert ea["mean_rank"].tobytes() == fa["mean_rank"].tobytes()


def test_engines_agree_coarse_sampling():
    """sample_interval = 2T: the monitor fires on every other tick."""
    graph = GRAPHS["contest"]()
    reference_run = run_distributed_pagerank(
        graph, n_groups=8, algorithm="dpr2", max_time=1.0, seed=5
    )
    event, flat = run_both(
        graph,
        sample_interval=2 * T,
        reference=reference_run.reference,
        target_relative_error=1e-3,
        rounds=40,
    )
    assert_equivalent(event, flat)
    assert event.converged and flat.converged
    assert event.time_to_target == flat.time_to_target
    ea, fa = event.trace.as_arrays(), flat.trace.as_arrays()
    assert ea["time"].tobytes() == fa["time"].tobytes()
    assert ea["relative_error"].tobytes() == fa["relative_error"].tobytes()
    assert ea["total_messages"].tobytes() == fa["total_messages"].tobytes()


def test_flat_engine_default_sample_interval_is_period():
    """sample_interval=None resolves to the sync period for flat."""
    cfg = DistributedConfig(n_groups=4, engine="flat", schedule="sync", t1=T, t2=T)
    assert cfg.sample_interval == T


def test_flat_engine_rejects_subperiod_sampling():
    """Finer-than-period sampling would change event trip ordering."""
    with pytest.raises(ValueError, match="round boundaries"):
        DistributedConfig(
            n_groups=4, engine="flat", schedule="sync", t1=T, t2=T,
            sample_interval=1.0,
        )


def test_flat_async_schedule_dispatches_to_hybrid():
    """flat+async now resolves to the hybrid engine instead of raising."""
    cfg = DistributedConfig(n_groups=4, engine="flat", schedule="async")
    assert cfg.engine == "hybrid"


def test_mc_engine_still_rejects_async_schedule():
    """The dispatch is flat-only: mc keeps its pointed rejection."""
    with pytest.raises(ValueError, match="sync"):
        DistributedConfig(n_groups=4, engine="mc", schedule="async")


def test_sync_schedule_rejects_mean_waits():
    with pytest.raises(ValueError, match="sync schedule"):
        DistributedConfig(n_groups=4, schedule="sync", mean_waits=[1.0] * 4)


def test_flat_fault_features_dispatch_to_hybrid():
    """Fault knobs on a flat request resolve to the hybrid fast path."""
    for knobs in (
        dict(reliable=True),
        dict(send_threshold=1e-6),
        dict(crash_prob=0.1),
    ):
        cfg = DistributedConfig(
            n_groups=4, engine="flat", schedule="sync", **knobs
        )
        assert cfg.engine == "hybrid", knobs


def test_rejection_names_the_engines_that_support_the_feature():
    """Nothing a flat request asks for is beyond the hybrid engine, so
    the pointed rejection is the other engines': mc + loss."""
    with pytest.raises(
        ValueError,
        match=r"does not support: delivery_prob < 1 \(supported by: event, flat, hybrid\)",
    ):
        DistributedConfig(
            n_groups=4, engine="mc", schedule="sync", delivery_prob=0.9
        )


def test_flat_engine_standalone_run():
    """The flat engine runs on its own and reports uniform round counts."""
    graph = ring_web(12)
    res = run_distributed_pagerank(
        graph,
        n_groups=3,
        engine="flat",
        schedule="sync",
        t1=T,
        t2=T,
        seed=1,
        max_time=25.0,
    )
    assert res.ranks.shape == (12,)
    assert np.all(res.outer_iterations == res.outer_iterations[0])


@pytest.mark.slow
def test_engines_agree_at_scale():
    """1e5-page smoke: the headline claim holds beyond toy sizes."""
    graph = google_contest_like(100_000, 2_000, seed=17)
    event, flat = run_both(graph, n_groups=64, rounds=4, seed=17)
    assert_equivalent(event, flat)
