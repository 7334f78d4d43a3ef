"""The closed-form round ledger and the mirrored delivery it feeds.

Two contracts:

* :func:`repro.net.transport.charge_direct_round` charges a round's
  sends exactly as :class:`~repro.net.transport.DirectTransport` does
  one by one on a real simulator — every counter, both per-node arrays
  and the delivery order — over generated send lists;
* the flat engine's ``X = F·held`` delivery freezes F from the
  *observed first-arrival order*, so a pair whose first frame ships
  rounds after its neighbours' still sums in the event engine's order,
  and rounds that can lose a send never take that path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.core.engine import SynchronousEngine
from repro.core.hybrid import HybridEngine
from repro.graph import google_contest_like
from repro.graph.partition import make_partition
from repro.net.bandwidth import TrafficAccountant
from repro.net.latency import FixedLatency
from repro.net.message import ScoreUpdate
from repro.net.simulator import Simulator
from repro.net.transport import DirectTransport, charge_direct_round
from repro.overlay import build_overlay

COUNTERS = (
    "data_messages", "data_bytes", "paper_data_bytes",
    "lookup_messages", "lookup_bytes", "ack_messages", "ack_bytes",
)


def simulate(overlay, sends, hop_delay):
    """The reference: the sends through DirectTransport, source by source."""
    sim = Simulator()
    acc = TrafficAccountant(overlay.n_nodes)
    transport = DirectTransport(sim, overlay, acc, latency=FixedLatency(hop_delay))
    order = []
    transport.attach(lambda dst, u: order.append(u.generation))
    for i, (src, dst, records, wire) in enumerate(sends):
        # ``generation`` carries the send's position; one call per send
        # schedules in the same sequence as one call per source.
        transport.send_updates(
            src,
            [ScoreUpdate(src, dst, np.empty(0), records, i, wire_bytes=wire)],
        )
    sim.run()
    return order, acc


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["pastry", "chord", "can", "tapestry"]),
    st.integers(min_value=1, max_value=24),
    st.lists(
        st.tuples(
            st.integers(0, 23),
            st.integers(0, 23),
            st.integers(1, 5000),
            st.one_of(st.just(-1), st.integers(0, 100_000)),
        ),
        max_size=60,
    ),
    st.sampled_from([0.0, 0.5]),
    st.integers(0, 3),
)
def test_ledger_equals_transport_replay(kind, k, raw, hop_delay, seed):
    # Duplicate-free pairs in emission order (sources ascending,
    # destinations ascending within a source), as a round emits them.
    by_pair = {(s % k, d % k): (n, w) for s, d, n, w in raw}
    sends = [(s, d, *by_pair[(s, d)]) for s, d in sorted(by_pair)]
    overlay = build_overlay(kind, k, seed=seed)
    want_order, want = simulate(build_overlay(kind, k, seed=seed), sends, hop_delay)

    acc = TrafficAccountant(k)
    columns = np.array(sends, dtype=np.int64).reshape(len(sends), 4).T
    order = charge_direct_round(overlay, acc, *columns, hop_delay)

    assert order.tolist() == want_order
    for name in COUNTERS:
        assert getattr(acc, name) == getattr(want, name), name
    assert np.array_equal(acc.bytes_out, want.bytes_out)
    assert np.array_equal(acc.bytes_in, want.bytes_in)


# -- first-arrival order ------------------------------------------------------

T = 10.0
ROUNDS = 8
MAX_TIME = ROUNDS * T + 5.0
BASE = dict(
    n_groups=6, algorithm="dpr2", transport="direct", overlay="pastry",
    partition_strategy="site", t1=T, t2=T, seed=5, schedule="sync",
    sample_interval=T,
)


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(800, 20, seed=42)


def run_flat(graph, cfg, *, mirrored=True, **kwargs):
    """A flat run that reports when (and from what order) F was frozen."""
    engine = SynchronousEngine(graph, DistributedConfig(engine="flat", **cfg), **kwargs)
    engine._mirrored = engine._mirrored and mirrored
    frozen = []
    build = engine._build_afferent

    def spy(order):
        frozen.append((int(engine._outer.max()), order))
        return build(order)

    engine._build_afferent = spy
    return engine, engine.run(max_time=MAX_TIME), frozen


def assert_identical(a, b):
    assert a.ranks.tobytes() == b.ranks.tobytes()
    assert a.trace.times == b.trace.times
    assert a.trace.relative_errors == b.trace.relative_errors
    assert vars(a.traffic) == vars(b.traffic)
    assert a.codec_stats == b.codec_stats
    assert np.array_equal(a.outer_iterations, b.outer_iterations)
    assert np.array_equal(a.inner_sweeps, b.inner_sweeps)


def assert_not_the_full_round_order(engine):
    """F's storage order differs from what one full-set round delivers."""
    full_round = charge_direct_round(
        engine.overlay,
        TrafficAccountant(engine.n_groups),
        engine._pair_src,
        engine._pair_dst,
        engine._pair_records,
        np.full(engine._pair_src.size, -1),
        engine.config.hop_delay,
    )
    calibration = SynchronousEngine._build_afferent(engine, full_round)
    assert (calibration.indices != engine._afferent.indices).any()


def test_late_first_frame_keeps_its_place_in_the_sum(graph):
    """Group 2 starts with E = 0, so its rank — and every efferent
    vector it emits — is exactly zero until its neighbours' first
    frames have landed: lossless ``delta`` suppresses its round-1
    frames, and each of its destinations first hears from it a round
    after hearing from the other four sources."""
    partition = make_partition(graph, BASE["n_groups"], "site", seed=1)
    e = np.ones(graph.n_pages)
    e[partition.group_of == 2] = 0.0
    cfg = dict(BASE, codec="delta", e=e)
    event = run_distributed_pagerank(
        graph, engine="event", partition=partition, max_time=MAX_TIME, **cfg
    )
    engine, flat, frozen = run_flat(graph, cfg, partition=partition)

    (frozen_at, order), = frozen
    assert frozen_at == 2
    assert np.bincount(engine._pair_dst[order]).min() >= 3
    assert flat.codec_stats["suppressed_frames"] >= 5
    assert_identical(flat, event)
    assert_not_the_full_round_order(engine)


def test_budgeted_codec_freezes_on_first_arrival_order(graph):
    """ε_comm is large enough that two light pairs stay suppressed for
    their first rounds (1→0 first ships in round 2, 2→1 in round 4).
    With a budget the event engine picks different candidates (θ
    depends on the vector length, dense there and compressed here), so
    the reference is this engine's own per-delivery path."""
    cfg = dict(BASE, codec="delta-q16", comm_epsilon=1.0)
    engine, fast, frozen = run_flat(graph, cfg)
    reference, slow, never = run_flat(graph, cfg, mirrored=False)

    (frozen_at, order), = frozen
    assert 2 < frozen_at < ROUNDS
    assert np.bincount(engine._pair_dst[order]).min() >= 3
    assert not never and reference._afferent is None
    assert_identical(fast, slow)
    assert_not_the_full_round_order(engine)


def test_rounds_that_can_lose_a_send_stay_on_the_per_delivery_path(graph):
    # Config validation rejects codec × delivery_prob < 1 outright
    # (tests/test_codec.py), so loss meets the flat emit step uncoded,
    # and meets a codec only behind the hybrid engine's ARQ backend.
    lossy = dict(BASE, delivery_prob=0.7)
    event = run_distributed_pagerank(graph, engine="event", max_time=MAX_TIME, **lossy)
    engine, flat, frozen = run_flat(graph, lossy)
    assert not frozen and not engine._mirrored and any(engine._latest)
    assert flat.dropped_updates == event.dropped_updates > 0
    assert_identical(flat, event)

    arq = HybridEngine(
        graph,
        DistributedConfig(
            engine="hybrid", reliable=True, ack_loss_prob=0.2, **dict(BASE, codec="delta")
        ),
    )
    res = arq.run(max_time=MAX_TIME)
    # Never `X = F·held`: what lands is what the ARQ replay delivered.
    assert arq._afferent is None and (arq._recv_gen >= 0).any()
    assert res.codec_stats["frames"] > 0 and res.retransmits > 0
