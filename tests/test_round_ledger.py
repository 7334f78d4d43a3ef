"""The closed-form round ledger and the receiver memory it feeds.

Two contracts:

* :func:`repro.net.transport.charge_direct_round` charges a round's
  sends exactly as :class:`~repro.net.transport.DirectTransport` does
  one by one on a real simulator — every counter, both per-node arrays
  and the delivery order — over generated send lists;
* the flat engine's ``X = F·recv`` refresh lays F out in the *observed
  first-arrival order*, so a pair whose first frame ships (or survives
  the loss model) rounds after its neighbours' still sums in the event
  engine's order, and F is rebuilt only after a round that saw a first
  arrival.
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


class DictReceiver:
    """The per-delivery receiver the engines' flat memory replaced —
    the paper's refresh-X rule over compressed segments: per
    destination an insertion-ordered dict of the newest vector per
    pair, re-summed in first-arrival order."""

    def __init__(self, engine):
        self.engine = engine
        self.latest = [{} for _ in range(engine.n_groups)]
        self.gens = {}
        self.stale = np.zeros(engine.n_groups, dtype=np.int64)

    def span(self, p):
        return slice(*self.engine._pair_start[p : p + 2])

    def land(self, arrived, held):
        eng = self.engine
        for p in arrived.tolist():
            dst, generation = eng._pair_dst[p], eng._outer[eng._pair_src[p]]
            if generation <= self.gens.get(p, -1):
                self.stale[dst] += 1
                continue
            self.gens[p] = generation
            # A replacement keeps the key's place: first-arrival order.
            self.latest[dst][p] = held[self.span(p)].copy()

    def x(self):
        eng = self.engine
        x = np.zeros_like(eng._x)
        for h, memory in enumerate(self.latest):
            xh = x[eng._slices[h]]
            for p, vec in memory.items():
                xh[eng._row_map[self.span(p)]] += vec
        return x


def run_flat(graph, cfg, **kwargs):
    """A flat run checked, refresh by refresh, against the per-delivery
    :class:`DictReceiver` fed the same deliveries; reports when (and
    from what order) F was rebuilt."""
    engine = SynchronousEngine(graph, DistributedConfig(engine="flat", **cfg), **kwargs)
    reference = DictReceiver(engine)
    first_arrivals, rebuilt = [], []
    land, refresh, build = engine._land, engine._refresh, engine._build_afferent

    def land_spy(arrived):
        known = len(reference.gens)
        reference.land(arrived, engine._held)
        if len(reference.gens) > known:
            first_arrivals.append(int(engine._outer.max()))
        land(arrived)

    def refresh_spy():
        refresh()
        assert engine._x.tobytes() == reference.x().tobytes()

    def build_spy(order):
        rebuilt.append((int(engine._outer.max()), order))
        return build(order)

    engine._land, engine._refresh, engine._build_afferent = land_spy, refresh_spy, build_spy
    res = engine.run(max_time=MAX_TIME)
    # F is rebuilt by the refresh that opens the next round, and only
    # after a round that saw a first arrival (the last round's
    # deliveries are never refreshed).
    assert [at for at, _ in rebuilt] == [m for m in first_arrivals if m < ROUNDS]
    assert np.array_equal(engine._stale, reference.stale)
    return engine, res, rebuilt


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
    assert (calibration.indices != engine._recv_matrix.indices).any()


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
    engine, flat, rebuilt = run_flat(graph, cfg, partition=partition)

    assert [at for at, _ in rebuilt] == [1, 2]
    order = rebuilt[-1][1]
    assert np.bincount(engine._pair_dst[order]).min() >= 3
    assert flat.codec_stats["suppressed_frames"] >= 5
    assert_identical(flat, event)
    assert_not_the_full_round_order(engine)


def test_budgeted_codec_freezes_on_first_arrival_order(graph):
    """ε_comm is large enough that two light pairs stay suppressed for
    their first rounds (1→0 first ships in round 2, 2→1 in round 4).
    The reference is :func:`run_flat`'s per-delivery receiver; that the
    event engine agrees with a budget too is
    ``tests/test_engine_equivalence.py``'s codec matrix."""
    cfg = dict(BASE, codec="delta-q16", comm_epsilon=1.0)
    engine, res, rebuilt = run_flat(graph, cfg)

    assert rebuilt[0][0] == 1 and 2 < rebuilt[-1][0] < ROUNDS
    assert np.bincount(engine._pair_dst[rebuilt[-1][1]]).min() >= 3
    assert (engine._recv_gen >= 0).all()
    assert res.codec_stats["suppressed_frames"] > 0
    assert_not_the_full_round_order(engine)


def test_rounds_that_can_lose_a_send_stay_on_the_per_delivery_path(graph):
    # Config validation rejects codec × delivery_prob < 1 outright
    # (tests/test_codec.py), so loss meets the flat emit step uncoded,
    # and meets a codec only behind the hybrid engine's ARQ backend.
    # Either way what lands is what was delivered, pair by pair in
    # effect, with no per-pair Python: one receiver memory.
    lossy = dict(BASE, delivery_prob=0.7)
    event = run_distributed_pagerank(graph, engine="event", max_time=MAX_TIME, **lossy)
    engine, flat, rebuilt = run_flat(graph, lossy)
    # Loss spreads the first arrivals over several rounds.
    assert len(rebuilt) > 1 and "_pairs" not in vars(engine)
    assert flat.dropped_updates == event.dropped_updates > 0
    assert_identical(flat, event)
    assert_not_the_full_round_order(engine)

    arq = HybridEngine(
        graph,
        DistributedConfig(
            engine="hybrid", reliable=True, ack_loss_prob=0.2, **dict(BASE, codec="delta")
        ),
    )
    res = arq.run(max_time=MAX_TIME)
    assert arq._recv_matrix is not None and (arq._recv_gen >= 0).any()
    assert res.codec_stats["frames"] > 0 and res.retransmits > 0
