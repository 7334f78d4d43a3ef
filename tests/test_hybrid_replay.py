"""The hybrid engine's array ARQ replay and its flat receiver memory.

Two contracts behind ``tests/test_hybrid.py``'s end-to-end ones:

* :class:`repro.core.hybrid._ReplayARQ` resolves a round's ARQ
  conversations as attempt waves and still behaves as the protocol:
  sequence numbers per logical message, byte conservation in the
  accountant, one ACK per copy that reached a live group, at-least-once
  delivery within the retry budget, and a retransmit rate that sits at
  the closed-form per-attempt no-ACK probability;
* the receiver memory is one vector with per-pair generations:
  snapshots do not alias it, restores round-trip it, a blank
  replacement clears exactly one destination's share, and ``_land`` +
  ``_refresh`` — generation check, stale counts, first-arrival
  summation order — equal the per-delivery dict receiver on the flat
  engine and the hybrid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coordinator import DistributedConfig
from repro.core.engine import SynchronousEngine
from repro.core.hybrid import HybridEngine, _ReplayARQ
from repro.graph import google_contest_like
from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import BernoulliLoss, ChaosModel, NoLoss
from repro.net.message import (
    ACK_MESSAGE_BYTES,
    LINK_RECORD_BYTES,
    LOOKUP_MESSAGE_BYTES,
    PACKAGE_HEADER_BYTES,
)
from repro.net.reliable import RetryPolicy
from repro.net.transport import charge_direct_round
from repro.overlay import build_overlay
from tests.test_round_ledger import DictReceiver

K = 12
T = 10.0


def make_arq(*, delivery=0.85, ack_loss=0.15, duplicate=0.1, max_retries=8, seed=3):
    """A replay over all K·(K-1) ordered pairs of a K-node overlay."""
    src, dst = (a.ravel() for a in np.meshgrid(np.arange(K), np.arange(K), indexing="ij"))
    distinct = src != dst
    loss = NoLoss() if delivery >= 1.0 else BernoulliLoss(delivery, seed=seed)
    return _ReplayARQ(
        loss,
        ChaosModel(duplicate_prob=duplicate, ack_loss_prob=ack_loss, seed=seed + 1),
        RetryPolicy(max_retries=max_retries),
        TrafficAccountant(K),
        build_overlay("pastry", K, seed=seed),
        src[distinct],
        dst[distinct],
    )


def resolve_rounds(arq, rounds, alive=None, wire=-1):
    """Send every pair once per round; returns the delivered masks."""
    n = arq._src.size
    idx = np.arange(n)
    records = 1 + idx % 7
    alive = np.ones(K, dtype=bool) if alive is None else alive
    return [
        arq.resolve(idx, records, np.full(n, wire, dtype=np.int64), alive)
        for _ in range(rounds)
    ]


def assert_conserved(arq):
    acc = arq.accountant
    assert acc.bytes_out.sum() == acc.data_bytes + acc.lookup_bytes + acc.ack_bytes
    assert acc.bytes_in.sum() == acc.data_bytes + acc.ack_bytes
    assert acc.ack_bytes == acc.ack_messages * ACK_MESSAGE_BYTES
    assert acc.ack_messages == acc.data_messages - arq.dead_drops


def test_weighted_ledger_equals_per_copy_records():
    """``copies``/``acks`` weight the closed form exactly as charging
    every transmission and acknowledgement one by one would (the
    per-message replay this ledger replaced)."""
    rng = np.random.default_rng(0)
    overlay = build_overlay("chord", K, seed=2)
    src, dst = rng.integers(0, K, 60), rng.integers(0, K, 60)
    records = rng.integers(1, 9, 60)
    wire = np.where(rng.random(60) < 0.5, -1, rng.integers(0, 400, 60))
    copies = rng.integers(0, 4, 60)
    acks = rng.integers(0, copies + 1)
    fast, slow = TrafficAccountant(K), TrafficAccountant(K)
    charge_direct_round(overlay, fast, src, dst, records, wire, 0.0, copies=copies, acks=acks)
    for i in range(60):
        g, h = int(src[i]), int(dst[i])
        paper = PACKAGE_HEADER_BYTES + int(records[i]) * LINK_RECORD_BYTES
        data = paper if wire[i] < 0 else PACKAGE_HEADER_BYTES + int(wire[i])
        for _ in range(copies[i]):
            slow.record_lookup(g, overlay.hops(g, h), LOOKUP_MESSAGE_BYTES)
            slow.record_data_message(g, h, data, paper_bytes=paper)
        for _ in range(acks[i]):
            slow.record_ack(h, g, ACK_MESSAGE_BYTES)
    assert fast.snapshot(0.0) == slow.snapshot(0.0)
    assert np.array_equal(fast.bytes_out, slow.bytes_out)
    assert np.array_equal(fast.bytes_in, slow.bytes_in)


class TestReplayAsProtocol:
    def test_sequence_numbers_count_logical_messages(self):
        arq = make_arq()
        idx = np.arange(arq._src.size)
        resolve_rounds(arq, 3)
        # A fourth round in which only every other pair sends.
        some = idx[::2]
        arq.resolve(some, np.ones(some.size, dtype=np.int64),
                    np.full(some.size, -1, dtype=np.int64), np.ones(K, dtype=bool))
        state = arq.window_state()
        assert len(state) == idx.size
        for p, (g, h) in enumerate(zip(arq._src.tolist(), arq._dst.tolist())):
            assert state[(g, h)] == {"next_seq": 3 + (p % 2 == 0), "pending": []}

    def test_every_message_is_delivered_within_the_retry_budget(self):
        arq = make_arq(max_retries=8)
        masks = resolve_rounds(arq, 6)
        assert all(mask.all() for mask in masks)
        assert arq.gave_up == 0 and arq.dead_drops == 0
        assert arq.retransmits > 0 and arq.acks_lost > 0 and arq.dup_drops > 0
        assert_conserved(arq)

    @pytest.mark.parametrize("wire", [-1, 37])
    def test_dead_groups_are_charged_but_never_acknowledge(self, wire):
        arq = make_arq(max_retries=2)
        alive = np.ones(K, dtype=bool)
        alive[[1, 5]] = False
        (mask,) = resolve_rounds(arq, 1, alive, wire=wire)
        to_dead = ~alive[arq._dst]
        assert not mask[to_dead].any()
        assert arq.gave_up >= int(to_dead.sum())
        assert arq.dead_drops > 0
        acc = arq.accountant
        assert acc.bytes_in[~alive].sum() > 0  # the copies still crossed the wire
        assert_conserved(arq)
        if wire < 0:
            assert acc.paper_data_bytes == acc.data_bytes
        else:
            assert acc.paper_data_bytes > acc.data_bytes

    def test_zero_retries_is_a_single_wave(self):
        arq = make_arq(max_retries=0)
        (mask,) = resolve_rounds(arq, 1)
        n = mask.size
        assert arq.retransmits == 0
        assert 0 < arq.gave_up < n
        # One attempt each: a first copy, plus the duplicates chaos drew.
        assert arq.accountant.data_messages + arq.dropped_updates == n + arq.chaos_duplicates
        # An unacknowledged message may still have been delivered.
        assert mask.sum() >= n - arq.gave_up
        assert_conserved(arq)

    def test_chaos_and_loss_off_is_one_copy_and_one_ack_each(self):
        arq = make_arq(delivery=1.0, ack_loss=0.0, duplicate=0.0)
        before = arq.chaos._rng.bit_generator.state
        masks = resolve_rounds(arq, 2)
        n = masks[0].size
        assert all(mask.all() for mask in masks)
        acc = arq.accountant
        assert acc.data_messages == acc.ack_messages == 2 * n
        assert (arq.retransmits, arq.gave_up, arq.dup_drops, arq.dropped_updates) == (0,) * 4
        assert arq.chaos._rng.bit_generator.state == before
        assert_conserved(arq)

    def test_retransmit_rate_is_the_closed_form_no_ack_probability(self):
        p, l, d = 0.85, 0.15, 0.1
        arq = make_arq(delivery=p, ack_loss=l, duplicate=d, max_retries=8, seed=11)
        rounds = 40
        resolve_rounds(arq, rounds)
        # One attempt = a copy, doubled with probability d; a copy is
        # acknowledged with probability a = p·(1 - l).
        a = p * (1.0 - l)
        q = (1.0 - a) * (1.0 - d * a)
        attempts = rounds * arq._src.size + arq.retransmits
        unacked = arq.retransmits + arq.gave_up
        sigma = np.sqrt(q * (1.0 - q) / attempts)
        assert abs(unacked / attempts - q) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# Flat receiver memory
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(400, 10, seed=11)


def make_engine(graph, **overrides):
    knobs = dict(
        n_groups=8, engine="hybrid", algorithm="dpr2", transport="direct",
        partition_strategy="url", t1=T, t2=T, sample_interval=T, seed=5,
        schedule="sync", reliable=True, delivery_prob=0.85, ack_loss_prob=0.15,
    )
    knobs.update(overrides)
    engine = HybridEngine(graph, DistributedConfig(**knobs))
    assert engine._approx
    return engine


def make_flat(graph, n_groups):
    knobs = dict(
        n_groups=n_groups, engine="flat", algorithm="dpr2", transport="direct",
        partition_strategy="url", t1=T, t2=T, sample_interval=T, seed=5, schedule="sync",
    )
    return SynchronousEngine(graph, DistributedConfig(**knobs))


def run_rounds(engine, first, last):
    for m in range(first, last + 1):
        engine._round(m * T)


def afferent_reference(engine, g):
    """Destination ``g``'s share of the memory, from the pair table."""
    pairs = [p for p, (_, h, _, _, _) in enumerate(engine._pairs) if h == g]
    elems = [np.arange(engine._pairs[p][2].start, engine._pairs[p][2].stop) for p in pairs]
    return np.array(pairs), np.concatenate(elems) if elems else np.zeros(0, dtype=int)


class TestFlatReceiverMemory:
    def test_index_covers_each_destination_exactly(self, graph):
        engine = make_engine(graph)
        seen = np.zeros(engine._recv.size, dtype=int)
        for g in range(engine.n_groups):
            pairs, elems = afferent_reference(engine, g)
            assert np.array_equal(engine._aff_pairs[g], pairs)
            assert np.array_equal(np.sort(engine._aff_elems[g]), elems)
            seen[engine._aff_elems[g]] += 1
        assert (seen == 1).all()

    def test_snapshot_is_not_aliased_to_live_state(self, graph):
        engine = make_engine(graph)
        run_rounds(engine, 1, 2)
        node = engine.rankers[3].node
        snap = node.state_dict()
        frozen = {key: np.array(snap[key]) for key in ("r", "latest_values", "latest_gen")}
        run_rounds(engine, 3, 5)
        for key, value in frozen.items():
            assert np.array_equal(snap[key], value), key
        live = node.state_dict()
        assert not np.array_equal(live["latest_values"], snap["latest_values"])
        assert (live["latest_gen"] > snap["latest_gen"]).all()
        assert live["outer_iterations"] == snap["outer_iterations"] + 3

    def test_load_state_dict_round_trips(self, graph):
        engine = make_engine(graph)
        run_rounds(engine, 1, 2)
        engine._stale[3] = 7
        node = engine.rankers[3].node
        snap = node.state_dict()
        others = engine._recv.copy()
        run_rounds(engine, 3, 5)
        engine._make_replacement(3, 0).node.load_state_dict(snap)
        back = node.state_dict()
        assert back.keys() == snap.keys()
        for key in snap:
            assert np.array_equal(back[key], snap[key]), key
        assert back["stale_updates"] == 7
        # Only group 3's share was rolled back.
        elsewhere = np.ones(engine._recv.size, dtype=bool)
        elsewhere[engine._aff_elems[3]] = False
        assert not np.array_equal(engine._recv[elsewhere], others[elsewhere])

    def test_replacement_zeroes_exactly_the_dead_groups_afferent_elements(self, graph):
        engine = make_engine(graph)
        run_rounds(engine, 1, 3)
        g = 2
        recv, gens = engine._recv.copy(), engine._recv_gen.copy()
        assert recv[engine._aff_elems[g]].any() and (gens[engine._aff_pairs[g]] > 0).all()
        replacement = engine._make_replacement(g, 0)
        assert replacement.group == g and not replacement.crashed
        expect_recv, expect_gens = recv.copy(), gens.copy()
        expect_recv[afferent_reference(engine, g)[1]] = 0.0
        expect_gens[afferent_reference(engine, g)[0]] = -1
        assert np.array_equal(engine._recv, expect_recv)
        assert np.array_equal(engine._recv_gen, expect_gens)
        assert not engine._r[engine._slices[g]].any() and engine._outer[g] == 0
        # The refresh sees a blank node: X is zero there and only there.
        engine._refresh()
        assert not engine._x[engine._slices[g]].any()
        assert engine._x.any()

    def test_generation_check_counts_stale_arrivals_per_destination(self, graph):
        engine = make_engine(graph)
        run_rounds(engine, 1, 3)
        # Everyone steps once more, but senders 1 and 4 were rolled back
        # by a takeover: their outer counts — the generations they stamp
        # — fall behind what the receivers already hold.
        engine._outer += 1
        engine._outer[[1, 4]] -= 3
        arrived = np.arange(len(engine._pairs))
        # The per-delivery rule, pair by pair.
        expect = np.zeros(engine.n_groups, dtype=np.int64)
        for p in arrived.tolist():
            src, dst = engine._pairs[p][:2]
            if engine._outer[src] <= engine._recv_gen[p]:
                expect[dst] += 1
        assert expect.sum() == len(engine._src_pairs[1]) + len(engine._src_pairs[4])
        recv, gens = engine._recv.copy(), engine._recv_gen.copy()
        engine._held[:] += 1.0
        engine._land(arrived)
        assert np.array_equal(engine._stale, expect)
        stale = np.isin(engine._pair_src, [1, 4])
        assert np.array_equal(engine._recv_gen[stale], gens[stale])
        assert np.array_equal(engine._recv_gen[~stale], engine._outer[engine._pair_src[~stale]])
        kept = np.repeat(stale, engine._pair_len)
        assert np.array_equal(engine._recv[kept], recv[kept])
        assert np.array_equal(engine._recv[~kept], engine._held[~kept])

    def test_fault_plane_deliveries_share_the_memory(self, graph):
        """Crash faults without ARQ run the real transport on the fault
        plane; its per-update upcall writes the same vector, stamps and
        stale counters."""
        engine = make_engine(
            graph, reliable=False, delivery_prob=1.0, ack_loss_prob=0.0,
            crash_prob=0.5, crash_after=15.0, crash_horizon=20.0,
        )
        assert engine._arq is None and engine._transport is not None
        res = engine.run(max_time=6 * T + 5.0)
        assert res.crashed_groups > 0 and res.fidelity == "approximate"
        assert engine._arrivals == np.count_nonzero(engine._recv_gen >= 0) > 0
        assert engine._recv.any() and engine._recv_matrix is not None
        dead = [g for g, ranker in enumerate(engine.rankers) if ranker.crashed]
        live_pairs = ~np.isin(engine._pair_src, dead) & ~np.isin(engine._pair_dst, dead)
        assert (engine._recv_gen[live_pairs] == 6).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["hybrid", 8, 2, 1]),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 55), unique=True, max_size=56),
                st.lists(st.integers(0, 7), unique=True, max_size=3),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_land_and_refresh_equal_the_per_delivery_receiver(self, graph, shape, rounds):
        """Any subset of pairs in any delivery order, round after round,
        with rolled-back senders presenting stale generations: X, the
        stale counts and the rounds that rebuild F are those of the
        dict-of-arrays receiver.  Shapes: the approximate hybrid, the
        plain flat engine, one source per destination (K=2), and no
        pairs at all (K=1)."""
        engine = make_engine(graph) if shape == "hybrid" else make_flat(graph, shape)
        reference = DictReceiver(engine)
        n_pairs, k = engine._pair_src.size, engine.n_groups
        assert n_pairs == {8: 56, 2: 2, 1: 0}[k]
        rebuilt = []
        build = engine._build_afferent
        engine._build_afferent = lambda order: rebuilt.append(order) or build(order)
        for subset, rolled_back, seed in rounds:
            engine._outer += 1
            lagging = [g for g in rolled_back if g < k]
            engine._outer[lagging] = np.maximum(engine._outer[lagging] - 2, 1)
            engine._held[:] = np.random.default_rng(seed).random(engine._held.size)
            arrived = np.array([p for p in subset if p < n_pairs], dtype=np.int64)
            known, builds = len(reference.gens), len(rebuilt)
            reference.land(arrived, engine._held)
            engine._land(arrived)
            engine._refresh()
            assert engine._x.tobytes() == reference.x().tobytes()
            assert np.array_equal(engine._stale, reference.stale)
            assert len(rebuilt) - builds == (len(reference.gens) > known)
        assert engine._arrivals == len(reference.gens)
