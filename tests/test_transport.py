"""Unit tests for repro.net.transport (direct vs indirect, §4.4)."""

import numpy as np
import pytest

from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import BernoulliLoss
from repro.net.latency import FixedLatency
from repro.net.message import (
    LINK_RECORD_BYTES,
    LOOKUP_MESSAGE_BYTES,
    PACKAGE_HEADER_BYTES,
    ScoreUpdate,
)
from repro.net.simulator import Simulator
from repro.net.transport import DirectTransport, IndirectTransport, build_transport
from repro.overlay.base import Overlay


class LineOverlay(Overlay):
    """Deterministic chain: routing i -> j steps one node at a time.

    Hop count from i to j is exactly |i - j|, which makes byte/message
    accounting assertions exact.
    """

    def neighbors(self, node):
        out = []
        if node > 0:
            out.append(node - 1)
        if node < self.n_nodes - 1:
            out.append(node + 1)
        return out

    def next_hop(self, at, dst):
        if dst == at:
            return dst
        return at + 1 if dst > at else at - 1


def update(src, dst, records=2, gen=1, size=3):
    return ScoreUpdate(
        src_group=src,
        dst_group=dst,
        values=np.full(size, float(gen)),
        n_link_records=records,
        generation=gen,
    )


@pytest.fixture
def harness():
    sim = Simulator()
    overlay = LineOverlay(5)
    acc = TrafficAccountant(5)
    inbox = []
    return sim, overlay, acc, inbox


class TestDirectTransport:
    def test_delivers_to_destination(self, harness):
        sim, overlay, acc, inbox = harness
        t = DirectTransport(sim, overlay, acc, latency=FixedLatency(1.0))
        t.attach(lambda dst, u: inbox.append((dst, u)))
        t.send_updates(0, [update(0, 3)])
        sim.run()
        assert len(inbox) == 1
        assert inbox[0][0] == 3

    def test_lookup_accounting(self, harness):
        sim, overlay, acc, inbox = harness
        t = DirectTransport(sim, overlay, acc)
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 3, records=4)])
        sim.run()
        # Lookup: 3 hops of r bytes; data: one end-to-end message.
        assert acc.lookup_messages == 3
        assert acc.lookup_bytes == 3 * LOOKUP_MESSAGE_BYTES
        assert acc.data_messages == 1
        assert acc.data_bytes == PACKAGE_HEADER_BYTES + 4 * LINK_RECORD_BYTES

    def test_latency_is_lookup_plus_direct(self, harness):
        sim, overlay, acc, inbox = harness
        t = DirectTransport(sim, overlay, acc, latency=FixedLatency(1.0))
        arrived = []
        t.attach(lambda dst, u: arrived.append(sim.now))
        t.send_updates(0, [update(0, 3)])
        sim.run()
        assert arrived == [4.0]  # 3 lookup hops + 1 direct send

    def test_loss_drops_before_any_traffic(self, harness):
        sim, overlay, acc, inbox = harness
        t = DirectTransport(sim, overlay, acc, loss=BernoulliLoss(0.0, seed=0))
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 1), update(0, 2)])
        sim.run()
        assert inbox == []
        assert acc.data_messages == 0
        assert acc.lookup_messages == 0
        assert t.dropped_updates == 2

    def test_without_cache_every_send_looks_up(self, harness):
        sim, overlay, acc, inbox = harness
        t = DirectTransport(sim, overlay, acc)
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 3)])
        t.send_updates(0, [update(0, 3)])
        sim.run()
        assert acc.lookup_messages == 6

    def test_use_before_attach_raises(self, harness):
        sim, overlay, acc, _ = harness
        t = DirectTransport(sim, overlay, acc)
        t.send_updates(0, [update(0, 1)])
        with pytest.raises(RuntimeError):
            sim.run()


class TestIndirectTransport:
    def test_delivers_over_multiple_hops(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc, aggregation_delay=0.0)
        t.attach(lambda dst, u: inbox.append((dst, u)))
        t.send_updates(0, [update(0, 4)])
        sim.run()
        assert [dst for dst, _ in inbox] == [4]

    def test_bytes_amplified_by_hop_count(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc, aggregation_delay=0.0)
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 4, records=3)])
        sim.run()
        # 4 hops, each carrying the 3-record payload (formula 4.1's h×l).
        payload = 3 * LINK_RECORD_BYTES
        assert acc.data_bytes == 4 * (PACKAGE_HEADER_BYTES + payload)
        assert acc.data_messages == 4
        assert t.packages_sent == 4

    def test_no_lookup_traffic(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc, aggregation_delay=0.0)
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 3)])
        sim.run()
        assert acc.lookup_messages == 0

    def test_packing_shares_one_package_per_next_hop(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc, aggregation_delay=0.0)
        t.attach(lambda dst, u: inbox.append(u))
        # Both updates leave node 0 toward node 1 -> one package on hop 1.
        t.send_updates(0, [update(0, 2), update(0, 3)])
        sim.run()
        # Hops: 0->1 (1 pkg), 1->2 (1 pkg with both; the one for 2 is
        # delivered there), 2->3 (1 pkg).
        assert t.packages_sent == 3
        assert len(inbox) == 2

    def test_recombination_with_aggregation_window(self, harness):
        """Flows from two upstream nodes merge into one downstream package."""
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc, aggregation_delay=0.5)
        t.attach(lambda dst, u: inbox.append(u))
        # Flow A: 4 -> 0 (sent at t=0, passes node 2 around t=2.0).
        # Flow B: 2 -> 0 (sent at t=1.8, still buffered at node 2 when
        # flow A arrives) — the two flows must share one 2->1 package.
        t.send_updates(4, [update(4, 0)])
        sim.schedule(1.8, t.send_updates, 2, [update(2, 0)])
        sim.run()
        assert len(inbox) == 2
        # Separately the flows would cost 4 + 2 = 6 packages; the shared
        # 2->1 and 1->0 legs bring it down to 4.
        assert t.packages_sent == 4

    def test_local_delivery_without_network(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(sim, overlay, acc)
        t.attach(lambda dst, u: inbox.append((dst, u)))
        t.send_updates(2, [update(2, 2)])
        sim.run()
        assert len(inbox) == 1
        assert acc.data_messages == 0

    def test_loss_applied_at_origin(self, harness):
        sim, overlay, acc, inbox = harness
        t = IndirectTransport(
            sim, overlay, acc, aggregation_delay=0.0, loss=BernoulliLoss(0.0, seed=0)
        )
        t.attach(lambda dst, u: inbox.append(u))
        t.send_updates(0, [update(0, 4)])
        sim.run()
        assert inbox == []
        assert acc.data_messages == 0

    def test_rejects_negative_aggregation_delay(self, harness):
        sim, overlay, acc, _ = harness
        with pytest.raises(ValueError):
            IndirectTransport(sim, overlay, acc, aggregation_delay=-1.0)


class TestBuildTransport:
    def test_factory_kinds(self, harness):
        sim, overlay, acc, _ = harness
        assert isinstance(
            build_transport("direct", sim, overlay, acc), DirectTransport
        )
        assert isinstance(
            build_transport("indirect", sim, overlay, acc), IndirectTransport
        )

    def test_unknown_kind(self, harness):
        sim, overlay, acc, _ = harness
        with pytest.raises(ValueError, match="unknown transport"):
            build_transport("pigeon", sim, overlay, acc)
