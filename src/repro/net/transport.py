"""Direct and indirect transmission (paper §4.4).

**Direct transmission** (Fig 3): the sender resolves each destination
ranker through a DHT lookup (``h`` hop messages of ``r`` bytes), then
ships the score records in a single end-to-end message.  Per iteration
this costs about ``(h+1)·N²`` messages and ``l·W + h·r·N²`` bytes
network-wide (formulas 4.2/4.4).

**Indirect transmission** (Figs 4–5): score records ride the overlay's
own routing paths.  Each node packs everything bound for the same next
hop into one package; intermediate nodes unpack, deliver what is
theirs, *recombine* the rest per next hop, and forward.  Per iteration
this costs about ``g·N`` messages (one package per neighbor link) but
``h·l·W`` bytes, since every record is carried ``h`` times (formulas
4.1/4.3).

Both transports share the same interface so the distributed ranker
never knows which one it is running over.  Loss (the paper's ``p``) is
applied at the origin, per destination update — the granularity of
"vector Y may fail to be sent".
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import LossModel, NoLoss
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import (
    ACK_MESSAGE_BYTES,
    LINK_RECORD_BYTES,
    LOOKUP_MESSAGE_BYTES,
    PACKAGE_HEADER_BYTES,
    Package,
    ScoreUpdate,
)
from repro.net.simulator import Simulator
from repro.overlay.base import Overlay

__all__ = [
    "Transport",
    "DirectTransport",
    "IndirectTransport",
    "TRANSPORTS",
    "build_transport",
    "charge_direct_round",
]

DeliverFn = Callable[[int, ScoreUpdate], None]


class Transport(abc.ABC):
    """Common machinery for both transmission schemes."""

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        accountant: TrafficAccountant,
        *,
        loss: Optional[LossModel] = None,
        latency: Optional[LatencyModel] = None,
    ):
        self.sim = sim
        self.overlay = overlay
        self.accountant = accountant
        self.loss: LossModel = loss if loss is not None else NoLoss()
        self.latency: LatencyModel = latency if latency is not None else FixedLatency()
        self._deliver: Optional[DeliverFn] = None
        #: Updates dropped by the loss model (diagnostics).
        self.dropped_updates = 0

    def attach(self, deliver: DeliverFn) -> None:
        """Install the upcall invoked when an update reaches its group."""
        self._deliver = deliver

    def _deliver_local(self, update: ScoreUpdate) -> None:
        if self._deliver is None:
            raise RuntimeError("transport used before attach()")
        self._deliver(update.dst_group, update)

    @abc.abstractmethod
    def send_updates(self, src_group: int, updates: List[ScoreUpdate]) -> None:
        """Ship one iteration's worth of updates from ``src_group``."""


class DirectTransport(Transport):
    """Lookup-then-send end-to-end transmission.

    Every send pays its own DHT lookup, as the paper's formulas charge
    it.  :func:`charge_direct_round` below is the same rule in closed
    form; change one and the ledger ≡ replay property test fails.
    """

    def send_updates(self, src_group: int, updates: List[ScoreUpdate]) -> None:
        """Lookup each destination, then send end to end."""
        for update in updates:
            if not self.loss.delivered(src_group, update.dst_group):
                self.dropped_updates += 1
                continue
            dst = update.dst_group
            delay = 0.0
            if src_group != dst:
                hops = self.overlay.hops(src_group, dst)
                self.accountant.record_lookup(src_group, hops, LOOKUP_MESSAGE_BYTES)
                delay += hops * self.latency.hop_delay(src_group, dst)
            # One end-to-end data message (IP-level, a single "hop").
            # Calibrated charge (codec frame when stamped) plus the
            # parallel paper-model charge for §4.4 comparability.
            self.accountant.record_data_message(
                src_group,
                dst,
                PACKAGE_HEADER_BYTES + update.effective_payload_bytes,
                paper_bytes=PACKAGE_HEADER_BYTES + update.payload_bytes,
            )
            delay += self.latency.hop_delay(src_group, dst)
            update.sent_at = self.sim.now
            self.sim.schedule(delay, self._deliver_local, update)


def charge_direct_round(
    overlay: Overlay,
    accountant: TrafficAccountant,
    src: np.ndarray,
    dst: np.ndarray,
    records: np.ndarray,
    wire_bytes: np.ndarray,
    hop_delay: float,
    copies: Optional[np.ndarray] = None,
    acks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Charge one lossless direct-transmission round without simulating it.

    The sends — int64 arrays in emission order, duplicate-free pairs,
    ``wire_bytes`` -1 for an uncoded send — cost exactly what
    :meth:`DirectTransport.send_updates` charges them one by one under
    a fixed per-hop latency: ``hops`` lookup messages of ``r`` bytes on
    the sender's egress, then one data message of header + frame (or
    header + ``l``·records when uncoded) on both ends, with the paper
    model's flat charge beside it.  These are formulas 4.2/4.4 per
    pair instead of in the mean.

    A round of ARQ conversations is the same charge weighted per send:
    ``copies`` counts the times a send went on the wire (each pays its
    own lookup) and ``acks`` the acknowledgements its destination sent
    back, :data:`~repro.net.message.ACK_MESSAGE_BYTES` each on the
    reverse path.

    Returns the delivery order as positions into the arrays.  Every
    send of a round is scheduled at time 0 and lands at
    ``hops·d + d``, and the simulator breaks ties by scheduling
    sequence, so the order is a stable sort of those times.
    """
    hops = overlay.hop_counts(src, dst)
    if copies is None:
        copies = np.ones_like(hops)
    lookup_messages = copies * hops
    lookup = lookup_messages * LOOKUP_MESSAGE_BYTES
    paper = copies * (PACKAGE_HEADER_BYTES + records * LINK_RECORD_BYTES)
    data = np.where(
        wire_bytes < 0, paper, copies * (PACKAGE_HEADER_BYTES + wire_bytes)
    )
    accountant.lookup_messages += int(lookup_messages.sum())
    accountant.lookup_bytes += int(lookup.sum())
    accountant.data_messages += int(copies.sum())
    accountant.data_bytes += int(data.sum())
    accountant.paper_data_bytes += int(paper.sum())
    np.add.at(accountant.bytes_out, src, lookup + data)
    np.add.at(accountant.bytes_in, dst, data)
    if acks is not None:
        ack = acks * ACK_MESSAGE_BYTES
        accountant.ack_messages += int(acks.sum())
        accountant.ack_bytes += int(ack.sum())
        np.add.at(accountant.bytes_out, dst, ack)
        np.add.at(accountant.bytes_in, src, ack)
    return np.argsort(hops * hop_delay + hop_delay, kind="stable")


class IndirectTransport(Transport):
    """Hop-by-hop forwarding with per-neighbor pack/recombine.

    Parameters
    ----------
    aggregation_delay:
        How long an intermediate node buffers arriving records before
        flushing packages to its neighbors.  A non-zero window is what
        lets flows from several upstream neighbors *recombine* into a
        single downstream package (paper Fig 4).  Zero disables
        buffering (every arrival forwards immediately).
    ttl:
        Hop budget per update.  Structured-overlay routes are loop-free
        on static membership, so the TTL never fires in normal
        operation; it is the safety net a real deployment carries
        against routing anomalies.  Expired updates are counted in
        :attr:`expired_updates` and dropped.
    """

    def __init__(self, *args, aggregation_delay: float = 0.25, ttl: int = 64, **kwargs):
        super().__init__(*args, **kwargs)
        if aggregation_delay < 0:
            raise ValueError("aggregation_delay must be >= 0")
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self.aggregation_delay = float(aggregation_delay)
        self.ttl = int(ttl)
        #: Updates dropped by the TTL guard (should stay 0).
        self.expired_updates = 0
        # Per-node forwarding buffer: node -> list of in-transit updates.
        self._buffer: Dict[int, List[ScoreUpdate]] = defaultdict(list)
        self._flush_scheduled: Dict[int, bool] = defaultdict(bool)
        #: Total packages put on the wire (== physical data messages).
        self.packages_sent = 0

    # ------------------------------------------------------------------
    def send_updates(self, src_group: int, updates: List[ScoreUpdate]) -> None:
        """Apply loss at the origin and inject survivors into the mesh."""
        survivors = []
        for update in updates:
            if not self.loss.delivered(src_group, update.dst_group):
                self.dropped_updates += 1
                continue
            update.sent_at = self.sim.now
            survivors.append(update)
        if not survivors:
            return
        self._enqueue(src_group, survivors)

    def _enqueue(self, node: int, updates: List[ScoreUpdate]) -> None:
        """Buffer updates at ``node`` and arrange a flush."""
        local = [u for u in updates if u.dst_group == node]
        transit = [u for u in updates if u.dst_group != node]
        for u in local:
            self._deliver_local(u)
        if not transit:
            return
        self._buffer[node].extend(transit)
        if self.aggregation_delay == 0.0:
            self._flush(node)
        elif not self._flush_scheduled[node]:
            self._flush_scheduled[node] = True
            self.sim.schedule(self.aggregation_delay, self._flush, node)

    def _flush(self, node: int) -> None:
        """Pack buffered updates per next hop and send one package each."""
        self._flush_scheduled[node] = False
        pending = self._buffer[node]
        if not pending:
            return
        self._buffer[node] = []
        by_next: Dict[int, List[ScoreUpdate]] = defaultdict(list)
        for u in pending:
            nxt = self.overlay.forward(node, u.dst_group)
            by_next[nxt].append(u)
        for nxt, batch in by_next.items():
            package = Package(from_node=node, to_node=nxt, updates=batch)
            self.accountant.record_data_message(
                node,
                nxt,
                package.wire_payload_bytes,
                paper_bytes=package.payload_bytes,
            )
            self.packages_sent += 1
            self.sim.schedule(
                self.latency.hop_delay(node, nxt), self._arrive, package
            )

    def _arrive(self, package: Package) -> None:
        """Unpack at the receiving node and recombine onward traffic."""
        alive = []
        for u in package.updates:
            u.hops_taken += 1
            if u.dst_group != package.to_node and u.hops_taken >= self.ttl:
                self.expired_updates += 1
                continue
            alive.append(u)
        if alive:
            self._enqueue(package.to_node, alive)


#: Transport kinds by name — the registry :func:`build_transport`
#: dispatches on and ``DistributedConfig.transport`` / ``--transport``
#: take their choices from (the paper's default first).
TRANSPORTS = {"indirect": IndirectTransport, "direct": DirectTransport}


def build_transport(
    kind: str,
    sim: Simulator,
    overlay: Overlay,
    accountant: TrafficAccountant,
    *,
    loss: Optional[LossModel] = None,
    latency: Optional[LatencyModel] = None,
    **kwargs,
) -> Transport:
    """Construct a transport by name (a key of :data:`TRANSPORTS`)."""
    if kind not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {kind!r}; expected one of {sorted(TRANSPORTS)}"
        )
    return TRANSPORTS[kind](
        sim, overlay, accountant, loss=loss, latency=latency, **kwargs
    )
