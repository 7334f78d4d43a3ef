"""Traffic accounting.

Every physical message in the simulation is recorded here, split into
the two categories of the paper's analysis (§4.4):

* ``data`` — messages/bytes carrying score records (both transports);
* ``lookup`` — DHT resolution traffic (direct transmission only).

When a wire codec is active (``DistributedConfig.codec != "none"``)
the ``data`` counters hold the *calibrated* encoded-frame bytes, and
the parallel ``paper_data_bytes`` counter keeps accumulating what the
same messages would cost under the paper's flat 100 B/record model —
so §4.4 comparisons and compression ratios come out of one accountant.
Codec-free runs charge both counters identically.

The accountant also tracks per-node ingress/egress bytes, which is what
the per-node *bottleneck bandwidth* constraint of formula 4.7 is about,
and supports interval snapshots so benches can report per-iteration
traffic (formulas 4.1–4.4 are all per-iteration quantities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

__all__ = ["TrafficAccountant", "TrafficSnapshot"]


@dataclass
class TrafficSnapshot:
    """Immutable copy of the counters at one instant.

    ``ack_*`` counters track the reliability layer's acknowledgement
    traffic.  They are reported separately and deliberately excluded
    from :attr:`total_messages`/:attr:`total_bytes`, which remain the
    paper's data + lookup quantities (formulas 4.1–4.4) so fault-free
    runs over the reliable transport stay comparable to plain runs.
    """

    time: float
    data_messages: int
    data_bytes: int
    lookup_messages: int
    lookup_bytes: int
    ack_messages: int = 0
    ack_bytes: int = 0
    #: Paper-model (§4.4) bytes for the same data messages; equals
    #: ``data_bytes`` unless a wire codec re-priced the payloads.
    paper_data_bytes: int = 0

    @property
    def total_messages(self) -> int:
        return self.data_messages + self.lookup_messages

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.lookup_bytes

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        """Traffic between ``earlier`` and this snapshot."""
        return TrafficSnapshot(
            time=self.time,
            data_messages=self.data_messages - earlier.data_messages,
            data_bytes=self.data_bytes - earlier.data_bytes,
            lookup_messages=self.lookup_messages - earlier.lookup_messages,
            lookup_bytes=self.lookup_bytes - earlier.lookup_bytes,
            ack_messages=self.ack_messages - earlier.ack_messages,
            ack_bytes=self.ack_bytes - earlier.ack_bytes,
            paper_data_bytes=self.paper_data_bytes - earlier.paper_data_bytes,
        )


class TrafficAccountant:
    """Running counters of simulated network traffic."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.n_nodes = int(n_nodes)
        self.data_messages = 0
        self.data_bytes = 0
        self.lookup_messages = 0
        self.lookup_bytes = 0
        self.ack_messages = 0
        self.ack_bytes = 0
        self.paper_data_bytes = 0
        self.bytes_out = np.zeros(n_nodes, dtype=np.int64)
        self.bytes_in = np.zeros(n_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    def record_data_message(
        self,
        src: int,
        dst: int,
        n_bytes: int,
        paper_bytes: Optional[int] = None,
    ) -> None:
        """One physical score-carrying message from ``src`` to ``dst``.

        ``n_bytes`` is what actually crosses the wire (the calibrated
        charge); ``paper_bytes`` is the §4.4 flat-model charge for the
        same message, defaulting to ``n_bytes`` when no codec re-priced
        the payload.  Per-node ingress/egress aggregates track the
        calibrated bytes — they feed the bottleneck-bandwidth
        constraint (formula 4.7), which is about real link load.
        """
        self.data_messages += 1
        self.data_bytes += int(n_bytes)
        self.paper_data_bytes += int(
            n_bytes if paper_bytes is None else paper_bytes
        )
        self.bytes_out[src] += n_bytes
        self.bytes_in[dst] += n_bytes

    def record_lookup(self, src: int, hops: int, bytes_per_hop: int) -> None:
        """One DHT lookup of ``hops`` hop messages originated by ``src``.

        Intermediate-node ingress/egress is charged to the originator's
        egress aggregate only (the per-node constraint in the paper is
        about the rankers' own access links; transit traffic is covered
        by the bisection term).
        """
        self.lookup_messages += int(hops)
        total = int(hops) * int(bytes_per_hop)
        self.lookup_bytes += total
        self.bytes_out[src] += total

    def record_ack(self, src: int, dst: int, n_bytes: int) -> None:
        """One reliability-layer acknowledgement from ``src`` to ``dst``.

        ACK traffic is counted apart from data/lookup (it is not part of
        the paper's byte model) but still charged to the per-node
        ingress/egress aggregates — a real access link carries it.
        """
        self.ack_messages += 1
        self.ack_bytes += int(n_bytes)
        self.bytes_out[src] += n_bytes
        self.bytes_in[dst] += n_bytes

    def merge(self, other: "TrafficAccountant") -> None:
        """Accumulate another accountant's counters into this one.

        The round engines use it for the one round whose traffic is
        worth keeping: over the indirect transport the uncoded full
        pair set is replayed once into a scratch accountant and merged
        every round it ships.  (Direct rounds are charged in place by
        :func:`~repro.net.transport.charge_direct_round`.)
        """
        if other.n_nodes != self.n_nodes:
            raise ValueError(
                f"cannot merge accountant for {other.n_nodes} nodes into "
                f"one for {self.n_nodes}"
            )
        self.data_messages += other.data_messages
        self.data_bytes += other.data_bytes
        self.lookup_messages += other.lookup_messages
        self.lookup_bytes += other.lookup_bytes
        self.ack_messages += other.ack_messages
        self.ack_bytes += other.ack_bytes
        self.paper_data_bytes += other.paper_data_bytes
        self.bytes_out += other.bytes_out
        self.bytes_in += other.bytes_in

    # ------------------------------------------------------------------
    def snapshot(self, time: float) -> TrafficSnapshot:
        """Copy the counters, stamped with the simulated time."""
        return TrafficSnapshot(
            time=float(time),
            data_messages=self.data_messages,
            data_bytes=self.data_bytes,
            lookup_messages=self.lookup_messages,
            lookup_bytes=self.lookup_bytes,
            ack_messages=self.ack_messages,
            ack_bytes=self.ack_bytes,
            paper_data_bytes=self.paper_data_bytes,
        )

    def node_bandwidth_peak(self) -> Dict[str, float]:
        """Max per-node cumulative ingress/egress bytes."""
        return {
            "max_bytes_out": float(self.bytes_out.max()),
            "max_bytes_in": float(self.bytes_in.max()),
            "mean_bytes_out": float(self.bytes_out.mean()),
            "mean_bytes_in": float(self.bytes_in.mean()),
        }
