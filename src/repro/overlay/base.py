"""Common overlay interface.

An overlay connects the ``N`` page rankers (indices ``0..N-1``).  The
distributed page-ranking layer uses exactly three capabilities:

* ``neighbors(i)`` — the ranker indices node ``i`` maintains open
  connections to (leaf set + routing table for Pastry, fingers for
  Chord, zone neighbors for CAN).  Indirect transmission forwards data
  only along these edges.
* ``route(src, dst)`` — the overlay path a message takes from ranker
  ``src`` to ranker ``dst``; its length is the hop count ``h``.
* ``next_hop(at, dst)`` — a single routing step, used by the event
  simulator to forward packages hop by hop.

Invariant required of every implementation: from any node, repeatedly
applying ``next_hop`` toward ``dst`` terminates at ``dst`` (no routing
loops on a static membership).

Overlays are **immutable once constructed**: they model a converged
structure over a static membership (no joins, leaves or table repair
after ``__init__``), so ``next_hop`` is a pure function of
``(at, dst)``.  Two memos rely on that.  :meth:`Overlay.hops` keeps hop
counts per ordered pair (``_hop_cache``; :meth:`Overlay.hop_counts` is
its array form over a K×K table) — the accounting paths ask for the
same few thousand pairs every round.  :meth:`Overlay.forward` keeps
single routing steps per ``(at, dst)`` (``_next_hop_cache``) — the
indirect transport forwards every package of a run over the same few
hundred steps, and :meth:`Overlay.route` walks through it too, so
routes that share a suffix share the work.  An implementation that
ever mutates its routing state must clear ``_hop_cache``,
``_hop_table`` and ``_next_hop_cache`` when it does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import as_generator, RngLike

__all__ = ["Overlay", "RouteResult"]


@dataclass
class RouteResult:
    """A resolved route.

    Attributes
    ----------
    path:
        Node indices from source to destination inclusive;
        ``path[0] == src`` and ``path[-1] == dst``.
    """

    path: List[int]

    @property
    def hops(self) -> int:
        """Number of overlay hops (edges traversed)."""
        return len(self.path) - 1


class Overlay(abc.ABC):
    """Abstract structured overlay over ``n_nodes`` rankers."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("overlay needs at least one node")
        self.n_nodes = int(n_nodes)
        #: Memoised :meth:`hops` per ordered pair (see module docstring).
        self._hop_cache: Dict[Tuple[int, int], int] = {}
        #: The same memo as a K×K array for :meth:`hop_counts` (-1 =
        #: not routed yet); allocated on first use.
        self._hop_table: Optional[np.ndarray] = None
        #: Memoised :meth:`next_hop` per ``(at, dst)`` (:meth:`forward`).
        self._next_hop_cache: Dict[Tuple[int, int], int] = {}

    # -- mandatory interface -------------------------------------------
    @abc.abstractmethod
    def neighbors(self, node: int) -> Sequence[int]:
        """Indices of the nodes ``node`` keeps connections to."""

    @abc.abstractmethod
    def next_hop(self, at: int, dst: int) -> int:
        """The node ``at`` forwards to when routing toward ``dst``.

        Must return ``dst`` itself in one or more applications; never
        returns ``at``.
        """

    # -- derived helpers -----------------------------------------------
    def forward(self, at: int, dst: int) -> int:
        """:meth:`next_hop`, computed once per ``(at, dst)``."""
        nxt = self._next_hop_cache.get((at, dst))
        if nxt is None:
            nxt = self._next_hop_cache[(at, dst)] = self.next_hop(at, dst)
        return nxt

    def route(self, src: int, dst: int, *, max_hops: int = 256) -> RouteResult:
        """Full routing path from ``src`` to ``dst``.

        Raises ``RuntimeError`` if the path exceeds ``max_hops`` —
        which would indicate a routing loop and is treated as a bug.
        """
        self._check_node(src)
        self._check_node(dst)
        path = [src]
        at = src
        while at != dst:
            nxt = self.forward(at, dst)
            if nxt == at:
                raise RuntimeError(f"overlay made no progress at node {at} -> {dst}")
            path.append(nxt)
            at = nxt
            if len(path) > max_hops:
                raise RuntimeError(
                    f"route {src}->{dst} exceeded {max_hops} hops; routing loop?"
                )
        return RouteResult(path=path)

    def hops(self, src: int, dst: int) -> int:
        """Hop count of :meth:`route`, routed once per ordered pair."""
        hops = self._hop_cache.get((src, dst))
        if hops is None:
            hops = self._hop_cache[(src, dst)] = self.route(src, dst).hops
        return hops

    def hop_counts(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`hops` of every ``(src[i], dst[i])`` as an int64 array."""
        table = self._hop_table
        if table is None:
            table = self._hop_table = np.full(
                (self.n_nodes, self.n_nodes), -1, dtype=np.int32
            )
        counts = table[src, dst].astype(np.int64)
        for i in np.flatnonzero(counts < 0).tolist():
            s, d = int(src[i]), int(dst[i])
            counts[i] = table[s, d] = self.hops(s, d)
        return counts

    def mean_neighbor_count(self) -> float:
        """Average ``g`` over all nodes (formula 4.3's neighbor count)."""
        return float(
            np.mean([len(self.neighbors(i)) for i in range(self.n_nodes)])
        )

    def sample_mean_hops(
        self, n_samples: int = 1000, *, seed: RngLike = 0
    ) -> float:
        """Monte-Carlo estimate of the mean hop count ``h``.

        Samples ordered (src, dst) pairs uniformly with ``src != dst``
        (when more than one node exists).
        """
        if self.n_nodes == 1:
            return 0.0
        rng = as_generator(seed)
        total = 0
        for _ in range(n_samples):
            src = int(rng.integers(0, self.n_nodes))
            dst = int(rng.integers(0, self.n_nodes - 1))
            if dst >= src:
                dst += 1
            total += self.hops(src, dst)
        return total / n_samples

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")
