"""Push-sum gossip aggregation over the overlay.

Paper §3 notes that in a distributed setting "operations like ‖Ri‖
[are] time-consuming" — which is exactly why Open System PageRank is
designed to avoid global norms.  But a deployment still wants global
aggregates: the average rank (Fig 7's y-axis), the total crawled page
count ``w = |W|`` of formula 3.2, or a global residual for
termination.  Push-sum (Kempe–Dobra–Gehrke) computes such sums/means
with only neighbor gossip:

* every node ``i`` holds a pair ``(s_i, w_i)``, initialized to
  ``(value_i, 1)``;
* each round it keeps half of both and sends the other half to one
  uniformly chosen overlay neighbor;
* ``s_i / w_i`` converges to the network-wide mean of the initial
  values, exponentially fast, because the *mass invariants*
  ``Σ s_i = Σ value_i`` and ``Σ w_i = N`` hold at every instant.

The protocol runs on the same event simulator and overlay as the page
rankers, with the same asynchronous wake-up model.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.net.simulator import Simulator
from repro.overlay.base import Overlay
from repro.utils.rng import as_generator, RngLike
from repro.utils.validation import check_positive

__all__ = ["PushSumProtocol"]


class _PushSumNode:
    __slots__ = ("index", "s", "w")

    def __init__(self, index: int, value: float):
        self.index = index
        self.s = float(value)
        self.w = 1.0

    @property
    def estimate(self) -> float:
        return self.s / self.w if self.w > 0 else 0.0


class PushSumProtocol:
    """Asynchronous push-sum mean estimation over an overlay.

    Parameters
    ----------
    sim, overlay:
        The shared event engine and neighbor structure.
    values:
        One initial value per overlay node; the protocol estimates
        their mean (multiply by ``n`` for the sum).
    mean_wait:
        Mean of each node's exponential gossip interval.
    message_delay:
        One-hop delivery latency for a gossip share.
    """

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        values: Sequence[float],
        *,
        mean_wait: float = 1.0,
        message_delay: float = 0.1,
        seed: RngLike = 0,
    ):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (overlay.n_nodes,):
            raise ValueError(
                f"need one value per node: got {values.shape}, "
                f"overlay has {overlay.n_nodes}"
            )
        check_positive(mean_wait, "mean_wait")
        if message_delay < 0:
            raise ValueError("message_delay must be >= 0")
        self.sim = sim
        self.overlay = overlay
        self.mean_wait = float(mean_wait)
        self.message_delay = float(message_delay)
        self._rng = as_generator(seed)
        self.nodes = [_PushSumNode(i, v) for i, v in enumerate(values)]
        self.true_mean = float(values.mean())
        self.messages_sent = 0
        self.rounds_executed = 0
        self._in_flight_s = 0.0
        self._in_flight_w = 0.0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every node's first gossip round."""
        if self._started:
            raise RuntimeError("protocol already started")
        self._started = True
        for node in self.nodes:
            self.sim.schedule(
                float(self._rng.exponential(self.mean_wait)), self._round, node
            )

    def _round(self, node: _PushSumNode) -> None:
        neighbors = self.overlay.neighbors(node.index)
        if neighbors:
            target = int(neighbors[int(self._rng.integers(0, len(neighbors)))])
            # Keep half, push half.
            share_s, share_w = node.s / 2.0, node.w / 2.0
            node.s -= share_s
            node.w -= share_w
            self._in_flight_s += share_s
            self._in_flight_w += share_w
            self.messages_sent += 1
            self.sim.schedule(
                self.message_delay, self._deliver, target, share_s, share_w
            )
        self.rounds_executed += 1
        self.sim.schedule(
            float(self._rng.exponential(self.mean_wait)), self._round, node
        )

    def _deliver(self, target: int, share_s: float, share_w: float) -> None:
        node = self.nodes[target]
        node.s += share_s
        node.w += share_w
        self._in_flight_s -= share_s
        self._in_flight_w -= share_w

    # ------------------------------------------------------------------
    def estimates(self) -> np.ndarray:
        """Current per-node estimates of the global mean."""
        return np.array([n.estimate for n in self.nodes])

    def max_relative_error(self) -> float:
        """Worst per-node deviation from the true mean (0 mean ⇒ abs)."""
        est = self.estimates()
        scale = abs(self.true_mean) if self.true_mean != 0 else 1.0
        return float(np.abs(est - self.true_mean).max() / scale)

    def mass_invariants(self) -> Dict[str, float]:
        """The conservation laws push-sum relies on.

        Includes mass carried by in-flight messages (the simulator's
        pending deliveries), so the sums are exact at any instant the
        caller inspects them between events.
        """
        total_s = sum(n.s for n in self.nodes) + self._in_flight_s
        total_w = sum(n.w for n in self.nodes) + self._in_flight_w
        return {"sum_s": total_s, "sum_w": total_w}

    def run_until_accurate(
        self,
        tolerance: float = 1e-6,
        *,
        check_interval: float = 1.0,
        max_time: float = 10_000.0,
    ) -> Optional[float]:
        """Run the simulation until every node's estimate is within
        ``tolerance`` of the true mean; returns the convergence time
        (None if ``max_time`` elapsed first).

        In-flight shares make the node-local sums fluctuate, so the
        check samples between events at a fixed cadence.
        """
        if not self._started:
            self.start()
        check_positive(check_interval, "check_interval")
        deadline = self.sim.now + max_time
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + check_interval, deadline))
            if self.max_relative_error() <= tolerance:
                return self.sim.now
            if self.sim.peek_time() is None:  # pragma: no cover - safety
                break
        return None
