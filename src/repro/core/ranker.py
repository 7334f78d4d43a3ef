"""A page ranker as an asynchronous simulator process.

Implements the outer loops of Algorithms 3/4 on the event simulator
with the paper's experimental timing model (§5):

* each group ``u`` draws a *mean* waiting time uniformly from
  ``[T1, T2]`` once, then waits ``Tw(u, m) ~ Exponential(mean_u)``
  before every loop step ``m``;
* rankers start at independent random times, run at different speeds,
  and may be paused ("sleep … suspend … or even shutdown", §4.2) —
  pausing skips whole loop steps while the inbox keeps accumulating;
* after computing, the ranker emits its efferent vectors through
  whichever transport it was wired to; the transport applies loss.

Extension (paper's "future work" on reducing traffic): when
``suppress_tol > 0`` a destination is skipped if the efferent vector
changed by less than the threshold since it was last sent — delta
suppression, measured by the compression ablation bench.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.dpr import DPRNode
from repro.core.open_system import GroupSystem
from repro.net.message import ScoreUpdate
from repro.net.simulator import Simulator
from repro.net.transport import Transport
from repro.utils.rng import as_generator, RngLike
from repro.utils.validation import check_non_negative

__all__ = ["PageRanker"]

#: Waits are clamped below to keep a mean of exactly 0 (possible when
#: T1 = T2 = 0) from livelocking the event loop at one instant.
MIN_MEAN_WAIT = 1e-3


class PageRanker:
    """Simulator process wrapping one :class:`DPRNode`.

    Parameters
    ----------
    sim, node, system, transport:
        The event engine, the algorithmic state, the shared group
        decomposition, and the wire.
    mean_wait:
        This ranker's mean waiting time (drawn from ``[T1, T2]`` by the
        coordinator).
    seed:
        Seeds the ranker's private exponential-wait stream.
    suppress_tol:
        Delta-suppression threshold (0 disables; see module docs).
    fixed_wait:
        When True, every wait is exactly ``mean_wait`` instead of an
        exponential draw — the *synchronous schedule* used to verify
        the flat execution engine against the event engine (all
        rankers tick in lockstep; see :mod:`repro.core.engine`).
    codec:
        Shared :class:`~repro.net.adaptive.AdaptiveCodec` session
        manager (None disables).  When set, every emission is
        delta-encoded against the pair's reconstruction mirror: the
        shipped values are the receiver's exact post-frame state, the
        update's ``wire_bytes`` carries the calibrated frame size, and
        emissions the budget lets the codec suppress entirely count in
        :attr:`suppressed_sends`.  Mutually exclusive with
        ``suppress_tol`` (enforced by config validation).
    """

    def __init__(
        self,
        sim: Simulator,
        node: DPRNode,
        system: GroupSystem,
        transport: Transport,
        *,
        mean_wait: float = 1.0,
        seed: RngLike = 0,
        suppress_tol: float = 0.0,
        fixed_wait: bool = False,
        codec=None,
    ):
        self.sim = sim
        self.node = node
        self.system = system
        self.transport = transport
        self.mean_wait = max(check_non_negative(mean_wait, "mean_wait"), MIN_MEAN_WAIT)
        self.suppress_tol = check_non_negative(suppress_tol, "suppress_tol")
        self.codec = codec
        self.fixed_wait = bool(fixed_wait)
        self._rng = as_generator(seed)
        self.paused = False
        #: Permanent failure (§4.2's "shutdown"): a crashed ranker's
        #: wake chain dies, its inbox goes dark, and it never comes
        #: back — recovery happens by *replacement*, not resumption
        #: (see repro.core.recovery).
        self.crashed = False
        self.started = False
        #: Last efferent vector sent per destination (delta suppression).
        self._last_sent: Dict[int, np.ndarray] = {}
        #: Sends skipped because the vector hadn't changed enough.
        self.suppressed_sends = 0
        #: Loop steps skipped while paused.
        self.skipped_wakes = 0
        #: Updates that arrived after this ranker crashed (dropped).
        self.dropped_while_crashed = 0

    # ------------------------------------------------------------------
    @property
    def group(self) -> int:
        return self.node.group

    def start(self, *, initial_delay: Optional[float] = None) -> None:
        """Schedule the first wake-up.

        By default the first wake is one exponential wait out, so
        rankers start at independent random times as in the paper's
        setup.
        """
        if self.started:
            raise RuntimeError("ranker already started")
        self.started = True
        delay = self._draw_wait() if initial_delay is None else float(initial_delay)
        self.sim.schedule(delay, self._on_wake)

    def receive(self, update: ScoreUpdate) -> None:
        """Transport upcall: stash an afferent update for the next refresh."""
        if self.crashed:
            self.dropped_while_crashed += 1
            return
        self.node.receive(update)

    # ------------------------------------------------------------------
    def _draw_wait(self) -> float:
        if self.fixed_wait:
            return self.mean_wait
        return float(self._rng.exponential(self.mean_wait))

    def _on_wake(self) -> None:
        if self.crashed:
            # Permanent: do not reschedule — the wake chain ends here.
            return
        if self.paused:
            # A paused ranker does nothing this round — not even send —
            # but keeps its timer alive so it resumes naturally.
            self.skipped_wakes += 1
            self.sim.schedule(self._draw_wait(), self._on_wake)
            return
        r = self.node.step()
        self._emit(r)
        self.sim.schedule(self._draw_wait(), self._on_wake)

    def _emit(self, r: np.ndarray) -> None:
        """Compute Y per destination and hand it to the transport.

        ``system.efferent`` is one stacked SpMV; the per-destination
        vectors are views into one fresh array per emit, which is safe
        to hand to in-flight messages (the array is never reused — a
        double-buffered ``efferent_into`` would alias updates still
        sitting in transport queues).
        """
        updates = []
        for dst, values in self.system.efferent(self.group, r).items():
            wire_bytes = -1
            if self.codec is not None:
                frame = self.codec.encode_pair(self.group, dst, values)
                if frame is None:
                    self.suppressed_sends += 1
                    continue
                # The mirror mutates on the pair's next encode, and the
                # update may still be in flight then — copy at send.
                values = frame.values.copy()
                wire_bytes = frame.wire_bytes
            elif self.suppress_tol > 0.0:
                prev = self._last_sent.get(dst)
                if prev is not None and np.abs(values - prev).sum() <= self.suppress_tol:
                    self.suppressed_sends += 1
                    continue
                self._last_sent[dst] = values.copy()
            updates.append(
                ScoreUpdate(
                    src_group=self.group,
                    dst_group=dst,
                    values=values,
                    n_link_records=self.system.cross_records(self.group, dst),
                    generation=self.node.outer_iterations,
                    wire_bytes=wire_bytes,
                )
            )
        if updates:
            self.transport.send_updates(self.group, updates)
