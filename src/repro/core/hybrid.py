"""Hybrid flat/event execution engine — the fault-tolerant fast path.

The flat engine (:class:`~repro.core.engine.SynchronousEngine`) runs a
bulk-synchronous round as three sparse kernels but is failure-free;
the event engine (:class:`~repro.core.coordinator.DistributedRun`)
simulates every fault subsystem but pays one Python event per message.
:class:`HybridEngine` combines them: **compute stays flat** (the same
per-group Jacobi/DPR2 kernels over one concatenated rank vector) while
**messaging and faults run on a persistent event-simulated "fault
plane"** — a real :class:`~repro.net.simulator.Simulator` carrying the
real transport stack (:func:`~repro.net.transport.build_transport`,
optionally wrapped in :class:`~repro.net.reliable.ReliableTransport`),
the crash/pause injectors, the heartbeat detector, and the
checkpoint/recovery layer, all driven over lightweight *shadow
rankers* that bridge the flat engine's state slices.

Execution model (one round at tick ``t``):

1. advance the fault plane to ``t`` — crashes, pauses, heartbeat
   sweeps, checkpoints, takeovers, retransmissions, and in-flight
   deliveries up to the tick all land exactly as the event engine
   would interleave them (they share one timeline, so a crash firing
   mid-delivery-window swallows exactly the deliveries the event
   engine drops);
2. step every *eligible* group (alive, unpaused, and — under the
   async schedule — due per its rate credit) with the flat per-group
   kernels, mirroring :meth:`repro.core.dpr.DPRNode.step` bit for bit;
3. emit each stepping group's compressed cut segments as real
   :class:`~repro.net.message.ScoreUpdate` payloads through the fault
   plane's transport (byte accounting reads ``n_link_records``, so
   compressed payloads cost exactly what dense ones do), where loss,
   chaos, ARQ, and sequence numbering behave identically to the event
   engine.

Steps 2 and 3 are the flat engine's own
:meth:`~repro.core.engine.SynchronousEngine._step_groups` and emit
step (``_build_sends`` → accounting backend → ``_apply``), called with
the stepping subset instead of every group.  This module adds two
accounting backends beside the inherited round ledger: the fault
plane's real transport, and — for reliable + direct configs — the
round-granular :class:`_ReplayARQ`.  The fault stack itself is built
by the same :class:`~repro.core.faultplane.FaultPlane` the event
engine uses, over the shadows.

When the config needs no fault plane and no approximation (sync
schedule, no faults, no suppression) the engine *is* the flat engine:
every round runs the inherited three-kernel path and the result is
bit-identical to ``engine="flat"`` — and therefore to the event
engine.  Rounds are counted either way (``fast_rounds`` vs
``replayed_rounds`` in the :class:`~repro.core.coordinator.RunResult`).

Equivalence contracts (verified by ``tests/test_hybrid.py``; see
DESIGN.md §13 for the full argument):

* **exact** — sync fault-free configs: bit-identical ranks, traffic,
  and trace versus both the flat and event engines;
* **approximate** — faulted or async configs: the run reports
  ``fidelity="approximate"`` and reconverges to the same ε verdict as
  the event engine.  The known divergence sources are all timing
  artifacts, not state corruption: recovered replacements re-step on
  the round grid instead of the event engine's off-grid wake chain,
  async wake jitter is replaced by a per-group rate credit
  (``period / mean_wait`` steps per round on average, at most one
  step per round), and exact event-time ties (a retransmit timer
  landing precisely on a wake) may order differently.

Async approximation: each group accumulates ``period / mean_wait_g``
of *credit* per round and steps when credit reaches 1 (consuming it);
credit is capped at 1 so a paused or crashed group cannot bank a
burst, and paused/crashed groups still consume due credit, matching
the event engine's paused rankers burning their wake chain.  Mean
waits come from ``config.mean_waits`` or the same named
``"wait-means"`` stream the event engine draws.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.capabilities import requested_features
from repro.core.coordinator import DistributedConfig, config_transport
from repro.core.engine import SynchronousEngine
from repro.core.faultplane import FaultPlane
from repro.core.ranker import MIN_MEAN_WAIT
from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import csr_matvec_into
from repro.net.failures import ChaosModel
from repro.net.message import (
    ACK_MESSAGE_BYTES,
    LINK_RECORD_BYTES,
    LOOKUP_MESSAGE_BYTES,
    PACKAGE_HEADER_BYTES,
    ScoreUpdate,
)
from repro.net.reliable import RetryPolicy
from repro.net.simulator import Simulator

__all__ = ["HybridEngine"]

#: Capability-table features that run as fault-plane processes.
_PLANE_FEATURES = frozenset(
    {"pause", "crash", "heartbeat", "checkpoint", "recovery"}
)


class _ShadowNode:
    """DPRNode-shaped view of one group's slice of the flat state.

    Implements exactly the :class:`~repro.core.dpr.DPRNode`
    ``state_dict``/``load_state_dict`` contract the checkpoint and
    recovery layers consume, reading and writing the engine's global
    arrays in place.  Snapshots keep afferent vectors in the engine's
    *compressed* (nonzero-row) form — the format only has to round-trip
    within the hybrid engine, and the compressed scatter re-sums to the
    same bits as the dense refresh (see the flat engine's docstring).
    """

    __slots__ = ("engine", "group")

    def __init__(self, engine: "HybridEngine", group: int):
        self.engine = engine
        self.group = group

    def state_dict(self) -> dict:
        eng, g = self.engine, self.group
        return {
            "group": g,
            "mode": eng.config.algorithm,
            "r": eng._r[eng._slices[g]].copy(),
            "latest_values": {
                src: vec.copy() for src, vec in eng._latest[g].items()
            },
            "latest_gen": dict(eng._gen_latest[g]),
            "outer_iterations": int(eng._outer[g]),
            "inner_sweeps": int(eng._inner_sweeps[g]),
            "stale_updates": int(eng._stale[g]),
        }

    def load_state_dict(self, state: dict) -> None:
        eng, g = self.engine, self.group
        np.copyto(eng._r[eng._slices[g]], state["r"])
        eng._latest[g] = {
            src: np.array(vec, dtype=np.float64)
            for src, vec in state["latest_values"].items()
        }
        eng._gen_latest[g] = dict(state["latest_gen"])
        eng._outer[g] = int(state["outer_iterations"])
        eng._inner_sweeps[g] = int(state["inner_sweeps"])
        eng._stale[g] = int(state["stale_updates"])
        # Force an X refresh from the restored afferent vectors on the
        # group's next step (DPRNode.load_state_dict marks X dirty).
        eng._mail.add(g)


class _ShadowRanker:
    """PageRanker-shaped façade over one group for the fault plane.

    Satisfies the duck-typed contract shared by the injectors
    (writable ``paused``/``crashed``), the heartbeat monitor
    (``crashed``), the checkpointer (``group``, ``node``), and the
    recovery manager (``node``, ``start``).  It owns no wake chain —
    the engine's round loop decides who steps — so ``start`` only
    marks the shadow live.
    """

    __slots__ = ("node", "group", "paused", "crashed", "started")

    def __init__(self, engine: "HybridEngine", group: int):
        self.node = _ShadowNode(engine, group)
        self.group = group
        self.paused = False
        self.crashed = False
        self.started = False

    def start(self, *, initial_delay: Optional[float] = None) -> None:
        self.started = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_ShadowRanker(group={self.group}, paused={self.paused}, "
            f"crashed={self.crashed})"
        )


class _ReplayARQ:
    """Round-granular ARQ protocol replay for reliable+direct configs.

    Running the reliable transport on the fault plane is *exact* but
    pays one simulator event per transmission, retransmission, and ACK
    — at 1e5-page churn that costs nearly as much as the full event
    engine.  This replay collapses each logical message's whole ARQ
    conversation (attempts, chaos duplicates, ACKs, ACK losses,
    retransmissions, give-ups) into a tight loop at the *sending round*
    instead of spreading it along the timeout/backoff timeline:

    * every wire attempt re-rolls the origin loss model and is
      accounted exactly as :class:`~repro.net.transport.DirectTransport`
      would (per-send DHT lookup at the overlay's memoised hop count, one
      end-to-end data message, one ACK per live delivery);
    * chaos draws (duplicate, ACK-loss, reorder) come from the same
      named streams the event engine seeds, so the replay is
      deterministic — but consumed in round order rather than timer
      order, which is the documented ε-level divergence of counters
      like ``retransmits`` on faulted configs;
    * sequence numbers advance one per logical message per (src, dst)
      pair, identical to :class:`~repro.net.reliable.ReliableTransport`
      numbering, and :meth:`window_state` reports the same shape for
      the continuity tests.

    Rank-state fidelity: with ARQ a payload reaches any *live*
    destination with probability ``1 - p_fail^(1+max_retries)`` ≈ 1;
    the replay applies it in the sending round, whereas the event
    engine's retransmitted copies can spill past a round boundary.
    DPR's staleness tolerance (Theorems 4.1/4.2) bounds the effect —
    this is the same approximation class as the async rate credit.
    """

    def __init__(
        self,
        *,
        loss,
        chaos: ChaosModel,
        retry: RetryPolicy,
        accountant,
        overlay,
        jitter_rng,
    ):
        self.loss = loss
        self.chaos = chaos
        self.retry = retry
        self.accountant = accountant
        self.overlay = overlay
        self._rng = jitter_rng
        self._next_seq: Dict[Tuple[int, int], int] = {}
        # Same counter names as ReliableTransport.stats().
        self.retransmits = 0
        self.gave_up = 0
        self.dup_drops = 0
        self.dead_drops = 0
        self.acks_lost = 0
        self.chaos_duplicates = 0
        self.stale_acks = 0
        #: Origin-loss drops across all attempts (inner-transport view).
        self.dropped_updates = 0

    def _transmission(
        self, src: int, dst: int, payload_bytes: int, alive: bool,
        delivered_before: bool, paper_bytes: Optional[int] = None,
    ) -> Tuple[bool, bool]:
        """One wire attempt; returns (delivered fresh, ACK got back)."""
        if not self.loss.delivered(src, dst):
            self.dropped_updates += 1
            return False, False
        acc = self.accountant
        if src != dst:
            acc.record_lookup(
                src, self.overlay.hops(src, dst), LOOKUP_MESSAGE_BYTES
            )
        acc.record_data_message(
            src,
            dst,
            PACKAGE_HEADER_BYTES + payload_bytes,
            paper_bytes=(
                None
                if paper_bytes is None
                else PACKAGE_HEADER_BYTES + paper_bytes
            ),
        )
        if not alive:
            self.dead_drops += 1
            return False, False
        fresh = not delivered_before
        if not fresh:
            self.dup_drops += 1
        # ACK unconditionally (duplicates included), as the receiver does.
        acc.record_ack(dst, src, ACK_MESSAGE_BYTES)
        if self.chaos.active and self.chaos.ack_lost():
            self.acks_lost += 1
            return fresh, False
        return fresh, True

    def send(
        self,
        src: int,
        dst: int,
        payload_bytes: int,
        alive: bool,
        paper_bytes: Optional[int] = None,
    ) -> bool:
        """Replay one logical message's full ARQ chain.

        Returns True when the payload reached a live destination on any
        attempt (at-least-once delivery with an idempotent receiver).
        ``paper_bytes`` carries the flat §4.4 payload charge when
        ``payload_bytes`` is an encoded frame size (codec runs); every
        attempt — retransmissions and chaos duplicates included —
        resends the same frame, so both charges ride the whole chain.
        """
        pair = (src, dst)
        self._next_seq[pair] = self._next_seq.get(pair, 0) + 1
        chaos = self.chaos
        delivered = False
        acked = False
        attempts = 0
        while True:
            if chaos.active:
                chaos.reorder_delay()  # timing-only draw (stream parity)
            fresh, got_ack = self._transmission(
                src, dst, payload_bytes, alive, delivered, paper_bytes
            )
            delivered = delivered or fresh
            acked = acked or got_ack
            if chaos.active and chaos.duplicate():
                self.chaos_duplicates += 1
                fresh, got_ack = self._transmission(
                    src, dst, payload_bytes, alive, delivered, paper_bytes
                )
                delivered = delivered or fresh
                acked = acked or got_ack
            # The event engine arms an ACK timer per staged attempt.
            self.retry.delay(attempts, self._rng)
            if acked:
                return delivered
            if attempts >= self.retry.max_retries:
                self.gave_up += 1
                return delivered
            attempts += 1
            self.retransmits += 1

    def window_state(self) -> Dict[Tuple[int, int], Dict[str, object]]:
        """ReliableTransport-shaped window snapshot.

        Every ARQ conversation resolves inside its sending round, so
        ``pending`` is always empty; ``next_seq`` advances exactly as
        the event engine's per-pair numbering.
        """
        return {
            pair: {"next_seq": nxt, "pending": []}
            for pair, nxt in self._next_seq.items()
        }


class HybridEngine(SynchronousEngine):
    """Flat-kernel rounds over a persistent event-simulated fault plane.

    Select with ``DistributedConfig(engine="hybrid")`` — or simply ask
    for ``engine="flat"`` with fault knobs or ``schedule="async"``;
    :func:`~repro.core.capabilities.resolve_engine` dispatches here
    automatically.  Construction mirrors the flat engine (same
    partition/overlay/loss from the same named seed streams), then
    adds the fault plane only when the config needs it.
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        super().__init__(
            graph, config, partition=partition, reference=reference
        )
        cfg = config
        k = cfg.n_groups
        seeds = self._seeds

        # Fault-plane processes (injectors/heartbeat/checkpoint/recovery)
        # need the persistent simulator regardless of data path.
        plane = not _PLANE_FEATURES.isdisjoint(requested_features(cfg))
        fault_world = bool(cfg.reliable or plane)
        # Reliable+direct data traffic runs the round-granular ARQ
        # replay (the fast path the chaos bench gates); reliable over
        # the indirect transport keeps full world-mode fidelity.
        arq_mode = bool(cfg.reliable and cfg.transport == "direct")
        self._async = cfg.schedule == "async"
        self._approx = self._async or fault_world or cfg.suppress_tol > 0.0
        #: Rounds run on the pure inherited flat path.
        self._fast_rounds = 0
        #: Rounds whose messaging went through the fault plane or the
        #: transport replay (the approximate paths).
        self._replayed_rounds = 0

        self._fsim: Optional[Simulator] = None
        self._transport = None
        self._arq: Optional[_ReplayARQ] = None
        self._faults: Optional[FaultPlane] = None

        # Async rate credits (sync runs at rate 1: every group steps
        # each round unless paused/crashed), from the same per-group
        # mean waits the event engine gives its rankers.
        self._rates = np.array(
            [
                self.period / max(w, MIN_MEAN_WAIT)
                for w in self._group_mean_waits()
            ],
            dtype=np.float64,
        )
        self._credit = np.zeros(k, dtype=np.float64)

        self._shadows: List[_ShadowRanker] = [
            _ShadowRanker(self, g) for g in range(k)
        ]

        if not fault_world:
            return

        # Reliable+direct data traffic needs no simulator of its own;
        # only the fault-plane *processes* (if any) do.
        inner = None
        if plane or not arq_mode:
            self._fsim = Simulator()
        if not arq_mode:
            # The fault plane carries the real transport.  It reuses
            # the base constructor's loss model instance, so the "loss"
            # stream is consumed exactly once, per send attempt, in the
            # same order as the event engine's stack, and it records
            # into the *main* accountant at event-simulated send and
            # delivery times — the same counter arithmetic as the event
            # engine, ACK bytes included.
            inner = config_transport(
                cfg, self._fsim, self.overlay, self.accountant, self._loss
            )
        self._faults = FaultPlane(
            self._fsim,
            self._shadows,
            cfg,
            seeds,
            self._make_replacement,
            transport=inner,
        )
        if arq_mode:
            self._arq = self._faults.reliable = _ReplayARQ(
                loss=self._loss,
                chaos=self._faults.chaos,
                retry=self._faults.retry,
                accountant=self.accountant,
                overlay=self.overlay,
                jitter_rng=seeds.generator("retry-jitter"),
            )
        else:
            self._transport = self._faults.transport
            self._transport.attach(self._on_deliver)
        self._faults.install()
        # Started here (fsim.now == 0) rather than in run(): identical
        # to the event engine starting them before its sim advances.
        self._faults.start()

    # ------------------------------------------------------------------
    # Fault-plane callbacks
    # ------------------------------------------------------------------
    def _make_replacement(self, g: int, epoch: int) -> _ShadowRanker:
        """Recovery factory: reset group ``g`` to blank-node state.

        Mirrors the event engine's fresh :class:`DPRNode` (zero ranks,
        empty afferent memory, zeroed counters); the recovery manager
        restores the latest checkpoint on top, if one exists.
        """
        sl = self._slices[g]
        self._r[sl] = 0.0
        self._x[sl] = 0.0
        self._latest[g] = {}
        self._gen_latest[g] = {}
        self._outer[g] = 0
        self._inner_sweeps[g] = 0
        self._stale[g] = 0
        self._last_delta[g] = np.inf
        self._credit[g] = 0.0
        self._mail.discard(g)
        # A fresh ranker has sent nothing yet.
        for h in self._pair_dst[self._src_pairs[g]].tolist():
            self._last_sent.pop((g, h), None)
        return _ShadowRanker(self, g)

    def _on_deliver(self, dst: int, update: ScoreUpdate) -> None:
        """Transport upcall: land the update unless the group is dead."""
        if self._faults.reliable is None and self._shadows[dst].crashed:
            # Plain transports deliver into the dead group's ranker,
            # which drops on the floor (PageRanker.receive); the
            # reliable wrapper's alive-oracle already dead-dropped.
            return
        self._apply(update.src_group, dst, update.values, update.generation)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _stepping_groups(self) -> List[int]:
        """Groups that step this round: due, alive, and unpaused."""
        k = self.config.n_groups
        if self._async:
            np.add(self._credit, self._rates, out=self._credit)
            due = self._credit >= 1.0
            # Due groups consume their credit whether or not they are
            # eligible — a paused event ranker burns its wakes too.
            self._credit[due] -= 1.0
            np.clip(self._credit, 0.0, 1.0, out=self._credit)
        out: List[int] = []
        for g in range(k):
            if self._async and not due[g]:
                continue
            shadow = self._shadows[g]
            if shadow.crashed or shadow.paused:
                continue
            out.append(g)
        return out

    def _emit(self, sends: Tuple[np.ndarray, np.ndarray], t: float) -> None:
        """Account and deliver ``sends`` through the config's backend.

        * **ARQ replay** (reliable + direct): each send's whole ARQ
          conversation resolves now; a payload that reaches a live
          destination applies in the sending round (straight from the
          send's view, no per-message copy — the chain resolves before
          the buffer is reused).
        * **fault plane**: real :class:`ScoreUpdate` payloads through
          the plane's transport, one ``send_updates`` per source; they
          land through :meth:`_on_deliver` when the simulator reaches
          their delivery time.  Payloads are copied: the Y buffer and
          the codec mirror are rewritten next round, and the ARQ layer
          must retransmit the *original* payload (every resend ships
          the same object).
        * otherwise the inherited **round ledger** — the round set is
          perturbed only by the async credit mask and/or suppression.
        """
        if self._arq is None and self._transport is None:
            super()._emit(sends, t)
            return
        shipped = [
            (*self._pairs[p], wire_bytes)
            for p, wire_bytes in zip(sends[0].tolist(), sends[1].tolist())
        ]
        if self._arq is not None:
            for g, h, csl, _, records, wire_bytes in shipped:
                # The payload is the encoded frame if there is one,
                # else the flat §4.4 charge, which rides beside it
                # either way.
                paper = records * LINK_RECORD_BYTES
                if self._arq.send(
                    g,
                    h,
                    paper if wire_bytes < 0 else wire_bytes,
                    not self._shadows[h].crashed,
                    paper_bytes=paper,
                ):
                    self._apply(g, h, self._held[csl], int(self._outer[g]))
            return
        for g, batch in groupby(shipped, key=lambda send: send[0]):
            gen = int(self._outer[g])
            self._transport.send_updates(
                g,
                [
                    ScoreUpdate(
                        src_group=g,
                        dst_group=h,
                        values=self._held[csl].copy(),
                        n_link_records=records,
                        generation=gen,
                        sent_at=t,
                        wire_bytes=wire_bytes,
                    )
                    for _, h, csl, _, records, wire_bytes in batch
                ],
            )

    def _round(self, t: float) -> None:
        if not self._approx:
            super()._round(t)
            self._fast_rounds += 1
            return
        # Everything scheduled before this tick lands first:
        # deliveries, crashes, pauses, heartbeats, checkpoints,
        # takeovers, ACK timeouts — in event order.  ``t`` is the run
        # loop's own tick clock, so the fault plane's "now" is bitwise
        # the loop's at every round.
        self._sync_to(t)
        stepping = self._stepping_groups()
        self._step_groups(stepping)
        csr_matvec_into(self._cut, self._r, self._y)
        self._emit(self._build_sends(stepping), t)
        if self._transport is not None:
            # Zero-delay deliveries (hop_delay=0) land at t, exactly as
            # the event simulator keeps draining same-time events.
            self._fsim.run(until=t)
        self._replayed_rounds += 1

    # ------------------------------------------------------------------
    # Run-loop hooks (see RoundEngine)
    # ------------------------------------------------------------------
    def _sync_to(self, t: float) -> None:
        # Idempotent with the round's own advance
        # (Simulator.run(until=now) is a no-op).
        if self._fsim is not None:
            self._fsim.run(until=t)

    def _dropped_total(self) -> int:
        if self._transport is not None:
            # World mode: origin loss fires inside the real transport.
            return int(self._transport.dropped_updates)
        if self._arq is not None:
            # ARQ replay: origin loss re-rolls per wire attempt.
            return self._arq.dropped_updates
        return self.dropped_updates

    def _extra_result_fields(self, now: float) -> Dict:
        fields: Dict = {
            "fidelity": "approximate" if self._approx else "exact",
            "fast_rounds": self._fast_rounds,
            "replayed_rounds": self._replayed_rounds,
        }
        if self._faults is not None:
            fields.update(self._faults.counters(now))
        return fields
