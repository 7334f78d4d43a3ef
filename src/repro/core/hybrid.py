"""Hybrid flat/event execution engine — the fault-tolerant fast path.

The flat engine (:class:`~repro.core.engine.SynchronousEngine`) runs a
bulk-synchronous round as three sparse kernels but is failure-free;
the event engine (:class:`~repro.core.coordinator.DistributedRun`)
simulates every fault subsystem but pays one Python event per message
and one wake per ranker step.  :class:`HybridEngine` combines them:
**compute stays flat** (the same group step over the same flat state,
stepping every due group of a round together) while **messaging and
faults run on a persistent event-simulated "fault plane"** — a real
:class:`~repro.net.simulator.Simulator` carrying the real transport
stack (:func:`~repro.net.transport.build_transport`, optionally wrapped
in :class:`~repro.net.reliable.ReliableTransport`), the crash/pause
injectors, the heartbeat detector, and the checkpoint/recovery layer,
all driven over bare ranker entries (:class:`repro.core.ranker.Ranker`)
whose ``node`` is the group's share of the flat state.

A round is the flat engine's own (:meth:`SynchronousEngine._round
<repro.core.engine.SynchronousEngine._round>`: refresh ``X = F·recv``,
compute, emit ``Y``, land — one body, one receiver memory, for both
engines).  This class changes two things about it, and adds the
machinery they need:

* **who steps** — :meth:`HybridEngine._stepping_groups`: the groups
  that are alive, unpaused and — under the async schedule — due per
  their rate credit.  When that is every group the round takes the
  whole-system dpr2 sweep, exactly as a flat round does; otherwise
  the group step runs group by group, as an event wake runs it;
* **how sends are charged** — :meth:`HybridEngine._emit` routes the
  stepping groups' sends through one of three accounting backends:
  the inherited round ledger; the fault plane's real transport (real
  :class:`~repro.net.message.ScoreUpdate` payloads, so loss, chaos, ARQ
  and sequence numbering behave identically to the event engine, each
  delivery queued by the event engine's own upcall and landed through
  the one receive rule); or — reliable + direct configs — the
  round-granular :class:`_ReplayARQ`, which resolves the round's ARQ
  conversations as array waves and charges them in closed form.

Before a round (and before every sample) the fault plane advances to
the tick (:meth:`HybridEngine._sync_to`) — crashes, pauses, heartbeat
sweeps, checkpoints, takeovers, retransmissions, and in-flight
deliveries up to ``t`` all land exactly as the event engine would
interleave them (they share one timeline, so a crash firing
mid-delivery-window swallows exactly the deliveries the event engine
drops).  A checkpoint, restore or blank replacement is two gathers or
scatters over the receiver memory, in the format the event engine's
rankers checkpoint in.  The fault stack itself is built by the same
:class:`~repro.core.faultplane.FaultPlane` the event engine uses.

Equivalence contracts (verified by ``tests/test_hybrid.py``; see
DESIGN.md §13 for the full argument):

* **exact** — a config that needs no fault plane and no approximation
  (sync schedule, no faults, no suppression) steps every group and
  charges through the round ledger, i.e. runs the flat round:
  bit-identical ranks, traffic, and trace versus both the flat and
  event engines (``fast_rounds``);
* **approximate** — faulted or async configs (``replayed_rounds``): the
  run reports ``fidelity="approximate"`` and reconverges to the same ε
  verdict as the event engine.  The known divergence sources are all
  timing artifacts, not state corruption: recovered replacements
  re-step on the round grid instead of the event engine's off-grid wake
  chain, async wake jitter is replaced by a per-group rate credit, ARQ
  conversations resolve inside their sending round, and exact
  event-time ties may order differently.

Async approximation: each group accumulates ``period / mean_wait_g``
of *credit* per round and steps when credit reaches 1 (consuming it);
credit is capped at 1 so a paused or crashed group cannot bank a
burst, and paused/crashed groups still consume due credit, matching
the event engine's paused rankers burning their wake chain.  Mean
waits come from ``config.mean_waits`` or the same named
``"wait-means"`` stream the event engine draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.capabilities import needs_fault_plane
from repro.core.coordinator import MIN_MEAN_WAIT, DistributedConfig, config_transport
from repro.core.engine import SynchronousEngine
from repro.core.faultplane import FaultPlane
from repro.core.ranker import Ranker
from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.net.failures import ChaosModel
from repro.net.reliable import RetryPolicy
from repro.net.simulator import Simulator
from repro.net.transport import charge_direct_round

__all__ = ["HybridEngine"]


class _ReplayARQ:
    """Round-granular ARQ protocol replay for reliable+direct configs.

    Running the reliable transport on the fault plane is *exact* but
    pays one simulator event per transmission, retransmission, and ACK
    — at 1e5-page churn nearly the full event engine's cost.  This
    replay resolves a round's ARQ conversations (attempts, chaos
    duplicates, ACKs, ACK losses, retransmissions, give-ups) together
    at the *sending round*, as array *attempt waves*:

    * wave ``k`` puts every still-unacknowledged message on the wire —
      twice where chaos duplicates it — drawing, in this order, a
      duplicate verdict per waiting message (``"chaos"`` stream), an
      origin-loss verdict per transmission, first copies then
      duplicates (``"loss"``), and an ACK-loss verdict per copy that
      reached a live group (``"chaos"``).  Same named streams as the
      event engine, consumed wave by wave instead of in timer order:
      the documented ε-level divergence of counters like
      ``retransmits``.  Draws that only move a transmission in time
      (reorder delay, retry-timer jitter) price nothing here and are
      not made;
    * the round is charged once, in closed form
      (:func:`~repro.net.transport.charge_direct_round` weighted by
      each message's transmission and ACK counts) — byte for byte what
      ``DirectTransport`` + ``ReliableTransport`` charge per copy;
    * sequence numbers advance one per logical message per pair, as
      :class:`~repro.net.reliable.ReliableTransport` numbers them.

    Rank-state fidelity: a payload reaches any *live* destination with
    probability ``1 - p_fail^(1+max_retries)`` ≈ 1 and lands in the
    sending round, whereas the event engine's retransmitted copies can
    spill past a round boundary.  DPR's staleness tolerance (Theorems
    4.1/4.2) bounds the effect — the async rate credit's approximation
    class.
    """

    def __init__(
        self, loss, chaos: ChaosModel, retry: RetryPolicy, accountant, overlay,
        pair_src: np.ndarray, pair_dst: np.ndarray,
    ):
        self.loss = loss
        self.chaos = chaos
        self.retry = retry
        self.accountant = accountant
        self.overlay = overlay
        self._src = pair_src
        self._dst = pair_dst
        self._next_seq = np.zeros(pair_src.size, dtype=np.int64)
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

    def resolve(
        self,
        idx: np.ndarray,
        records: np.ndarray,
        wire_bytes: np.ndarray,
        alive: np.ndarray,
    ) -> np.ndarray:
        """Replay the full ARQ chains of one round's logical messages:
        the pairs ``idx`` with their record counts and encoded frame
        sizes (-1 uncoded; every copy resends the same frame).  Returns
        the mask of messages that reached a live destination (``alive``
        per group) on any attempt — at-least-once delivery."""
        n = idx.size
        src, dst = self._src[idx], self._dst[idx]
        self._next_seq[idx] += 1
        up = alive[dst]
        copies = np.zeros(n, dtype=np.int64)  # transmissions on the wire
        acks = np.zeros(n, dtype=np.int64)  # of which reached a live group
        waiting = np.arange(n)
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                self.retransmits += waiting.size
            dup = self.chaos.duplicates(waiting.size)
            self.chaos_duplicates += int(np.count_nonzero(dup))
            sent = np.concatenate([waiting, waiting[dup]])
            wire = sent[self.loss.delivered_batch(sent.size)]
            self.dropped_updates += sent.size - wire.size
            copies += np.bincount(wire, minlength=n)
            # The receiver ACKs every copy, duplicates included.
            landed = wire[up[wire]]
            acks += np.bincount(landed, minlength=n)
            lost = self.chaos.acks_lost(landed.size)
            self.acks_lost += int(np.count_nonzero(lost))
            heard = np.zeros(n, dtype=bool)
            heard[landed[~lost]] = True
            waiting = waiting[~heard[waiting]]
            if not waiting.size:
                break
        self.gave_up += waiting.size
        delivered = acks > 0
        self.dead_drops += int((copies - acks).sum())
        self.dup_drops += int(acks.sum() - np.count_nonzero(delivered))
        charge_direct_round(
            self.overlay, self.accountant, src, dst, records, wire_bytes, 0.0,
            copies=copies, acks=acks,
        )
        return delivered

    def window_state(self) -> Dict[Tuple[int, int], Dict[str, object]]:
        """ReliableTransport-shaped window snapshot.

        Every ARQ conversation resolves inside its sending round, so
        ``pending`` is always empty; ``next_seq`` advances exactly as
        the event engine's per-pair numbering.
        """
        pairs = zip(self._src.tolist(), self._dst.tolist(), self._next_seq.tolist())
        return {(g, h): {"next_seq": n, "pending": []} for g, h, n in pairs if n}


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
        plane = needs_fault_plane(cfg)
        fault_world = bool(cfg.reliable or plane)
        # Reliable+direct data traffic runs the round-granular ARQ
        # replay (the fast path the chaos bench gates); reliable over
        # the indirect transport keeps full world-mode fidelity.
        arq_mode = bool(cfg.reliable and cfg.transport == "direct")
        self._async = cfg.schedule == "async"
        self._approx = self._async or fault_world or cfg.send_threshold > 0.0
        #: Rounds run — reported as ``fast_rounds`` by an exact run
        #: (every group steps, round ledger) and as ``replayed_rounds``
        #: by an approximate one.
        self._rounds = 0

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

        #: The fault plane's live ranker list: bare entries, since the
        #: round loop decides who steps.
        self.rankers: List[Ranker] = [Ranker(self, g) for g in range(k)]

        if not fault_world:
            return
        # What a checkpoint gathers, indexed at construction rather than
        # at the first checkpoint of the run.
        self._aff_pairs, self._aff_elems
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
            self.rankers,
            cfg,
            seeds,
            self._make_replacement,
            transport=inner,
        )
        if arq_mode:
            self._arq = self._faults.reliable = _ReplayARQ(
                self._loss, self._faults.chaos, self._faults.retry,
                self.accountant, self.overlay, self._pair_src, self._pair_dst,
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
    def _make_replacement(self, g: int, epoch: int) -> Ranker:
        """Recovery factory: group ``g`` reset to a fresh ranker's state
        (:meth:`~repro.core.engine.SynchronousEngine._blank`) with no
        banked rate credit."""
        self._blank(g)
        self._credit[g] = 0.0
        return Ranker(self, g)

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
            ranker = self.rankers[g]
            if ranker.crashed or ranker.paused:
                continue
            out.append(g)
        return out

    def _emit(self, sends: Tuple[np.ndarray, np.ndarray], t: float) -> None:
        """Account and deliver ``sends`` through the config's backend
        (module docstring, "how sends are charged"): the ARQ replay's
        land in the sending round; the fault plane's travel its real
        transport (:meth:`~repro.core.engine.SynchronousEngine._send`)
        and land when the simulator reaches their delivery time."""
        idx, wire_bytes = sends
        if self._arq is not None:
            alive = np.array([not ranker.crashed for ranker in self.rankers])
            delivered = self._arq.resolve(
                idx, self._pair_records[idx], wire_bytes, alive
            )
            self._land(idx[delivered])
            return
        if self._transport is None:
            super()._emit(sends, t)
            return
        self._send(self._transport, sends, t)

    def _round(self, t: float) -> None:
        super()._round(t)
        if self._transport is not None:
            # Zero-delay deliveries (hop_delay=0) land at t, exactly as
            # the event simulator keeps draining same-time events.
            self._fsim.run(until=t)
        self._rounds += 1

    # ------------------------------------------------------------------
    # Run-loop hooks (see RoundEngine)
    # ------------------------------------------------------------------
    def _sync_to(self, t: float) -> None:
        # Everything scheduled before ``t`` lands: deliveries, crashes,
        # pauses, heartbeats, checkpoints, takeovers, ACK timeouts — in
        # event order.  A round's ``t`` is the run loop's own tick
        # clock, so the fault plane's "now" is bitwise the loop's.
        # Idempotent (Simulator.run(until=now) is a no-op).
        if self._fsim is not None:
            self._fsim.run(until=t)
            self._land_inbox()

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
            "fast_rounds": 0 if self._approx else self._rounds,
            "replayed_rounds": self._rounds if self._approx else 0,
        }
        if self._faults is not None:
            fields.update(self._faults.counters(now))
        return fields
