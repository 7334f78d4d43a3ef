"""The event engine: page rankers as asynchronous simulator processes.

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

The rankers' state is the round engines' flat state
(:mod:`repro.core.engine`): :class:`DistributedRun` is a
:class:`~repro.core.engine.SynchronousEngine` whose groups step one at
a time, each when its :class:`PageRanker` wakes, instead of all
together on a round grid.  A wake is the paper's loop for one group —
refresh X from the group's rows of ``F``, the group step, Y over the
group's span of cut rows, the emit step — and its sends travel the real
transport as messages; a delivery is queued and lands through the one
receive rule before anything next reads the receiver memory.  The
fault plane sees each ranker as an entry (:class:`Ranker`) whose
``node`` is the group's share of that state (:class:`RankerState`), in
the event and hybrid engines alike.

The run is the round engines' one tick/sample/stop loop
(:meth:`~repro.core.engine.RoundEngine.run`) with the sample interval
as its tick and an empty round: between two samples the simulator runs
the wakes, deliveries and fault processes up to the next sample's
*slot* (:meth:`DistributedRun._sync_to`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.coordinator import MIN_MEAN_WAIT, DistributedConfig, config_transport
from repro.core.engine import SynchronousEngine
from repro.core.faultplane import FaultPlane
from repro.core.recovery import RecoveryManager
from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import csr_matvec_into
from repro.net.simulator import Simulator
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_non_negative

__all__ = ["DistributedRun", "MIN_MEAN_WAIT", "PageRanker", "Ranker", "RankerState"]


class RankerState:
    """One group's share of an engine's flat state, as the checkpoint
    and recovery layers see it — the ranker's ``node``.

    A snapshot gathers the group's rank slice, its elements of the
    receiver memory and its pairs' generations, and its counters
    (fancy indexing copies, so nothing aliases live state); a restore
    scatters them back.  First-arrival stamps are not part of it: a
    restored pair keeps the stamp its first arrival got, and a pair the
    checkpoint lacks arrives again as a first arrival, so the summation
    order after a restore is the checkpointed order followed by later
    arrivals.  Deliveries still queued land first.
    """

    __slots__ = ("engine", "group")

    def __init__(self, engine: SynchronousEngine, group: int):
        self.engine = engine
        self.group = group

    def state_dict(self) -> dict:
        """Serializable snapshot of the group's mutable state."""
        eng, g = self.engine, self.group
        eng._land_inbox()
        return {
            "group": g,
            "mode": eng.config.algorithm,
            "r": eng._r[eng._slices[g]].copy(),
            "latest_values": eng._recv[eng._aff_elems[g]],
            "latest_gen": eng._recv_gen[eng._aff_pairs[g]],
            "outer_iterations": int(eng._outer[g]),
            "inner_sweeps": int(eng._inner_sweeps[g]),
            "stale_updates": int(eng._stale[g]),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` for this
        group and algorithm."""
        eng, g = self.engine, self.group
        if state["group"] != g or state["mode"] != eng.config.algorithm:
            raise ValueError(
                f"checkpoint is for group {state['group']} in mode {state['mode']!r}, "
                f"not group {g} in mode {eng.config.algorithm!r}"
            )
        eng._land_inbox()
        np.copyto(eng._r[eng._slices[g]], state["r"])
        eng._recv[eng._aff_elems[g]] = state["latest_values"]
        eng._recv_gen[eng._aff_pairs[g]] = state["latest_gen"]
        eng._outer[g] = int(state["outer_iterations"])
        eng._inner_sweeps[g] = int(state["inner_sweeps"])
        eng._stale[g] = int(state["stale_updates"])


class Ranker:
    """One entry of the fault plane's live ranker list.

    Satisfies the duck-typed contract shared by the injectors
    (writable ``paused``/``crashed``), the heartbeat monitor
    (``crashed``), the checkpointer (``group``, ``node``), and the
    recovery manager (``node``, ``start``).  A bare entry owns no wake
    chain — the hybrid engine's round loop decides who steps — so
    :meth:`start` only marks it live.
    """

    def __init__(self, engine: SynchronousEngine, group: int):
        self.group = group
        self.node = RankerState(engine, group)
        self.paused = False
        #: Permanent failure (§4.2's "shutdown"): a crashed ranker's
        #: wake chain dies, its inbox goes dark, and it never comes
        #: back — recovery happens by *replacement*, not resumption
        #: (see repro.core.recovery).
        self.crashed = False
        self.started = False

    def start(self, *, initial_delay: Optional[float] = None) -> None:
        """Mark the entry live."""
        self.started = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(group={self.group}, paused={self.paused}, "
            f"crashed={self.crashed})"
        )


class PageRanker(Ranker):
    """A ranker as a simulator process: the wake chain of one group.

    Parameters
    ----------
    engine, group:
        The event engine whose flat state the ranker steps, and its
        group.
    mean_wait:
        This ranker's mean waiting time (drawn from ``[T1, T2]`` by the
        engine).
    seed:
        Seeds the ranker's private exponential-wait stream.
    fixed_wait:
        When True, every wait is exactly ``mean_wait`` instead of an
        exponential draw — the *synchronous schedule* the flat engine
        reproduces bit for bit (all rankers tick in lockstep; see
        :mod:`repro.core.engine`).
    """

    def __init__(
        self,
        engine: "DistributedRun",
        group: int,
        *,
        mean_wait: float = 1.0,
        seed: RngLike = 0,
        fixed_wait: bool = False,
    ):
        super().__init__(engine, group)
        self.engine = engine
        self.mean_wait = max(check_non_negative(mean_wait, "mean_wait"), MIN_MEAN_WAIT)
        self.fixed_wait = bool(fixed_wait)
        self._rng = as_generator(seed)
        #: Loop steps skipped while paused.
        self.skipped_wakes = 0

    def start(self, *, initial_delay: Optional[float] = None) -> None:
        """Schedule the first wake-up.

        By default the first wake is one exponential wait out, so
        rankers start at independent random times as in the paper's
        setup.
        """
        if self.started:
            raise RuntimeError("ranker already started")
        super().start()
        delay = self._draw_wait() if initial_delay is None else float(initial_delay)
        self.engine.sim.schedule(delay, self._on_wake)

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
        else:
            self.engine._wake(self.group)
        self.engine.sim.schedule(self._draw_wait(), self._on_wake)


class DistributedRun(SynchronousEngine):
    """A fully wired event-driven page-ranking system, ready to run.

    Splitting construction from :meth:`run` lets tests and examples
    poke at the assembled parts (rankers, transport, overlay) before or
    during execution.  :meth:`run` is the round engines' loop
    (:meth:`~repro.core.engine.RoundEngine.run`) with one sample per
    tick and an empty round: everything between two samples runs inside
    :attr:`sim` (:meth:`_sync_to`).
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        super().__init__(graph, config, partition=partition, reference=reference)
        seeds = self._seeds
        self.sim = Simulator()
        self.rankers: List[PageRanker] = []
        #: Reliability layer now (rankers are wired to its transport),
        #: fault processes once the ranker list is populated.
        self.faults = FaultPlane(
            self.sim,
            self.rankers,
            config,
            seeds,
            self._make_replacement,
            transport=config_transport(
                config, self.sim, self.overlay, self.accountant, self._loss
            ),
        )
        self.transport = self.faults.transport

        self._mean_waits = self._group_mean_waits()
        for g in range(config.n_groups):
            self.rankers.append(self._make_ranker(g, seeds.generator(f"wait/{g}")))
        self.transport.attach(self._on_deliver)
        self.faults.install()
        #: Set when the simulator reaches the pending sample slot
        #: (:meth:`_sync_to`); None until the run's first sample.
        self._at_slot: Optional[bool] = None

    @property
    def recovery(self) -> Optional[RecoveryManager]:
        """The takeover manager (None unless ``config.recovery``)."""
        return self.faults.recovery

    # ------------------------------------------------------------------
    def _make_ranker(self, g: int, seed) -> PageRanker:
        return PageRanker(
            self,
            g,
            mean_wait=self._mean_waits[g],
            seed=seed,
            fixed_wait=self.config.schedule == "sync",
        )

    def _make_replacement(self, g: int, epoch: int) -> PageRanker:
        """Recovery factory: group ``g`` reset to a fresh ranker's state,
        woken by a private deterministic stream per takeover epoch."""
        self._blank(g)
        return self._make_ranker(g, self._seeds.generator(f"recovery/{g}/{epoch}"))

    def _refresh_group(self, g: int) -> None:
        """Refresh X of group ``g`` alone: its rows of ``F`` — its
        afferent pairs in first-arrival order, rebuilt only after a
        first arrival to ``g`` — times the receiver memory."""
        self._land_inbox()
        pairs = self._aff_pairs[g]
        if not pairs.size:
            return  # nobody sends to g: X stays +0.0
        sl = self._slices[g]
        aff = self._aff_ops[g]
        if aff is None:
            order = pairs[np.argsort(self._recv_rank[pairs], kind="stable")]
            aff = self._aff_ops[g] = self._build_afferent(order, sl)
        csr_matvec_into(aff, self._recv, self._x[sl])

    def _wake(self, g: int) -> None:
        """One outer loop of ranker ``g`` at the simulator's now:
        refresh its X, step, compute ``Y`` over the group's span of cut
        rows, and hand the emit step's sends to the transport."""
        self._refresh_group(g)
        self._step_groups([g])
        emission = self._emissions[g]
        if emission is not None:
            csr_matvec_into(self.system.blocks.cut_rows[g], self._r, self._y[emission[0]])
        self._send(self.transport, self._build_sends([g]), self.sim.now)

    def warm_start(self, ranks: np.ndarray) -> None:
        """Seed the run with a prior global rank vector.

        Setting the ranks alone is not enough: the outer step
        recomputes ``R`` from ``βE + X``, so with empty afferent state
        the first step erases the carried ranks before they are ever
        sent.  This scatters ``ranks`` into every group *and* lands
        every pair at generation 0, in pair order, carrying the
        contribution its source would have sent for those ranks, so the
        first outer step refines the previous fixed point instead of
        starting over (any real update supersedes it).  Must be called
        before :meth:`run`.
        """
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != (self.graph.n_pages,):
            raise ValueError(
                f"warm-start vector has shape {ranks.shape}, "
                f"want ({self.graph.n_pages},)"
            )
        for g, sl in enumerate(self._slices):
            self._r[sl] = ranks[self.system.blocks.pages[g]]
        pairs = np.arange(self._pair_src.size)
        self._accept(pairs, np.zeros_like(pairs))
        csr_matvec_into(self._cut, self._r, self._recv)

    # ------------------------------------------------------------------
    # Run-loop hooks (see RoundEngine)
    # ------------------------------------------------------------------
    @property
    def _tick(self) -> float:
        return float(self.config.sample_interval)

    def _round(self, t: float) -> None:
        """Nothing: the wakes, deliveries and fault processes between
        two samples run inside the simulator (:meth:`_sync_to`)."""

    def _sync_to(self, t: float) -> None:
        """Run the simulator to the sample slot at ``t``.

        The sample at ``t`` sees exactly the events ordered before its
        *slot* — an event at ``t`` scheduled when the previous sample
        ran — so a same-time wake or delivery scheduled before that
        moment runs before the sample and one scheduled after it runs
        after.  The first call (``t = 0``) runs nothing: it schedules
        the next slot, the rankers' first wakes and the heartbeat and
        checkpoint cadence, in that order (sequence numbers break
        same-time ties).  When no slot is due at ``t`` — the drain at
        ``max_time`` — every event at or before ``t`` runs.
        """
        if self._at_slot is None:
            self._open_slot(t)
            for ranker in self.rankers:
                ranker.start()
            self.faults.start()
            return
        if t < self.sim.now:
            raise RuntimeError("the event engine's simulator is past t; a run starts once")
        self.sim.run(until=t, stop_condition=lambda: self._at_slot)
        self._land_inbox()
        if self._at_slot:
            self._open_slot(t)

    def _open_slot(self, t: float) -> None:
        """Schedule the next sample's slot, one tick after ``t``."""
        self._at_slot = False
        self.sim.schedule_at(t + self._tick, self._reach_slot)

    def _reach_slot(self) -> None:
        self._at_slot = True

    def _dropped_total(self) -> int:
        return self.transport.dropped_updates

    def _extra_result_fields(self, now: float) -> Dict:
        return self.faults.counters(now)
