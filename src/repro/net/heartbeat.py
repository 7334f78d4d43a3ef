"""Heartbeat-based failure detection.

The paper assumes rankers may "sleep for some time, suspend … or even
shutdown" (§4.2) but never says how anyone *notices* a shutdown.  This
module supplies the standard answer: every ranker beats periodically;
a monitor that misses ``miss_threshold`` consecutive beats from a
ranker declares it dead and fires the registered death callbacks
(typically :meth:`repro.core.recovery.RecoveryManager.on_death`).

The simulation keeps the detector deliberately simple and fully
deterministic: one sweep event per ``interval`` both collects beats
from live rankers and checks staleness, so detection latency is
bounded by ``(miss_threshold + 1) * interval`` and identical runs
produce identical detection times.  A *paused* ranker still beats —
its failure-detector daemon is alive while the ranking loop sleeps —
so transient churn never triggers a takeover; only ``crashed`` rankers
go silent.  A recovered group (fresh ranker swapped into the live
list with ``crashed = False``) beats again and is welcomed back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set

from repro.net.simulator import Simulator

__all__ = ["HeartbeatMonitor"]

DeathCallback = Callable[[int], None]


class HeartbeatMonitor:
    """Declares rankers dead after ``miss_threshold`` missed beats.

    Parameters
    ----------
    sim:
        The event engine the sweep chain runs on.
    rankers:
        The *live* ranker list, indexed by group.  The recovery layer
        replaces entries in place; the monitor always reads the current
        occupant, so replacements are observed automatically.
    interval:
        Beat/sweep period (simulated time units).
    miss_threshold:
        Consecutive missed beats before a ranker is declared dead.
    """

    def __init__(
        self,
        sim: Simulator,
        rankers: Sequence,
        *,
        interval: float,
        miss_threshold: int = 3,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.sim = sim
        self.rankers = rankers
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self._on_death: List[DeathCallback] = []
        #: Consecutive missed beats per group.
        self.missed: Dict[int, int] = {g: 0 for g in range(len(rankers))}
        #: Groups currently considered dead.
        self.dead: Set[int] = set()
        #: Total death declarations (re-deaths after recovery included).
        self.deaths_detected = 0
        #: Groups that resumed beating after having been declared dead.
        self.rejoins = 0
        #: Completed sweep events (detection latency = sweeps × interval).
        self.sweeps = 0
        self._started = False

    # ------------------------------------------------------------------
    def add_death_callback(self, callback: DeathCallback) -> None:
        """Register ``callback(group)`` to run on each death detection."""
        self._on_death.append(callback)

    def start(self) -> None:
        """Begin the periodic sweep chain (raises if already started)."""
        if self._started:
            raise RuntimeError("heartbeat monitor already started")
        self._started = True
        self.sim.schedule(self.interval, self._sweep)

    def is_dead(self, group: int) -> bool:
        """True while ``group`` is in the declared-dead set."""
        return group in self.dead

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self.sweeps += 1
        for g in range(len(self.rankers)):
            if getattr(self.rankers[g], "crashed", False):
                self.missed[g] += 1
                if self.missed[g] >= self.miss_threshold and g not in self.dead:
                    self.dead.add(g)
                    self.deaths_detected += 1
                    for callback in self._on_death:
                        callback(g)
            else:
                # A live (or newly recovered) ranker beat this round.
                if g in self.dead:
                    self.dead.discard(g)
                    self.rejoins += 1
                self.missed[g] = 0
        self.sim.schedule(self.interval, self._sweep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeartbeatMonitor(interval={self.interval}, "
            f"miss_threshold={self.miss_threshold}, dead={sorted(self.dead)})"
        )
