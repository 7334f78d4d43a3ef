"""Checkpoint-based ranker takeover.

The missing half of §4.2's fault story: the paper lets rankers
"even shutdown" and proves the *algorithm* tolerates staleness, but a
permanently dead ranker freezes its page group's slice of the rank
vector forever — no amount of tolerance at the survivors recovers the
lost state.  This module closes the loop:

* :class:`CheckpointStore` — the durable-store stand-in: latest
  :meth:`~repro.core.ranker.RankerState.state_dict` snapshot per group.
* :class:`Checkpointer` — a periodic simulator process snapshotting
  every live ranker's node into the store.
* :class:`RecoveryManager` — subscribed to the heartbeat detector's
  death callbacks; on a death it picks the next live group as the
  *successor* (the DHT convention: the crashed key range is adopted by
  its overlay neighbor), builds a replacement ranker for the dead
  group (the engine resets the group's share of its flat state),
  restores the last checkpoint into it, swaps it into the live ranker
  list, and starts it.

Why this converges to the centralized fixed point: the restored state
is merely *stale*, never *wrong* — it is a valid (R, X, generation)
tuple from the run's own past.  DPR's refresh-X semantics (newest
generation per source wins) make the replacement catch up as soon as
each peer's next update arrives, and Theorems 4.1/4.2 monotonicity is
preserved because the restored R is a lower bound the node only ever
improves.  Senders' in-flight retransmissions to the dead group are
ACKed by the replacement (same group id, same sequence space is *not*
assumed — the reliable transport dedups per seq, and a seq the dead
ranker never ACKed is simply delivered to the replacement).

The recovery layer is duck-typed over its "ranker" entries, so the
event and hybrid engines drive the *same* Checkpointer/RecoveryManager.
A ranker entry must expose:

* ``.group`` — the group index it ranks;
* ``.crashed`` — writable liveness flag the injectors/heartbeat read;
* ``.node`` — an object with ``state_dict()``/``load_state_dict()``;
* ``.start()`` — begin work (a wake chain, or eligibility for the
  round loop).

:class:`~repro.core.ranker.Ranker` (the hybrid engine's entries) and
its wake-chain subclass :class:`~repro.core.ranker.PageRanker` (the
event engine's) are the implementations; both carry a
:class:`~repro.core.ranker.RankerState` as ``node``, one checkpoint
format over the engines' flat state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.simulator import Simulator

__all__ = ["CheckpointStore", "Checkpointer", "RecoveryManager"]

#: Builds a fresh, state-restored-able ranker for ``group`` (epoch
#: disambiguates the replacement's private random stream).  Returns
#: any object satisfying the duck-typed ranker contract above.
RankerFactory = Callable[[int, int], "object"]


class CheckpointStore:
    """Latest checkpoint per group (a reliable-store stand-in).

    A real deployment would write these to the DHT itself (replicated
    under the group's key) or to stable storage; the simulation keeps
    them in memory because the store's *availability* is not the
    phenomenon under test — recovery correctness is.
    """

    def __init__(self):
        self._snapshots: Dict[int, Tuple[float, dict]] = {}
        self.saves = 0

    def save(self, group: int, time: float, state: dict) -> None:
        """Replace group's checkpoint (the store keeps only the newest)."""
        self._snapshots[group] = (float(time), state)
        self.saves += 1

    def latest(self, group: int) -> Optional[Tuple[float, dict]]:
        """(time, state_dict) of the newest checkpoint, if any."""
        return self._snapshots.get(group)

    def __len__(self) -> int:
        return len(self._snapshots)


class Checkpointer:
    """Periodically snapshots every live ranker into the store."""

    def __init__(
        self,
        sim: Simulator,
        rankers: Sequence,
        store: CheckpointStore,
        *,
        interval: float,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.sim = sim
        self.rankers = rankers
        self.store = store
        self.interval = float(interval)
        self._started = False

    def start(self) -> None:
        """Begin the periodic snapshot chain (raises on double-start)."""
        if self._started:
            raise RuntimeError("checkpointer already started")
        self._started = True
        self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        for ranker in self.rankers:
            if not ranker.crashed:
                self.store.save(
                    ranker.group, self.sim.now, ranker.node.state_dict()
                )
        self.sim.schedule(self.interval, self._tick)


class RecoveryManager:
    """Restores crashed groups from checkpoints onto successor rankers.

    Parameters
    ----------
    sim, rankers, store:
        Event engine, the *live* ranker list (entries are replaced in
        place — every component holding this list sees takeovers), and
        the checkpoint store.
    factory:
        ``factory(group, epoch) -> ranker`` building a blank
        replacement wired to the same transport/system; ``epoch``
        counts takeovers of that group so each replacement gets an
        independent deterministic random stream.
    """

    def __init__(
        self,
        sim: Simulator,
        rankers: List,
        store: CheckpointStore,
        factory: RankerFactory,
    ):
        self.sim = sim
        self.rankers = rankers
        self.store = store
        self.factory = factory
        #: (group, successor_group, sim time, restored_from_checkpoint).
        self.takeovers: List[tuple] = []
        #: Deaths observed with no live successor left (run is lost).
        self.unrecoverable = 0

    # ------------------------------------------------------------------
    @property
    def takeover_count(self) -> int:
        return len(self.takeovers)

    def successor_of(self, group: int) -> Optional[int]:
        """Next live group after ``group`` in ring order, if any."""
        k = len(self.rankers)
        for step in range(1, k):
            cand = (group + step) % k
            if not self.rankers[cand].crashed:
                return cand
        return None

    def on_death(self, group: int) -> None:
        """Heartbeat-death callback: rebuild ``group`` on a successor.

        The successor's role here is organisational (it is the ranker
        that *hosts* the revived group's process in a real deployment);
        computationally the revived group keeps its own identity, so
        transport routing and the group decomposition are untouched.
        """
        successor = self.successor_of(group)
        if successor is None:
            self.unrecoverable += 1
            return
        epoch = sum(1 for t in self.takeovers if t[0] == group)
        replacement = self.factory(group, epoch)
        snapshot = self.store.latest(group)
        if snapshot is not None:
            _, state = snapshot
            replacement.node.load_state_dict(state)
        self.rankers[group] = replacement
        replacement.start()
        self.takeovers.append(
            (group, successor, self.sim.now, snapshot is not None)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecoveryManager(takeovers={self.takeover_count})"
