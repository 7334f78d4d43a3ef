"""Failure injection.

Failure modes, from the paper and beyond:

* **Message loss** — "vector Y may fail to be sent to other groups
  with a probability p" (§5).  The experiment labels make clear that
  the parameter sweeps are over the *delivery* probability (the
  best-behaved curves are labelled ``p = 1``), so
  :class:`BernoulliLoss` is parameterized by ``delivery_prob``.
* **Node churn** — rankers may "sleep for some time, suspend … or even
  shutdown" (§4.2).  :class:`NodePauseInjector` schedules random pause
  windows during which a ranker skips its work loop entirely.
* **Permanent crashes** — the "even shutdown" end of §4.2 taken
  literally: :class:`NodeCrashInjector` kills rankers for good.  A
  crashed ranker stops computing, sending, and acknowledging; without
  the recovery layer (:mod:`repro.core.recovery`) its page group
  freezes forever, which is exactly the failure the checkpoint-based
  takeover exists to survive.
* **Message chaos** — :class:`ChaosModel` bundles the reliability
  layer's adversaries: duplication (the same sequenced update put on
  the wire twice), reordering (random extra delay before an update is
  handed to the underlying transport), and ACK loss (the paper's ``p``
  applied to the reverse path).  All three are no-ops at their default
  probabilities so a fault-free run draws no randomness from them.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, TYPE_CHECKING

import numpy as np

from repro.utils.rng import as_generator, RngLike
from repro.utils.validation import check_non_negative, check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simulator import Simulator

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "NodePauseInjector",
    "NodeCrashInjector",
    "ChaosModel",
]


class LossModel(Protocol):
    """Decides whether an outgoing score update is delivered."""

    def delivered(self, src_group: int, dst_group: int) -> bool:
        """True if this send attempt survives."""

    def delivered_batch(self, n: int) -> np.ndarray:
        """Survival mask of ``n`` send attempts — the same stream as
        ``n`` :meth:`delivered` calls (``Generator.random(n)`` equals
        ``n`` scalar draws)."""


class NoLoss:
    """Every message is delivered (the paper's ``p = 1``)."""

    def delivered(self, src_group: int, dst_group: int) -> bool:
        """Always True."""
        return True

    def delivered_batch(self, n: int) -> np.ndarray:
        """All True."""
        return np.ones(n, dtype=bool)


class BernoulliLoss:
    """Independent per-send delivery with probability ``delivery_prob``.

    Applied at the origin, to the whole per-destination update — the
    granularity the paper describes (the Y vector for a destination
    group either goes out or it does not).
    """

    def __init__(self, delivery_prob: float, *, seed: RngLike = 0):
        self.delivery_prob = check_probability(delivery_prob, "delivery_prob")
        self._rng = as_generator(seed)

    def delivered(self, src_group: int, dst_group: int) -> bool:
        """Bernoulli draw: True with probability ``delivery_prob``."""
        if self.delivery_prob >= 1.0:
            return True
        return bool(self._rng.random() < self.delivery_prob)

    def delivered_batch(self, n: int) -> np.ndarray:
        """``n`` Bernoulli draws at once (none at ``delivery_prob = 1``)."""
        if self.delivery_prob >= 1.0:
            return np.ones(n, dtype=bool)
        return self._rng.random(n) < self.delivery_prob


class NodePauseInjector:
    """Randomly pauses and resumes rankers during a run.

    Each injected fault picks a ranker, pauses it at a random time and
    resumes it after an exponentially distributed outage.  Paused
    rankers skip their wake-ups (they neither compute nor send), but
    their inboxes keep accumulating — exactly the paper's "sleep /
    suspend" behaviour.  DPR1/DPR2 tolerate this by design; the failure
    tests assert the final ranks still match the centralized reference.
    """

    def __init__(
        self,
        *,
        n_faults: int,
        horizon: float,
        mean_outage: float,
        seed: RngLike = 0,
    ):
        if n_faults < 0:
            raise ValueError("n_faults must be >= 0")
        self.n_faults = int(n_faults)
        self.horizon = check_non_negative(horizon, "horizon")
        self.mean_outage = check_non_negative(mean_outage, "mean_outage")
        self._rng = as_generator(seed)
        self.injected: List[tuple] = []

    def install(self, sim: "Simulator", rankers: List) -> None:
        """Schedule the pause/resume events onto ``sim``.

        ``rankers`` must expose a boolean ``paused`` attribute (see
        :class:`repro.core.ranker.Ranker`).
        """
        for _ in range(self.n_faults):
            node = int(self._rng.integers(0, len(rankers)))
            start = float(self._rng.random() * self.horizon)
            outage = float(self._rng.exponential(self.mean_outage))
            ranker = rankers[node]
            sim.schedule_at(start, self._set_paused, ranker, True)
            sim.schedule_at(start + outage, self._set_paused, ranker, False)
            self.injected.append((node, start, outage))

    @staticmethod
    def _set_paused(ranker, value: bool) -> None:
        ranker.paused = value


class NodeCrashInjector:
    """Permanently crashes a random subset of rankers.

    Each ranker independently crashes with probability ``crash_prob``;
    a doomed ranker's crash time is drawn uniformly from
    ``[after, after + horizon]`` (``after`` is the post-warmup guard:
    crashing before any useful state exists is a different, less
    interesting experiment).  Crashing sets ``ranker.crashed = True``
    — the ranker's wake loop dies, its inbox goes dark, and it never
    ACKs again, so only a failure detector + takeover can save its
    page group.

    The injector crashes *by index through the live list*, so a group
    that was already recovered onto a replacement ranker by the time
    its crash fires kills the replacement (churn on churn), which the
    recovery layer must also survive.
    """

    def __init__(
        self,
        *,
        crash_prob: float,
        after: float = 0.0,
        horizon: float = 10.0,
        max_crashes: Optional[int] = None,
        seed: RngLike = 0,
    ):
        self.crash_prob = check_probability(crash_prob, "crash_prob")
        self.after = check_non_negative(after, "after")
        self.horizon = check_non_negative(horizon, "horizon")
        self.max_crashes = None if max_crashes is None else int(max_crashes)
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ValueError("max_crashes must be >= 0")
        self._rng = as_generator(seed)
        #: (group index, crash time) per scheduled crash.
        self.injected: List[tuple] = []

    def install(self, sim: "Simulator", rankers: List) -> None:
        """Draw the doomed set and schedule the crash events.

        ``rankers`` must be the *live* list (the recovery layer swaps
        replacements into it); entries must expose a writable
        ``crashed`` attribute.
        """
        for g in range(len(rankers)):
            if self._rng.random() >= self.crash_prob:
                continue
            if self.max_crashes is not None and len(self.injected) >= self.max_crashes:
                break
            when = self.after + float(self._rng.random() * self.horizon)
            sim.schedule_at(when, self._crash, rankers, g)
            self.injected.append((g, when))

    @staticmethod
    def _crash(rankers: List, g: int) -> None:
        rankers[g].crashed = True

    def fired(self, now: float) -> int:
        """How many scheduled crashes have fired by simulated ``now``.

        Recovered groups hold a live replacement, so "currently
        crashed" undercounts churn; this counts injections whose crash
        time has passed, which is what run reports mean by
        ``crashed_groups``.
        """
        return sum(1 for (_, t) in self.injected if t <= now)


class ChaosModel:
    """Adversarial message behaviour for the reliability layer.

    Parameters
    ----------
    duplicate_prob:
        Probability a sequenced transmission is put on the wire twice
        (same seq — the receiver must suppress the copy).
    reorder_prob, reorder_max_delay:
        With probability ``reorder_prob`` a transmission is held back
        by a uniform extra delay in ``(0, reorder_max_delay]`` before
        reaching the underlying transport, letting later sends overtake
        it.
    ack_loss_prob:
        Probability an acknowledgement vanishes in transit (the data
        arrived; the sender retransmits anyway — the duplicate must be
        dropped and re-ACKed at the receiver).
    seed:
        Private deterministic stream; the model draws nothing when all
        probabilities are zero, so enabling the reliable transport with
        default chaos perturbs no other random stream.
    """

    def __init__(
        self,
        *,
        duplicate_prob: float = 0.0,
        reorder_prob: float = 0.0,
        reorder_max_delay: float = 0.0,
        ack_loss_prob: float = 0.0,
        seed: RngLike = 0,
    ):
        self.duplicate_prob = check_probability(duplicate_prob, "duplicate_prob")
        self.reorder_prob = check_probability(reorder_prob, "reorder_prob")
        self.reorder_max_delay = check_non_negative(
            reorder_max_delay, "reorder_max_delay"
        )
        self.ack_loss_prob = check_probability(ack_loss_prob, "ack_loss_prob")
        self._rng = as_generator(seed)

    @property
    def active(self) -> bool:
        """True when any adversary can fire."""
        return (
            self.duplicate_prob > 0.0
            or self.reorder_prob > 0.0
            or self.ack_loss_prob > 0.0
        )

    def duplicate(self) -> bool:
        """Should this transmission be sent twice?"""
        if self.duplicate_prob <= 0.0:
            return False
        return bool(self._rng.random() < self.duplicate_prob)

    def duplicates(self, n: int) -> np.ndarray:
        """:meth:`duplicate` for ``n`` transmissions — the same stream
        as ``n`` scalar calls, and no draw at probability 0."""
        if self.duplicate_prob <= 0.0:
            return np.zeros(n, dtype=bool)
        return self._rng.random(n) < self.duplicate_prob

    def reorder_delay(self) -> float:
        """Extra send-side delay for this transmission (0 = in order)."""
        if self.reorder_prob <= 0.0 or self.reorder_max_delay <= 0.0:
            return 0.0
        if self._rng.random() >= self.reorder_prob:
            return 0.0
        return float(self._rng.random() * self.reorder_max_delay)

    def ack_lost(self) -> bool:
        """Does this acknowledgement vanish in transit?"""
        if self.ack_loss_prob <= 0.0:
            return False
        return bool(self._rng.random() < self.ack_loss_prob)

    def acks_lost(self, n: int) -> np.ndarray:
        """:meth:`ack_lost` for ``n`` acknowledgements — the same stream
        as ``n`` scalar calls, and no draw at probability 0."""
        if self.ack_loss_prob <= 0.0:
            return np.zeros(n, dtype=bool)
        return self._rng.random(n) < self.ack_loss_prob
