"""Convergence instrumentation.

The paper's experiments track two global time series:

* **relative error** ``‖R − R*‖₁ / ‖R*‖₁`` against the centralized
  solution (Fig 6) — decreasing toward 0;
* **average rank** (Fig 7) — for DPR1 with ``R0 = 0`` this is monotone
  non-decreasing (Theorem 4.1) and bounded (Theorem 4.2), plateauing
  below ``E`` because of the open-system leak.

:class:`Sampler` records both and decides when a run stops; every
engine's run loop (:meth:`repro.core.engine.RoundEngine.run`) drives it
at the fixed ``sample_interval`` cadence.  The module also provides the
monotonicity checker used to *test* Theorems 4.1/4.2 empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.linalg.norms import l1_norm
from repro.net.bandwidth import TrafficAccountant

__all__ = ["ConvergenceTrace", "Sampler", "is_monotone_nondecreasing"]


def is_monotone_nondecreasing(values: Sequence[float], *, tol: float = 1e-9) -> bool:
    """True if the sequence never decreases by more than ``tol``.

    The tolerance absorbs floating-point noise; Theorem 4.1's claim is
    exact in real arithmetic.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return True
    return bool((np.diff(arr) >= -tol).all())


@dataclass
class ConvergenceTrace:
    """Sampled global time series of one distributed run."""

    times: List[float] = field(default_factory=list)
    relative_errors: List[float] = field(default_factory=list)
    mean_ranks: List[float] = field(default_factory=list)
    max_outer_iterations: List[int] = field(default_factory=list)
    mean_outer_iterations: List[float] = field(default_factory=list)
    total_messages: List[int] = field(default_factory=list)
    total_bytes: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def time_to_error(self, threshold: float) -> Optional[float]:
        """First sample time at which the relative error ≤ threshold."""
        for t, err in zip(self.times, self.relative_errors):
            if err <= threshold:
                return t
        return None

    def final_error(self) -> float:
        """Relative error at the last sample (inf if never sampled)."""
        return self.relative_errors[-1] if self.relative_errors else float("inf")

    def as_arrays(self) -> dict:
        """Columns as numpy arrays (for plotting / bench reporting)."""
        return {
            "time": np.asarray(self.times),
            "relative_error": np.asarray(self.relative_errors),
            "mean_rank": np.asarray(self.mean_ranks),
            "max_outer_iterations": np.asarray(self.max_outer_iterations),
            "mean_outer_iterations": np.asarray(self.mean_outer_iterations),
            "total_messages": np.asarray(self.total_messages),
            "total_bytes": np.asarray(self.total_bytes),
        }


class Sampler:
    """The one sample body every engine shares.

    A sample appends one row to the :class:`ConvergenceTrace` (error,
    mean rank, outer progress, traffic so far), then evaluates the two
    stop rules: the target relative error, and *quiescence* — the
    reference-free termination rule.  Every engine drives it from the
    one run loop (:meth:`repro.core.engine.RoundEngine.run`), so the
    recorded values and the stop sample are identical across engines
    wherever their states are.

    The sampler is *omniscient* — it reads every group's current ranks
    without network cost.  That matches the paper's methodology: the
    error curves of Figs 6–8 are measured by the experimenter, not by
    the protocol.

    Quiescence (``quiescence_delta`` set) declares the run converged
    once every group has stepped at least once and every group's last
    outer-step change ``‖ΔR‖₁`` stays at or below ``quiescence_delta``
    for ``quiescence_samples`` consecutive samples.  Theorem 3.3 turns
    each group's step delta into a bound on its distance to the local
    fixed point, so small deltas everywhere (with no larger afferent
    updates arriving between samples) signal global convergence — the
    termination rule the paper's ``while true`` loops leave
    unspecified.

    The error is computed in place on the caller's rank vector with
    the exact subtract/abs/sum/divide sequence of
    :func:`~repro.linalg.norms.relative_l1_error`
    (``l1_norm(x - ref) / l1_norm(ref)``), so the recorded values are
    bit-identical to that function's; the reference norm is cached and
    :attr:`buffer` is one reusable n-page vector, so a long run
    allocates nothing per sample.
    """

    def __init__(
        self,
        reference: np.ndarray,
        accountant: Optional[TrafficAccountant] = None,
        *,
        target_relative_error: Optional[float] = None,
        quiescence_delta: Optional[float] = None,
        quiescence_samples: int = 3,
    ):
        if quiescence_samples < 1:
            raise ValueError("quiescence_samples must be >= 1")
        self.reference = np.asarray(reference, dtype=np.float64)
        self.accountant = accountant
        self.target = target_relative_error
        self.quiescence_delta = quiescence_delta
        self.quiescence_samples = int(quiescence_samples)
        self.trace = ConvergenceTrace()
        self.converged = False
        self.target_time: Optional[float] = None
        self.quiescent = False
        self.quiescence_time: Optional[float] = None
        self._quiet_streak = 0
        #: Scratch n-page vector callers assemble the ranks into.
        self.buffer = np.empty(self.reference.shape, dtype=np.float64)
        self._denom = l1_norm(self.reference)

    def sample(
        self,
        t: float,
        ranks: np.ndarray,
        outer: np.ndarray,
        quiet_now: Callable[[float], bool],
    ) -> None:
        """Record one sample at simulated time ``t``.

        ``ranks`` is the current global rank vector and is **clobbered**
        (pass :attr:`buffer`); ``outer`` holds the per-group outer
        iteration counts; ``quiet_now(delta)`` is this sample's
        quiescence verdict — every group has stepped at least once and
        its last step delta is at or below ``delta`` — asked only while
        the rule is armed.
        """
        # The mean is taken before the in-place subtract clobbers ranks.
        mean_rank = float(ranks.mean()) if ranks.size else 0.0
        np.subtract(ranks, self.reference, out=ranks)
        np.abs(ranks, out=ranks)
        num = float(ranks.sum())
        if self._denom == 0.0:
            err = 0.0 if num == 0.0 else math.inf
        else:
            err = num / self._denom
        trace = self.trace
        trace.times.append(t)
        trace.relative_errors.append(err)
        trace.mean_ranks.append(mean_rank)
        trace.max_outer_iterations.append(int(outer.max()) if outer.size else 0)
        trace.mean_outer_iterations.append(
            float(outer.mean()) if outer.size else 0.0
        )
        if self.accountant is not None:
            snap = self.accountant.snapshot(t)
            trace.total_messages.append(snap.total_messages)
            trace.total_bytes.append(snap.total_bytes)
        else:
            trace.total_messages.append(0)
            trace.total_bytes.append(0)
        if self.target is not None and err <= self.target and not self.converged:
            self.converged = True
            self.target_time = t
        if self.quiescence_delta is not None and not self.quiescent:
            quiet = quiet_now(self.quiescence_delta)
            self._quiet_streak = self._quiet_streak + 1 if quiet else 0
            if self._quiet_streak >= self.quiescence_samples:
                self.quiescent = True
                self.quiescence_time = t
