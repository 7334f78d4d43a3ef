"""DPR1 and DPR2 node state machines (paper §4.2, Algorithms 3 & 4).

Both algorithms run the same outer loop on every ranker::

    loop:
        X ← refresh X          # newest afferent vectors received
        R ← compute            # DPR1: GroupPageRank to convergence
                               # DPR2: a single Jacobi sweep
        Y ← efferent(R); send  # handled by the ranker/transport layer
        wait

:class:`DPRNode` implements the computational part — receive/refresh/
compute — with no knowledge of timers or networking, so the identical
state machine is exercised by the event simulator, by the synchronous
test harness, and by the property-based tests.

Refresh-X semantics: the node keeps, per source group, the newest
:class:`~repro.net.message.ScoreUpdate` by generation (stale messages
arriving late are discarded), and ``X`` is the sum over sources.  With
``R0 = 0`` every group's rank sequence is monotone non-decreasing and
bounded by the centralized fixed point (Theorems 4.1/4.2) — both
properties are asserted by the test suite.

Hot-path structure
------------------
The outer loop is allocation-free: the node owns one
:class:`~repro.linalg.jacobi.JacobiWorkspace` for its lifetime (so
DPR1's warm-started inner solves sweep in ping-pong buffers and DPR2's
single sweep is one fused kernel), keeps a running afferent sum ``X``
that is maintained incrementally as updates arrive, and caches
``f = βE + X`` so a :meth:`step` with no new mail since the previous
one skips the refresh entirely (``refresh_skips`` counts these).

The running ``X`` is exact: a first message from a new source is added
to the sum in arrival order (the same arithmetic as a full re-sum); a
replacement marks ``X`` dirty and the next refresh rebuilds it by an
in-order, in-place re-sum.  Results are **bit-identical** to the naive
re-sum-every-step implementation, which the property-based tests assert
on end-to-end runs.

The update of ``R`` itself is :func:`group_step`, shared with the round
engines' per-group step (:mod:`repro.core.engine`): one definition of
"DPR1 solves, DPR2 sweeps", so node and engine agree bit for bit by
construction.

Received values are **defensively copied**, so a transport or test
that mutates (or reuses the buffer of) an array after send cannot
silently corrupt node state.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.linalg.jacobi import JacobiWorkspace, jacobi_solve
from repro.net.message import ScoreUpdate

__all__ = ["DPRNode", "group_step"]

#: The paper's two algorithms: solve each group to convergence per
#: outer step (DPR1) or run one sweep per outer step (DPR2).
ALGORITHMS = ("dpr1", "dpr2")
#: Inner solvers DPR1 can run to convergence.
INNER_SOLVERS = ("jacobi", "gauss_seidel")


def group_step(
    a_group: sp.spmatrix,
    r: np.ndarray,
    f: np.ndarray,
    ws: JacobiWorkspace,
    *,
    mode: str,
    inner_solver: str,
    local_tol: float,
    max_inner: int,
) -> Tuple[float, int]:
    """One outer-loop update of a group's ranks ``r``, in place.

    DPR1 runs ``GroupPageRank(R_i, X_{i+1})`` — a full solve of
    ``R = A_G R + f`` warm-started from ``r``, by ``inner_solver``;
    DPR2 performs the single sweep ``R ← A_G R + f``.  ``f = βE + X``
    is the caller's; ``ws`` supplies the sweep buffers.  Returns
    ``(‖R_new − R_old‖₁, sweeps performed)``.
    """
    if mode == "dpr2":
        delta = ws.sweep_delta(a_group, r, f, out=ws._ping)
        np.copyto(r, ws._ping)
        return delta, 1
    if inner_solver == "gauss_seidel":
        from repro.linalg.acceleration import gauss_seidel_solve

        res = gauss_seidel_solve(a_group, f, x0=r, tol=local_tol, max_iter=max_inner)
    else:
        res = jacobi_solve(
            a_group, f, x0=r, tol=local_tol, max_iter=max_inner, workspace=ws
        )
    sc = ws._scratch
    np.subtract(res.x, r, out=sc)
    np.abs(sc, out=sc)
    delta = float(sc.sum())
    np.copyto(r, res.x)
    return delta, res.iterations


class DPRNode:
    """One page ranker's algorithmic state.

    Parameters
    ----------
    group:
        This ranker's group index.
    a_group:
        The group's inner-link operator ``A_G`` (diagonal block).
    beta_e:
        The constant ``βE`` term over the group's local pages.
    mode:
        ``"dpr1"`` (solve to local convergence each outer loop) or
        ``"dpr2"`` (one sweep per outer loop).
    local_tol, max_inner:
        Termination of the inner ``GroupPageRank`` solve (DPR1 only).
    inner_solver:
        ``"jacobi"`` (the paper's Algorithm 2) or ``"gauss_seidel"``
        (extension: same fixed point, fewer sweeps — see
        :mod:`repro.linalg.acceleration`).  DPR1 only.
    r0:
        Initial local rank vector ``S``; zeros by default (the paper's
        choice for which the monotonicity theorems are stated).
    """

    def __init__(
        self,
        group: int,
        a_group: sp.spmatrix,
        beta_e: np.ndarray,
        *,
        mode: str = "dpr1",
        local_tol: float = 1e-10,
        max_inner: int = 1000,
        inner_solver: str = "jacobi",
        r0: Optional[np.ndarray] = None,
    ):
        if mode not in ALGORITHMS:
            raise ValueError(f"mode must be one of {ALGORITHMS}, got {mode!r}")
        if inner_solver not in INNER_SOLVERS:
            raise ValueError(
                f"inner_solver must be one of {INNER_SOLVERS}, got {inner_solver!r}"
            )
        self.group = int(group)
        self.a_group = a_group
        self.beta_e = np.asarray(beta_e, dtype=np.float64)
        n_local = self.beta_e.shape[0]
        if a_group.shape != (n_local, n_local):
            raise ValueError(
                f"operator shape {a_group.shape} incompatible with βE of size {n_local}"
            )
        self.mode = mode
        self.local_tol = float(local_tol)
        self.max_inner = int(max_inner)
        self.inner_solver = inner_solver

        #: Stable local rank buffer, updated in place by :meth:`step`
        #: (copy it to retain a snapshot across steps).
        self.r = (
            np.zeros(n_local, dtype=np.float64)
            if r0 is None
            else np.array(r0, dtype=np.float64)
        )
        if self.r.shape != (n_local,):
            raise ValueError(f"r0 shape {self.r.shape}, want ({n_local},)")

        #: Newest afferent vector per source group (defensive copies).
        self._latest_values: Dict[int, np.ndarray] = {}
        self._latest_gen: Dict[int, int] = {}
        #: Running afferent sum, incrementally maintained on receive.
        self._x = np.zeros(n_local, dtype=np.float64)
        #: True when ``_x`` no longer matches ``_latest_values`` and
        #: the next refresh must re-sum (after a replacement).
        self._x_dirty = False
        #: True when mail accepted since ``_f`` was last computed.
        self._mail = False
        #: Cached ``f = βE + X`` (valid whenever ``_mail`` is False).
        self._f = self.beta_e.copy()
        #: Lifetime sweep buffers — the allocation-free inner kernels.
        self._workspace = JacobiWorkspace(n_local)
        #: Outer-loop count (the "iterations" of Fig 8 for DPR2; for
        #: DPR1 one outer loop may contain many inner sweeps).
        self.outer_iterations = 0
        #: ‖R_new − R_old‖₁ of the most recent outer step — the local
        #: quantity Theorem 3.3 turns into a distance-to-fixed-point
        #: bound, used for distributed termination detection.
        self.last_step_delta = float("inf")
        #: Total Jacobi sweeps performed (inner iterations included).
        self.inner_sweeps = 0
        #: Updates discarded because a newer generation was already held.
        self.stale_updates = 0
        #: Steps that reused the cached ``f`` because no mail arrived.
        self.refresh_skips = 0

    # ------------------------------------------------------------------
    @property
    def n_local(self) -> int:
        return self.r.shape[0]

    def receive(self, update: ScoreUpdate) -> None:
        """Accept an afferent update; keep only the newest per source.

        Out-of-order delivery is expected under the asynchronous
        simulator — indirect transmission can reorder packages — and
        the generation stamp makes refresh idempotent.

        The update's values are copied before being stored, so senders
        reusing (or mutating) their buffers after the call cannot
        corrupt this node's state.  The running ``X`` is maintained
        incrementally (see module docs).
        """
        if update.dst_group != self.group:
            raise ValueError(
                f"update for group {update.dst_group} delivered to group {self.group}"
            )
        if update.values.shape != (self.n_local,):
            raise ValueError(
                f"update vector shape {update.values.shape}, want ({self.n_local},)"
            )
        src = update.src_group
        if src in self._latest_gen and update.generation <= self._latest_gen[src]:
            self.stale_updates += 1
            return
        values = np.array(update.values, dtype=np.float64)
        old = self._latest_values.get(src)
        self._latest_gen[src] = update.generation
        self._latest_values[src] = values
        if old is None:
            # Appending a new source to the running sum in arrival
            # order is the same arithmetic as re-summing, so the cache
            # stays exact.
            if not self._x_dirty:
                np.add(self._x, values, out=self._x)
        else:
            self._x_dirty = True
        self._mail = True

    def seed_afferent(self, src: int, values: np.ndarray) -> None:
        """Install a synthetic generation-0 afferent vector from ``src``.

        The outer step recomputes ``R`` from ``βE + X``, so carrying a
        previous rank vector into ``r`` alone is erased by the first
        step before it is ever sent.  A warm start must therefore also
        seed ``X`` with the contributions each neighbour *would* have
        sent for the carried ranks (see
        :meth:`~repro.core.coordinator.DistributedRun.warm_start`); the
        first step then refines the previous fixed point instead of
        recomputing the mail-free solution.  Any real update
        (generation ≥ 1) supersedes the seed.
        """
        values = np.array(values, dtype=np.float64)
        if values.shape != (self.n_local,):
            raise ValueError(
                f"seed vector shape {values.shape}, want ({self.n_local},)"
            )
        if src in self._latest_gen:
            raise ValueError(f"afferent from source {src} already present")
        self._latest_values[src] = values
        self._latest_gen[src] = 0
        if not self._x_dirty:
            np.add(self._x, values, out=self._x)
        self._mail = True

    def _refresh(self) -> np.ndarray:
        """Bring the running ``X`` up to date; returns the live buffer."""
        if self._x_dirty:
            x = self._x
            x[:] = 0.0
            for vec in self._latest_values.values():
                np.add(x, vec, out=x)
            self._x_dirty = False
        return self._x

    def refresh_x(self) -> np.ndarray:
        """The "Refresh X" step: sum of newest per-source vectors.

        Returns a fresh copy (the live running sum stays internal).
        """
        return self._refresh().copy()

    def step(self) -> np.ndarray:
        """One outer loop: refresh X, recompute R; returns the new R.

        DPR1 runs ``GroupPageRank(R_i, X_{i+1})`` — a full Jacobi solve
        warm-started from the previous local ranks; DPR2 performs a
        single sweep ``R ← A_G R + βE + X``.  The returned array is the
        node's live ``r`` buffer, updated in place each step.
        """
        if self.n_local == 0:
            self.outer_iterations += 1
            self.last_step_delta = 0.0
            return self.r
        if self._mail:
            self._refresh()
            np.add(self.beta_e, self._x, out=self._f)
            self._mail = False
        else:
            self.refresh_skips += 1
        self.last_step_delta, sweeps = group_step(
            self.a_group, self.r, self._f, self._workspace,
            mode=self.mode, inner_solver=self.inner_solver,
            local_tol=self.local_tol, max_inner=self.max_inner,
        )
        self.inner_sweeps += sweeps
        self.outer_iterations += 1
        return self.r

    # ------------------------------------------------------------------
    # Checkpointing (paper §4.2: nodes "may even shutdown")
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of all mutable algorithm state.

        A ranker that shuts down mid-run can persist this and, on
        restart, resume exactly where it left off — the generation
        stamps make re-delivered afferent updates harmless.
        """
        return {
            "group": self.group,
            "mode": self.mode,
            "r": self.r.copy(),
            "latest_values": {s: v.copy() for s, v in self._latest_values.items()},
            "latest_gen": dict(self._latest_gen),
            "outer_iterations": self.outer_iterations,
            "inner_sweeps": self.inner_sweeps,
            "stale_updates": self.stale_updates,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The operator and βE term are reconstruction-time inputs (they
        derive from the graph), so only the mutable state is restored;
        group and mode must match.
        """
        if state["group"] != self.group:
            raise ValueError(
                f"checkpoint is for group {state['group']}, node is group {self.group}"
            )
        if state["mode"] != self.mode:
            raise ValueError(
                f"checkpoint mode {state['mode']!r} != node mode {self.mode!r}"
            )
        r = np.asarray(state["r"], dtype=np.float64)
        if r.shape != (self.n_local,):
            raise ValueError(f"checkpoint r has shape {r.shape}, want ({self.n_local},)")
        np.copyto(self.r, r)
        self._latest_values = {
            int(s): np.asarray(v, dtype=np.float64).copy()
            for s, v in state["latest_values"].items()
        }
        self._latest_gen = {int(s): int(g) for s, g in state["latest_gen"].items()}
        # The running sum and cached f are derived state: force both to
        # rebuild on the next refresh/step.
        self._x_dirty = True
        self._mail = True
        self.outer_iterations = int(state["outer_iterations"])
        self.inner_sweeps = int(state["inner_sweeps"])
        self.stale_updates = int(state["stale_updates"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DPRNode(group={self.group}, mode={self.mode}, pages={self.n_local}, "
            f"outer={self.outer_iterations})"
        )
