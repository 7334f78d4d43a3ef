"""Jacobi fixed-point iteration for ``x = Px + f``.

This is the computational heart of both Algorithm 1 (centralized
PageRank, where ``f = (1−α)E``) and Algorithm 2 (GroupPageRank, where
``f = βE + X``).  Convergence for ``‖P‖∞ < 1`` follows from the
paper's Theorems 3.1–3.2; termination uses the step difference per
Theorem 3.3.

The sweep is a single CSR SpMV plus a vector add — the recommended
"one vectorized kernel per iteration" structure for numerical Python.

Allocation-free sweeps
----------------------
Every solve runs in a :class:`JacobiWorkspace` — ping-pong iterate
buffers and a scratch vector — so it performs **zero** heap
allocations per sweep: the SpMV writes into a preallocated output via
the CSR kernel, ``f`` is added in place, and the ``‖Δx‖₁`` termination
reduction is fused into the same scratch buffer.  A bare
``jacobi_solve(p, f)`` allocates its own workspace for the call; a
long-lived caller (the engines' group step, one shared max-group-size
workspace per run) passes one it keeps for its lifetime, so DPR1's
warm-started inner solves stop generating O(n_local) garbage every
outer loop.  The
arithmetic is the same either way (the equivalence test layer pins it
against a sweep-by-sweep reference loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

try:  # scipy's raw CSR kernel: y += A @ x with no temporary
    from scipy.sparse import _sparsetools as _spt

    _CSR_MATVEC = _spt.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _CSR_MATVEC = None

__all__ = [
    "JacobiResult",
    "JacobiWorkspace",
    "csr_matvec_into",
    "jacobi_sweep",
    "jacobi_solve",
]


def csr_matvec_into(p: sp.spmatrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out ← P @ x`` without allocating the SpMV result.

    Uses scipy's raw CSR kernel (the same routine ``P @ x`` calls
    internally, so results are bit-identical) on a zeroed ``out``.
    Falls back to ``out[:] = P @ x`` for non-CSR operators or scipy
    builds without the private kernel.  ``out`` must not alias ``x``.
    """
    if _CSR_MATVEC is not None and isinstance(p, sp.csr_matrix):
        out[:] = 0.0
        _CSR_MATVEC(
            p.shape[0], p.shape[1], p.indptr, p.indices, p.data, x, out
        )
        return out
    out[:] = p @ x
    return out


@dataclass
class JacobiWorkspace:
    """Reusable buffers making Jacobi sweeps/solves allocation-free.

    Holds two ping-pong iterate buffers and one scratch vector for the
    fused ``‖Δx‖₁`` reduction.  One workspace serves one problem size;
    a node that lives for many outer loops allocates it once.

    Buffers returned to callers (e.g. ``JacobiResult.x`` from a
    workspace-backed solve) remain owned by the workspace: they are
    valid until the workspace's next use, so copy them out if they
    must survive (the group step copies into the engine's rank vector).
    """

    n: int
    _ping: np.ndarray = field(init=False, repr=False)
    _pong: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("workspace size must be >= 0")
        self._ping = np.zeros(self.n, dtype=np.float64)
        self._pong = np.zeros(self.n, dtype=np.float64)
        self._scratch = np.zeros(self.n, dtype=np.float64)

    def check_size(self, n: int) -> None:
        """Raise if this workspace was sized for a different problem."""
        if n != self.n:
            raise ValueError(f"workspace sized for n={self.n}, problem has n={n}")

    def sliced(self, n: int) -> "JacobiWorkspace":
        """A view-workspace for a smaller problem sharing these buffers.

        Every workspace-backed solve fully (re)initializes its buffers
        from the solve's own inputs, so *sequential* solves of
        different sizes can share one max-size allocation instead of
        each holding its own — K per-group workspaces collapse to one.
        Views alias the parent's memory: never use a view concurrently
        with the parent or a sibling, and copy results out before the
        next solve (callers must already do both).
        """
        if not 0 <= n <= self.n:
            raise ValueError(f"cannot slice a size-{self.n} workspace to n={n}")
        ws = object.__new__(JacobiWorkspace)
        ws.n = n
        ws._ping = self._ping[:n]
        ws._pong = self._pong[:n]
        ws._scratch = self._scratch[:n]
        return ws

    def sweep_delta(
        self, p: sp.spmatrix, x: np.ndarray, f: np.ndarray, out: np.ndarray
    ) -> float:
        """Fused sweep + reduction: ``out ← Px + f``; returns ``‖out − x‖₁``.

        All work happens in preallocated buffers; the delta reduction
        reuses the workspace scratch vector, so the only arrays touched
        are the ones already owned by the caller/workspace.
        """
        csr_matvec_into(p, x, out)
        np.add(out, f, out=out)
        sc = self._scratch
        np.subtract(out, x, out=sc)
        np.abs(sc, out=sc)
        return float(sc.sum())


def jacobi_sweep(
    p: sp.spmatrix, x: np.ndarray, f: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One sweep ``P @ x + f``.

    ``out`` may be provided to reuse an output buffer, in which case
    the sweep allocates nothing (the SpMV writes straight into
    ``out``); ``out`` must not alias ``x``.
    """
    if out is None:
        return p.dot(x) + f
    csr_matvec_into(p, x, out)
    np.add(out, f, out=out)
    return out


@dataclass
class JacobiResult:
    """Outcome of a Jacobi solve.

    Attributes
    ----------
    x:
        Final iterate.  For a solve on a caller-supplied workspace this
        is a workspace buffer — valid until the workspace is next used.
    iterations:
        Number of sweeps performed (0 if ``x0`` already met ``tol``
        is impossible — we always perform at least one sweep).
    converged:
        Whether the step difference fell below ``tol`` within
        ``max_iter`` sweeps.
    final_delta:
        ``‖x_m − x_{m−1}‖₁`` at exit.
    deltas:
        Per-sweep step differences when ``record_history`` was set.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    final_delta: float
    deltas: List[float] = field(default_factory=list)


def jacobi_solve(
    p: sp.spmatrix,
    f: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    record_history: bool = False,
    workspace: Optional[JacobiWorkspace] = None,
) -> JacobiResult:
    """Iterate ``x ← P x + f`` until ``‖Δx‖₁ ≤ tol``.

    Parameters
    ----------
    p:
        Sparse operator with ``‖P‖∞ < 1`` for guaranteed convergence
        (not enforced; the iteration count guard catches divergence).
    f:
        Constant term.
    x0:
        Starting iterate; zeros by default (the paper's choice for the
        monotonicity theorems).
    tol:
        L1 step-difference threshold (the paper's ε).
    max_iter:
        Hard sweep limit.
    record_history:
        Keep the per-sweep ``‖Δx‖₁`` series (used by convergence
        plots/tests).
    workspace:
        A :class:`JacobiWorkspace` sized for this problem, whose
        ping-pong buffers every sweep runs in.  Omitted, the call
        allocates its own and the returned ``x`` belongs to the
        caller; given, the returned ``x`` **aliases a workspace
        buffer** (copy it if it must outlive the workspace's next use).
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"operator shape {p.shape} incompatible with f of size {n}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if x0 is not None and np.shape(x0) != (n,):
        raise ValueError(f"x0 shape {np.shape(x0)} incompatible with f of size {n}")

    if workspace is None:
        workspace = JacobiWorkspace(n)
    workspace.check_size(n)
    x = workspace._ping
    y = workspace._pong
    if x0 is None:
        x[:] = 0.0
    else:
        np.copyto(x, np.asarray(x0, dtype=np.float64))

    deltas: List[float] = []
    for iterations in range(1, max_iter + 1):
        delta = workspace.sweep_delta(p, x, f, out=y)
        x, y = y, x
        if record_history:
            deltas.append(delta)
        if delta <= tol:
            break
    return JacobiResult(
        x=x,
        iterations=iterations,
        converged=delta <= tol,
        final_delta=delta,
        deltas=deltas,
    )
