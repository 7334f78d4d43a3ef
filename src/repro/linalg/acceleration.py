"""Accelerated and alternative fixed-point solvers.

Two extensions beyond the paper's plain Jacobi iteration:

* **Gauss–Seidel** (:func:`gauss_seidel_solve`) — uses each freshly
  computed component within the same sweep by splitting
  ``A = L + U`` (strict lower / remaining) and solving
  ``(I − L)·x_{k+1} = U·x_k + f`` with a sparse triangular solve.
  For PageRank-type operators this roughly halves the sweep count at
  the same per-sweep cost; it is offered as the DPR1 inner solver via
  ``DistributedConfig(inner_solver="gauss_seidel")``.
* **Aitken Δ² extrapolation** (:func:`jacobi_solve_accelerated`) —
  the paper cites Kamvar et al.'s extrapolation methods [8] for
  accelerating PageRank; this implements the simplest member of that
  family: periodically replace the iterate by its componentwise
  Aitken extrapolation, which annihilates the dominant geometric
  error term.

Both return the same :class:`~repro.linalg.jacobi.JacobiResult`
contract as :func:`~repro.linalg.jacobi.jacobi_solve` so they are
drop-in replacements, and both are benchmarked against plain Jacobi in
``benchmarks/bench_solvers.py``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.linalg.jacobi import JacobiResult, jacobi_sweep
from repro.linalg.norms import l1_norm

__all__ = ["gauss_seidel_solve", "aitken_extrapolate", "jacobi_solve_accelerated"]


def gauss_seidel_solve(
    p: sp.spmatrix,
    f: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    record_history: bool = False,
) -> JacobiResult:
    """Solve ``x = Px + f`` by forward Gauss–Seidel sweeps.

    Requires ``ρ(P) < 1`` with ``P ≥ 0`` (always true for the
    propagation operators here); under those conditions Gauss–Seidel
    converges at least as fast as Jacobi (Stein–Rosenberg theorem).
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"operator shape {p.shape} incompatible with f of size {n}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if n == 0:
        return JacobiResult(np.zeros(0), 1, True, 0.0)

    csr = p.tocsr()
    lower = sp.tril(csr, k=-1, format="csr")
    upper = (csr - lower).tocsr()
    # (I - L) x_{k+1} = U x_k + f ; I - L is unit lower triangular.
    i_minus_l = (sp.identity(n, format="csr") - lower).tocsr()

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 shape {x.shape} incompatible with f of size {n}")
    deltas: List[float] = []
    delta = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rhs = upper @ x + f
        x_new = spsolve_triangular(i_minus_l, rhs, lower=True, unit_diagonal=True)
        delta = l1_norm(x_new - x)
        x = x_new
        if record_history:
            deltas.append(delta)
        if delta <= tol:
            return JacobiResult(x, iterations, True, delta, deltas)
    return JacobiResult(x, iterations, False, float(delta), deltas)


def aitken_extrapolate(
    x0: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Componentwise Aitken Δ² extrapolation of three successive iterates.

    For a component following ``x_k = x* + c·λ^k`` the formula returns
    ``x*`` exactly; components where the denominator vanishes (already
    converged) keep their latest value.
    """
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-300
    out = x2.copy()
    out[safe] = x2[safe] - (d2[safe] ** 2) / denom[safe]
    return out


def jacobi_solve_accelerated(
    p: sp.spmatrix,
    f: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    extrapolate_every: int = 10,
    record_history: bool = False,
) -> JacobiResult:
    """Jacobi iteration with periodic Aitken Δ² extrapolation.

    Every ``extrapolate_every`` sweeps, the last three iterates are
    extrapolated and the result — clipped to be non-negative, since
    rank vectors are — replaces the current iterate.  The final answer
    still satisfies the fixed point to ``tol`` because plain sweeps
    continue from the extrapolated iterate.
    """
    if extrapolate_every < 3:
        raise ValueError("extrapolate_every must be >= 3")
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"operator shape {p.shape} incompatible with f of size {n}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    deltas: List[float] = []
    delta = np.inf
    window: List[np.ndarray] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_new = jacobi_sweep(p, x, f)
        delta = l1_norm(x_new - x)
        x = x_new
        if record_history:
            deltas.append(delta)
        if delta <= tol:
            return JacobiResult(x, iterations, True, delta, deltas)
        window.append(x)
        if len(window) > 3:
            window.pop(0)
        if iterations % extrapolate_every == 0 and len(window) == 3:
            x = np.maximum(aitken_extrapolate(*window), 0.0)
            window.clear()
    return JacobiResult(x, iterations, False, float(delta), deltas)
