"""The DPR1 / DPR2 group step (paper §4.2, Algorithms 3 & 4).

Both algorithms run the same outer loop on every ranker::

    loop:
        X ← refresh X          # newest afferent vectors received
        R ← compute            # DPR1: GroupPageRank to convergence
                               # DPR2: a single Jacobi sweep
        Y ← efferent(R); send
        wait

:func:`group_step` is the "compute" line, and the only place either
algorithm's update of ``R`` is written.  Every engine keeps its
rankers' state in one flat memory (:mod:`repro.core.engine`: the rank
vector, the received afferent segments with a generation and a
first-arrival stamp per pair, the per-group counters) and steps a group
by calling this function on the group's slices; the engines differ only
in *which* groups step *when* — all of them every round (flat), due
groups per round (hybrid), or one ranker per simulated wake (event).

Refresh-X semantics: a receiver keeps, per source group, the newest
update by generation (stale arrivals are discarded and counted), and
``X`` is the sum over sources in first-arrival order.  With ``R0 = 0``
every group's rank sequence is monotone non-decreasing and bounded by
the centralized fixed point (Theorems 4.1/4.2) — both asserted by the
test suite on engine runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.linalg.jacobi import JacobiWorkspace, jacobi_solve

__all__ = ["group_step"]

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
