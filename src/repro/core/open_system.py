"""Open System PageRank (paper §3).

A *page group* is the set of pages one ranker owns.  For page ``v`` in
group ``G`` the paper decomposes rank into three sources::

    R(v) = I(v) + V(v) + X(v)
         = α Σ_{u∈Bv∩G} R(u)/d(u)   (inner links, eq. 3.1)
         + β E(v)                    (virtual links, eq. 3.2)
         + X(v)                      (afferent links)

yielding the per-group fixed point ``R = A_G R + (βE + X)`` (eq. 3.4),
where ``A_G`` is the group's diagonal block with entries ``α/d(u)``.
Algorithm 2 (``GroupPageRank``) solves it by Jacobi iteration —
guaranteed to converge because ``ρ(A_G) ≤ ‖·‖ ≤ α < 1``
(Theorems 3.1–3.2).

Efferent ranks ``Y`` (eq. 3.5) are computed from the cut operator.
The paper prints the efferent matrix entry as ``β/d(u)``; as recorded
in DESIGN.md this must be ``α/d(u)`` for the distributed fixed point to
match centralized PageRank (β is already consumed by the virtual-link
term), and that is what :class:`~repro.linalg.operators.GroupBlocks`
builds.

:class:`GroupSystem` packages everything a set of rankers needs:
blocks, per-group ``βE`` terms, and assembly helpers.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import JacobiResult, jacobi_solve
from repro.linalg.operators import GroupBlocks, group_blocks
from repro.utils.validation import check_fraction

__all__ = ["GroupSystem", "group_pagerank"]


def group_pagerank(
    a_group: sp.spmatrix,
    beta_e: np.ndarray,
    x: np.ndarray,
    r0: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> JacobiResult:
    """Algorithm 2: ``GroupPageRank(R0, X)``.

    Iterates ``R ← A_G R + βE + X`` from ``r0`` until the L1 step
    difference drops to ``tol``.  (The paper's listing prints the
    termination test as ``until δ > ε`` — an obvious inversion of
    Algorithm 1's ``while δ > ε``; we stop when ``δ ≤ ε``.)
    """
    if beta_e.shape != x.shape:
        raise ValueError(f"βE shape {beta_e.shape} != X shape {x.shape}")
    return jacobi_solve(a_group, beta_e + x, x0=r0, tol=tol, max_iter=max_iter)


class GroupSystem:
    """The open-system decomposition of a partitioned web graph.

    Construction builds every group's diagonal block, every cross
    block, and the per-group ``βE`` constant terms, all in vectorized
    passes.  This object is shared read-only by all rankers (in a real
    deployment each ranker holds just its own slice; the tests verify
    slices never interact except through explicit updates).

    Parameters
    ----------
    graph, partition:
        The crawl and its assignment to rankers.
    alpha:
        Damping factor (the paper's α; ``β = 1 − α``).
    e:
        Rank source: scalar (default 1, the paper's choice) or a
        per-page vector for personalized ranking.
    """

    def __init__(
        self,
        graph: WebGraph,
        partition: Partition,
        *,
        alpha: float = 0.85,
        e: Union[float, np.ndarray, None] = None,
    ):
        check_fraction(alpha, "alpha")
        if partition.n_pages != graph.n_pages:
            raise ValueError("partition and graph disagree on n_pages")
        self.graph = graph
        self.partition = partition
        self.alpha = float(alpha)
        self.beta = 1.0 - self.alpha
        self.blocks: GroupBlocks = group_blocks(graph, partition, alpha)

        n = graph.n_pages
        if e is None:
            e_full = np.ones(n, dtype=np.float64)
        elif np.isscalar(e):
            e_full = np.full(n, float(e), dtype=np.float64)
        else:
            e_full = np.asarray(e, dtype=np.float64)
            if e_full.shape != (n,):
                raise ValueError(f"E must be scalar or shape ({n},)")
        self.e_full = e_full
        self._beta_e: Optional[List[np.ndarray]] = None

    @property
    def beta_e(self) -> List[np.ndarray]:
        """Per-group constant term ``βE`` of eq. 3.4 (built on first use).

        The engines assemble their own concatenated copy straight from
        ``e_full`` and never force this list into existence.
        """
        if self._beta_e is None:
            self._beta_e = [
                self.beta * self.e_full[self.blocks.pages[g]]
                for g in range(self.n_groups)
            ]
        return self._beta_e

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return self.blocks.n_groups

    @property
    def n_pages(self) -> int:
        return self.graph.n_pages

    def group_size(self, g: int) -> int:
        """Number of pages owned by group ``g``."""
        return self.blocks.group_size(g)

    def diag(self, g: int) -> sp.csr_matrix:
        """Group ``g``'s inner-link operator ``A_G``."""
        return self.blocks.diag[g]

    def destinations_of(self, g: int) -> List[int]:
        """Groups that receive rank from group ``g`` (precomputed)."""
        return self.blocks.destinations_of(g)

    def sources_of(self, h: int) -> List[int]:
        """Groups that send rank to group ``h`` (precomputed)."""
        return self.blocks.sources_of(h)

    def cross_records(self, g: int, h: int) -> int:
        """Number of link records group ``g`` ships to group ``h``."""
        return self.blocks.cross_records(g, h)

    # ------------------------------------------------------------------
    def assemble(
        self, group_ranks: List[np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Scatter per-group local vectors back into a global vector.

        ``out`` may supply a reusable ``(n_pages,)`` float64 buffer:
        the groups partition the page set, so every element is
        overwritten and no clearing is needed.
        """
        if len(group_ranks) != self.n_groups:
            raise ValueError(
                f"expected {self.n_groups} group vectors, got {len(group_ranks)}"
            )
        if out is None:
            out = np.zeros(self.n_pages, dtype=np.float64)
        elif out.shape != (self.n_pages,) or out.dtype != np.float64:
            raise ValueError(f"out must be float64 of shape ({self.n_pages},)")
        for g, r in enumerate(group_ranks):
            pages = self.blocks.pages[g]
            if r.shape != (pages.size,):
                raise ValueError(f"group {g} vector has shape {r.shape}, want ({pages.size},)")
            out[pages] = r
        return out

    def exact_afferent(self, group_ranks: List[np.ndarray]) -> List[np.ndarray]:
        """Ground-truth afferent vectors ``X`` given every group's ranks.

        Used by tests to verify that the message-passing system delivers
        exactly what the algebra says it should.
        """
        xs = [np.zeros(self.group_size(h)) for h in range(self.n_groups)]
        for (g, h), block in self.blocks.cross.items():
            xs[h] += block @ group_ranks[g]
        return xs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupSystem(n_pages={self.n_pages}, n_groups={self.n_groups}, "
            f"alpha={self.alpha})"
        )
