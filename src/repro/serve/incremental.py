"""Incremental rank maintenance with a certified staleness budget.

The open-system loop of :mod:`repro.crawl.online` already demonstrates
the paper's §4.3 conjecture operationally: old ranks are a good
estimate of the new fixed point after the graph mutates.  This module
turns that observation into a *maintenance contract* a serving system
can rely on:

* **Mutations are staged, then flushed.**  A :class:`MutationBatch`
  carries page insertions and internal-link / external-count edits.
  :meth:`IncrementalRanker.update` applies one batch and re-solves.
* **Dirty-group tracking.**  The propagation entry ``α/d(u)`` depends
  only on the source page, so a mutated page invalidates exactly the
  operator *columns* of its pages within its group's stripe —
  ``diag[g]`` plus every ``cross[(g, h)]``.  When few of a group's
  pages mutated, the columns are swapped in place by sparse delta adds
  (:meth:`IncrementalRanker._apply_stripe_delta`); past ~a quarter of
  the group the whole stripe is rebuilt in one vectorized pass by
  :func:`repro.linalg.operators.source_group_blocks`.  The site-hash
  partition is stable (a page's group never changes), so site-local
  edit bursts touch few stripes.
* **One warm-started solve loop.**  Construction and every non-empty
  flush run the same loop: block Gauss–Seidel rounds over every group,
  each group solving its local fixed point (Algorithm 2, via the
  existing :func:`~repro.linalg.jacobi.jacobi_solve` workspace kernels)
  warm-started from its current ranks.  A serving feed's batch
  dirties nearly every group, so every round re-solves every group.
* **Certified ε staleness.**  Once a round moves the ranks little, one
  global O(nnz) certification sweep measures ``Δ = ‖Pr + f − r‖₁`` and
  Theorem 3.3 (serving form,
  :func:`~repro.linalg.norms.pre_sweep_error_bound`) converts it into
  a hard bound on the served vector's L1 distance to the current
  graph's fixed point.  The loop keeps sweeping while that bound
  exceeds the configured ε budget (relative to ``‖r‖₁``).

The fixed point maintained is exactly
``pagerank_open(current_graph(), alpha, e)``: tests pin the measured
drift below ε against that reference after arbitrary mutation
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import JacobiWorkspace, jacobi_solve
from repro.linalg.norms import l1_norm, pre_sweep_error_bound
from repro.linalg.operators import group_blocks, source_group_blocks
from repro.utils.hashing import stable_uint64
from repro.utils.validation import check_fraction, check_positive

__all__ = ["MutationBatch", "FlushStats", "IncrementalRanker"]

#: Hard cap on the solve loop's rounds; the block sweeps contract, so
#: reaching it means a broken operator, not a slow one.
_MAX_ROUNDS = 10_000


@dataclass
class MutationBatch:
    """One unit of graph change applied atomically by a flush.

    Attributes
    ----------
    new_pages:
        Site hostname per inserted page.  Page ids are assigned
        sequentially from the current page count, in list order, so
        links inside the same batch may already reference them.
    add_links / remove_links:
        Internal link edits ``(src, dst)``.  Links are multisets:
        adding twice confers rank twice, removing deletes one
        occurrence (removing an absent link is an error — a serving
        feed that desyncs from its crawler must fail loudly).
    external_delta:
        Per-page change to the count of out-links pointing outside the
        crawl (the open-system leak of §3).
    """

    new_pages: List[str] = field(default_factory=list)
    add_links: List[Tuple[int, int]] = field(default_factory=list)
    remove_links: List[Tuple[int, int]] = field(default_factory=list)
    external_delta: Dict[int, int] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when the batch carries no mutations at all."""
        return not (
            self.new_pages
            or self.add_links
            or self.remove_links
            or self.external_delta
        )

    def __len__(self) -> int:
        return (
            len(self.new_pages)
            + len(self.add_links)
            + len(self.remove_links)
            + len(self.external_delta)
        )


@dataclass
class FlushStats:
    """Outcome of one :meth:`IncrementalRanker.flush`.

    ``changed_pages``/``changed_values`` list every page whose rank
    moved (plus every inserted page), which is exactly the delta a
    downstream query index needs.  ``touched_groups`` counts the
    non-empty groups the solve loop re-solved.
    """

    n_pages: int
    dirty_groups: int
    touched_groups: int
    rounds: int
    inner_sweeps: int
    mode: str  # "noop" | "incremental"
    staleness_bound: float
    changed_pages: np.ndarray
    changed_values: np.ndarray


class IncrementalRanker:
    """Maintain open-system PageRank under edge/page mutations.

    Parameters
    ----------
    graph:
        Initial crawl snapshot (may be empty; pages can arrive purely
        through batches).
    n_groups:
        Ranker count K.  Pages are placed by the paper's stable
        site-hash rule, matching
        :func:`repro.graph.partition.partition_by_site_hash` exactly.
    alpha, e:
        Damping factor and the scalar rank source (``E(v) = e``).
    epsilon:
        Relative-L1 staleness budget: after every flush the served
        vector is certified within ``epsilon·‖r‖₁`` of the current
        graph's fixed point (Theorem 3.3, serving form).
    salt:
        Site-hash salt (must match the partition salt of any
        co-deployed distributed run).
    """

    def __init__(
        self,
        graph: WebGraph,
        *,
        n_groups: int = 8,
        alpha: float = 0.85,
        e: float = 1.0,
        epsilon: float = 1e-3,
        salt: str = "",
    ):
        check_fraction(alpha, "alpha")
        check_positive(epsilon, "epsilon")
        if n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if e < 0:
            raise ValueError("e must be >= 0")
        self.alpha = float(alpha)
        self.e = float(e)
        self.epsilon = float(epsilon)
        self.n_groups = int(n_groups)
        self.salt = salt

        # --- mutable adjacency (the serving tier's own copy of C) ----
        self._out: List[List[int]] = [
            graph.successors(p).tolist() for p in range(graph.n_pages)
        ]
        self._ext: List[int] = [int(x) for x in graph.external_out]
        self._site: List[int] = [int(s) for s in graph.site_of]
        self._site_names: List[str] = list(graph.site_names)
        self._site_id: Dict[str, int] = {
            name: i for i, name in enumerate(self._site_names)
        }
        self._site_group: List[int] = [
            self._hash_group(name) for name in self._site_names
        ]

        # --- partition state (site hash: stable under mutation) ------
        if graph.n_pages:
            group_of = np.asarray(
                [self._site_group[s] for s in self._site], dtype=np.int64
            )
        else:
            group_of = np.zeros(0, dtype=np.int64)
        partition = Partition(group_of, self.n_groups)
        self._group_of = group_of
        self._local = partition.local_index()
        self._pages: List[np.ndarray] = [
            partition.pages_of_group(g) for g in range(self.n_groups)
        ]

        # --- operator blocks (existing grouped kernel builder) -------
        blocks = group_blocks(graph, partition, self.alpha)
        self._diag: List[sp.csr_matrix] = list(blocks.diag)
        self._cross: Dict[Tuple[int, int], sp.csr_matrix] = dict(blocks.cross)
        self._dests: List[Set[int]] = [set() for _ in range(self.n_groups)]
        self._srcs: List[Set[int]] = [set() for _ in range(self.n_groups)]
        for (g, h) in self._cross:
            self._dests[g].add(h)
            self._srcs[h].add(g)

        # --- rank state ----------------------------------------------
        beta = 1.0 - self.alpha
        self._r: List[np.ndarray] = [
            np.zeros(p.size, dtype=np.float64) for p in self._pages
        ]
        self._f: List[np.ndarray] = [
            np.full(p.size, beta * self.e, dtype=np.float64) for p in self._pages
        ]
        self._ws = JacobiWorkspace(max((p.size for p in self._pages), default=0))
        self._ranks_cache: Optional[np.ndarray] = None

        # --- staged mutations ----------------------------------------
        self._staged_dirty: Set[int] = set()  # pages with edited out-links
        self._staged_new: List[int] = []  # page ids inserted since last flush
        self._staged_new_set: Set[int] = set()
        #: page -> (out-links, external count) before this flush's edits;
        #: the old operator column, for the sparse delta update path.
        self._pristine: Dict[int, Tuple[List[int], int]] = {}
        self._staged_any = False

        # --- counters -------------------------------------------------
        self.flushes = 0
        self.total_inner_sweeps = 0
        self.last_staleness_bound = float("inf")
        self._eps_abs = self._compute_eps_abs()
        self.last_stats = self._solve(self.n_groups, np.zeros(0))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return len(self._out)

    @property
    def ranks(self) -> np.ndarray:
        """The currently served global rank vector (assembled, cached)."""
        if self._ranks_cache is None:
            out = np.zeros(self.n_pages, dtype=np.float64)
            for g in range(self.n_groups):
                out[self._pages[g]] = self._r[g]
            self._ranks_cache = out
        return self._ranks_cache

    def group_of_page(self, page: int) -> int:
        """The (stable) group owning ``page``."""
        self._check_page(page)
        return int(self._group_of[page])

    def out_degree(self, page: int) -> int:
        """Total out-degree (internal + external) of ``page``."""
        self._check_page(page)
        return len(self._out[page]) + self._ext[page]

    def current_graph(self) -> WebGraph:
        """Materialize the current adjacency as an immutable WebGraph.

        Equals the crawler snapshot a feed was built from (asserted by
        the serve test layer), so references computed on it are the
        ground truth the ε budget is measured against.
        """
        counts = [len(t) for t in self._out]
        total = sum(counts)
        src = np.repeat(np.arange(self.n_pages, dtype=np.int64), counts)
        dst = np.fromiter(
            (t for targets in self._out for t in targets),
            dtype=np.int64,
            count=total,
        )
        return WebGraph(
            self.n_pages,
            src,
            dst,
            site_of=np.asarray(self._site, dtype=np.int64),
            external_out=np.asarray(self._ext, dtype=np.int64),
            site_names=list(self._site_names),
        )

    def partition(self) -> Partition:
        """The current (site-hash) page-to-group assignment."""
        return Partition(self._group_of.copy(), self.n_groups)

    # ------------------------------------------------------------------
    # Mutation staging
    # ------------------------------------------------------------------
    def add_page(self, site_name: str) -> int:
        """Insert a page on ``site_name``; returns its id (stageable)."""
        sid = self._site_id.get(site_name)
        if sid is None:
            sid = len(self._site_names)
            self._site_names.append(site_name)
            self._site_id[site_name] = sid
            self._site_group.append(self._hash_group(site_name))
        page = self.n_pages
        self._out.append([])
        self._ext.append(0)
        self._site.append(sid)
        self._staged_new.append(page)
        self._staged_new_set.add(page)
        self._staged_any = True
        return page

    def _snapshot(self, page: int) -> None:
        """Capture a page's pre-flush column before its first edit."""
        if page not in self._staged_new_set and page not in self._pristine:
            self._pristine[page] = (list(self._out[page]), self._ext[page])

    def add_link(self, src: int, dst: int) -> None:
        """Stage one internal link ``src -> dst``."""
        self._check_page(src)
        self._check_page(dst)
        self._snapshot(src)
        self._out[src].append(dst)
        self._staged_dirty.add(src)
        self._staged_any = True

    def remove_link(self, src: int, dst: int) -> None:
        """Stage removal of one ``src -> dst`` occurrence (strict)."""
        self._check_page(src)
        if dst not in self._out[src]:
            raise ValueError(f"no internal link {src} -> {dst} to remove")
        self._snapshot(src)
        self._out[src].remove(dst)
        self._staged_dirty.add(src)
        self._staged_any = True

    def adjust_external(self, page: int, delta: int) -> None:
        """Stage a change to ``page``'s external out-link count."""
        self._check_page(page)
        if self._ext[page] + delta < 0:
            raise ValueError(
                f"external count of page {page} would become negative"
            )
        self._snapshot(page)
        self._ext[page] += int(delta)
        self._staged_dirty.add(page)
        self._staged_any = True

    def stage(self, batch: MutationBatch) -> None:
        """Stage a whole batch (insertions first, then link edits)."""
        for site_name in batch.new_pages:
            self.add_page(site_name)
        for src, dst in batch.remove_links:
            self.remove_link(src, dst)
        for src, dst in batch.add_links:
            self.add_link(src, dst)
        for page, delta in batch.external_delta.items():
            if delta:
                self.adjust_external(page, delta)

    def update(self, batch: MutationBatch) -> FlushStats:
        """Stage ``batch`` and flush: the one-call maintenance step."""
        self.stage(batch)
        return self.flush()

    # ------------------------------------------------------------------
    # Flush: rebuild dirty stripes, warm re-solve, certify
    # ------------------------------------------------------------------
    def flush(self) -> FlushStats:
        """Apply staged mutations and re-certify the ε budget."""
        if not self._staged_any:
            stats = FlushStats(
                n_pages=self.n_pages,
                dirty_groups=0,
                touched_groups=0,
                rounds=0,
                inner_sweeps=0,
                mode="noop",
                staleness_bound=self.last_staleness_bound,
                changed_pages=np.zeros(0, dtype=np.int64),
                changed_values=np.zeros(0, dtype=np.float64),
            )
            self.last_stats = stats
            return stats

        new_pages = self._staged_new
        old_ranks = self.ranks[: self.n_pages - len(new_pages)]
        self._absorb_new_pages(new_pages)
        self._eps_abs = self._compute_eps_abs()

        touched_by_group: Dict[int, List[int]] = {}
        for p in sorted(self._staged_dirty | set(new_pages)):
            touched_by_group.setdefault(int(self._group_of[p]), []).append(p)
        for g, touched in sorted(touched_by_group.items()):
            # Column swaps win while few of the group's pages mutated;
            # past ~a quarter of the group, one vectorized stripe
            # rebuild is cheaper than many sparse adds.
            if 4 * len(touched) >= max(self._pages[g].size, 1):
                self._rebuild_source_stripe(g)
            else:
                self._apply_stripe_delta(g, touched)

        self._staged_dirty.clear()
        self._staged_new = []
        self._staged_new_set.clear()
        self._pristine.clear()
        self._staged_any = False
        self.flushes += 1
        self.last_stats = self._solve(len(touched_by_group), old_ranks)
        return self.last_stats

    def staleness(self) -> float:
        """Certified relative-L1 staleness of the served vector."""
        norm = l1_norm(self.ranks)
        if norm == 0.0:
            return 0.0 if self.last_staleness_bound == 0.0 else float("inf")
        return self.last_staleness_bound / norm

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hash_group(self, site_name: str) -> int:
        # Must match partition_by_site_hash bit for bit: same hash,
        # same salt prefix, same modulus.
        return int(stable_uint64(site_name, salt=f"site:{self.salt}") % self.n_groups)

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page {page} out of range [0, {self.n_pages})")

    def _compute_eps_abs(self) -> float:
        """The ε budget as an absolute L1 bound, fixed per flush.

        Relative to the served mass, floored at ``(1−α)e·n`` — a lower
        bound on the fixed point's mass (ranks dominate their source
        term entrywise) — so the budget is meaningful before the first
        solve and never collapses when the served vector starts at
        zero.
        """
        floor = (1.0 - self.alpha) * self.e * self.n_pages
        return self.epsilon * max(l1_norm(self.ranks), floor)

    def _absorb_new_pages(self, new_pages: Sequence[int]) -> None:
        """Extend partition/rank/block state for staged insertions."""
        if not new_pages:
            return
        beta = 1.0 - self.alpha
        new_group = np.asarray(
            [self._site_group[self._site[p]] for p in new_pages], dtype=np.int64
        )
        self._group_of = np.concatenate([self._group_of, new_group])
        self._local = np.concatenate(
            [self._local, np.zeros(len(new_pages), dtype=np.int64)]
        )
        grown: Dict[int, int] = {}
        for p, g in zip(new_pages, new_group):
            g = int(g)
            self._local[p] = self._pages[g].size + grown.get(g, 0)
            grown[g] = grown.get(g, 0) + 1
        for g, extra in grown.items():
            added = np.asarray(
                [p for p in new_pages if int(self._group_of[p]) == g],
                dtype=np.int64,
            )
            self._pages[g] = np.concatenate([self._pages[g], added])
            self._r[g] = np.concatenate(
                [self._r[g], np.zeros(extra, dtype=np.float64)]
            )
            self._f[g] = np.concatenate(
                [self._f[g], np.full(extra, beta * self.e, dtype=np.float64)]
            )
            # A grown group g changes block shapes two ways: blocks with
            # destination g gain empty rows, and blocks with *source* g
            # gain empty columns (free for CSR — only the shape moves).
            rows = self._pages[g].size
            for h in self._srcs[g]:
                self._cross[(h, g)] = _pad_rows(self._cross[(h, g)], rows)
            for h in self._dests[g]:
                blk = self._cross[(g, h)]
                self._cross[(g, h)] = sp.csr_matrix(
                    (blk.data, blk.indices, blk.indptr),
                    shape=(blk.shape[0], rows),
                )
            self._diag[g] = _pad_rows(self._diag[g], rows)
            self._diag[g] = sp.csr_matrix(
                (self._diag[g].data, self._diag[g].indices, self._diag[g].indptr),
                shape=(rows, rows),
            )
        max_size = max((p.size for p in self._pages), default=0)
        if max_size > self._ws.n:
            self._ws = JacobiWorkspace(int(max_size * 1.5) + 1)

    def _rebuild_source_stripe(self, g: int) -> None:
        """Rebuild diag[g] and cross[(g, ·)] from current adjacency."""
        pages_g = self._pages[g]
        outs = [self._out[int(p)] for p in pages_g]
        counts = [len(t) for t in outs]
        total = sum(counts)
        dst = np.fromiter(
            (t for targets in outs for t in targets),
            dtype=np.int64,
            count=total,
        )
        degrees = np.asarray(counts, dtype=np.float64)
        if pages_g.size:
            degrees += np.asarray(
                [self._ext[int(p)] for p in pages_g], dtype=np.float64
            )
        diag, cross = source_group_blocks(
            self.alpha,
            g,
            np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
            dst,
            degrees,
            self._pages,
            self._group_of,
            self._local,
        )
        self._diag[g] = diag
        stale = self._dests[g] - set(cross)
        for h in stale:
            del self._cross[(g, h)]
            self._srcs[h].discard(g)
        for h, block in cross.items():
            self._cross[(g, h)] = block
            self._srcs[h].add(g)
        self._dests[g] = set(cross)

    def _apply_stripe_delta(self, g: int, touched: Sequence[int]) -> None:
        """Swap the operator columns of a few mutated pages in place.

        The stripe-rebuild path re-flattens a whole group's adjacency
        even when one page changed; under serving load that O(group)
        cost dominates the flush.  This path instead subtracts each
        touched page's pre-edit column (captured by :meth:`_snapshot`)
        and adds its current one through one sparse add per affected
        block — O(block nnz) at C speed.  Both columns are computed
        with the block builders' exact arithmetic (``alpha * (1/d)``),
        so entries of unchanged links cancel to exact zeros and are
        pruned, keeping blocks bit-identical to a full rebuild.
        """
        alpha = self.alpha
        # Old and new columns accumulate into SEPARATE deltas applied
        # sequentially: ``(block - old) + new`` cancels a page's stale
        # entries to exact zeros before its fresh ones land, whereas a
        # combined ``block + (new - old)`` pre-sums the pair and leaves
        # 1-ulp residue on every re-edited entry.
        acc: Tuple[Dict[int, List[int]], ...] = ({}, {}, {})  # rows, cols, vals

        def emit(targets: Sequence[int], col: int, value: float) -> None:
            rows, cols, vals = acc
            for t in targets:
                h = int(self._group_of[t])
                rows.setdefault(h, []).append(int(self._local[t]))
                cols.setdefault(h, []).append(col)
                vals.setdefault(h, []).append(value)

        deltas: List[Tuple[Dict[int, List[int]], ...]] = []
        for sign in (-1.0, 1.0):
            acc = ({}, {}, {})
            for p in touched:
                col = int(self._local[p])
                if sign < 0:
                    pristine = self._pristine.get(p)
                    if pristine is None:
                        continue
                    out, ext = pristine
                else:
                    out, ext = self._out[p], self._ext[p]
                d = float(len(out) + ext)
                if d > 0:
                    emit(out, col, sign * (alpha * (1.0 / d)))
            deltas.append(acc)

        size_g = self._pages[g].size
        for rows, cols, vals in deltas:
            for h in rows:
                delta = sp.csr_matrix(
                    (vals[h], (rows[h], cols[h])),
                    shape=(self._pages[h].size, size_g),
                )
                if h == g:
                    block = self._diag[g] + delta
                    block.eliminate_zeros()
                    self._diag[g] = block
                    continue
                old = self._cross.get((g, h))
                block = delta if old is None else old + delta
                block.eliminate_zeros()
                if block.nnz:
                    self._cross[(g, h)] = block
                    self._dests[g].add(h)
                    self._srcs[h].add(g)
                elif old is not None:
                    del self._cross[(g, h)]
                    self._dests[g].discard(h)
                    self._srcs[h].discard(g)

    def _solve_group(self, h: int) -> float:
        """Local Algorithm-2 solve of group ``h``; returns its L1 change."""
        size = self._pages[h].size
        if size == 0:
            return 0.0
        x = self._f[h].copy()
        for g in self._srcs[h]:
            x += self._cross[(g, h)] @ self._r[g]
        res = jacobi_solve(
            self._diag[h],
            x,
            x0=self._r[h],
            tol=self._inner_tol,
            max_iter=10_000,
            workspace=self._ws.sliced(size),
        )
        self.total_inner_sweeps += res.iterations
        delta = l1_norm(res.x - self._r[h])
        self._r[h][:] = res.x
        return delta

    @property
    def _inner_tol(self) -> float:
        # Keep each local solve well inside the certification budget so
        # inner truncation cannot dominate the global sweep residual.
        return self._eps_abs / (16.0 * self.n_groups)

    def _solve(self, dirty_groups: int, old_ranks: np.ndarray) -> FlushStats:
        """The one solve loop, run at construction and by every flush.

        Warm-started rounds re-solve every group until one round moves
        the ranks by at most ``(1−α)·ε_abs/2`` in L1; from then on each
        round ends with the certification sweep, and the loop stops at
        the first round whose Theorem 3.3 bound is within the budget.
        Reports every page whose rank differs from ``old_ranks``, plus
        the pages beyond it (insertions).
        """
        sweeps_before = self.total_inner_sweeps
        target = self._eps_abs * (1.0 - self.alpha) / 2.0
        for rounds in range(1, _MAX_ROUNDS + 1):
            total = 0.0
            for h in range(self.n_groups):
                total += self._solve_group(h)
            if total > target:
                continue
            bound = pre_sweep_error_bound(self.alpha, self._certification_sweep())
            if bound <= self._eps_abs:
                break
        else:  # pragma: no cover - contraction
            raise RuntimeError(
                f"no certified solve within {_MAX_ROUNDS} rounds "
                f"(budget {self._eps_abs:.3e})"
            )
        self.last_staleness_bound = bound
        self._ranks_cache = None
        ranks = self.ranks
        m = old_ranks.size
        changed = np.concatenate(
            [np.flatnonzero(ranks[:m] != old_ranks), np.arange(m, ranks.size)]
        )
        return FlushStats(
            n_pages=self.n_pages,
            dirty_groups=dirty_groups,
            touched_groups=sum(1 for p in self._pages if p.size),
            rounds=rounds,
            inner_sweeps=self.total_inner_sweeps - sweeps_before,
            mode="incremental",
            staleness_bound=bound,
            changed_pages=changed,
            changed_values=ranks[changed],
        )

    def _certification_sweep(self) -> float:
        """One global Jacobi step difference ``‖Pr + f − r‖₁`` (not applied)."""
        total = 0.0
        for h in range(self.n_groups):
            if self._pages[h].size == 0:
                continue
            step = self._diag[h] @ self._r[h]
            step += self._f[h]
            for g in self._srcs[h]:
                step += self._cross[(g, h)] @ self._r[g]
            total += l1_norm(step - self._r[h])
        return total


def _pad_rows(block: sp.csr_matrix, n_rows: int) -> sp.csr_matrix:
    """Extend a CSR block with trailing empty rows (shape growth only)."""
    if block.shape[0] == n_rows:
        return block
    if block.shape[0] > n_rows:  # pragma: no cover - defensive
        raise ValueError("cannot shrink a block")
    indptr = np.concatenate(
        [
            block.indptr,
            np.full(n_rows - block.shape[0], block.indptr[-1], dtype=block.indptr.dtype),
        ]
    )
    return sp.csr_matrix(
        (block.data, block.indices, indptr), shape=(n_rows, block.shape[1])
    )
