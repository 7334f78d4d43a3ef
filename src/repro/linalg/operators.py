"""Construction of rank-propagation operators.

Orientation convention
----------------------
The paper writes ``R = AR + f`` with ``A[u,v] = α/d(u)`` "if there is an
edge from u to v" and then multiplies ``A·R`` — i.e. its matrix is
implicitly the transpose of the adjacency direction.  We store the
operator explicitly in *propagation orientation*: ``P[v, u] = α/d(u)``
for each link ``u → v``, so that a Jacobi sweep is the plain SpMV
``R_new = P @ R + f`` with no transposition at call sites.

``d(u)`` is the **total** out-degree (internal + external links), so
rows of ``P`` sum to at most α and strictly less wherever a page has
external links — the open-system rank leak of §3.

Two operators, not K² blocks
----------------------------
The paper's unit of work is the page group (``R = A·R + βE + X``,
``Y = B·R``), and what a set of K rankers consumes is *one* in-group
operator and *one* thin cut operator.  :func:`group_blocks` builds
exactly those, in *group-major* coordinates (group 0's pages first,
each group's pages ascending), in one chunked pass over the CSR edge
list whose cost depends on the links, not on K:

* ``diag_stack`` — the row-stack of every group's diagonal block
  ``A_G`` (row = group-major destination, column = the source's index
  *within its group*).  Intra-group links stream out of the edge list
  in source order and one counting transposition (CSC → CSR) lands
  them by destination row.  Rows ``offsets[g]:offsets[g+1]`` *are*
  ``diag[g]``; :meth:`GroupBlocks.block_diagonal` is the same data and
  row pointers under global column ids — the whole-system ``A``.
* ``cut`` — every cut link, one stable sort on ``(source group,
  destination group, destination-local row)``: every cross block
  ``B`` of every source, stacked source by source and destination by
  destination, compressed to its structurally nonzero rows, columns
  group-major.  ``row_map`` names
  each compressed row's destination-local index, and the *pair table*
  (``pair_src``, ``pair_dst``, ``pair_start``, ``pair_records``) names
  each communicating ordered pair's span of rows and its link-record
  count, in emission order (source ascending, destination ascending).

``GroupBlocks.diag[g]``, ``GroupBlocks.cut_rows[g]`` and
``GroupBlocks.cross[(g, h)]`` are lazy read-only views that slice the
two operators on demand; only consumers that want per-group or per-pair
matrices (per-group solves, the event engine's wakes, the serving
tier, tests) ever build one.

Why the one-pass build is bit-identical to a per-block build
------------------------------------------------------------
Every stored value is ``α/d(u)`` of the entry's *column* page, so
duplicate links sum equal values and scipy's sequential
``sum_duplicates`` gives the same bits whatever order they arrive in.
A page's index within its group is monotone in its page id, so the
edge list's own order (sources ascending) already yields ascending
columns within every row of either operator — a stable transposition
or sort needs no secondary column key.  And ``(source group,
destination group, destination-local row)`` ascending is exactly the
order in which a walk over the ordered pairs concatenates per-pair
blocks.  The property tests compare every view with a naive per-block
``csr_matrix`` byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.io import madvise_dontneed
from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.utils.validation import check_fraction

__all__ = [
    "propagation_matrix",
    "group_blocks",
    "source_group_blocks",
    "GroupBlocks",
]


def _link_weights(alpha: float, degrees: np.ndarray) -> np.ndarray:
    """``α/d(u)`` per page as ``α·(1/d)``, ``+0.0`` for dangling pages.

    In place on one float64 copy, so only one page-sized temporary is
    ever live.
    """
    check_fraction(alpha, "alpha")
    w = np.array(degrees, dtype=np.float64)
    dangling = ~(w > 0)
    np.maximum(w, 1e-300, out=w)
    np.divide(1.0, w, out=w)
    w[dangling] = 0.0
    np.multiply(w, alpha, out=w)
    return w


def propagation_matrix(graph: WebGraph, alpha: float = 0.85) -> sp.csr_matrix:
    """Global propagation operator ``P`` with ``P[v,u] = α/d(u)``.

    Duplicate links accumulate (two links u→v confer rank twice).
    Dangling pages (``d(u)=0``) produce empty columns: they forward no
    rank, matching Algorithm 2's ``B[u,v]`` guard ``d(u)>0``.
    """
    n = graph.n_pages
    src, dst = graph.edges()
    data = _link_weights(alpha, graph.out_degrees())[src]
    return sp.csr_matrix((data, (dst, src)), shape=(n, n))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal ``keys``."""
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _csr_view(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: Tuple[int, int]
) -> sp.csr_matrix:
    """A canonical CSR matrix over the given arrays *as they are*.

    scipy's constructor copies any array that is a view of less than
    half its base (``prune``), which would silently duplicate the
    shared operators slice by slice; assigning the arrays to an empty
    matrix keeps the views views.
    """
    m = sp.csr_matrix(shape, dtype=data.dtype)
    m.data, m.indices, m.indptr = data, indices, indptr
    m.has_canonical_format = True
    return m


class _RowBlocks(Sequence):
    """``blocks[g]`` — lazy views of one CSR matrix's row ranges
    ``bounds[g]:bounds[g+1]``, square unless ``n_cols`` is given.

    A view shares the matrix's data and column arrays and owns only its
    re-based row pointers, so keeping all K costs one row-sized int
    array in total; they are cached because per-group work asks for
    the same block every step.
    """

    def __init__(
        self, matrix: sp.csr_matrix, bounds: np.ndarray, n_cols: Optional[int] = None
    ):
        self._matrix = matrix
        self._bounds = bounds
        self._n_cols = n_cols
        self._blocks: List[Optional[sp.csr_matrix]] = [None] * (bounds.size - 1)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, g: int) -> sp.csr_matrix:
        g = range(len(self._blocks))[g]  # IndexError past K ends iteration
        block = self._blocks[g]
        if block is None:
            r0, r1 = int(self._bounds[g]), int(self._bounds[g + 1])
            indptr = self._matrix.indptr
            lo, hi = int(indptr[r0]), int(indptr[r1])
            block = self._blocks[g] = _csr_view(
                self._matrix.data[lo:hi],
                self._matrix.indices[lo:hi],
                indptr[r0 : r1 + 1] - lo,
                (r1 - r0, r1 - r0 if self._n_cols is None else self._n_cols),
            )
        return block


class _CrossBlocks(Mapping):
    """``cross[(g, h)]`` — lazy per-pair blocks sliced from the cut.

    Keys are the communicating ordered pairs in emission order.  Each
    lookup builds a fresh matrix (the pair's values are a view of the
    cut operator's; its columns are re-based to the source group and
    its rows re-expanded to the destination's pages) and nothing is
    cached — K² of them is what this layout exists to avoid.
    """

    def __init__(self, blocks: "GroupBlocks"):
        self._b = blocks

    def __len__(self) -> int:
        return self._b.pair_src.size

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._b.pair_position)

    def __getitem__(self, key: Tuple[int, int]) -> sp.csr_matrix:
        b = self._b
        p = b.pair_position[key]
        g, h = key
        s, e = int(b.pair_start[p]), int(b.pair_start[p + 1])
        cp = b.cut.indptr
        lo, hi = int(cp[s]), int(cp[e])
        # Pointer i of the span serves every row after rows[i-1] up to
        # and including rows[i] (ascending), the last one the tail.
        gaps = np.diff(np.concatenate(([-1], b.row_map[s:e], [b.group_size(h)])))
        return _csr_view(
            b.cut.data[lo:hi],
            b.cut.indices[lo:hi] - int(b.offsets[g]),
            np.repeat(cp[s : e + 1] - lo, gaps),
            (b.group_size(h), b.group_size(g)),
        )


@dataclass
class GroupBlocks:
    """The propagation operator split along a partition (module docs).

    Attributes
    ----------
    alpha:
        Damping factor used to scale the entries.
    pages:
        ``pages[g]`` — sorted global page ids owned by group ``g``;
        local index ``i`` within a group refers to ``pages[g][i]`` and
        group-major position ``offsets[g] + i``.
    diag_stack:
        Row-stack of the diagonal blocks, group-local columns.
    cut:
        Compressed whole-system cut operator, group-major columns.
    row_map:
        Destination-local row of every ``cut`` row.
    pair_src, pair_dst, pair_start, pair_records:
        The pair table: pair ``p`` ships ``pair_src[p] → pair_dst[p]``,
        owns ``cut`` rows ``pair_start[p]:pair_start[p+1]`` and carries
        ``pair_records[p]`` link records (stored entries).
    offsets:
        ``offsets[g]`` — group-major position of group ``g``'s first page.
    diag:
        ``diag[g]`` — CSR block mapping group ``g``'s local rank vector
        to the in-group rank it receives (the ``A`` of Algorithm 2).
    cut_rows:
        ``cut_rows[g]`` — source ``g``'s span of ``cut`` rows, columns
        still group-major: one SpMV over the whole-system rank vector
        gives ``g``'s segment of the compressed ``Y`` (a wake of the
        event engine's ranker ``g``).
    cross:
        ``cross[(g, h)]`` — CSR block mapping group ``g``'s local rank
        vector to the afferent contribution arriving at group ``h``
        (shape ``(len(pages[h]), len(pages[g]))``).  Only pairs with at
        least one cut link are present.
    """

    alpha: float
    pages: List[np.ndarray]
    diag_stack: sp.csr_matrix
    cut: sp.csr_matrix
    row_map: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    pair_start: np.ndarray
    pair_records: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)
    #: Per source, the position of its first pair (pairs of one source
    #: are contiguous, destinations ascending).
    pair_first: np.ndarray = field(init=False, repr=False)
    diag: Sequence = field(init=False, repr=False)
    cut_rows: Sequence = field(init=False, repr=False)
    cross: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k = len(self.pages)
        sizes = np.array([p.size for p in self.pages], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.pair_first = np.searchsorted(self.pair_src, np.arange(k + 1))
        self.diag = _RowBlocks(self.diag_stack, self.offsets)
        self.cut_rows = _RowBlocks(
            self.cut, self.pair_start[self.pair_first], int(self.offsets[-1])
        )
        self.cross = _CrossBlocks(self)
        self._block_diagonal: Optional[sp.csr_matrix] = None

    @property
    def n_groups(self) -> int:
        return len(self.pages)

    def group_size(self, g: int) -> int:
        """Number of pages owned by group ``g``."""
        return int(self.pages[g].size)

    @cached_property
    def pair_position(self) -> Dict[Tuple[int, int], int]:
        """``(src, dst) -> position in the pair table``, in emission
        order; built on first use (the array paths never need it)."""
        pairs = zip(self.pair_src.tolist(), self.pair_dst.tolist())
        return {pair: p for p, pair in enumerate(pairs)}

    def block_diagonal(self) -> sp.csr_matrix:
        """The whole-system in-group operator ``A`` (built on first use).

        Shares ``diag_stack``'s values and row pointers; only the
        column array (group-local ids shifted to group-major) is new,
        so the per-group and whole-system sweeps cost one copy of the
        intra-group entries between them.
        """
        if self._block_diagonal is None:
            stack = self.diag_stack
            per_group = np.diff(stack.indptr[self.offsets])
            shift = np.repeat(self.offsets[:-1], per_group).astype(stack.indices.dtype)
            n = int(self.offsets[-1])
            self._block_diagonal = sp.csr_matrix(
                (stack.data, stack.indices + shift, stack.indptr), shape=(n, n)
            )
        return self._block_diagonal

    def destinations_of(self, g: int) -> List[int]:
        """Groups that receive rank from group ``g`` (sorted)."""
        return self.pair_dst[self.pair_first[g] : self.pair_first[g + 1]].tolist()

    def sources_of(self, h: int) -> List[int]:
        """Groups that send rank to group ``h`` (sorted)."""
        return self.pair_src[self.pair_dst == h].tolist()

    def apply_local(self, g: int, r: np.ndarray) -> np.ndarray:
        """One in-group propagation: returns ``diag[g] @ r``."""
        return self.diag[g] @ r

    def cross_records(self, g: int, h: int) -> int:
        """Link records group ``g`` ships to group ``h`` — the stored
        entries of ``cross[(g, h)]``, 0 for a pair with no cut link."""
        p = self.pair_position.get((g, h))
        return 0 if p is None else int(self.pair_records[p])

    def total_cut_entries(self) -> int:
        """Total stored entries across all cross blocks (≈ cut links)."""
        return int(self.cut.nnz)


def group_blocks(
    graph: WebGraph,
    partition: Partition,
    alpha: float = 0.85,
    *,
    chunk_edges: int = 1 << 18,
) -> GroupBlocks:
    """Split the propagation operator along a partition.

    One builder for in-memory and memory-mapped graphs (see
    :func:`repro.graph.io.load_webgraph`): the edge list is read in
    page ranges of about ``chunk_edges`` links and touched mmap pages
    are released with ``madvise`` as the stream advances, so the peak
    transient is one chunk plus the cut links on top of the finished
    operators — which is what lets a memory-mapped 1e7-page graph rank
    within the out-of-core budget.  ``chunk_edges`` never changes the
    result (asserted in ``tests/test_linalg_operators.py``).
    """
    if partition.n_pages != graph.n_pages:
        raise ValueError("partition and graph disagree on n_pages")
    pages = [partition.pages_of_group(g) for g in range(partition.n_groups)]
    return _partitioned_operator(
        alpha,
        pages,
        graph.indptr,
        graph.indices,
        None,
        _link_weights(alpha, graph.out_degrees()),
        partition.group_of,
        partition.local_index(),
        chunk_edges,
    )


def source_group_blocks(
    alpha: float,
    g: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    out_degrees: np.ndarray,
    pages: List[np.ndarray],
    group_of: np.ndarray,
    local_index: np.ndarray,
) -> Tuple[sp.csr_matrix, Dict[int, sp.csr_matrix]]:
    """Rebuild the operator *columns* owned by one source group.

    The propagation entry ``α/d(u)`` depends only on the source page
    ``u``, so mutating any page's out-links invalidates exactly the
    blocks whose *source* is that page's group: ``diag[g]`` and every
    ``cross[(g, h)]``.  This is :func:`group_blocks`'s kernel applied
    to that group's edge slice alone — the unit of incremental
    maintenance in :mod:`repro.serve.incremental` — so a rebuilt
    stripe is bit-identical to the same stripe of a from-scratch build.

    ``indptr``/``indices`` are the CSR out-link lists of ``pages[g]``
    (global destination ids) and ``out_degrees`` their **total**
    out-degrees; ``pages``, ``group_of`` and ``local_index`` describe
    the current partition.  Returns ``(diag, cross)``: group ``g``'s
    diagonal block and its ``cross[(g, h)]`` block per destination
    ``h != g`` with at least one link.
    """
    blocks = _partitioned_operator(
        alpha,
        pages,
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        pages[g],
        _link_weights(alpha, out_degrees),
        group_of,
        local_index,
        max(len(indices), 1),
    )
    return blocks.diag[g], {h: blocks.cross[(g, h)] for h in blocks.destinations_of(g)}


def _edge_chunks(indptr: np.ndarray, n_rows: int, chunk_edges: int):
    """Yield row ranges ``(p0, p1)`` covering ~``chunk_edges`` links each."""
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    p0 = 0
    while p0 < n_rows:
        p1 = int(np.searchsorted(indptr, int(indptr[p0]) + chunk_edges, side="left"))
        p1 = min(max(p1, p0 + 1), n_rows)
        yield p0, p1
        p0 = p1


def _partitioned_operator(
    alpha: float,
    pages: List[np.ndarray],
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Optional[np.ndarray],
    weights: np.ndarray,
    group_of: np.ndarray,
    local: np.ndarray,
    chunk_edges: int,
) -> GroupBlocks:
    """The one builder (module docstring).

    ``indptr``/``indices`` are CSR out-link lists (global destination
    ids) of the source pages ``sources`` — ascending page ids, ``None``
    for "row ``i`` is page ``i``" — and ``weights`` their ``α/d``.
    """
    k = len(pages)
    sizes = np.array([p.size for p in pages], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    n_rows = indptr.size - 1
    if weights.shape != (n_rows,):
        raise ValueError(f"need one out-degree per source page, got {weights.shape}")
    i32max = np.iinfo(np.int32).max
    idx_dtype = np.int32 if max(n, indices.size) <= i32max else np.int64
    # Per page: its group and its group-major position; per source
    # row: its group, its column within the group and its group-major
    # column.  All in the operators' index dtype — every per-link
    # temporary below is a gather or a repeat of one of these.
    grp = group_of.astype(idx_dtype)
    pos = (offsets[group_of] + local).astype(idx_dtype)
    if sources is None:
        src_group, src_local, src_pos = grp, local.astype(idx_dtype), pos
    else:
        src_group, src_local, src_pos = (
            grp[sources], local[sources].astype(idx_dtype), pos[sources]
        )

    # -- one pass over the edge list --------------------------------------
    # Intra-group links leave as a CSC matrix in source order
    # (destination position per link, running count per source row);
    # cut links as (sort key, source row), the key ordering them by
    # (source group, destination position) = (source group, destination
    # group, destination-local row).  ``a_rows`` is sized for the worst
    # case but only its filled prefix is ever touched.
    a_rows = np.empty(indices.size, dtype=idx_dtype)
    a_colptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    n_intra = 0
    cut_keys: List[np.ndarray] = []
    cut_cols: List[np.ndarray] = []
    for p0, p1 in _edge_chunks(indptr, n_rows, chunk_edges):
        lo, hi = int(indptr[p0]), int(indptr[p1])
        degrees = np.diff(indptr[p0 : p1 + 1])
        dst_pos = pos[indices[lo:hi]]
        g_src = np.repeat(src_group[p0:p1], degrees)
        mask = g_src == grp[indices[lo:hi]]
        madvise_dontneed(indices, lo, hi)
        running = np.zeros(hi - lo + 1, dtype=idx_dtype)
        np.cumsum(mask, dtype=idx_dtype, out=running[1:])
        a_colptr[p0 + 1 : p1 + 1] = n_intra + running[indptr[p0 + 1 : p1 + 1] - lo]
        a_rows[n_intra : n_intra + running[-1]] = dst_pos[mask]
        n_intra += int(running[-1])
        np.logical_not(mask, out=mask)
        cut_cols.append(np.repeat(np.arange(p0, p1, dtype=idx_dtype), degrees)[mask])
        cut_keys.append(g_src[mask].astype(np.int64) * max(n, 1) + dst_pos[mask])

    # -- diagonal stack: counting transposition to destination rows -------
    # The placeholder int8 values keep a float64 copy of the intra
    # links out of the transposition; the real ones are a gather of
    # ``weights`` through the transposed column (= source row) ids.
    by_row = sp.csc_matrix(
        (np.ones(n_intra, dtype=np.int8), a_rows[:n_intra], a_colptr),
        shape=(n, n_rows),
    ).tocsr()
    del a_rows, a_colptr
    stack = sp.csr_matrix(
        (weights[by_row.indices], src_local[by_row.indices], by_row.indptr),
        shape=(n, int(sizes.max(initial=0))),
    )
    del by_row
    stack.sum_duplicates()

    # -- cut operator: one stable sort on (src group, dst group, row) -----
    key = np.concatenate(cut_keys) if cut_keys else np.zeros(0, dtype=np.int64)
    col = np.concatenate(cut_cols) if cut_cols else np.zeros(0, dtype=idx_dtype)
    del cut_keys, cut_cols
    order = np.argsort(key, kind="stable")
    key, col = key[order], col[order]
    del order
    first = _run_starts(key)
    g_from, row_pos = np.divmod(key[first], max(n, 1))
    g_to = np.searchsorted(offsets, row_pos, side="right") - 1
    pair_code = g_from * k + g_to
    cut_op = sp.csr_matrix(
        (
            weights[col],
            src_pos[col],
            np.concatenate([first, [key.size]]).astype(idx_dtype),
        ),
        shape=(first.size, n),
    )
    cut_op.sum_duplicates()
    pair_first = _run_starts(pair_code)
    pair_src, pair_dst = np.divmod(pair_code[pair_first], k)
    pair_start = np.concatenate([pair_first, [pair_code.size]]).astype(np.int64)
    return GroupBlocks(
        alpha=alpha,
        pages=pages,
        diag_stack=stack,
        cut=cut_op,
        row_map=row_pos - offsets[g_to],
        pair_src=pair_src,
        pair_dst=pair_dst,
        pair_start=pair_start,
        pair_records=np.diff(cut_op.indptr[pair_start]).astype(np.int64),
    )
