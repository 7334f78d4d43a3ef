"""Unit tests for repro.linalg.operators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import WebGraph, make_partition, partition_contiguous
from repro.graph.partition import Partition
from repro.linalg import group_blocks, propagation_matrix


class TestPropagationMatrix:
    def test_entries(self, tiny_graph):
        p = propagation_matrix(tiny_graph, 0.85)
        # Page 0 has d=2 (two internal links): each target gets α/2.
        assert p[1, 0] == pytest.approx(0.425)
        assert p[2, 0] == pytest.approx(0.425)
        # Page 1 has d=2 (one internal + one external): target gets α/2.
        assert p[2, 1] == pytest.approx(0.425)
        # Page 2 has d=1.
        assert p[0, 2] == pytest.approx(0.85)

    def test_dangling_column_empty(self, tiny_graph):
        p = propagation_matrix(tiny_graph, 0.85)
        assert p[:, 4].nnz == 0

    def test_column_sums_bounded_by_alpha(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        col_sums = np.asarray(np.abs(p).sum(axis=0)).ravel()
        assert (col_sums <= 0.85 + 1e-12).all()

    def test_column_sum_less_than_alpha_with_external_links(self, tiny_graph):
        p = propagation_matrix(tiny_graph, 0.85)
        # Page 1 leaks half its rank externally.
        col1 = np.asarray(np.abs(p).sum(axis=0)).ravel()[1]
        assert col1 == pytest.approx(0.425)

    def test_duplicate_links_accumulate(self):
        g = WebGraph(2, [0, 0], [1, 1])
        p = propagation_matrix(g, 0.8)
        assert p[1, 0] == pytest.approx(0.8)  # 2 * (0.8 / 2)

    def test_rejects_alpha_out_of_range(self, tiny_graph):
        for bad in (0.0, 1.0, -1, 2):
            with pytest.raises(ValueError):
                propagation_matrix(tiny_graph, bad)


class TestGroupBlocks:
    def test_blocks_reassemble_global_operator(self, contest_small):
        """diag + cross blocks must tile the global propagation matrix."""
        part = make_partition(contest_small, 6, "site")
        p = propagation_matrix(contest_small, 0.85)
        blocks = group_blocks(contest_small, part, 0.85)

        rebuilt = np.zeros((contest_small.n_pages, contest_small.n_pages))
        for g in range(6):
            pages_g = blocks.pages[g]
            rebuilt[np.ix_(pages_g, pages_g)] += blocks.diag[g].toarray()
        for (g, h), block in blocks.cross.items():
            rebuilt[np.ix_(blocks.pages[h], blocks.pages[g])] += block.toarray()
        np.testing.assert_allclose(rebuilt, p.toarray(), atol=1e-14)

    def test_apply_local_matches_diag(self, contest_small):
        part = partition_contiguous(contest_small, 4)
        blocks = group_blocks(contest_small, part, 0.85)
        r = np.random.default_rng(0).random(blocks.group_size(1))
        np.testing.assert_allclose(
            blocks.apply_local(1, r), blocks.diag[1] @ r
        )

    def test_efferent_matches_cross_blocks(self, contest_small):
        part = partition_contiguous(contest_small, 4)
        blocks = group_blocks(contest_small, part, 0.85)
        r = np.random.default_rng(1).random(blocks.offsets[-1])
        y = blocks.cut_rows[0] @ r
        for p in range(blocks.pair_first[0], blocks.pair_first[1]):
            h = int(blocks.pair_dst[p])
            a, b = blocks.pair_start[p], blocks.pair_start[p + 1]
            vec = np.zeros(blocks.group_size(h))
            vec[blocks.row_map[a:b]] = y[a:b]
            np.testing.assert_allclose(vec, blocks.cross[(0, h)] @ r[: blocks.offsets[1]])

    def test_single_group_has_no_cross(self, contest_small):
        part = make_partition(contest_small, 1, "site")
        blocks = group_blocks(contest_small, part, 0.85)
        assert blocks.cross == {}
        assert blocks.total_cut_entries() == 0

    def test_destinations_and_sources(self, twosite):
        part = make_partition(twosite, 2, "contiguous")
        blocks = group_blocks(twosite, part, 0.85)
        # two_site_web has cross links only 0 -> 1.
        assert blocks.destinations_of(0) == [1]
        assert blocks.sources_of(1) == [0]
        assert blocks.destinations_of(1) == []

    def test_empty_group_blocks(self, tiny_graph):
        part = Partition(np.zeros(5, dtype=np.int64), 3)
        blocks = group_blocks(tiny_graph, part, 0.85)
        assert blocks.group_size(1) == 0
        assert blocks.diag[1].shape == (0, 0)

    def test_mismatched_partition(self, tiny_graph, contest_small):
        part = partition_contiguous(contest_small, 3)
        with pytest.raises(ValueError):
            group_blocks(tiny_graph, part, 0.85)


# ----------------------------------------------------------------------
# The one-pass builder against a naive per-block oracle
# ----------------------------------------------------------------------


def naive_blocks(graph, partition, alpha):
    """One ``csr_matrix`` per ordered group pair, straight from the
    edge list: the per-block build the two-operator layout replaced."""
    src, dst = graph.edges()
    d = graph.out_degrees().astype(np.float64)
    with np.errstate(divide="ignore"):
        inv_d = np.where(d > 0, 1.0 / np.maximum(d, 1e-300), 0.0)
    data = alpha * inv_d[src]
    group_of, local = partition.group_of, partition.local_index()
    sizes = partition.group_sizes()
    diag, cross = [], {}
    for g in range(partition.n_groups):
        for h in range(partition.n_groups):
            m = (group_of[src] == g) & (group_of[dst] == h)
            if g != h and not m.any():
                continue
            block = sp.csr_matrix(
                (data[m], (local[dst[m]], local[src[m]])), shape=(sizes[h], sizes[g])
            )
            if g == h:
                diag.append(block)
            else:
                cross[(g, h)] = block
    return diag, cross


def assert_same_csr(got, want):
    assert isinstance(got, sp.csr_matrix) and got.shape == want.shape
    assert got.has_canonical_format
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


@st.composite
def partitioned_graphs(draw):
    """Small graphs under arbitrary page-to-group assignments: empty
    groups, groups with no intra links, scattered (url-hash-like)
    assignments where almost every link is cut, duplicate links,
    dangling pages, K = 1."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 6))
    page = st.integers(0, n - 1)
    links = draw(st.lists(st.tuples(page, page), max_size=4 * n))
    links += draw(st.lists(st.sampled_from(links), max_size=n)) if links else []
    external = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    group_of = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    graph = WebGraph(
        n, [u for u, _ in links], [v for _, v in links], external_out=external
    )
    return graph, Partition(np.array(group_of, dtype=np.int64), k)


class TestOnePassBuilder:
    @settings(max_examples=150, deadline=None)
    @given(
        partitioned_graphs(),
        st.sampled_from([0.5, 0.85]),
        # Small enough to split one page's run of links across chunks'
        # neighbours, and 1: every page a chunk of its own.
        st.integers(1, 9),
    )
    def test_views_equal_per_block_oracle(self, case, alpha, chunk_edges):
        graph, partition = case
        blocks = group_blocks(graph, partition, alpha, chunk_edges=chunk_edges)
        diag, cross = naive_blocks(graph, partition, alpha)

        assert len(blocks.diag) == len(diag) == partition.n_groups
        for got, want in zip(blocks.diag, diag):
            assert_same_csr(got, want)
        assert list(blocks.cross) == sorted(cross)
        if partition.n_groups == 1:
            assert blocks.cross == {}
        for key, want in cross.items():
            assert_same_csr(blocks.cross[key], want)
            assert blocks.cross_records(*key) == want.nnz
        assert blocks.total_cut_entries() == sum(b.nnz for b in cross.values())
        for g in range(partition.n_groups):
            assert blocks.destinations_of(g) == [h for s, h in sorted(cross) if s == g]
            assert blocks.sources_of(g) == [s for s, h in sorted(cross) if h == g]
            # A source's span of cut rows is the vstack of its oracle
            # blocks, compressed to their nonzero rows, in group-major
            # columns that only ever fall inside its own group.
            lo, hi = blocks.offsets[g], blocks.offsets[g + 1]
            stacked = sp.vstack(
                [
                    cross[(g, h)][np.unique(cross[(g, h)].nonzero()[0])]
                    for h in blocks.destinations_of(g)
                ]
                or [sp.csr_matrix((0, blocks.group_size(g)))],
                format="csr",
            )
            rows = blocks.cut_rows[g]
            assert rows.shape == (stacked.shape[0], blocks.offsets[-1])
            assert rows[:, lo:hi].nnz == rows.nnz
            assert (rows[:, lo:hi] != stacked).nnz == 0
        # The whole-system operator is the block diagonal of the oracle's.
        whole = sp.block_diag(diag, format="csr")
        assert_same_csr(blocks.block_diagonal(), whole)

    def test_missing_pairs_raise_keyerror(self, twosite):
        blocks = group_blocks(twosite, make_partition(twosite, 2, "contiguous"), 0.85)
        assert (1, 0) not in blocks.cross and blocks.cross.get((1, 0)) is None
        for key in [(1, 0), (0, 2), (0, -1), (5, 5), 3, "ab"]:
            with pytest.raises(KeyError):
                blocks.cross[key]
        with pytest.raises(IndexError):
            blocks.diag[2]
        assert blocks.diag[-1] is blocks.diag[1]

    def test_rejects_nonpositive_chunk(self, tiny_graph):
        part = Partition(np.zeros(5, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            group_blocks(tiny_graph, part, 0.85, chunk_edges=0)

    def test_construction_cost_is_independent_of_k(self, monkeypatch):
        """No per-block (or per-pair) scipy object on the flat path:
        ``group_blocks`` + engine construction call the sparse
        constructors the same number of times at K=16 and K=256."""
        from repro.core.coordinator import DistributedConfig
        from repro.core.engine import SynchronousEngine
        from repro.graph import google_contest_like

        calls = []
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                calls.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        graph = google_contest_like(4000, 400, seed=5)
        counts = {}
        for k in (16, 256):
            config = DistributedConfig(
                n_groups=k, engine="flat", algorithm="dpr2", schedule="sync",
                t1=6.0, t2=6.0, sample_interval=6.0, partition_strategy="site",
            )
            calls.clear()
            engine = SynchronousEngine(
                graph, config, reference=np.full(graph.n_pages, 1.0 / graph.n_pages)
            )
            counts[k] = len(calls)
            assert len(engine.system.blocks.cross) > 3 * k
        assert 0 < counts[256] <= counts[16] < 16
