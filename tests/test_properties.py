"""Property-based tests (hypothesis) for core invariants.

The generators build arbitrary small web graphs, partitions and
delivery schedules; the properties are the paper's theorems and the
data-structure contracts that everything else rests on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.pagerank import pagerank_open
from repro.graph import WebGraph, make_partition
from repro.graph.partition import Partition
from repro.linalg import (
    jacobi_solve,
    operator_one_norm,
    propagation_matrix,
    relative_l1_error,
)
from repro.utils.hashing import stable_uint64

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def web_graphs(draw, max_pages=30, allow_external=True):
    """Arbitrary small WebGraph with optional external links/sites."""
    n = draw(st.integers(min_value=2, max_value=max_pages))
    n_edges = draw(st.integers(min_value=0, max_value=4 * n))
    src = draw(
        st.lists(
            st.integers(0, n - 1), min_size=n_edges, max_size=n_edges
        )
    )
    dst = draw(
        st.lists(
            st.integers(0, n - 1), min_size=n_edges, max_size=n_edges
        )
    )
    n_sites = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    site_of = [p % n_sites for p in range(n)]
    if allow_external:
        external = draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
    else:
        external = [0] * n
    return WebGraph(n, src, dst, site_of=site_of, external_out=external)


@st.composite
def closed_web_graphs(draw, max_pages=25):
    """Closed system: no external links, no dangling pages.

    Every page gets at least one internal out-link, so rank mass is
    conserved exactly.
    """
    n = draw(st.integers(min_value=2, max_value=max_pages))
    # One mandatory out-link per page plus extras.
    dst_req = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    src_ex = draw(st.lists(st.integers(0, n - 1), min_size=extra, max_size=extra))
    dst_ex = draw(st.lists(st.integers(0, n - 1), min_size=extra, max_size=extra))
    return WebGraph(n, list(range(n)) + src_ex, dst_req + dst_ex)


# ----------------------------------------------------------------------
# PageRank invariants
# ----------------------------------------------------------------------


class TestPageRankProperties:
    @settings(max_examples=30, deadline=None)
    @given(web_graphs())
    def test_ranks_nonnegative_and_bounded(self, graph):
        res = pagerank_open(graph, 0.85, tol=1e-12)
        assert res.converged
        assert (res.ranks >= -1e-12).all()
        # With E=1, rank can never exceed the closed-system bound n.
        assert res.ranks.max() <= graph.n_pages + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(closed_web_graphs())
    def test_closed_system_conserves_mass(self, graph):
        """No leaks: Σ R = αΣR + βn ⇒ ΣR = n exactly."""
        res = pagerank_open(graph, 0.85, tol=1e-13)
        np.testing.assert_allclose(res.ranks.sum(), graph.n_pages, rtol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(web_graphs(), st.floats(min_value=0.05, max_value=0.95))
    def test_propagation_operator_is_contraction(self, graph, alpha):
        p = propagation_matrix(graph, alpha)
        assert operator_one_norm(p) <= alpha + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(web_graphs())
    def test_fixed_point_residual_small(self, graph):
        res = pagerank_open(graph, 0.85, tol=1e-13)
        p = propagation_matrix(graph, 0.85)
        resid = res.ranks - (p @ res.ranks + 0.15 * np.ones(graph.n_pages))
        assert np.abs(resid).max() < 1e-9


# ----------------------------------------------------------------------
# Jacobi / norms
# ----------------------------------------------------------------------


class TestLinalgProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_jacobi_fixed_point(self, n, scale, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        a = sp.csr_matrix(rng.random((n, n)) * scale / max(n, 1))
        f = rng.random(n)
        res = jacobi_solve(a, f, tol=1e-13, max_iter=50_000)
        assert res.converged
        np.testing.assert_allclose(res.x, a @ res.x + f, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_relative_error_scale_invariant(self, values, c):
        x = np.array(values)
        ref = x + 1.0
        a = relative_l1_error(x, ref)
        b = relative_l1_error(c * x, c * ref)
        if np.isfinite(a):
            np.testing.assert_allclose(b, a, rtol=1e-9)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


class TestPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(web_graphs(), st.integers(min_value=1, max_value=12), st.sampled_from(
        ["random", "url", "site", "contiguous"]))
    def test_partition_is_a_function_onto_groups(self, graph, k, strategy):
        part = make_partition(graph, k, strategy, seed=0)
        assert part.group_of.shape == (graph.n_pages,)
        assert part.group_sizes().sum() == graph.n_pages
        local = part.local_index()
        for g in range(k):
            pages = part.pages_of_group(g)
            assert sorted(local[pages].tolist()) == list(range(pages.size))

    @settings(max_examples=30, deadline=None)
    @given(web_graphs(), st.integers(min_value=1, max_value=12))
    def test_site_hash_never_splits_a_site(self, graph, k):
        part = make_partition(graph, k, "site")
        for s in range(graph.n_sites):
            pages = graph.pages_of_site(s)
            if pages.size:
                assert len(set(part.group_of[pages].tolist())) == 1


# ----------------------------------------------------------------------
# Group decomposition: blocks always tile the global operator
# ----------------------------------------------------------------------


class TestDecompositionProperties:
    @settings(max_examples=20, deadline=None)
    @given(web_graphs(max_pages=20), st.integers(min_value=1, max_value=5))
    def test_blocks_tile_global_operator(self, graph, k):
        from repro.linalg import group_blocks

        part = make_partition(graph, k, "contiguous")
        p = propagation_matrix(graph, 0.85).toarray()
        blocks = group_blocks(graph, part, 0.85)
        rebuilt = np.zeros_like(p)
        for g in range(k):
            pg = blocks.pages[g]
            if pg.size:
                rebuilt[np.ix_(pg, pg)] += blocks.diag[g].toarray()
        for (g, h), block in blocks.cross.items():
            rebuilt[np.ix_(blocks.pages[h], blocks.pages[g])] += block.toarray()
        np.testing.assert_allclose(rebuilt, p, atol=1e-13)


# ----------------------------------------------------------------------
# Theorem 4.1/4.2 under ARBITRARY delivery schedules
# ----------------------------------------------------------------------


class TestMonotonicityUnderArbitrarySchedules:
    @settings(max_examples=15, deadline=None)
    @given(
        web_graphs(max_pages=24),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_dpr1_monotone_and_bounded_for_any_schedule(self, graph, k, seed):
        """Theorems 4.1+4.2 through the event engine: with R0=0, async
        waits, 30 % message loss and pause faults, at every monitor
        sample each group's ranks have not decreased and no page
        exceeds the centralized fixed point."""
        reference = pagerank_open(graph, tol=1e-15, max_iter=100_000).ranks
        cfg = DistributedConfig(
            n_groups=k, algorithm="dpr1", schedule="async", t1=0.5, t2=3.0,
            delivery_prob=0.7, pause_faults=3, pause_horizon=10.0,
            pause_mean_outage=3.0, partition_strategy="contiguous", seed=seed,
        )
        run = DistributedRun(graph, cfg, partition=make_partition(graph, k, "contiguous"))
        samples = []
        ranks_of = run._ranks

        def sampled(out):
            ranks = ranks_of(out)
            samples.append(ranks.copy())
            return ranks

        run._ranks = sampled
        run.run(max_time=30.0)
        assert len(samples) > 1
        for prev, ranks in zip(samples, samples[1:]):
            # float noise only: the theorem is exact in real arithmetic
            assert (ranks >= prev - 1e-12).all(), "Theorem 4.1 violated"
        for ranks in samples:
            assert (ranks <= reference + 1e-12).all(), "Theorem 4.2 violated"


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------


class TestSimulatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=0,
            max_size=40,
        )
    )
    def test_events_execute_in_time_then_fifo_order(self, delays):
        """Whatever the schedule, execution is sorted by (time, seq)."""
        from repro.net.simulator import Simulator

        sim = Simulator()
        log = []
        for i, d in enumerate(delays):
            sim.schedule(d, lambda i=i, d=d: log.append((d, i)))
        sim.run()
        assert log == sorted(log)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=60.0),
    )
    def test_until_boundary_respected(self, delays, until):
        from repro.net.simulator import Simulator

        sim = Simulator()
        executed = []
        for d in delays:
            sim.schedule(d, lambda d=d: executed.append(d))
        sim.run(until=until)
        assert all(d <= until for d in executed)
        assert sorted(executed) == sorted(d for d in delays if d <= until)


class TestWebGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(web_graphs())
    def test_edges_roundtrip_preserves_multiset(self, graph):
        src, dst = graph.edges()
        rebuilt = WebGraph(
            graph.n_pages,
            src,
            dst,
            site_of=graph.site_of,
            external_out=graph.external_out,
        )
        assert rebuilt == graph
        assert rebuilt.n_internal_links == graph.n_internal_links

    @settings(max_examples=40, deadline=None)
    @given(web_graphs())
    def test_degree_identities(self, graph):
        assert graph.internal_out_degrees().sum() == graph.n_internal_links
        assert graph.in_degrees().sum() == graph.n_internal_links
        np.testing.assert_array_equal(
            graph.out_degrees(),
            graph.internal_out_degrees() + graph.external_out,
        )


class TestHashProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=50), st.text(max_size=10))
    def test_stable_uint64_deterministic_and_in_range(self, text, salt):
        a = stable_uint64(text, salt=salt)
        b = stable_uint64(text, salt=salt)
        assert a == b
        assert 0 <= a < 1 << 64


# ----------------------------------------------------------------------
# Partition object internal consistency under adversarial group_of
# ----------------------------------------------------------------------


class TestPartitionObjectProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=0, max_size=40),
    )
    def test_any_assignment_is_consistent(self, assignment):
        part = Partition(np.array(assignment, dtype=np.int64), 7)
        total = sum(part.pages_of_group(g).size for g in range(7))
        assert total == len(assignment)
        sizes = part.group_sizes()
        assert sizes.sum() == len(assignment)
        for g in range(7):
            assert sizes[g] == part.pages_of_group(g).size
