"""Tests for the serving tier (incremental ranker, index, server/feed).

Three layers of guarantees:

* **Index exactness** — hypothesis property tests drive random
  mutation sequences through :class:`RankIndex` and require it to
  equal the brute-force top-k / rank-of / percentile references after
  *every* batch.
* **Maintenance contract** — after arbitrary staged mutations, the
  :class:`IncrementalRanker`'s served vector stays within the
  certified ε bound of ``pagerank_open`` on its own current graph,
  and the certificate dominates the measured error.
* **Feed mirroring** — ``server.apply(feed.sync())`` leaves the
  server's graph equal to ``crawler.snapshot()`` through growth,
  churn and refresh, including the external→internal link flips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pagerank import pagerank_open
from repro.crawl import Crawler, TrueWeb
from repro.graph.partition import partition_by_site_hash
from repro.graph.webgraph import WebGraph
from repro.linalg.norms import relative_l1_error
from repro.linalg.operators import group_blocks
from repro.serve import (
    CrawlFeed,
    IncrementalRanker,
    MutationBatch,
    RankIndex,
    RankServer,
    brute_force_percentile,
    brute_force_rank_of,
    brute_force_top_k,
    incremental,
)

EPS = 1e-3


def small_graph(n_pages=60, n_sites=7, n_links=180, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_pages, n_links)
    dst = rng.integers(0, n_pages, n_links)
    site_of = rng.integers(0, n_sites, n_pages)
    external = rng.integers(0, 3, n_pages)
    return WebGraph(
        n_pages, src, dst, site_of=site_of, external_out=external
    )


# ----------------------------------------------------------------------
# RankIndex vs brute force (hypothesis property tests)
# ----------------------------------------------------------------------
# Values concentrate around a narrow positive band (like real rank
# vectors) *and* include exact ties, zeros, and wide magnitudes.
_value = st.one_of(
    st.sampled_from([0.15, 0.3, 0.3, 0.45, 1.0, 1e-9, 1e6]),
    st.floats(
        min_value=0.0,
        max_value=10.0,
        allow_nan=False,
        allow_infinity=False,
        width=64,
    ),
)


@st.composite
def mutation_sequences(draw):
    """A list of update batches over a small dense id space."""
    n_ids = draw(st.integers(min_value=1, max_value=24))
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(n_batches):
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_ids - 1),
                min_size=1,
                max_size=n_ids,
                unique=True,
            )
        )
        vals = draw(
            st.lists(_value, min_size=len(ids), max_size=len(ids))
        )
        batches.append((np.asarray(ids), np.asarray(vals)))
    return batches


class TestRankIndexProperties:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=mutation_sequences(), data=st.data())
    def test_index_equals_brute_force_after_every_batch(self, batches, data):
        index = RankIndex()
        dense = {}
        for pages, values in batches:
            index.update(pages, values)
            for p, v in zip(pages, values):
                dense[int(p)] = float(v)
            # The brute-force references index a dense vector: pages
            # never touched yet simply don't exist, so compact ids.
            known = sorted(dense)
            compact = {p: i for i, p in enumerate(known)}
            vec = np.asarray([dense[p] for p in known])

            k = data.draw(
                st.integers(min_value=0, max_value=len(known) + 2),
                label="k",
            )
            got_p, got_v = index.top_k(k)
            want_p, want_v = brute_force_top_k(vec, k)
            # Compare in compacted id space.
            np.testing.assert_array_equal(
                np.asarray([compact[int(p)] for p in got_p]), want_p
            )
            np.testing.assert_array_equal(got_v, want_v)

            probe = data.draw(st.sampled_from(known), label="probe")
            assert index.rank_of(probe) == brute_force_rank_of(
                vec, compact[probe]
            )

            q = data.draw(
                st.floats(min_value=0.0, max_value=100.0), label="q"
            )
            assert index.percentile(q) == brute_force_percentile(vec, q)


class TestRankIndexUnit:
    def test_empty_index(self):
        index = RankIndex()
        assert len(index) == 0
        pages, values = index.top_k(5)
        assert pages.size == 0 and values.size == 0
        with pytest.raises(ValueError):
            index.percentile(50.0)
        with pytest.raises(KeyError):
            index.rank_of(0)

    def test_tie_break_prefers_lower_page_id(self):
        index = RankIndex(np.array([0, 1, 2]), np.array([0.5, 0.7, 0.5]))
        pages, values = index.top_k(3)
        np.testing.assert_array_equal(pages, [1, 0, 2])
        np.testing.assert_array_equal(values, [0.7, 0.5, 0.5])
        assert index.rank_of(0) == 2
        assert index.rank_of(2) == 3

    def test_update_moves_pages_between_buckets(self):
        index = RankIndex(np.array([0, 1]), np.array([1.0, 2.0]))
        index.update(np.array([0]), np.array([100.0]))
        pages, _ = index.top_k(2)
        np.testing.assert_array_equal(pages, [0, 1])
        assert index.value_of(0) == 100.0

    def test_rejects_malformed_updates(self):
        index = RankIndex()
        with pytest.raises(ValueError):
            index.update(np.array([0, 0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            index.update(np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError):
            index.update(np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ValueError):
            index.percentile(101.0)
        with pytest.raises(ValueError):
            index.top_k(-1)

    def test_contains_and_len(self):
        index = RankIndex(np.array([3]), np.array([0.5]))
        assert 3 in index and 0 not in index and 99 not in index
        assert len(index) == 1


# ----------------------------------------------------------------------
# IncrementalRanker: maintenance contract
# ----------------------------------------------------------------------
class TestIncrementalRanker:
    def assert_within_budget(self, ranker):
        reference = pagerank_open(
            ranker.current_graph(), alpha=ranker.alpha, e=ranker.e, tol=1e-12
        ).ranks
        measured = relative_l1_error(ranker.ranks, reference)
        certified = ranker.staleness()
        assert measured <= certified + 1e-12
        assert certified <= ranker.epsilon * (1.0 + 1e-9)

    def test_initial_solve_is_certified(self):
        ranker = IncrementalRanker(small_graph(), n_groups=4, epsilon=EPS)
        self.assert_within_budget(ranker)

    def test_matches_partition_by_site_hash(self):
        graph = small_graph()
        ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
        expected = partition_by_site_hash(graph, 4)
        np.testing.assert_array_equal(
            ranker.partition().group_of, expected.group_of
        )

    def test_random_mutation_sequence_stays_within_budget(self):
        graph = small_graph(seed=1)
        ranker = IncrementalRanker(graph, n_groups=5, epsilon=EPS)
        rng = np.random.default_rng(2)
        for step in range(6):
            batch = MutationBatch()
            for _ in range(rng.integers(1, 5)):
                batch.add_links.append(
                    (
                        int(rng.integers(0, ranker.n_pages)),
                        int(rng.integers(0, ranker.n_pages)),
                    )
                )
            if step % 2:
                batch.new_pages.append(f"site{step}.example.org")
            page = int(rng.integers(0, ranker.n_pages))
            batch.external_delta[page] = 1
            stats = ranker.update(batch)
            assert stats.mode == "incremental"
            self.assert_within_budget(ranker)

    def test_link_removal(self):
        graph = small_graph(seed=3)
        ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
        src = int(graph.edges()[0][0])
        dst = int(graph.successors(src)[0])
        ranker.remove_link(src, dst)
        ranker.flush()
        assert ranker.current_graph().n_internal_links == (
            graph.n_internal_links - 1
        )
        self.assert_within_budget(ranker)

    def test_remove_missing_link_raises(self):
        ranker = IncrementalRanker(
            WebGraph(2, [0], [1]), n_groups=1, epsilon=EPS
        )
        with pytest.raises(ValueError, match="no internal link"):
            ranker.remove_link(1, 0)

    def test_external_count_cannot_go_negative(self):
        ranker = IncrementalRanker(
            WebGraph(2, [0], [1]), n_groups=1, epsilon=EPS
        )
        with pytest.raises(ValueError, match="negative"):
            ranker.adjust_external(0, -1)

    def test_new_page_gets_hashed_group_and_rank(self):
        graph = small_graph(seed=4)
        ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
        batch = MutationBatch(
            new_pages=["fresh.example.org"],
            add_links=[(0, graph.n_pages)],  # link into the new page
        )
        stats = ranker.update(batch)
        new_page = graph.n_pages
        assert ranker.n_pages == graph.n_pages + 1
        assert new_page in set(stats.changed_pages)
        # The new page receives its source term plus inbound rank.
        assert ranker.ranks[new_page] > 0
        self.assert_within_budget(ranker)

    def test_changed_pages_cover_all_rank_movement(self):
        graph = small_graph(seed=5)
        ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
        before = ranker.ranks.copy()
        stats = ranker.update(MutationBatch(add_links=[(0, 1), (1, 2)]))
        after = ranker.ranks
        moved = np.flatnonzero(after[: before.size] != before)
        assert set(moved) <= set(stats.changed_pages)
        values = dict(
            zip(stats.changed_pages.tolist(), stats.changed_values.tolist())
        )
        for page in moved:
            assert values[int(page)] == after[page]

    def test_noop_flush(self):
        ranker = IncrementalRanker(small_graph(), n_groups=3, epsilon=EPS)
        stats = ranker.flush()
        assert stats.mode == "noop"
        assert stats.changed_pages.size == 0

    def test_empty_graph_grows_from_nothing(self):
        ranker = IncrementalRanker(
            WebGraph(0, [], []), n_groups=2, epsilon=EPS
        )
        batch = MutationBatch(
            new_pages=["a.example.org", "b.example.org"],
            add_links=[(0, 1)],
        )
        ranker.update(batch)
        assert ranker.n_pages == 2
        self.assert_within_budget(ranker)

    def test_failed_certificate_keeps_sweeping(self, monkeypatch):
        # A certificate that fails once makes the loop sweep on and
        # certify again; one that never holds hits the round cap.
        graph = small_graph(seed=6)
        ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
        honest = ranker._certification_sweep
        calls = []

        def fail_first():
            calls.append(None)
            return 1e9 if len(calls) == 1 else honest()

        monkeypatch.setattr(ranker, "_certification_sweep", fail_first)
        stats = ranker.update(MutationBatch(add_links=[(0, 1)] * 10))
        assert len(calls) == 2
        assert stats.rounds >= 2
        self.assert_within_budget(ranker)

        monkeypatch.setattr(ranker, "_certification_sweep", lambda: 1e9)
        monkeypatch.setattr(incremental, "_MAX_ROUNDS", 5)
        ranker.add_link(1, 2)
        with pytest.raises(RuntimeError, match="5 rounds"):
            ranker.flush()

    def test_rejects_bad_parameters(self):
        graph = small_graph()
        with pytest.raises(ValueError):
            IncrementalRanker(graph, n_groups=0)
        with pytest.raises(ValueError):
            IncrementalRanker(graph, epsilon=0.0)
        with pytest.raises(ValueError):
            IncrementalRanker(graph, alpha=1.0)
        ranker = IncrementalRanker(graph, n_groups=2, epsilon=EPS)
        with pytest.raises(IndexError):
            ranker.add_link(0, graph.n_pages)

    def test_current_graph_round_trips(self):
        graph = small_graph(seed=7)
        ranker = IncrementalRanker(graph, n_groups=3, epsilon=EPS)
        assert ranker.current_graph() == graph

    def test_delta_updated_blocks_bit_identical_to_fresh_build(self, monkeypatch):
        # Both operator-maintenance paths must leave the blocks exactly
        # equal to a from-scratch build of the mutated graph.  Column
        # swaps: stale entries cancel to exact zeros, re-edited entries
        # carry no accumulated 1-ulp residue across flushes.  Stripe
        # rebuild: one flush edits half of one group's pages.
        graph = small_graph(n_pages=400, n_sites=30, n_links=1600, seed=8)

        def few_pages_per_flush(ranker):
            rng = np.random.default_rng(9)
            for step in range(5):
                batch = MutationBatch()
                # Re-edit page 0 every time.
                batch.add_links.append((0, int(rng.integers(0, 400))))
                src = int(rng.integers(0, 400))
                batch.add_links.append((src, int(rng.integers(0, 400))))
                batch.external_delta[int(rng.integers(0, 400))] = 1
                ranker.update(batch)

        def half_of_one_group(ranker):
            pages = ranker.partition().pages_of_group(0)
            edited = [int(p) for p in pages[: pages.size // 2]]
            ranker.update(
                MutationBatch(
                    add_links=[(p, (7 * p) % 400) for p in edited],
                    external_delta={edited[0]: 2},
                )
            )

        def canon(m):
            m = m.copy()
            m.sum_duplicates()
            m.sort_indices()
            m.eliminate_zeros()
            return m

        def assert_same(a, b):
            a, b = canon(a), canon(b)
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.data, b.data)

        for mutate, path, other in (
            (few_pages_per_flush, "_apply_stripe_delta", "_rebuild_source_stripe"),
            (half_of_one_group, "_rebuild_source_stripe", "_apply_stripe_delta"),
        ):
            ranker = IncrementalRanker(graph, n_groups=4, epsilon=EPS)
            taken = {path: 0, other: 0}
            for name in taken:

                def spy(*args, _name=name, _real=getattr(ranker, name)):
                    taken[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(ranker, name, spy)
            mutate(ranker)
            assert taken[path] > 0 and taken[other] == 0, taken

            fresh = group_blocks(ranker.current_graph(), ranker.partition(), ranker.alpha)
            for g in range(4):
                assert_same(ranker._diag[g], fresh.diag[g])
            cross = dict(fresh.cross)
            assert set(ranker._cross) == set(cross)
            for key, block in cross.items():
                assert_same(ranker._cross[key], block)


# ----------------------------------------------------------------------
# RankServer + CrawlFeed: the full loop
# ----------------------------------------------------------------------
class TestServerWithFeed:
    def run_loop(self, *, churn, phases=4, budget=120):
        web = TrueWeb(1200, 30, seed=5)
        crawler = Crawler(web, seeds=[0, 600], seed=6)
        crawler.crawl_until(400)
        feed = CrawlFeed(crawler)
        server = RankServer(
            feed.initial_graph(), n_groups=6, epsilon=EPS
        )
        for phase in range(phases):
            if churn:
                web.churn(churn, seed=100 + phase)
            crawler.step(budget)
            server.apply(feed.sync())
            # Exact mirroring: the served graph IS the crawler's view.
            assert server.ranker.current_graph() == crawler.snapshot()
        return server, crawler

    def test_feed_mirrors_growing_crawl(self):
        server, crawler = self.run_loop(churn=0)
        assert server.n_pages == crawler.n_crawled

    def test_feed_mirrors_churning_crawl(self):
        server, crawler = self.run_loop(churn=50)
        reference = pagerank_open(crawler.snapshot(), tol=1e-12).ranks
        measured = relative_l1_error(server.ranker.ranks, reference)
        assert measured <= server.staleness() + 1e-12
        assert server.staleness() <= EPS * (1.0 + 1e-9)

    def test_feed_mirrors_refresh_only_phases(self):
        web = TrueWeb(600, 12, seed=8)
        crawler = Crawler(web, seeds=[0], seed=9)
        crawler.crawl_until(250)
        n0 = crawler.n_crawled
        feed = CrawlFeed(crawler)
        server = RankServer(feed.initial_graph(), n_groups=4, epsilon=EPS)
        for phase in range(3):
            web.churn(60, seed=200 + phase)
            crawler.refresh(crawler.n_crawled)
            server.apply(feed.sync())
            assert server.ranker.current_graph() == crawler.snapshot()
            assert server.n_pages == n0  # refresh never grows the crawl

    def test_queries_match_brute_force_after_each_sync(self):
        server, _ = self.run_loop(churn=40, phases=3)
        vals = server.ranker.ranks
        pages, values = server.top_k(20)
        want_p, want_v = brute_force_top_k(vals, 20)
        np.testing.assert_array_equal(pages, want_p)
        np.testing.assert_array_equal(values, want_v)
        rng = np.random.default_rng(1)
        for page in rng.integers(0, server.n_pages, 20):
            assert server.rank_of(int(page)) == brute_force_rank_of(
                vals, int(page)
            )
            assert server.score(int(page)) == vals[int(page)]
        for q in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert server.percentile(q) == brute_force_percentile(vals, q)

    def test_empty_sync_is_noop(self):
        web = TrueWeb(300, 6, seed=10)
        crawler = Crawler(web, seeds=[0], seed=11)
        crawler.crawl_until(100)
        feed = CrawlFeed(crawler)
        server = RankServer(feed.initial_graph(), n_groups=3, epsilon=EPS)
        stats = server.apply(feed.sync())  # crawler did not move
        assert stats.mode == "noop"


# ----------------------------------------------------------------------
# Experiment + CLI plumbing
# ----------------------------------------------------------------------
class TestServeDemo:
    def test_demo_runs_and_formats(self):
        from repro.experiments import run_serve_demo

        result = run_serve_demo(
            web_pages=600,
            web_sites=12,
            crawl_pages=250,
            n_groups=4,
            phases=2,
            churn_per_phase=30,
            crawl_budget=80,
            queries_per_phase=60,
            seed=7,
        )
        assert len(result.phases) == 2
        assert result.within_budget()
        text = result.format()
        assert "serving tier under load" in text
        assert "cold full re-solve" in text

    def test_demo_is_cached(self, tmp_path):
        from repro.experiments import run_serve_demo
        from repro.parallel.cache import ArtifactCache, activate

        kwargs = dict(
            web_pages=400,
            web_sites=8,
            crawl_pages=150,
            n_groups=3,
            phases=1,
            churn_per_phase=20,
            crawl_budget=50,
            queries_per_phase=30,
            seed=9,
        )
        cache = ArtifactCache(tmp_path)
        with activate(cache):
            first = run_serve_demo(**kwargs)
            second = run_serve_demo(**kwargs)
        assert cache.hits >= 1
        assert first.format() == second.format()

    def test_cli_serve_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--web-pages", "400",
                "--sites", "8",
                "--crawl", "150",
                "--groups", "3",
                "--phases", "2",
                "--churn", "20",
                "--budget", "50",
                "--queries", "40",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving tier under load" in out
        assert "within ε budget" in out

    def test_cli_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.web_pages == 3000
        assert args.epsilon == 1e-3
        assert args.groups == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--epsilon", "0"])
