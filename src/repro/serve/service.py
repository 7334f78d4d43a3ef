"""The serving facade: a rank server fed by a live crawler.

:class:`RankServer` composes the two maintenance layers —
:class:`~repro.serve.incremental.IncrementalRanker` (keeps the rank
vector within a certified ε of the current graph's fixed point) and
:class:`~repro.serve.index.RankIndex` (keeps order-statistics queries
exact without scanning) — behind one object: mutations go in through
:meth:`RankServer.apply`, queries come out of :meth:`RankServer.top_k`
/ :meth:`RankServer.rank_of` / :meth:`RankServer.percentile`.

:class:`CrawlFeed` closes the loop with :mod:`repro.crawl`: it diffs a
:class:`~repro.crawl.crawler.Crawler`'s observed state between syncs
into :class:`~repro.serve.incremental.MutationBatch` objects.  The
contract is exact mirroring — after ``server.apply(feed.sync())`` the
server's graph equals ``crawler.snapshot()`` (asserted by the test
layer), so the ε staleness certificate is measured against precisely
the graph a fresh snapshot-and-solve would rank.

The delicate part of the diff is the open-system boundary.  A link's
internal/external classification depends on the *crawled set*, not on
the link: when the crawl reaches a page, every already-observed link
pointing at it silently flips from an external-out count to an
internal edge, without any source page changing.  The feed tracks
those pending flips with per-target watcher lists, and builds each
batch in three steps whose order matters:

1. **Refresh diffs** — for each re-fetched page, a multiset diff of
   its observed out-links; removals are classified against the *last
   sync's* crawled set (what the server currently believes), additions
   against the current one.  Watcher lists are updated here, so a
   removed never-crawled link cannot flip in step 2.
2. **Watcher flips** — for each page crawled since the last sync, its
   remaining watchers trade one external count for one internal edge.
3. **New pages** — appended in crawl order (the server assigns ids
   sequentially, so crawl ids and server ids stay equal), with their
   links classified against the current crawled set.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.crawl.crawler import Crawler
from repro.graph.webgraph import WebGraph
from repro.serve.incremental import FlushStats, IncrementalRanker, MutationBatch
from repro.serve.index import RankIndex, brute_force_top_k

__all__ = ["RankServer", "CrawlFeed"]


class RankServer:
    """Incrementally maintained PageRank with exact indexed queries.

    Keyword arguments are forwarded to :class:`IncrementalRanker`
    (``n_groups``, ``alpha``, ``e``, ``epsilon``, ``salt``).  Construction solves the initial graph and builds the
    index; each :meth:`apply` re-certifies the ε budget and applies
    the resulting rank delta to the index.
    """

    def __init__(self, graph: WebGraph, **ranker_kwargs):
        self.ranker = IncrementalRanker(graph, **ranker_kwargs)
        self.index = RankIndex()
        if self.ranker.n_pages:
            self.index.update(
                np.arange(self.ranker.n_pages, dtype=np.int64),
                self.ranker.ranks,
            )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> FlushStats:
        """Apply one mutation batch: re-rank, re-certify, re-index."""
        stats = self.ranker.update(batch)
        if stats.changed_pages.size:
            self.index.update(stats.changed_pages, stats.changed_values)
        return stats

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return self.ranker.n_pages

    def top_k(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` highest-ranked pages ``(pages, values)``."""
        return self.index.top_k(k)

    def rank_of(self, page: int) -> int:
        """1-based position of ``page`` (value desc, page id asc)."""
        return self.index.rank_of(page)

    def percentile(self, q: float) -> float:
        """Nearest-rank lower percentile of the served rank values."""
        return self.index.percentile(q)

    def score(self, page: int) -> float:
        """The served rank value of one page."""
        return self.index.value_of(page)

    def staleness(self) -> float:
        """Certified relative-L1 distance to the current fixed point."""
        return self.ranker.staleness()

    def scan_top_k(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The O(n log n) unindexed answer (the bench's scan baseline)."""
        return brute_force_top_k(self.ranker.ranks, k)


class CrawlFeed:
    """Diff a crawler's observed state into mutation batches.

    Construct the feed *before* handing the initial snapshot to the
    server (``RankServer(feed.initial_graph())``), then alternate
    crawler steps with :meth:`sync`.  Crawl ids are the server's page
    ids throughout.
    """

    def __init__(self, crawler: Crawler):
        self.crawler = crawler
        self._n_synced = crawler.n_crawled
        self._links: List[List[int]] = [
            list(links) for links in crawler._observed
        ]
        self._version: List[int] = list(crawler._fetched_version)
        #: uncrawled true-web target -> crawl ids observed linking to it
        #: (with multiplicity), i.e. external links pending a flip.
        self._watch: Dict[int, List[int]] = {}
        for cid, links in enumerate(self._links):
            for t in links:
                if not crawler.is_crawled(t):
                    self._watch.setdefault(t, []).append(cid)

    def initial_graph(self) -> WebGraph:
        """The snapshot corresponding to the feed's synced state."""
        if self._n_synced != self.crawler.n_crawled:  # pragma: no cover
            raise RuntimeError("crawler advanced before initial_graph()")
        return self.crawler.snapshot()

    def sync(self) -> MutationBatch:
        """Everything the crawler learned since the last sync, as a batch."""
        crawler = self.crawler
        crawl_id = crawler.crawl_id
        n_synced = self._n_synced
        batch = MutationBatch()
        ext: Dict[int, int] = {}

        def was_internal(t: int) -> bool:
            cid = crawl_id.get(t)
            return cid is not None and cid < n_synced

        # -- 1. refresh diffs on already-synced pages -------------------
        for cid in range(n_synced):
            if crawler._fetched_version[cid] == self._version[cid]:
                continue
            old = Counter(self._links[cid])
            new = Counter(crawler._observed[cid])
            for t, count in (old - new).items():
                if was_internal(t):
                    batch.remove_links.extend(
                        [(cid, crawl_id[t])] * count
                    )
                else:
                    ext[cid] = ext.get(cid, 0) - count
                    self._discard_watchers(t, cid, count)
            for t, count in (new - old).items():
                tcid = crawl_id.get(t)
                if tcid is not None:
                    batch.add_links.extend([(cid, tcid)] * count)
                else:
                    ext[cid] = ext.get(cid, 0) + count
                    self._watch.setdefault(t, []).extend([cid] * count)
            self._links[cid] = list(crawler._observed[cid])
            self._version[cid] = crawler._fetched_version[cid]

        # -- 2. external -> internal flips for newly crawled targets ----
        for new_cid in range(n_synced, crawler.n_crawled):
            true_page = crawler.true_id[new_cid]
            for watcher in self._watch.pop(true_page, []):
                ext[watcher] = ext.get(watcher, 0) - 1
                batch.add_links.append((watcher, new_cid))

        # -- 3. the new pages themselves, in crawl (= server id) order --
        web = crawler.web
        for new_cid in range(n_synced, crawler.n_crawled):
            true_page = crawler.true_id[new_cid]
            batch.new_pages.append(web.site_names[web.site_of[true_page]])
            links = crawler._observed[new_cid]
            for t in links:
                tcid = crawl_id.get(t)
                if tcid is not None:
                    batch.add_links.append((new_cid, tcid))
                else:
                    ext[new_cid] = ext.get(new_cid, 0) + 1
                    self._watch.setdefault(t, []).append(new_cid)
            self._links.append(list(links))
            self._version.append(crawler._fetched_version[new_cid])

        self._n_synced = crawler.n_crawled
        batch.external_delta = {p: d for p, d in ext.items() if d != 0}
        return batch

    def _discard_watchers(self, target: int, cid: int, count: int) -> None:
        watchers = self._watch.get(target)
        if watchers is None:  # pragma: no cover - defensive
            return
        for _ in range(count):
            watchers.remove(cid)
        if not watchers:
            del self._watch[target]
