"""Serving tier: incremental re-ranking and indexed rank queries.

Turns a computed rank vector into a system that serves traffic:

* :mod:`repro.serve.incremental` — :class:`IncrementalRanker`
  maintains the open-system fixed point under edge/page mutations
  with dirty-group operator-column updates, one warm-started solve
  loop, and a certified ε staleness budget (Theorem 3.3).
* :mod:`repro.serve.index` — :class:`RankIndex` answers exact top-k /
  rank-of / percentile queries without scanning the vector, updated
  from each flush's changed-page delta.
* :mod:`repro.serve.service` — :class:`RankServer` composes the two;
  :class:`CrawlFeed` diffs a live :class:`~repro.crawl.crawler.Crawler`
  into mutation batches.

See DESIGN.md §14 for the maintenance contract.
"""

from repro.serve.incremental import FlushStats, IncrementalRanker, MutationBatch
from repro.serve.index import (
    RankIndex,
    brute_force_percentile,
    brute_force_rank_of,
    brute_force_top_k,
)
from repro.serve.service import CrawlFeed, RankServer

__all__ = [
    "MutationBatch",
    "FlushStats",
    "IncrementalRanker",
    "RankIndex",
    "brute_force_top_k",
    "brute_force_rank_of",
    "brute_force_percentile",
    "RankServer",
    "CrawlFeed",
]
