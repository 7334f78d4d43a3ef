#!/usr/bin/env python
"""Scenario: a cooperative P2P search engine ranks its crawl.

This is the paper's motivating application (§1): no single machine can
rank the whole web, so K peers each crawl and rank a slice, exchanging
scores through the overlay.  The example shows what an end user of the
search engine sees — the top results — and that the distributed
ordering matches what a centralized Google-style ranker would produce,
even with messages being lost and peers pausing mid-run.

Run:  python examples/web_search_ranking.py
"""

import numpy as np

from repro import google_contest_like, pagerank_open
from repro.analysis import format_table, rank_order_correlation, topk_overlap
from repro.core import DistributedConfig, DistributedRun


def main() -> None:
    graph = google_contest_like(8_000, 80, seed=3)
    centralized = pagerank_open(graph, tol=1e-12).ranks

    # A realistic deployment: 24 peers, flaky network (10% loss),
    # two peers going offline for a while mid-run.
    config = DistributedConfig(
        n_groups=24,
        algorithm="dpr1",
        partition_strategy="site",
        overlay="pastry",
        transport="indirect",
        t1=0.0,
        t2=6.0,
        delivery_prob=0.9,
        seed=11,
        pause_faults=2,
        pause_horizon=30.0,
        pause_mean_outage=20.0,
    )
    run = DistributedRun(graph, config, reference=centralized)
    result = run.run(max_time=600.0, target_relative_error=1e-5)

    print(
        f"converged: {result.converged} "
        f"(sim time {result.time_to_target}, "
        f"{result.dropped_updates} updates lost en route)\n"
    )

    # The search-results page: top 10 by distributed rank.
    order = np.argsort(-result.ranks)
    rows = []
    central_order = {p: i + 1 for i, p in enumerate(np.argsort(-centralized))}
    for rank_pos, page in enumerate(order[:10], start=1):
        rows.append(
            (
                rank_pos,
                graph.url_of(int(page)),
                float(result.ranks[page]),
                central_order[int(page)],
            )
        )
    print(
        format_table(
            ["#", "url", "score", "centralized #"],
            rows,
            title="top-10 search results (distributed ranking)",
        )
    )

    print(
        f"\ntop-10 overlap with centralized: "
        f"{topk_overlap(result.ranks, centralized, 10):.0%}"
    )
    print(
        f"Spearman rank correlation:       "
        f"{rank_order_correlation(result.ranks, centralized):.6f}"
    )


if __name__ == "__main__":
    main()
