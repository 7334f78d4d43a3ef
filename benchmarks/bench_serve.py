"""Load-generator bench: the serving tier under a mutating crawl at 1e5 pages.

A :class:`RankServer` is brought up on a 100k-page crawl snapshot and
then driven through growth + churn phases: each phase the TrueWeb
churns, the crawler advances, the :class:`CrawlFeed` diffs the delta
into a mutation batch, and the server re-ranks incrementally (sparse
column swaps on the dirty stripes + warm-started block sweeps over
every group until the ε certification sweep holds) while a seeded
mixed query workload (top-k / rank-of / percentile) runs against the
index.

On teardown the module writes ``BENCH_serve.json`` at the repo root
with the three CI-gated claims:

* incremental re-rank ≥ ``MIN_INCREMENTAL_SPEEDUP``× faster than a
  cold full re-solve of the same final snapshot;
* indexed top-k ≥ ``MIN_QUERY_SPEEDUP``× faster than the full-vector
  scan it replaces;
* certified staleness within the configured ε budget every phase
  (and the *measured* drift vs a fresh centralized solve below the
  certificate — the bound is honest).
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.pagerank import pagerank_open
from repro.crawl import Crawler, TrueWeb
from repro.experiments.serve import _percentile_us, run_query_mix
from repro.linalg.norms import relative_l1_error
from repro.serve import CrawlFeed, IncrementalRanker, RankServer

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"

#: CI gates (asserted below and re-checked by the serve-smoke job).
MIN_INCREMENTAL_SPEEDUP = 3.0
MIN_QUERY_SPEEDUP = 10.0
EPSILON = 1e-3

WEB_PAGES = 120_000
CRAWL_PAGES = 100_000
N_GROUPS = 16
PHASES = 4
CHURN_PER_PHASE = 60
CRAWL_BUDGET = 150
QUERIES_PER_PHASE = 400
TOPK_SAMPLES = 200

_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_serve.json once the load run has finished."""
    yield
    if "summary" not in _RESULTS:
        return
    BENCH_JSON.write_text(json.dumps(_RESULTS, indent=2) + "\n")


def run_load():
    """The full load scenario; returns (phase rows, summary)."""
    web = TrueWeb(WEB_PAGES, 800, seed=7)
    crawler = Crawler(web, seeds=[0, WEB_PAGES // 3, 2 * WEB_PAGES // 3], seed=8)
    crawler.crawl_until(CRAWL_PAGES)
    feed = CrawlFeed(crawler)
    server = RankServer(
        feed.initial_graph(), n_groups=N_GROUPS, epsilon=EPSILON
    )
    rng = np.random.default_rng(9)

    rows = []
    for phase in range(PHASES):
        web.churn(CHURN_PER_PHASE, seed=100 + phase)
        crawler.step(CRAWL_BUDGET)
        batch = feed.sync()
        t0 = time.perf_counter()
        stats = server.ranker.update(batch)
        rerank_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        if stats.changed_pages.size:
            server.index.update(stats.changed_pages, stats.changed_values)
        reindex_s = time.perf_counter() - t0

        reference = pagerank_open(
            server.ranker.current_graph(), tol=1e-12
        ).ranks
        measured = relative_l1_error(server.ranker.ranks, reference)

        indexed, scans = run_query_mix(server, QUERIES_PER_PHASE, rng)
        rows.append(
            {
                "phase": phase,
                "n_pages": server.n_pages,
                "batch_mutations": len(batch),
                "dirty_groups": stats.dirty_groups,
                "mode": stats.mode,
                "inner_sweeps": stats.inner_sweeps,
                "rerank_ms": round(rerank_s * 1e3, 2),
                "reindex_ms": round(reindex_s * 1e3, 2),
                "staleness_certified": server.staleness(),
                "staleness_measured": measured,
                "qps": round(len(indexed) / max(sum(indexed), 1e-12), 1),
                "query_p50_us": round(_percentile_us(indexed, 50.0), 1),
                "query_p99_us": round(_percentile_us(indexed, 99.0), 1),
                "scan_mean_us": round(float(np.mean(scans)) * 1e6, 1),
            }
        )

    # Cold baseline: a from-scratch certified solve of the final graph
    # with the same kernels, group count and ε budget.
    final = server.ranker.current_graph()
    t0 = time.perf_counter()
    IncrementalRanker(final, n_groups=N_GROUPS, epsilon=EPSILON)
    cold_s = time.perf_counter() - t0

    # The query gate compares like for like: indexed top-k vs the
    # O(n log n) full-vector scan answering the same query.
    topk_lat, scan_lat = [], []
    for i in range(TOPK_SAMPLES):
        t0 = time.perf_counter()
        server.top_k(10)
        topk_lat.append(time.perf_counter() - t0)
        if i % 16 == 0:
            t0 = time.perf_counter()
            server.scan_top_k(10)
            scan_lat.append(time.perf_counter() - t0)

    incr_ms = [r["rerank_ms"] for r in rows]
    summary = {
        "n_pages": server.n_pages,
        "epsilon": EPSILON,
        "cold_resolve_ms": round(cold_s * 1e3, 1),
        "incremental_mean_ms": round(float(np.mean(incr_ms)), 1),
        "incremental_speedup": round(cold_s * 1e3 / float(np.mean(incr_ms)), 2),
        "topk_indexed_us": round(float(np.mean(topk_lat)) * 1e6, 1),
        "topk_scan_us": round(float(np.mean(scan_lat)) * 1e6, 1),
        "query_speedup": round(
            float(np.mean(scan_lat)) / float(np.mean(topk_lat)), 1
        ),
        "max_staleness_certified": max(
            r["staleness_certified"] for r in rows
        ),
        "max_staleness_measured": max(r["staleness_measured"] for r in rows),
    }
    return rows, summary


def test_serve_under_load(benchmark, save_result):
    rows, summary = benchmark.pedantic(run_load, rounds=1, iterations=1)

    save_result(
        "serve",
        format_table(
            [
                "phase",
                "pages",
                "batch",
                "dirty",
                "mode",
                "rerank ms",
                "qps",
                "p50 µs",
                "p99 µs",
                "certified",
                "measured",
            ],
            [
                (
                    r["phase"],
                    r["n_pages"],
                    r["batch_mutations"],
                    f"{r['dirty_groups']}/{N_GROUPS}",
                    r["mode"],
                    r["rerank_ms"],
                    r["qps"],
                    r["query_p50_us"],
                    r["query_p99_us"],
                    f"{r['staleness_certified']:.2e}",
                    f"{r['staleness_measured']:.2e}",
                )
                for r in rows
            ],
            title=(
                f"serving tier at {summary['n_pages']} pages "
                f"(K={N_GROUPS}, ε={EPSILON:g}) — cold "
                f"{summary['cold_resolve_ms']}ms, incremental "
                f"{summary['incremental_mean_ms']}ms "
                f"({summary['incremental_speedup']}x), indexed top-k "
                f"{summary['query_speedup']}x over scan"
            ),
        ),
    )
    benchmark.extra_info.update(summary)

    # -- the three CI gates -------------------------------------------
    assert summary["incremental_speedup"] >= MIN_INCREMENTAL_SPEEDUP
    assert summary["query_speedup"] >= MIN_QUERY_SPEEDUP
    for r in rows:
        assert r["staleness_certified"] <= EPSILON
        # The certificate is honest: it dominates the measured drift.
        assert r["staleness_measured"] <= r["staleness_certified"] + 1e-12

    _RESULTS.update(
        {
            "bench": "serve",
            "workload": (
                f"TrueWeb({WEB_PAGES} pages, 800 sites), crawl of "
                f"{CRAWL_PAGES}, {PHASES} phases x (churn "
                f"{CHURN_PER_PHASE} + crawl {CRAWL_BUDGET}), "
                f"{QUERIES_PER_PHASE} queries/phase, {N_GROUPS} groups"
            ),
            "gates": {
                "min_incremental_speedup": MIN_INCREMENTAL_SPEEDUP,
                "min_query_speedup": MIN_QUERY_SPEEDUP,
                "epsilon": EPSILON,
            },
            "phases": rows,
            "summary": summary,
        }
    )
