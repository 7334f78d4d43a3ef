"""Serving-tier demo: incremental re-ranking + indexed queries under load.

Drives the full serving stack (:mod:`repro.serve`) with a seeded mixed
workload — a crawler advancing over a churning :class:`TrueWeb`, its
observations diffed into mutation batches by :class:`CrawlFeed`, and a
query mix (top-k / rank-of / percentile) fired between batches — and
reports, per sync phase:

* batch composition (new pages, link edits) and the maintenance
  response (dirty/touched groups, solve mode, inner sweeps);
* re-rank wall-clock vs the cold baseline (a from-scratch
  :class:`IncrementalRanker` solve of the same snapshot);
* the certified staleness bound vs the configured ε budget, and the
  *measured* relative L1 error against a fresh centralized solve of
  the current snapshot (the certificate must dominate it);
* query latency percentiles for the indexed path and the mean
  full-vector-scan latency it replaces.

Declared like the suite experiments: one ``@point`` that takes no
workload (:mod:`repro.parallel.tasks`); wall-clock is measured inside
the cached point, so warm-cache reruns reproduce the table
byte-identically.  CLI: ``python -m repro serve``; the CI-gated
numbers at 1e5 pages live in ``benchmarks/bench_serve.py`` →
``BENCH_serve.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.parallel.tasks import experiment, point

__all__ = ["ServeDemoResult", "serve_demo_point", "run_serve_demo"]


def _percentile_us(samples_s: List[float], q: float) -> float:
    """Nearest-rank percentile of latency samples, in microseconds."""
    if not samples_s:
        return 0.0
    ordered = sorted(samples_s)
    k = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[k - 1] * 1e6


def run_query_mix(
    server,
    n_queries: int,
    rng: np.random.Generator,
    *,
    top_k: int = 10,
) -> Tuple[List[float], List[float]]:
    """Fire a seeded 60/30/10 top-k / rank-of / percentile mix.

    Returns ``(indexed latencies, scan latencies)`` in seconds; the
    scan path answers one in every 32 top-k queries with the O(n log n)
    full-vector sort for the latency comparison column.
    """
    kinds = rng.choice(3, size=n_queries, p=[0.6, 0.3, 0.1])
    pages = rng.integers(0, max(server.n_pages, 1), size=n_queries)
    qs = rng.uniform(0.0, 100.0, size=n_queries)
    indexed: List[float] = []
    scans: List[float] = []
    for i in range(n_queries):
        kind = int(kinds[i])
        t0 = time.perf_counter()
        if kind == 0:
            server.top_k(top_k)
        elif kind == 1:
            server.rank_of(int(pages[i]))
        else:
            server.percentile(float(qs[i]))
        indexed.append(time.perf_counter() - t0)
        if kind == 0 and i % 32 == 0:
            t0 = time.perf_counter()
            server.scan_top_k(top_k)
            scans.append(time.perf_counter() - t0)
    return indexed, scans


@dataclass
class ServeDemoResult:
    """Per-phase serving metrics plus the cold-baseline summary."""

    n_groups: int
    epsilon: float
    phases: List[Dict[str, float]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)

    def within_budget(self) -> bool:
        """True when every phase's certified staleness fits ε."""
        return all(p["staleness"] <= self.epsilon for p in self.phases)

    def rows(self) -> List[Tuple]:
        """Raw result rows (one tuple per table line)."""
        return [
            (
                int(p["phase"]),
                int(p["n_pages"]),
                int(p["batch_mutations"]),
                f"{int(p['dirty_groups'])}/{self.n_groups}",
                p["mode"],
                int(p["inner_sweeps"]),
                f"{p['rerank_ms']:.1f}",
                f"{p['staleness']:.2e}",
                f"{p['measured_error']:.2e}",
                f"{p['query_p50_us']:.0f}",
                f"{p['query_p99_us']:.0f}",
                f"{p['scan_mean_us']:.0f}",
            )
            for p in self.phases
        ]

    def format(self) -> str:
        """Paper-shaped text table of this result."""
        table = format_table(
            [
                "phase",
                "pages",
                "batch",
                "dirty",
                "mode",
                "sweeps",
                "rerank ms",
                "certified",
                "measured",
                "q p50 µs",
                "q p99 µs",
                "scan µs",
            ],
            self.rows(),
            title=(
                f"serving tier under load (K={self.n_groups}, "
                f"ε={self.epsilon:g})"
            ),
        )
        s = self.summary
        budget = "within ε budget" if self.within_budget() else "ε BUDGET EXCEEDED"
        table += (
            f"\ncold full re-solve: {s['cold_ms']:.1f} ms; mean incremental: "
            f"{s['incremental_mean_ms']:.1f} ms ({s['speedup']:.1f}x); "
            f"indexed query speedup over scan: {s['query_speedup']:.1f}x; "
            f"{budget}"
        )
        return table


@point("serve")
def serve_demo_point(
    *,
    web_pages: int,
    web_sites: int,
    crawl_pages: int,
    n_groups: int,
    epsilon: float,
    phases: int,
    churn_per_phase: int,
    crawl_budget: int,
    queries_per_phase: int,
    seed: int,
) -> Dict[str, object]:
    """All serving-demo metrics for one workload (cached)."""
    from repro.core.pagerank import pagerank_open
    from repro.crawl.crawler import Crawler
    from repro.crawl.trueweb import TrueWeb
    from repro.linalg.norms import relative_l1_error
    from repro.serve import CrawlFeed, IncrementalRanker, RankServer

    web = TrueWeb(web_pages, web_sites, seed=seed)
    crawler = Crawler(web, seeds=[0, web_pages // 2], seed=seed + 1)
    crawler.crawl_until(crawl_pages)
    feed = CrawlFeed(crawler)
    server = RankServer(
        feed.initial_graph(), n_groups=n_groups, epsilon=epsilon
    )
    rng = np.random.default_rng(seed + 2)

    rows: List[Dict[str, float]] = []
    for phase in range(phases):
        web.churn(churn_per_phase, seed=seed + 10 + phase)
        crawler.step(crawl_budget)
        batch = feed.sync()
        t0 = time.perf_counter()
        stats = server.apply(batch)
        rerank_s = time.perf_counter() - t0
        snapshot = server.ranker.current_graph()
        reference = pagerank_open(snapshot, tol=1e-12).ranks
        measured = relative_l1_error(server.ranker.ranks, reference)
        indexed, scans = run_query_mix(server, queries_per_phase, rng)
        rows.append(
            {
                "phase": float(phase),
                "n_pages": float(server.n_pages),
                "batch_mutations": float(len(batch)),
                "dirty_groups": float(stats.dirty_groups),
                "mode": stats.mode,
                "inner_sweeps": float(stats.inner_sweeps),
                "rerank_ms": rerank_s * 1e3,
                "staleness": server.staleness(),
                "measured_error": measured,
                "query_p50_us": _percentile_us(indexed, 50.0),
                "query_p99_us": _percentile_us(indexed, 99.0),
                "scan_mean_us": (
                    float(np.mean(scans)) * 1e6 if scans else 0.0
                ),
            }
        )

    # Cold baseline: rank the final snapshot from scratch with the
    # same kernels and budget the incremental path maintained.
    final = server.ranker.current_graph()
    t0 = time.perf_counter()
    IncrementalRanker(final, n_groups=n_groups, epsilon=epsilon)
    cold_s = time.perf_counter() - t0
    incr_ms = [r["rerank_ms"] for r in rows]
    scan_means = [r["scan_mean_us"] for r in rows if r["scan_mean_us"]]
    p50s = [r["query_p50_us"] for r in rows if r["query_p50_us"]]
    summary = {
        "cold_ms": cold_s * 1e3,
        "incremental_mean_ms": float(np.mean(incr_ms)),
        "speedup": cold_s * 1e3 / max(float(np.mean(incr_ms)), 1e-9),
        "query_speedup": (
            float(np.mean(scan_means)) / max(float(np.mean(p50s)), 1e-9)
            if scan_means and p50s
            else 0.0
        ),
    }
    return {"phases": rows, "summary": summary}


def _plan(options: Mapping[str, Any]):
    if options["phases"] < 1:
        raise ValueError("phases must be >= 1")
    return [("serve", dict(options))]


def _assemble(options: Mapping[str, Any], values: Sequence[Dict[str, Any]]) -> ServeDemoResult:
    return ServeDemoResult(
        n_groups=options["n_groups"],
        epsilon=options["epsilon"],
        phases=values[0]["phases"],
        summary=values[0]["summary"],
    )


@experiment("serve", _plan, _assemble)
def run_serve_demo(
    *,
    web_pages: int = 3000,
    web_sites: int = 60,
    crawl_pages: int = 1200,
    n_groups: int = 8,
    epsilon: float = 1e-3,
    phases: int = 4,
    churn_per_phase: int = 80,
    crawl_budget: int = 200,
    queries_per_phase: int = 400,
    seed: int = 2003,
) -> ServeDemoResult:
    """Run the serving-tier demo workload; see module docstring."""
