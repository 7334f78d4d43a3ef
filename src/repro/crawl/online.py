"""Online distributed ranking over a growing crawl.

The paper's future work asks for "more experiments (and using larger
datasets) to discover more interesting phenomena" and §4.3 conjectures
that DPR converges on *dynamic* link graphs.  This module implements
the natural deployment loop:

    repeat:
        crawl more pages / refresh stale ones
        re-partition the enlarged crawl (site hash: stable, so almost
            every already-placed page stays put)
        run distributed page ranking, warm-starting every ranker from
            the ranks of the previous phase
        record tracking error against the current crawl's centralized
            solution

Warm starting is the payoff of Theorem 4.1's machinery: old ranks are
a good (under-)estimate of the new fixed point, so each phase needs
far fewer iterations than ranking from scratch — which the ablation
bench quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.pagerank import pagerank_open
from repro.crawl.crawler import Crawler
from repro.graph.partition import make_partition

__all__ = ["OnlinePhase", "online_distributed_pagerank"]


@dataclass
class OnlinePhase:
    """Outcome of one crawl-then-rank phase."""

    phase: int
    n_pages: int
    converged: bool
    time_to_target: Optional[float]
    mean_outer_iterations: float
    initial_error: float
    ranks: np.ndarray


def online_distributed_pagerank(
    crawler: Crawler,
    *,
    n_groups: int = 8,
    phases: int = 4,
    pages_per_phase: int = 500,
    churn_per_phase: int = 0,
    target_relative_error: float = 1e-4,
    max_time_per_phase: float = 2000.0,
    config: Optional[DistributedConfig] = None,
    warm_start: bool = True,
    seed: int = 0,
) -> List[OnlinePhase]:
    """Crawl and rank in alternating phases; see module docstring.

    Parameters
    ----------
    crawler:
        Positioned anywhere (fresh or mid-crawl).
    pages_per_phase:
        Crawl growth per phase.  ``0`` makes phases *mutation-only*:
        the crawled set stays fixed while the crawler re-fetches every
        page to pick up churn — the steady-state regime of a crawl
        that has exhausted its frontier over a web that keeps moving.
    churn_per_phase:
        Link edits applied to the underlying TrueWeb between phases
        (0 = static web, growth only).
    config:
        Base distributed configuration; ``n_groups`` and seeds are
        overridden per call.
    warm_start:
        Carry each phase's ranks into the next (the default).
        ``False`` ranks every phase from scratch — the cold baseline
        the warm-start ablation (``BENCH_online.json``) measures
        against.

    Returns one :class:`OnlinePhase` per phase.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if pages_per_phase < 0:
        raise ValueError("pages_per_phase must be >= 0")
    if churn_per_phase < 0:
        raise ValueError("churn_per_phase must be >= 0")
    base = config if config is not None else DistributedConfig(t1=1.0, t2=1.0)
    results: List[OnlinePhase] = []
    prev_ranks: Optional[np.ndarray] = None

    for phase in range(phases):
        if churn_per_phase and phase > 0:
            crawler.web.churn(churn_per_phase, seed=seed + phase)
        if pages_per_phase:
            crawler.crawl_until(crawler.n_crawled + pages_per_phase)
        elif crawler.n_crawled:
            # Mutation-only phase: same pages, fresh links.
            crawler.refresh(crawler.n_crawled)
        graph = crawler.snapshot()
        if graph.n_pages == 0:
            raise ValueError(
                "crawler has no crawled pages and pages_per_phase=0: "
                "nothing to rank (crawl first, or set pages_per_phase > 0)"
            )
        partition = make_partition(graph, n_groups, "site")

        cfg = base.with_overrides(n_groups=n_groups, seed=seed + phase)
        reference = pagerank_open(graph, alpha=cfg.alpha, e=cfg.e, tol=1e-12).ranks
        run = DistributedRun(graph, cfg, partition=partition, reference=reference)

        # Warm start: copy forward the previous phase's ranks.  Crawl
        # ids are stable, so page i of the old snapshot is page i of
        # the new one; freshly crawled pages start at 0 (Theorem 4.1's
        # R0 = 0 choice, so the *new* mass still grows monotonically).
        # Mutation-only phases have an empty delta (same page count),
        # so the copy is the identity on the page set.  ``warm_start``
        # seeds the afferent state too — setting ``node.r`` alone is
        # erased by the first outer step (R is recomputed from βE + X).
        if warm_start and prev_ranks is not None:
            warm = np.zeros(graph.n_pages)
            m = min(prev_ranks.shape[0], graph.n_pages)
            warm[:m] = prev_ranks[:m]
            run.warm_start(warm)

        initial = _initial_error(
            run, prev_ranks if warm_start else None, graph.n_pages
        )
        res = run.run(
            max_time=max_time_per_phase,
            target_relative_error=target_relative_error,
        )
        prev_ranks = res.ranks
        results.append(
            OnlinePhase(
                phase=phase,
                n_pages=graph.n_pages,
                converged=res.converged,
                time_to_target=res.time_to_target,
                mean_outer_iterations=float(res.outer_iterations.mean()),
                initial_error=initial,
                ranks=res.ranks,
            )
        )
    return results


def _initial_error(run: DistributedRun, prev_ranks, n_pages: int) -> float:
    """Relative error of the warm-started state before any iteration.

    Robust to a shrinking or empty delta: the carried vector is
    truncated to the current page count (mutation-only phases carry
    exactly as many ranks as there are pages, and a replayed crawl
    prefix can legitimately carry *more*), and an empty carried vector
    is the cold start.
    """
    from repro.linalg.norms import relative_l1_error

    warm = np.zeros(n_pages)
    if prev_ranks is not None and prev_ranks.shape[0]:
        m = min(prev_ranks.shape[0], n_pages)
        warm[:m] = prev_ranks[:m]
    return relative_l1_error(warm, run.reference)
