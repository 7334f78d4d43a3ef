"""Partitioner bake-off: every placement strategy over one graph.

The paper commits to hash-by-site placement from first principles
(§4.1) and never measures the alternatives; Suzuki–Ishii (PAPERS.md)
shows the clustering choice dominates communication cost.  This
experiment runs the full contender set — the paper baseline
(``site``), both rejected strategies (``url``, ``random``), the
rendezvous and contiguous extensions, and the greedy min-cut streamer
(``ldg``) — over *identical* graphs and reports, per strategy:

* cut links and cut fraction (the per-iteration payload, §4.4's ``W``);
* imbalance (max/mean pages per ranker) and split sites (violations
  of the paper's locality assumption);
* per-round bytes, twice: the §4.4 closed-form estimate and the flat
  engine's measured calibration round;
* rounds to the target relative error against the centralized
  reference (convergence is partition-dependent through the
  inner/outer solve split).

Declared like the suite experiments (one ``@point`` per strategy,
:mod:`repro.parallel.tasks`), so re-running the bake-off with a warm
cache reproduces the table byte-identically without touching the
engine.  The experiment works unchanged on memory-mapped graphs (cut
statistics, LDG, and the engine's operator build all stream CSR
chunks), which is what makes the 1e7-page smoke configuration feasible
— at that scale pass ``measure_rank=False``: its cut-only points take
the graph but no reference, so no centralized solve is planned.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.graph.partition import make_partition
from repro.graph.stats import partition_cut_statistics
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = [
    "BAKEOFF_STRATEGIES",
    "PartitionBakeoffResult",
    "partition_bakeoff_point",
    "partition_cut_point",
    "run_partition_bakeoff",
]

#: The contender set: paper baseline (site), the paper's rejected
#: alternatives (url, random), the repo's stability extension
#: (rendezvous), the didactic splitter (contiguous), and the greedy
#: min-cut streamer (ldg).
BAKEOFF_STRATEGIES: Tuple[str, ...] = (
    "site",
    "url",
    "rendezvous",
    "random",
    "contiguous",
    "ldg",
)

#: Common tick period of the bake-off's convergence runs.
_PERIOD = 6.0


@dataclass
class PartitionBakeoffResult:
    """One bake-off table: per-strategy placement and traffic metrics."""

    n_pages: int
    n_groups: int
    target_relative_error: float
    measure_rank: bool
    points: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Tuple]:
        """Raw result rows (one tuple per table line)."""
        out = []
        for strategy, p in self.points.items():
            row = [
                strategy,
                int(p["n_cut_links"]),
                p["cut_fraction"],
                p["imbalance"],
                int(p["n_split_sites"]),
                p["round_bytes_paper"],
                p.get("round_bytes_measured", float("nan")),
                int(p["rounds_to_target"]) if p.get("rounds_to_target", -1) >= 0 else "-",
            ]
            out.append(tuple(row))
        return out

    def format(self) -> str:
        """Paper-shaped text table of this result."""
        title = (
            f"partitioner bake-off (n={self.n_pages}, K={self.n_groups}, "
            f"ε={self.target_relative_error:g}"
            + ("" if self.measure_rank else ", cut-only")
            + ")"
        )
        return format_table(
            [
                "strategy",
                "cut links",
                "cut frac",
                "imbalance",
                "split sites",
                "bytes/round (4.x)",
                "bytes/round (meas)",
                "rounds to ε",
            ],
            self.rows(),
            title=title,
        )


def _measure(
    graph: WebGraph,
    reference: Optional[np.ndarray],
    strategy: str,
    n_groups: int,
    seed: int,
    **run: float,
) -> Dict[str, float]:
    """Cut and round-traffic metrics of one strategy, plus the flat
    engine's run to ``run``'s target against ``reference`` when given."""
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # Split sites are a *column* here, not console noise.
        warnings.simplefilter("ignore", UserWarning)
        part = make_partition(graph, n_groups, strategy, seed=seed)
    metrics: Dict[str, float] = {
        "partition_seconds": time.perf_counter() - t0,
    }
    metrics.update(partition_cut_statistics(graph, part).as_dict())

    from repro.core.coordinator import DistributedConfig
    from repro.core.engine import SynchronousEngine

    config = DistributedConfig(
        n_groups=n_groups,
        algorithm="dpr1",
        partition_strategy=strategy,
        transport="indirect",
        overlay="pastry",
        schedule="sync",
        engine="flat",
        t1=_PERIOD,
        t2=_PERIOD,
        sample_interval=_PERIOD,
        seed=seed,
    )
    ref = (
        reference
        if reference is not None
        else np.full(graph.n_pages, 1.0 / max(graph.n_pages, 1))
    )
    engine = SynchronousEngine(graph, config, partition=part, reference=ref)
    paper = engine.paper_round_estimate()
    metrics["round_bytes_paper"] = float(paper["data_bytes"])
    metrics["round_messages_paper"] = float(paper["data_messages"])
    round_snap = engine.calibrated_round_traffic()
    metrics["round_bytes_measured"] = float(round_snap.total_bytes)
    metrics["round_messages_measured"] = float(round_snap.total_messages)
    if reference is not None:
        res = engine.run(**run)
        metrics["rounds_to_target"] = (
            float(res.max_outer_iterations) if res.converged else -1.0
        )
        metrics["converged"] = float(res.converged)
        metrics["final_relative_error"] = float(res.final_relative_error)
        metrics["run_bytes_total"] = float(res.traffic.total_bytes)
    else:
        metrics["rounds_to_target"] = -1.0
    return metrics


@point("partitions", reference=REF_DEFAULT, period=_PERIOD)
def partition_bakeoff_point(
    graph: WebGraph,
    reference: np.ndarray,
    *,
    strategy: str,
    n_groups: int,
    seed: int,
    target_relative_error: float,
    max_time: float,
) -> Dict[str, float]:
    """All bake-off metrics for one strategy, rounds-to-ε included (cached)."""
    return _measure(
        graph,
        reference,
        strategy,
        n_groups,
        seed,
        max_time=max_time,
        target_relative_error=target_relative_error,
    )


@point("partitions_cut", graph=True, period=_PERIOD)
def partition_cut_point(
    graph: WebGraph, *, strategy: str, n_groups: int, seed: int
) -> Dict[str, float]:
    """The cut and round-traffic metrics of one strategy (cached); no
    reference, no convergence run."""
    return _measure(graph, None, strategy, n_groups, seed)


def _plan(options: Mapping[str, Any]):
    keywords = dict(n_groups=options["n_groups"], seed=options["seed"])
    if options["measure_rank"]:
        kind = "partitions"
        keywords.update(
            target_relative_error=options["target_relative_error"],
            max_time=options["max_time"],
        )
    else:
        kind = "partitions_cut"
    return [("n_pages", {})] + [
        (kind, dict(keywords, strategy=strategy)) for strategy in options["strategies"]
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[Any]) -> PartitionBakeoffResult:
    return PartitionBakeoffResult(
        n_pages=values[0],
        n_groups=options["n_groups"],
        target_relative_error=options["target_relative_error"],
        measure_rank=options["measure_rank"],
        points=dict(zip(options["strategies"], values[1:])),
    )


@experiment("partitions", _plan, _assemble)
def run_partition_bakeoff(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    strategies: Sequence[str] = BAKEOFF_STRATEGIES,
    seed: int = 2003,
    target_relative_error: float = 1e-4,
    max_time: float = 3000.0,
    measure_rank: bool = True,
) -> PartitionBakeoffResult:
    """Run the bake-off over ``strategies`` on one graph.

    With ``measure_rank`` (default) each strategy also runs the flat
    engine to ``target_relative_error`` against the centralized
    reference — the rounds-to-ε column.  Disable it at smoke scales
    (1e7 pages) where the centralized solve is the bottleneck; the
    cut/traffic columns remain exact.
    """
