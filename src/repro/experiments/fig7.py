"""Figure 7: DPR1's rank sequence is monotone (Theorems 4.1/4.2).

Paper setup: K = 100 rankers, DPR1, the same A/B/C configurations as
Fig 6.  The *average* rank rises monotonically from 0 and plateaus at
about 0.3 — not 1.0 — because most links in the dataset point outside
the crawl, so rank leaks out of the open system (8M of 15M links
external ⇒ heavy leak).

The experiment also verifies monotonicity per sample (the empirical
content of Theorems 4.1 and 4.2: monotone and bounded by the
centralized fixed point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.reporting import format_series, format_table
from repro.core.convergence import is_monotone_nondecreasing
from repro.core.coordinator import RunResult, run_distributed_pagerank
from repro.experiments.workloads import DEFAULT_CONFIGS, ExperimentScale
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = ["Fig7Result", "run_fig7", "fig7_point", "fig7_summary"]


@dataclass
class Fig7Result:
    """Per-configuration mean-rank time series plus monotonicity flags."""

    n_groups: int
    results: Dict[str, RunResult] = field(default_factory=dict)
    monotone: Dict[str, bool] = field(default_factory=dict)
    plateau: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, bool, float, float]]:
        """Raw result rows (one tuple per table line)."""
        return [
            (
                label,
                self.monotone[label],
                self.plateau[label],
                float(self.results[label].reference.mean()),
            )
            for label in self.results
        ]

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        from repro.analysis.viz import ascii_chart

        parts = [
            format_table(
                ["config", "monotone", "final mean rank", "centralized mean"],
                self.rows(),
                title=f"Fig 7 — average rank vs time, DPR1 (K={self.n_groups})",
            ),
            ascii_chart(
                {
                    label: res.trace.mean_ranks
                    for label, res in self.results.items()
                },
                title="average rank vs time (monotone, Thm 4.1)",
                y_label="rank",
            ),
        ]
        for label, res in self.results.items():
            arrays = res.trace.as_arrays()
            parts.append(
                format_series(
                    f"series {label}",
                    arrays["time"].tolist(),
                    arrays["mean_rank"].tolist(),
                    x_label="time",
                    y_label="average rank",
                )
            )
        return "\n\n".join(parts)


@point("fig7", reference=REF_DEFAULT)
def fig7_point(
    graph: WebGraph,
    reference,
    *,
    p: float,
    t1: float,
    t2: float,
    n_groups: int,
    max_time: float,
    seed: int,
    engine: str,
    schedule: str,
) -> RunResult:
    """One Fig 7 configuration (DPR1); the parallelizable sweep unit."""
    return run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        algorithm="dpr1",
        partition_strategy="url",
        delivery_prob=p,
        t1=t1,
        t2=t2,
        seed=seed,
        # Flat engine: None resolves to the sync period (its trace
        # is per-round; finer sampling is event-engine only).
        sample_interval=1.0 if engine == "event" else None,
        reference=reference,
        max_time=max_time,
        engine=engine,
        schedule=schedule,
    )


def fig7_summary(res: RunResult) -> Tuple[bool, float]:
    """(monotone?, plateau) summary of one configuration's trace."""
    return (
        is_monotone_nondecreasing(res.trace.mean_ranks, tol=1e-9),
        res.trace.mean_ranks[-1],
    )


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "configs"}
    return [
        ("fig7", dict(shared, p=p, t1=t1, t2=t2))
        for p, t1, t2 in options["configs"].values()
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[RunResult]) -> Fig7Result:
    result = Fig7Result(
        n_groups=options["n_groups"], results=dict(zip(options["configs"], values))
    )
    for label, res in result.results.items():
        result.monotone[label], result.plateau[label] = fig7_summary(res)
    return result


@experiment("fig7", _plan, _assemble)
def run_fig7(
    graph: WebGraph = None,
    *,
    n_groups: int = 100,
    max_time: float = 90.0,
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 11,
    configs: Mapping[str, Tuple[float, float, float]] = DEFAULT_CONFIGS,
    engine: str = "event",
    schedule: str = "async",
) -> Fig7Result:
    """Run the Fig 7 experiment (DPR1 monotonicity; K=100 as published).

    ``engine="flat"`` selects the vectorized bulk-synchronous engine.
    """
