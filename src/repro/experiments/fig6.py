"""Figure 6: distributed PageRank converges to the centralized ranks.

Paper setup: K = 1000 page rankers running DPR1 on the contest
dataset; three configurations A (p=1, T1=0, T2=6), B (p=0.7, T1=0,
T2=6), C (p=0.7, T1=0, T2=15).  The relative error
``‖R − R*‖₁/‖R*‖₁`` is plotted against time and decays toward zero in
all three, slower with message loss and slower still with longer
waits.

Reproduction notes: K defaults to 64 (scaled down with the workload;
the qualitative ordering A ≺ B ≺ C is K-independent) and pages are
partitioned by URL hash so that every ranker owns pages even when
K exceeds the site count, as in the paper's K=1000 run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.reporting import format_series, format_table
from repro.core.coordinator import RunResult, run_distributed_pagerank
from repro.experiments.workloads import DEFAULT_CONFIGS, ExperimentScale
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = ["Fig6Result", "run_fig6", "fig6_point"]


@dataclass
class Fig6Result:
    """Per-configuration relative-error time series."""

    n_groups: int
    results: Dict[str, RunResult] = field(default_factory=dict)

    def rates(self) -> Dict[str, float]:
        """Fitted geometric decay rate of each config's error curve.

        More negative = faster convergence; the paper's ordering
        A ≺ B ≺ C shows up as rate(A) ≤ rate(B) ≤ rate(C).
        """
        from repro.analysis.stats import estimate_convergence_rate

        return {
            label: estimate_convergence_rate(res.trace).rate
            for label, res in self.results.items()
        }

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(config, initial error %, final error %, time to 1%) rows."""
        out = []
        for label, res in self.results.items():
            t1pct = res.trace.time_to_error(0.01)
            out.append(
                (
                    label,
                    100.0 * res.trace.relative_errors[0],
                    100.0 * res.trace.final_error(),
                    -1.0 if t1pct is None else t1pct,
                )
            )
        return out

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        from repro.analysis.viz import ascii_chart

        parts = [
            format_table(
                ["config", "initial err %", "final err %", "time to 1% err"],
                self.rows(),
                title=f"Fig 6 — relative error vs time (K={self.n_groups})",
            )
        ]
        series = {
            label: (100.0 * res.trace.as_arrays()["relative_error"]).tolist()
            for label, res in self.results.items()
        }
        parts.append(
            ascii_chart(
                series,
                title="relative error % vs time",
                y_label="err %",
            )
        )
        for label, res in self.results.items():
            arrays = res.trace.as_arrays()
            parts.append(
                format_series(
                    f"series {label}",
                    arrays["time"].tolist(),
                    (100.0 * arrays["relative_error"]).tolist(),
                    x_label="time",
                    y_label="relative error %",
                )
            )
        return "\n\n".join(parts)


@point("fig6", reference=REF_DEFAULT)
def fig6_point(
    graph: WebGraph,
    reference,
    *,
    p: float,
    t1: float,
    t2: float,
    n_groups: int,
    max_time: float,
    seed: int,
    algorithm: str,
    engine: str,
    schedule: str,
) -> RunResult:
    """One Fig 6 configuration: a single independent seeded run."""
    return run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        algorithm=algorithm,
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


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "configs"}
    return [
        ("fig6", dict(shared, p=p, t1=t1, t2=t2))
        for p, t1, t2 in options["configs"].values()
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[RunResult]) -> Fig6Result:
    return Fig6Result(
        n_groups=options["n_groups"], results=dict(zip(options["configs"], values))
    )


@experiment("fig6", _plan, _assemble)
def run_fig6(
    graph: WebGraph = None,
    *,
    n_groups: int = 64,
    max_time: float = 90.0,
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 7,
    algorithm: str = "dpr1",
    configs: Mapping[str, Tuple[float, float, float]] = DEFAULT_CONFIGS,
    engine: str = "event",
    schedule: str = "async",
) -> Fig6Result:
    """Run the Fig 6 experiment; see module docstring.

    Each labelled configuration is an independent simulation on the
    same graph/partition against the same centralized reference
    (``graph=None``: the contest-like graph of ``scale``).
    ``engine="flat"`` runs the vectorized bulk-synchronous engine
    (much faster at scale; synchronous timing instead of the paper's
    exponential waits).
    """
