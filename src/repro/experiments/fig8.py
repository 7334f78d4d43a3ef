"""Figure 8: iterations-to-converge vs number of page rankers.

Paper setup: p = 1, T1 = T2 = 15; threshold relative error 0.01%;
K swept over {2, 10, 100, 1000, 10000}; three algorithms — DPR1,
DPR2, and centralized PageRank (CPR).  Published findings:

* DPR1 converges in fewer (outer) iterations than DPR2;
* DPR1 needs fewer iteration steps than even CPR (its inner loops do
  extra sweeps per step, so each outer step is "worth more");
* the number of page rankers barely affects convergence speed.

Iteration accounting: for DPR1/DPR2 we report the *mean* outer-loop
count over rankers at the moment the global relative error first met
the threshold; for CPR, Jacobi sweeps from R0 = 0 until the same
threshold.  (The mean is the right analogue of the paper's counter:
under exponential waits with a common mean, every ranker performs the
same expected loops per unit time, whereas the max over K rankers
grows like extreme-value statistics in K and would mask the paper's
K-insensitivity finding.)  The K sweep defaults to {2, 10, 100, 256} — the largest
published points are out of pure-Python range at full fidelity, and
the claim under test (K-insensitivity) is already visible across two
orders of magnitude.

Pages are partitioned by site hash — the strategy the paper
recommends and evidently used: DPR1's advantage over CPR ("DPR1 even
need fewer iteration steps than the centralized page ranking") only
materializes when groups contain substantial internal link structure
for the inner GroupPageRank solve to exploit, which is exactly what
site-granularity placement provides (~90% of links intra-site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.core.coordinator import run_distributed_pagerank
from repro.core.pagerank import iterations_to_relative_error
from repro.experiments.workloads import ExperimentScale
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = ["Fig8Result", "run_fig8", "fig8_point", "fig8_cpr_point"]


@dataclass
class Fig8Result:
    """Iterations-to-converge per (algorithm, K)."""

    threshold: float
    cpr_iterations: int = 0
    #: algorithm -> {K -> iterations}; -1 marks a run that missed the
    #: threshold within its time budget.
    iterations: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def rows(self) -> List[Tuple[int, int, int, int]]:
        """Raw result rows (one tuple per table line)."""
        ks = sorted(
            set(self.iterations.get("dpr1", {})) | set(self.iterations.get("dpr2", {}))
        )
        return [
            (
                k,
                self.iterations.get("dpr1", {}).get(k, -1),
                self.iterations.get("dpr2", {}).get(k, -1),
                self.cpr_iterations,
            )
            for k in ks
        ]

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            ["# page rankers", "DPR1", "DPR2", "CPR"],
            self.rows(),
            title=(
                f"Fig 8 — iterations to relative error ≤ {self.threshold:.2%} "
                "(p=1, T1=T2=15)"
            ),
        )


@point("fig8", reference=REF_DEFAULT)
def fig8_point(
    graph: WebGraph,
    reference,
    *,
    algorithm: str,
    k: int,
    threshold: float,
    wait_mean: float,
    max_time: float,
    seed: int,
    engine: str,
    schedule: str,
) -> int:
    """One (algorithm, K) sweep point: mean outer loops at threshold.

    Returns -1 for runs that missed the threshold in their budget.
    """
    res = run_distributed_pagerank(
        graph,
        n_groups=k,
        algorithm=algorithm,
        partition_strategy="site",
        delivery_prob=1.0,
        t1=wait_mean,
        t2=wait_mean,
        seed=seed,
        # Flat engine: None resolves to the sync period (its
        # trace is per-round; finer sampling is event-only).
        sample_interval=wait_mean / 3.0 if engine == "event" else None,
        reference=reference,
        max_time=max_time,
        target_relative_error=threshold,
        engine=engine,
        schedule=schedule,
    )
    return int(round(res.trace.mean_outer_iterations[-1])) if res.converged else -1


@point("fig8_cpr", reference=REF_DEFAULT)
def fig8_cpr_point(graph: WebGraph, reference, threshold: float) -> int:
    """The CPR baseline: Jacobi sweeps from R0=0 to the threshold."""
    return iterations_to_relative_error(graph, reference, threshold)


_ALGORITHMS = ("dpr1", "dpr2")


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "ks"}
    return [("fig8_cpr", dict(threshold=options["threshold"]))] + [
        ("fig8", dict(shared, algorithm=algorithm, k=int(k)))
        for algorithm in _ALGORITHMS
        for k in options["ks"]
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[int]) -> Fig8Result:
    runs = iter(values[1:])
    return Fig8Result(
        threshold=options["threshold"],
        cpr_iterations=values[0],
        iterations={
            algorithm: {int(k): next(runs) for k in options["ks"]}
            for algorithm in _ALGORITHMS
        },
    )


@experiment("fig8", _plan, _assemble)
def run_fig8(
    graph: WebGraph = None,
    *,
    ks: Sequence[int] = (2, 10, 100, 256),
    threshold: float = 1e-4,
    wait_mean: float = 15.0,
    max_time: float = 4000.0,
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 13,
    engine: str = "event",
    schedule: str = "async",
) -> Fig8Result:
    """Run the Fig 8 sweep; see module docstring.

    ``engine="flat"`` (with ``schedule="sync"``) selects the
    vectorized bulk-synchronous engine, which makes the large-K
    points of the sweep dramatically cheaper.
    """
