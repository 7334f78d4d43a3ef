#!/usr/bin/env python
"""Scenario: ranking under hostile network conditions (§4.2, §5).

The paper's algorithms are designed so that rankers "can start at
different time, execute at different 'speed', sleep for some time,
suspend … or even shutdown", and Y vectors may silently vanish.  This
example runs the same workload through increasingly hostile
conditions and reports how convergence time degrades — gracefully,
never fatally — reproducing the A/B/C ordering of the paper's Figs 6–7.

Run:  python examples/failure_resilience.py
"""

from repro import google_contest_like, pagerank_open
from repro.analysis import format_table
from repro.core import DistributedConfig, DistributedRun


def scenario(graph, reference, *, label, delivery_prob, t2, n_faults):
    config = DistributedConfig(
        n_groups=16,
        algorithm="dpr1",
        partition_strategy="site",
        delivery_prob=delivery_prob,
        t1=0.0,
        t2=t2,
        seed=21,
        pause_faults=n_faults,
        pause_horizon=40.0,
        pause_mean_outage=15.0,
    )
    run = DistributedRun(graph, config, reference=reference)
    result = run.run(max_time=2000.0, target_relative_error=1e-4)
    return (
        label,
        delivery_prob,
        t2,
        n_faults,
        result.time_to_target if result.converged else float("nan"),
        result.dropped_updates,
        f"{result.final_relative_error:.1e}",
    )


def main() -> None:
    graph = google_contest_like(4_000, 60, seed=9)
    reference = pagerank_open(graph, tol=1e-12).ranks

    rows = [
        scenario(graph, reference, label="calm (paper A)", delivery_prob=1.0,
                 t2=6.0, n_faults=0),
        scenario(graph, reference, label="lossy (paper B)", delivery_prob=0.7,
                 t2=6.0, n_faults=0),
        scenario(graph, reference, label="lossy+slow (paper C)",
                 delivery_prob=0.7, t2=15.0, n_faults=0),
        scenario(graph, reference, label="brutal", delivery_prob=0.5,
                 t2=15.0, n_faults=6),
    ]
    print(
        format_table(
            [
                "scenario",
                "p",
                "T2",
                "paused nodes",
                "time to 0.01% err",
                "updates lost",
                "final err",
            ],
            rows,
            title="convergence under failure (DPR1, K=16)",
        )
    )
    print(
        "\nConvergence time degrades smoothly with loss and slowness, "
        "but every scenario converges — the asynchronous-tolerance "
        "claim of the paper's §4.2."
    )


if __name__ == "__main__":
    main()
