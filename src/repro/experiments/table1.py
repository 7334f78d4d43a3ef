"""Table 1: minimum iteration interval and node bottleneck bandwidth.

The paper's Table 1 is analytic: with W = 3·10⁹ pages, l = 100 B per
record, and 1% of the US backbone bisection (100 MB/s), the bisection
constraint (4.6) gives the minimum time T between iterations, and the
per-node constraint (4.7) the minimum node bandwidth, for N = 10³ /
10⁴ / 10⁵ rankers using Pastry's mean hop counts.

Published row values: T = 7500 s / 10500 s / 12000 s and B = 100 KB/s
/ 10 KB/s / 1 KB/s.

This reproduction evaluates the same formulas twice — once with the
paper's quoted hop counts, once with hop counts *measured* from this
repository's own Pastry implementation — so the bench shows both the
exact published numbers and the end-to-end derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.cost_model import CostModel, PASTRY_HOPS_BY_N, table1_rows
from repro.analysis.reporting import format_table
from repro.overlay.metrics import hop_statistics
from repro.overlay.pastry import PastryOverlay
from repro.parallel.tasks import experiment, point

__all__ = ["Table1Result", "run_table1", "table1_hops_point"]


@dataclass
class Table1Result:
    """Paper-vs-measured Table 1."""

    paper_rows: List[Dict[str, float]] = field(default_factory=list)
    measured_rows: List[Dict[str, float]] = field(default_factory=list)
    measured_hops: Dict[int, float] = field(default_factory=dict)

    def rows(self) -> List[Tuple[int, float, float, float, float, float, float]]:
        """Raw result rows (one tuple per table line)."""
        out = []
        for pr, mr in zip(self.paper_rows, self.measured_rows):
            out.append(
                (
                    int(pr["n_rankers"]),
                    pr["hops"],
                    mr["hops"],
                    pr["min_iteration_interval_s"],
                    mr["min_iteration_interval_s"],
                    pr["min_node_bandwidth_Bps"],
                    mr["min_node_bandwidth_Bps"],
                )
            )
        return out

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            [
                "# rankers",
                "h (paper)",
                "h (measured)",
                "T paper (s)",
                "T measured (s)",
                "B paper (B/s)",
                "B measured (B/s)",
            ],
            self.rows(),
            title="Table 1 — min iteration interval & node bottleneck bandwidth",
        )


@point("table1_hops")
def table1_hops_point(n: int, *, hop_samples: int, seed: int) -> float:
    """Measured mean Pastry hop count at overlay size ``n``.

    Building a 10⁵-node Pastry overlay dominates Table 1's cost, so
    each size is its own parallelizable (and cacheable) task.
    """
    return hop_statistics(PastryOverlay(n, seed=seed), hop_samples, seed=seed).mean


def _plan(options: Mapping[str, Any]):
    return [
        ("table1_hops", dict(n=int(n), hop_samples=options["hop_samples"], seed=options["seed"]))
        for n in options["ns"]
    ]


def _assemble(options: Mapping[str, Any], hops: Sequence[float]) -> Table1Result:
    ns = [int(n) for n in options["ns"]]
    model = options["model"] if options["model"] is not None else CostModel()
    measured_hops = {n: float(h) for n, h in zip(ns, hops)}
    paper_hops = {n: PASTRY_HOPS_BY_N.get(n, measured_hops[n]) for n in ns}
    return Table1Result(
        paper_rows=table1_rows(paper_hops, model=model),
        measured_rows=table1_rows(measured_hops, model=model),
        measured_hops=measured_hops,
    )


@experiment("table1", _plan, _assemble)
def run_table1(
    *,
    ns: Sequence[int] = (1_000, 10_000, 100_000),
    hop_samples: int = 400,
    seed: int = 17,
    model: CostModel = None,
) -> Table1Result:
    """Evaluate Table 1 with paper hops and measured Pastry hops.

    One hop-count point per overlay size in ``ns``; ``model`` (default
    ``CostModel()``, the paper's constants) turns them into rows.
    """
