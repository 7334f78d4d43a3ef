"""Engine bake-off: every execution engine over one workload.

The repo now carries three genuinely different ways to compute the
same open-system ranks — DPR1 (local Jacobi to convergence per outer
loop), DPR2 (one sweep per loop, on either the event simulator or the
flat bulk-synchronous engine), and the Monte-Carlo random-walk
estimator (Das Sarma et al., PAPERS.md) — and this experiment is the
comparison table the 2003 source paper could not have written: the
contenders run on *identical* workloads (same graph, same site
partition, same overlay/transport, same synchronous period) and
report, per engine:

* rounds executed, and whether the target relative error ε was
  reached (for the Jacobi engines the run stops at ε, so "rounds" is
  rounds-to-ε; the mc run stops when every walk token has terminated);
* final L1 error against the centralized power-iteration reference —
  exact convergence for the Jacobi engines, the statistical residual
  for mc, printed next to its documented tolerance
  (:func:`repro.linalg.montecarlo.mc_error_tolerance`);
* total messages and bytes through the shared
  :class:`~repro.net.bandwidth.TrafficAccountant` — DPR traffic is
  constant per round (the cut vectors), mc traffic decays as tokens
  die;
* wall-clock seconds.

Declared like the suite experiments (one ``@point`` per contender,
:mod:`repro.parallel.tasks`); the point measures its own wall clock, so
a warm-cache rerun replays it and reproduces the table byte-identically.
CLI: ``python -m repro engines``; the gated numbers live in ``BENCH_mc.json``
(benchmarks/bench_mc.py) and the measured table in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.graph.webgraph import WebGraph
from repro.linalg.montecarlo import mc_error_tolerance
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = [
    "ENGINE_CONTENDERS",
    "EngineBakeoffResult",
    "engine_bakeoff_point",
    "run_engine_bakeoff",
]

#: The contender set: DPR1 (on the flat engine — bit-identical to the
#: event engine and much faster), DPR2 on the event simulator, DPR2 on
#: the flat engine, and the Monte-Carlo random-walk estimator.
ENGINE_CONTENDERS: Tuple[str, ...] = ("dpr1", "dpr2-event", "flat", "mc")

#: Config overrides per contender name.
_SPECS: Dict[str, Dict[str, str]] = {
    "dpr1": {"engine": "flat", "algorithm": "dpr1"},
    "dpr2-event": {"engine": "event", "algorithm": "dpr2"},
    "flat": {"engine": "flat", "algorithm": "dpr2"},
    "mc": {"engine": "mc", "algorithm": "dpr1"},
}

#: Common tick period of the bake-off's synchronous runs.
_PERIOD = 6.0


@dataclass
class EngineBakeoffResult:
    """One bake-off table: per-engine rounds, accuracy, and traffic."""

    n_pages: int
    n_groups: int
    target_relative_error: float
    walks_per_page: int
    points: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Tuple]:
        """Raw result rows (one tuple per table line)."""
        out = []
        for name, p in self.points.items():
            out.append(
                (
                    name,
                    int(p["rounds"]),
                    "yes" if p["converged"] else "-",
                    p["final_relative_error"],
                    int(p["messages"]),
                    int(p["bytes"]),
                    p["wall_seconds"],
                )
            )
        return out

    def format(self) -> str:
        """Paper-shaped text table of this result."""
        title = (
            f"engine bake-off (n={self.n_pages}, K={self.n_groups}, "
            f"ε={self.target_relative_error:g}, R={self.walks_per_page})"
        )
        table = format_table(
            [
                "engine",
                "rounds",
                "reached ε",
                "L1 err vs CPR",
                "messages",
                "bytes",
                "wall s",
            ],
            self.rows(),
            title=title,
        )
        mc = self.points.get("mc")
        if mc is not None and "tolerance" in mc:
            table += (
                f"\nmc statistical tolerance at R={self.walks_per_page}: "
                f"{mc['tolerance']:.4f} (measured {mc['final_relative_error']:.4f}; "
                "error scales as 1/sqrt(R))"
            )
        return table


@point("engines", reference=REF_DEFAULT, period=_PERIOD)
def engine_bakeoff_point(
    graph: WebGraph,
    reference: np.ndarray,
    *,
    name: str,
    n_groups: int,
    seed: int,
    target_relative_error: float,
    max_time: float,
    walks_per_page: int,
) -> Dict[str, float]:
    """All bake-off metrics for one engine contender (cached)."""
    if name not in _SPECS:
        raise ValueError(
            f"unknown engine contender {name!r}; pick from {ENGINE_CONTENDERS}"
        )

    from repro.core.coordinator import run_distributed_pagerank

    t0 = time.perf_counter()
    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        partition_strategy="site",
        transport="indirect",
        overlay="pastry",
        schedule="sync",
        t1=_PERIOD,
        t2=_PERIOD,
        sample_interval=_PERIOD,
        seed=seed,
        walks_per_page=walks_per_page,
        reference=reference,
        max_time=max_time,
        target_relative_error=target_relative_error,
        **_SPECS[name],
    )
    metrics: Dict[str, float] = {
        "rounds": float(res.max_outer_iterations),
        "converged": float(res.converged),
        "final_relative_error": float(res.final_relative_error),
        "messages": float(res.traffic.total_messages),
        "bytes": float(res.traffic.total_bytes),
        "wall_seconds": time.perf_counter() - t0,
    }
    if name == "mc":
        metrics["tolerance"] = mc_error_tolerance(reference, walks_per_page)
    return metrics


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "engines"}
    return [("n_pages", {})] + [
        ("engines", dict(shared, name=name)) for name in options["engines"]
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[Any]) -> EngineBakeoffResult:
    return EngineBakeoffResult(
        n_pages=values[0],
        n_groups=options["n_groups"],
        target_relative_error=options["target_relative_error"],
        walks_per_page=options["walks_per_page"],
        points=dict(zip(options["engines"], values[1:])),
    )


@experiment("engines", _plan, _assemble)
def run_engine_bakeoff(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    engines: Sequence[str] = ENGINE_CONTENDERS,
    seed: int = 2003,
    target_relative_error: float = 1e-4,
    max_time: float = 3000.0,
    walks_per_page: int = 16,
) -> EngineBakeoffResult:
    """Run the bake-off over ``engines`` on one graph.

    All contenders share the centralized reference and identical
    workload parameters; only the engine/algorithm pair varies.
    """
