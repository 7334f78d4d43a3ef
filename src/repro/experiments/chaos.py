"""Chaos bake-off: the churn scenario on the event and hybrid engines.

EXPERIMENTS.md's churn scenario throws every fault knob the repo has
at one run — crashes with recovery, a lossy network under the
reliable transport, ACK loss, duplicates, reordering — and asks
whether the rank vector still converges to the centralized fixed
point.  This experiment runs that scenario on the two engines that
can execute it:

* ``event`` — the per-message event simulator, the fidelity
  reference: every send, retransmit, heartbeat and checkpoint is an
  explicitly scheduled event;
* ``hybrid`` — the fault-tolerant fast path
  (:mod:`repro.core.hybrid`): flat bulk-synchronous rounds over a
  persistent fault plane, replaying fault traffic at round
  granularity.

and reports, per engine: rounds executed, the ε verdict against the
centralized reference, fault-machinery counters (retransmits, groups
crashed, takeovers, checkpoint saves), traffic totals and wall-clock
seconds.  The headline claims under test (DESIGN.md §13):

1. both engines return the *same ε verdict* on the same scenario —
   the hybrid approximation stays inside the documented tolerance;
2. the hybrid engine is substantially faster (the CI gate in
   ``benchmarks/bench_chaos.py`` pins ≥3x at 1e5 pages).

Declared like the suite experiments (one ``@point`` per engine,
:mod:`repro.parallel.tasks`); the point measures its own wall clock, so
a warm-cache rerun replays it and reproduces the table byte-identically.
CLI: ``python -m repro chaos``; the gated numbers live in ``BENCH_chaos.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = [
    "CHAOS_ENGINES",
    "CHURN_SCENARIO",
    "ChaosBakeoffResult",
    "chaos_point",
    "run_chaos_bakeoff",
]

#: The two engines able to execute the full churn scenario.
CHAOS_ENGINES: Tuple[str, ...] = ("event", "hybrid")

#: The EXPERIMENTS.md churn scenario: synchronous period T = 10 with
#: every fault subsystem active.  Crashes start after t = 15 (round 2)
#: so the first checkpoint (t = 5, 10, 15) exists before the first
#: death, and recovery restores rather than restarts.
CHURN_SCENARIO: Dict[str, object] = {
    "algorithm": "dpr2",
    "partition_strategy": "url",
    "transport": "direct",
    "schedule": "sync",
    "t1": 10.0,
    "t2": 10.0,
    "sample_interval": 10.0,
    "delivery_prob": 0.85,
    "reliable": True,
    "ack_loss_prob": 0.15,
    "duplicate_prob": 0.1,
    "reorder_prob": 0.2,
    "reorder_max_delay": 2.0,
    "crash_prob": 0.25,
    "crash_after": 15.0,
    "crash_horizon": 10.0,
    "heartbeat_interval": 2.0,
    "heartbeat_miss_threshold": 2,
    "checkpoint_interval": 5.0,
    "recovery": True,
}


@dataclass
class ChaosBakeoffResult:
    """One chaos table: per-engine verdicts, fault counters, timing."""

    n_pages: int
    n_groups: int
    target_relative_error: float
    points: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def verdicts_agree(self) -> bool:
        """True when every engine reached the same ε verdict."""
        verdicts = {bool(p["converged"]) for p in self.points.values()}
        return len(verdicts) <= 1

    def speedup(self) -> Optional[float]:
        """Hybrid wall-clock speedup over the event engine, if both ran."""
        ev = self.points.get("event")
        hy = self.points.get("hybrid")
        if ev is None or hy is None or hy["wall_seconds"] <= 0:
            return None
        return ev["wall_seconds"] / hy["wall_seconds"]

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
                    int(p["retransmits"]),
                    int(p["crashed_groups"]),
                    int(p["takeovers"]),
                    int(p["checkpoint_saves"]),
                    int(p["messages"]),
                    p["wall_seconds"],
                )
            )
        return out

    def format(self) -> str:
        """Paper-shaped text table of this result."""
        title = (
            f"chaos bake-off (n={self.n_pages}, K={self.n_groups}, "
            f"ε={self.target_relative_error:g}, full churn scenario)"
        )
        table = format_table(
            [
                "engine",
                "rounds",
                "reached ε",
                "L1 err vs CPR",
                "retransmits",
                "crashed",
                "takeovers",
                "ckpt saves",
                "messages",
                "wall s",
            ],
            self.rows(),
            title=title,
        )
        speedup = self.speedup()
        if speedup is not None:
            verdict = "agree" if self.verdicts_agree() else "DISAGREE"
            table += (
                f"\nε verdicts {verdict}; hybrid speedup over event: "
                f"{speedup:.1f}x"
            )
        return table


@point("chaos", reference=REF_DEFAULT, scenario=CHURN_SCENARIO)
def chaos_point(
    graph: WebGraph,
    reference: np.ndarray,
    *,
    engine: str,
    n_groups: int,
    seed: int,
    target_relative_error: float,
    max_time: float,
) -> Dict[str, float]:
    """All chaos-scenario metrics for one engine (cached).

    Wall-clock is measured inside the point, so a cache hit replays
    the originally measured timing rather than the (near-zero) lookup
    time — reruns stay byte-identical.
    """
    if engine not in CHAOS_ENGINES:
        raise ValueError(
            f"unknown chaos engine {engine!r}; pick from {CHAOS_ENGINES}"
        )

    from repro.core.coordinator import run_distributed_pagerank

    t0 = time.perf_counter()
    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        engine=engine,
        seed=seed,
        reference=reference,
        max_time=max_time,
        target_relative_error=target_relative_error,
        **CHURN_SCENARIO,
    )
    return {
        "rounds": float(res.max_outer_iterations),
        "converged": float(res.converged),
        "final_relative_error": float(res.final_relative_error),
        "messages": float(res.traffic.total_messages),
        "bytes": float(res.traffic.total_bytes),
        "retransmits": float(res.retransmits),
        "crashed_groups": float(res.crashed_groups),
        "takeovers": float(res.takeovers),
        "checkpoint_saves": float(res.checkpoint_saves),
        "fast_rounds": float(res.fast_rounds),
        "replayed_rounds": float(res.replayed_rounds),
        "wall_seconds": time.perf_counter() - t0,
    }


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "engines"}
    return [("n_pages", {})] + [
        ("chaos", dict(shared, engine=engine)) for engine in options["engines"]
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[Any]) -> ChaosBakeoffResult:
    return ChaosBakeoffResult(
        n_pages=values[0],
        n_groups=options["n_groups"],
        target_relative_error=options["target_relative_error"],
        points=dict(zip(options["engines"], values[1:])),
    )


@experiment("chaos", _plan, _assemble)
def run_chaos_bakeoff(
    graph: WebGraph = None,
    *,
    n_groups: int = 8,
    engines: Sequence[str] = CHAOS_ENGINES,
    seed: int = 5,
    target_relative_error: float = 1e-4,
    max_time: float = 405.0,
) -> ChaosBakeoffResult:
    """Run the churn scenario over ``engines`` on one graph.

    All contenders share the centralized reference and the identical
    :data:`CHURN_SCENARIO`; only the engine varies — identical seeds
    drive identical fault schedules, so the comparison isolates the
    execution strategy.
    """
