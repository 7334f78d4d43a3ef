"""Ablation experiments backing the paper's design arguments.

* :func:`run_partitioning_ablation` — §4.1's claim that hash-by-site
  partitioning slashes cross-ranker traffic relative to random or
  URL-hash placement.
* :func:`run_transport_comparison` — §4.4's message/byte trade-off
  between direct and indirect transmission, measured end-to-end and
  compared with formulas 4.1–4.4.
* :func:`run_compression_ablation` — the paper's future-work note on
  reducing traffic, realized as delta suppression (only re-send an
  efferent vector when it changed by more than a threshold).
* :func:`run_overlay_hops` — hop/neighbor scaling of the four
  overlay families (the ``h`` and ``g`` inputs of the cost model).
* :func:`run_time_vs_bandwidth` — §4.5's convergence-time-vs-bandwidth
  trade-off, measured in simulation rather than derived analytically.

Each section below is one experiment's whole declaration — result
class, point function(s), plan, assembly, and the ``run_*`` whose
keyword signature is its options (:mod:`repro.parallel.tasks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.cost_model import (
    direct_messages,
    indirect_messages,
)
from repro.analysis.reporting import format_table
from repro.core.coordinator import RunResult, run_distributed_pagerank
from repro.experiments.workloads import ExperimentScale
from repro.graph.partition import make_partition
from repro.graph.stats import partition_cut_statistics
from repro.graph.webgraph import WebGraph
from repro.overlay import build_overlay
from repro.overlay.metrics import hop_statistics, neighbor_statistics
from repro.parallel.tasks import REF_DEFAULT, REF_TRADEOFF, experiment, point

__all__ = [
    "PartitioningResult",
    "run_partitioning_ablation",
    "partitioning_point",
    "TransportResult",
    "run_transport_comparison",
    "transport_point",
    "transport_overlay_stats",
    "CompressionResult",
    "run_compression_ablation",
    "compression_point",
    "OverlayHopsResult",
    "run_overlay_hops",
    "overlay_hops_point",
    "TradeoffResult",
    "run_time_vs_bandwidth",
    "tradeoff_point",
]


def _sweep(kind: str, axis: str, name: str):
    """``plan`` of a one-axis sweep: one ``kind`` point per value of
    option ``axis`` (passed as keyword ``name``), every other option
    handed to each point unchanged."""

    def plan(options: Mapping[str, Any]):
        shared = {k: v for k, v in options.items() if k != axis}
        return [(kind, dict(shared, **{name: value})) for value in options[axis]]

    return plan


# ----------------------------------------------------------------------
# §4.1 — partitioning strategies
# ----------------------------------------------------------------------
@dataclass
class PartitioningResult:
    """Cut statistics and measured traffic per strategy."""

    n_groups: int
    cut_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    run_bytes: Dict[str, int] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """Raw result rows (one tuple per table line)."""
        return [
            (
                strategy,
                stats["n_cut_links"],
                stats["cut_fraction"],
                float(self.run_bytes.get(strategy, -1)),
            )
            for strategy, stats in self.cut_stats.items()
        ]

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            ["strategy", "cut links", "cut fraction", "bytes to converge"],
            self.rows(),
            title=f"§4.1 — partitioning strategies (K={self.n_groups})",
        )


@point("partitioning", reference=REF_DEFAULT)
def partitioning_point(
    graph: WebGraph,
    reference,
    *,
    strategy: str,
    n_groups: int,
    seed: int,
    measure_traffic: bool,
    max_time: float,
):
    """One strategy's cut statistics and (optionally) run traffic."""
    part = make_partition(graph, n_groups, strategy, seed=seed)
    cut_stats = partition_cut_statistics(graph, part).as_dict()
    run_bytes = None
    if measure_traffic:
        res = run_distributed_pagerank(
            graph,
            n_groups=n_groups,
            partition=part,
            partition_strategy=strategy,
            algorithm="dpr1",
            t1=3.0,
            t2=3.0,
            seed=seed,
            reference=reference,
            target_relative_error=1e-4,
            max_time=max_time,
        )
        run_bytes = res.traffic.total_bytes
    return cut_stats, run_bytes


def _assemble_partitioning(options: Mapping[str, Any], values) -> PartitioningResult:
    result = PartitioningResult(n_groups=options["n_groups"])
    for strategy, (cut_stats, run_bytes) in zip(options["strategies"], values):
        result.cut_stats[strategy] = cut_stats
        if run_bytes is not None:
            result.run_bytes[strategy] = run_bytes
    return result


@experiment(
    "partitioning", _sweep("partitioning", "strategies", "strategy"), _assemble_partitioning
)
def run_partitioning_ablation(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    strategies: Sequence[str] = ("random", "url", "site"),
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 19,
    measure_traffic: bool = True,
    max_time: float = 400.0,
) -> PartitioningResult:
    """Compare partitioning strategies by cut size and real traffic."""


# ----------------------------------------------------------------------
# §4.4 — direct vs indirect transmission
# ----------------------------------------------------------------------
@dataclass
class TransportResult:
    """Measured traffic of both transports on the same workload."""

    n_groups: int
    overlay_hops: float
    overlay_neighbors: float
    runs: Dict[str, RunResult] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, int, int, int, float]]:
        """Raw result rows (one tuple per table line)."""
        out = []
        for kind, res in self.runs.items():
            iters = max(int(res.trace.max_outer_iterations[-1]), 1)
            out.append(
                (
                    kind,
                    res.traffic.total_messages,
                    res.traffic.data_messages,
                    res.traffic.total_bytes,
                    res.traffic.total_messages / iters,
                )
            )
        return out

    def predicted_messages_per_iteration(self) -> Dict[str, float]:
        """Formulas 4.3 / 4.4 evaluated at this run's N, g, h."""
        return {
            "indirect": indirect_messages(self.n_groups, self.overlay_neighbors),
            "direct": direct_messages(self.n_groups, self.overlay_hops),
        }

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        body = format_table(
            ["transport", "messages", "data msgs", "bytes", "msgs/iteration"],
            self.rows(),
            title=f"§4.4 — direct vs indirect transmission (N={self.n_groups})",
        )
        pred = self.predicted_messages_per_iteration()
        return (
            body
            + f"\npredicted msgs/iter — indirect gN = {pred['indirect']:.0f},"
            + f" direct (h+1)N² = {pred['direct']:.0f}"
        )


@point("transport_stats")
def transport_overlay_stats(n_groups: int, seed: int) -> Tuple[float, float]:
    """(mean hops, mean neighbors) of the N-ranker Pastry overlay."""
    overlay = build_overlay("pastry", n_groups, seed=seed)
    return (
        hop_statistics(overlay, 300, seed=seed).mean,
        neighbor_statistics(overlay)["mean"],
    )


@point("transport", reference=REF_DEFAULT)
def transport_point(
    graph: WebGraph,
    reference,
    *,
    kind: str,
    n_groups: int,
    seed: int,
    max_time: float,
) -> RunResult:
    """One transport's end-to-end convergence run."""
    return run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        transport=kind,
        algorithm="dpr1",
        partition_strategy="url",
        t1=3.0,
        t2=3.0,
        seed=seed,
        reference=reference,
        target_relative_error=1e-4,
        max_time=max_time,
    )


_TRANSPORTS = ("indirect", "direct")


def _plan_transport(options: Mapping[str, Any]):
    stats = dict(n_groups=options["n_groups"], seed=options["seed"])
    return [("transport_stats", stats)] + [
        ("transport", dict(options, kind=kind)) for kind in _TRANSPORTS
    ]


def _assemble_transport(options: Mapping[str, Any], values) -> TransportResult:
    hops, neighbors = values[0]
    return TransportResult(
        n_groups=options["n_groups"],
        overlay_hops=hops,
        overlay_neighbors=neighbors,
        runs=dict(zip(_TRANSPORTS, values[1:])),
    )


@experiment("transport", _plan_transport, _assemble_transport)
def run_transport_comparison(
    graph: WebGraph = None,
    *,
    n_groups: int = 48,
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 23,
    max_time: float = 400.0,
) -> TransportResult:
    """Run DPR1 to convergence over both transports; report traffic."""


# ----------------------------------------------------------------------
# Future-work: traffic reduction by delta suppression
# ----------------------------------------------------------------------
@dataclass
class CompressionResult:
    """Traffic/accuracy trade-off of delta suppression."""

    thresholds: List[float] = field(default_factory=list)
    bytes_used: List[int] = field(default_factory=list)
    messages: List[int] = field(default_factory=list)
    final_errors: List[float] = field(default_factory=list)

    def rows(self) -> List[Tuple[float, int, int, float]]:
        """Raw result rows (one tuple per table line)."""
        return list(
            zip(self.thresholds, self.bytes_used, self.messages, self.final_errors)
        )

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            ["suppress tol", "bytes", "messages", "final rel err"],
            self.rows(),
            title="future-work — delta suppression of efferent updates",
        )


@point("compression", reference=REF_DEFAULT)
def compression_point(
    graph: WebGraph,
    reference,
    *,
    tol: float,
    n_groups: int,
    seed: int,
    max_time: float,
) -> Tuple[int, int, float]:
    """One suppression threshold: (bytes, messages, final rel error)."""
    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        algorithm="dpr1",
        partition_strategy="url",
        t1=3.0,
        t2=3.0,
        send_threshold=float(tol),
        seed=seed,
        reference=reference,
        max_time=max_time,
    )
    return (
        res.traffic.total_bytes,
        res.traffic.total_messages,
        res.final_relative_error,
    )


def _assemble_compression(options: Mapping[str, Any], values) -> CompressionResult:
    return CompressionResult(
        [float(tol) for tol in options["thresholds"]],
        *(list(column) for column in zip(*values)),
    )


@experiment(
    "compression", _sweep("compression", "thresholds", "tol"), _assemble_compression
)
def run_compression_ablation(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    thresholds: Sequence[float] = (0.0, 1e-8, 1e-4, 1e-2),
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 29,
    max_time: float = 120.0,
) -> CompressionResult:
    """Sweep the delta-suppression threshold; measure traffic vs error."""


# ----------------------------------------------------------------------
# §4.5 — convergence time vs bandwidth, measured
# ----------------------------------------------------------------------
@dataclass
class TradeoffResult:
    """Measured §4.5 trade-off: iteration cadence vs bandwidth rate."""

    wait_means: List[float] = field(default_factory=list)
    times_to_target: List[float] = field(default_factory=list)
    bytes_total: List[int] = field(default_factory=list)
    bytes_per_time_unit: List[float] = field(default_factory=list)

    def rows(self) -> List[Tuple[float, float, int, float]]:
        """Raw result rows (one tuple per table line)."""
        return list(
            zip(
                self.wait_means,
                self.times_to_target,
                self.bytes_total,
                self.bytes_per_time_unit,
            )
        )

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            ["iteration interval T", "time to converge", "total bytes", "bytes / time unit"],
            self.rows(),
            title="§4.5 — convergence time vs bandwidth (DPR1)",
        )


@point("tradeoff", reference=REF_TRADEOFF)
def tradeoff_point(
    graph: WebGraph,
    reference,
    *,
    t: float,
    n_groups: int,
    seed: int,
    target: float,
    max_time: float,
) -> Tuple[float, float, int, float]:
    """One iteration interval T: (T, time to target, bytes, rate)."""
    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        algorithm="dpr1",
        partition_strategy="site",
        t1=float(t),
        t2=float(t),
        seed=seed,
        reference=reference,
        target_relative_error=target,
        max_time=max_time,
    )
    duration = res.time_to_target if res.converged else max_time
    return (
        float(t),
        float(duration),
        res.traffic.total_bytes,
        res.traffic.total_bytes / max(duration, 1e-9),
    )


def _assemble_tradeoff(options: Mapping[str, Any], values) -> TradeoffResult:
    return TradeoffResult(*(list(column) for column in zip(*values)))


@experiment("tradeoff", _sweep("tradeoff", "wait_means", "t"), _assemble_tradeoff)
def run_time_vs_bandwidth(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    wait_means: Sequence[float] = (1.0, 3.0, 9.0),
    scale: ExperimentScale = ExperimentScale(),
    seed: int = 37,
    target: float = 1e-4,
    max_time: float = 3000.0,
) -> TradeoffResult:
    """Measure §4.5's trade-off end to end.

    The paper derives it analytically: the bisection constraint forces
    a *minimum* iteration interval T, and a larger T means slower
    convergence.  Here we sweep the rankers' wait time (the simulated
    T) and measure both sides: wall time to the 0.01% target grows
    ~linearly with T, while the bandwidth *rate* (bytes per time unit)
    shrinks ~inversely — total bytes to converge stays roughly flat.
    """


# ----------------------------------------------------------------------
# Overlay scaling (the h and g inputs of §4.5)
# ----------------------------------------------------------------------
@dataclass
class OverlayHopsResult:
    """Hop/neighbor statistics across overlay kinds and sizes."""

    rows_data: List[Tuple[str, int, float, float, float]] = field(default_factory=list)

    def rows(self) -> List[Tuple[str, int, float, float, float]]:
        """Raw result rows (one tuple per table line)."""
        return self.rows_data

    def format(self) -> str:
        """Paper-shaped text table(s) of this result."""
        return format_table(
            ["overlay", "nodes", "mean hops", "p95 hops", "mean neighbors"],
            self.rows_data,
            title="overlay routing — h and g vs network size",
        )


@point("overlay_hops")
def overlay_hops_point(
    kind: str, n: int, *, samples: int, seed: int
) -> Tuple[str, int, float, float, float]:
    """One (overlay kind, size) row of the hop/neighbor table."""
    overlay = build_overlay(kind, n, seed=seed)
    hs = hop_statistics(overlay, samples, seed=seed)
    ns_stats = neighbor_statistics(overlay, max_nodes=500, seed=seed)
    return (kind, n, hs.mean, hs.p95, ns_stats["mean"])


def _plan_overlay_hops(options: Mapping[str, Any]):
    return [
        ("overlay_hops", dict(kind=kind, n=int(n), samples=options["samples"], seed=options["seed"]))
        for kind in options["kinds"]
        for n in options["ns"]
    ]


def _assemble_overlay_hops(options: Mapping[str, Any], values) -> OverlayHopsResult:
    return OverlayHopsResult(rows_data=list(values))


@experiment("overlay_hops", _plan_overlay_hops, _assemble_overlay_hops)
def run_overlay_hops(
    *,
    kinds: Sequence[str] = ("pastry", "tapestry", "chord", "can"),
    ns: Sequence[int] = (100, 1_000, 10_000),
    samples: int = 300,
    seed: int = 31,
) -> OverlayHopsResult:
    """Measure mean hops and neighbor counts for each overlay/size."""
