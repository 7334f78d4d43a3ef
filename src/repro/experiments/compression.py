"""Wire-compression bake-off: every codec over one identical workload.

The paper charges every cross-group score update a flat 100 bytes per
link record (§4.4) and already flags traffic reduction as future work
(§6).  The codec layer (:mod:`repro.net.codec` /
:mod:`repro.net.adaptive`) implements that future work — delta-coded,
varint-packed, error-budgeted frames — and this experiment is its
measurement: the contenders run on *identical* workloads (same graph,
same site partition, same overlay/transport, same synchronous period,
same flat engine) and report, per codec:

* rounds executed and the final L1 error against the centralized
  reference (the lossless contenders must match the uncoded run bit
  for bit — asserted by tests/benches, visible here as a zero
  deviation column);
* calibrated **data bytes** next to the paper-model bytes the same
  run would have been charged under the flat 100 B/record model, and
  their ratio (the headline reduction factor);
* frame counters (shipped / suppressed / escalated-to-exact) from the
  codec session manager;
* the **certified bound** ε_comm/(1−α) next to the *measured* L1 rank
  deviation from the uncompressed baseline — the certificate the
  error-budget accounting guarantees, checked by
  :meth:`CompressionBakeoffResult.certified`.

Declared like the suite experiments under the registry name ``codecs``
(``compression`` is the delta-suppression ablation's): one ``@point``
per codec, each returning its final ranks.  The plan always runs the
uncoded ``none`` contender first, once, and the assembly measures every
deviation against its ranks — ``none`` is printed only when asked for.
A warm-cache rerun reproduces the table byte-identically.  CLI:
``python -m repro compression``; the gated numbers live in ``BENCH_comm.json``
(benchmarks/bench_comm.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import REF_DEFAULT, experiment, point

__all__ = [
    "COMPRESSION_CONTENDERS",
    "CompressionBakeoffResult",
    "compression_bakeoff_point",
    "run_compression_bakeoff",
]

#: The contender set: the uncoded paper model, the lossless delta
#: codec (ε_comm = 0: exact float64 flushes of changed entries), the
#: same codec spending an error budget (float32 deltas under ε_comm),
#: and the half-precision variant (float16 deltas under ε_comm).
COMPRESSION_CONTENDERS: Tuple[str, ...] = (
    "none",
    "delta",
    "delta-eps",
    "delta-q16",
)

#: (config codec name, spends the error budget) per contender.
_SPECS: Dict[str, Tuple[str, bool]] = {
    "none": ("none", False),
    "delta": ("delta", False),
    "delta-eps": ("delta", True),
    "delta-q16": ("delta-q16", True),
}

#: Common tick period of the bake-off's synchronous runs.
_PERIOD = 6.0


@dataclass
class CompressionBakeoffResult:
    """One bake-off table: per-codec traffic, accuracy, certificates."""

    n_pages: int
    n_groups: int
    comm_epsilon: float
    target_relative_error: float
    points: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Tuple]:
        """Raw result rows (one tuple per table line)."""
        out = []
        for name, p in self.points.items():
            out.append(
                (
                    name,
                    int(p["rounds"]),
                    p["final_relative_error"],
                    int(p["data_bytes"]),
                    int(p["paper_bytes"]),
                    f"{p['reduction_x']:.2f}x",
                    f"{int(p['frames'])}/{int(p['suppressed_frames'])}"
                    f"/{int(p['exact_flushes'])}",
                    p["deviation_l1"],
                    p["certified_bound"],
                )
            )
        return out

    def format(self) -> str:
        """Paper-shaped text table of this result."""
        title = (
            f"wire-compression bake-off (n={self.n_pages}, "
            f"K={self.n_groups}, ε_comm={self.comm_epsilon:g}, "
            f"ε={self.target_relative_error:g})"
        )
        return format_table(
            [
                "codec",
                "rounds",
                "L1 err vs CPR",
                "data bytes",
                "paper bytes",
                "reduction",
                "frames/supp/exact",
                "L1 dev vs none",
                "certified",
            ],
            self.rows(),
            title=title,
        )

    def certified(self) -> bool:
        """True when every contender honoured its certificate.

        Lossless contenders (no budget) must deviate from the uncoded
        baseline by exactly zero; budgeted contenders must measure at
        or below their certified bound.
        """
        for p in self.points.values():
            if p["deviation_l1"] > p["certified_bound"]:
                return False
        return True


@point("codecs", reference=REF_DEFAULT, period=_PERIOD)
def compression_bakeoff_point(
    graph: WebGraph,
    reference: np.ndarray,
    *,
    name: str,
    n_groups: int,
    seed: int,
    target_relative_error: float,
    comm_epsilon: float,
    max_time: float,
) -> Dict[str, Any]:
    """All bake-off metrics for one codec contender (cached), plus its
    final ``ranks`` for the deviation column."""
    if name not in _SPECS:
        raise ValueError(
            f"unknown codec contender {name!r}; "
            f"pick from {COMPRESSION_CONTENDERS}"
        )
    codec, lossy = _SPECS[name]

    from repro.core.coordinator import run_distributed_pagerank

    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        engine="flat",
        algorithm="dpr2",
        partition_strategy="site",
        transport="direct",
        overlay="pastry",
        schedule="sync",
        t1=_PERIOD,
        t2=_PERIOD,
        sample_interval=_PERIOD,
        seed=seed,
        codec=codec,
        comm_epsilon=float(comm_epsilon) if lossy else 0.0,
        reference=reference,
        max_time=max_time,
        target_relative_error=target_relative_error,
    )
    data = int(res.traffic.data_bytes)
    paper = int(res.traffic.paper_data_bytes)
    cs = res.codec_stats or {}
    return {
        "rounds": float(res.max_outer_iterations),
        "converged": float(res.converged),
        "final_relative_error": float(res.final_relative_error),
        "messages": float(res.traffic.total_messages),
        "data_bytes": float(data),
        "paper_bytes": float(paper),
        "reduction_x": paper / data if data else 1.0,
        "frames": float(cs.get("frames", 0)),
        "suppressed_frames": float(cs.get("suppressed_frames", 0)),
        "exact_flushes": float(cs.get("exact_flushes", 0)),
        "certified_bound": float(cs.get("certified_bound", 0.0)),
        "ranks": res.ranks,
    }


def _runs(options: Mapping[str, Any]) -> List[str]:
    """The contenders that run: the uncoded baseline first, then the rest."""
    return ["none"] + [name for name in options["codecs"] if name != "none"]


def _plan(options: Mapping[str, Any]):
    shared = {k: v for k, v in options.items() if k != "codecs"}
    return [("n_pages", {})] + [
        ("codecs", dict(shared, name=name)) for name in _runs(options)
    ]


def _assemble(options: Mapping[str, Any], values: Sequence[Any]) -> CompressionBakeoffResult:
    # The deviation column is the raw L1 distance from the uncoded
    # run's ranks, directly comparable to the certificate
    # ε_comm/(1−α), which bounds the same quantity.
    by_name = dict(zip(_runs(options), values[1:]))
    base = by_name["none"]["ranks"]
    points = {}
    for name in options["codecs"]:
        metrics = {k: v for k, v in by_name[name].items() if k != "ranks"}
        metrics["deviation_l1"] = float(np.abs(by_name[name]["ranks"] - base).sum())
        points[name] = metrics
    return CompressionBakeoffResult(
        n_pages=values[0],
        n_groups=options["n_groups"],
        comm_epsilon=options["comm_epsilon"],
        target_relative_error=options["target_relative_error"],
        points=points,
    )


@experiment("codecs", _plan, _assemble)
def run_compression_bakeoff(
    graph: WebGraph = None,
    *,
    n_groups: int = 16,
    codecs: Sequence[str] = COMPRESSION_CONTENDERS,
    seed: int = 2003,
    target_relative_error: float = 1e-4,
    comm_epsilon: float = 1e-4,
    max_time: float = 3000.0,
) -> CompressionBakeoffResult:
    """Run the bake-off over ``codecs`` on one graph.

    The uncoded baseline always runs (first, even when not listed in
    ``codecs``) because every other contender's deviation column is
    measured against its final ranks; all contenders share the
    centralized reference and identical workload parameters — only the
    codec and its budget vary.
    """
