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

Every per-codec point routes through the artifact cache
(:func:`repro.parallel.cache.cached_call`), so a warm-cache rerun
reproduces the table byte-identically.  CLI: ``python -m repro
compression``; the gated numbers live in ``BENCH_comm.json``
(benchmarks/bench_comm.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.graph.webgraph import WebGraph
from repro.parallel.cache import cached_call

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


@cached_call("point/compression_bakeoff", period=_PERIOD)
def compression_bakeoff_point(
    graph: WebGraph,
    reference: np.ndarray,
    base_ranks: Optional[np.ndarray],
    *,
    name: str,
    n_groups: int,
    seed: int,
    target_relative_error: float,
    comm_epsilon: float,
    max_time: float,
) -> Dict[str, float]:
    """All bake-off metrics for one codec contender (cached).

    ``base_ranks`` is the uncoded run's final rank vector (None only
    while computing the ``none`` point itself); the deviation column
    is the raw L1 distance against it, directly comparable to the
    certificate ε_comm/(1−α), which bounds the same quantity.
    """
    if name not in _SPECS:
        raise ValueError(
            f"unknown codec contender {name!r}; "
            f"pick from {COMPRESSION_CONTENDERS}"
        )
    codec, lossy = _SPECS[name]
    epsilon = float(comm_epsilon) if lossy else 0.0

    from repro.core.coordinator import run_distributed_pagerank

    t0 = time.perf_counter()
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
        comm_epsilon=epsilon,
        reference=reference,
        max_time=max_time,
        target_relative_error=target_relative_error,
    )
    data = int(res.traffic.data_bytes)
    paper = int(res.traffic.paper_data_bytes)
    cs = res.codec_stats or {}
    deviation = (
        0.0
        if base_ranks is None
        else float(np.abs(res.ranks - base_ranks).sum())
    )
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
        "deviation_l1": deviation,
        "wall_seconds": time.perf_counter() - t0,
    }


def run_compression_bakeoff(
    graph: WebGraph,
    *,
    n_groups: int = 16,
    codecs: Sequence[str] = COMPRESSION_CONTENDERS,
    seed: int = 2003,
    target_relative_error: float = 1e-4,
    comm_epsilon: float = 1e-4,
    max_time: float = 3000.0,
    reference: Optional[np.ndarray] = None,
) -> CompressionBakeoffResult:
    """Run the bake-off over ``codecs`` on one graph.

    The uncoded baseline always runs first (even when not listed in
    ``codecs``) because every other contender's deviation column is
    measured against its final ranks; all contenders share the
    centralized reference and identical workload parameters — only the
    codec and its budget vary.
    """
    if reference is None:
        from repro.experiments.workloads import reference_ranks

        reference = reference_ranks(graph)

    def point(name: str, base_ranks: Optional[np.ndarray]):
        return compression_bakeoff_point(
            graph,
            reference,
            base_ranks,
            name=name,
            n_groups=n_groups,
            seed=seed,
            target_relative_error=target_relative_error,
            comm_epsilon=comm_epsilon,
            max_time=max_time,
        )

    # The baseline's ranks feed every deviation measurement; rerun it
    # outside the cache (cheap relative to the sweep) so the vector is
    # in hand even on a warm cache.
    from repro.core.coordinator import run_distributed_pagerank

    base = run_distributed_pagerank(
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
        reference=reference,
        max_time=max_time,
        target_relative_error=target_relative_error,
    )
    base_ranks = base.ranks

    result = CompressionBakeoffResult(
        n_pages=graph.n_pages,
        n_groups=n_groups,
        comm_epsilon=comm_epsilon,
        target_relative_error=target_relative_error,
    )
    for name in codecs:
        result.points[name] = point(
            name, None if name == "none" else base_ranks
        )
    return result
