"""Which entry points the traced run wraps, and the per-layer metrics.

Layer names are the program's module names.  Every wrapped target is a
public function or a public method of a public class; private methods
(``_round``, ``_communicate_codec``, ``_ReplayARQ`` ...) are not
wrapped, so their time shows up as the self time of the enclosing
public span (``core.engine.self_s`` / ``core.hybrid.self_s``).  Spans
inside the program are a later change (ROADMAP, telemetry spine).

Each metric names the end-to-end metric it should move in
``README.md``; the full list is ``BENCHMARK.json`` → ``per_layer``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from trace import Measure, SpanStats, Tracer

__all__ = ["TARGETS", "install", "layer_metrics", "layer_self_times"]


def _matvec_bytes(args: tuple, kwargs: dict, result: object) -> float:
    """Computed (not measured) bytes one CSR matvec moves."""
    p, x, out = args[0], args[1], args[2]
    n = x.nbytes + out.nbytes
    for part in ("data", "indices", "indptr"):
        arr = getattr(p, part, None)
        if arr is not None:
            n += arr.nbytes
    return float(n)


def _route_hops(args: tuple, kwargs: dict, result: object) -> float:
    return float(result.hops)


def _cut_entries(args: tuple, kwargs: dict, result: object) -> float:
    return float(sum(block.nnz for block in result.cross.values()))


def _frame_bytes(args: tuple, kwargs: dict, result: object) -> float:
    return 0.0 if result is None else float(result.wire_bytes)


#: (span name, target, measure).  Several targets may share one span
#: name (the per-class implementations of one interface method).
TARGETS: List[Tuple[str, str, Optional[Measure]]] = [
    ("graph.io.save", "repro.graph.io:save_webgraph", None),
    ("graph.io.save", "repro.graph.io:WebGraphDirWriter.finalize", None),
    ("linalg.operators.group_blocks", "repro.linalg.operators:group_blocks", _cut_entries),
    ("linalg.jacobi.matvec", "repro.linalg.jacobi:csr_matvec_into", _matvec_bytes),
    ("linalg.jacobi.solve", "repro.linalg.jacobi:jacobi_solve", None),
    ("linalg.montecarlo.walk", "repro.linalg.montecarlo:RandomWalkState.step", None),
    ("net.adaptive.encode", "repro.net.adaptive:AdaptiveCodec.encode", _frame_bytes),
    ("net.bandwidth.merge", "repro.net.bandwidth:TrafficAccountant.merge", None),
    ("net.bandwidth.record", "repro.net.bandwidth:TrafficAccountant.record_data_message", None),
    ("net.bandwidth.record", "repro.net.bandwidth:TrafficAccountant.record_lookup", None),
    ("net.bandwidth.record", "repro.net.bandwidth:TrafficAccountant.record_ack", None),
    ("overlay.build", "repro.overlay:build_overlay", None),
    ("overlay.route", "repro.overlay.base:Overlay.route", _route_hops),
    ("overlay.next_hop", "repro.overlay.pastry:PastryOverlay.next_hop", None),
    ("net.transport.send", "repro.net.transport:DirectTransport.send_updates", None),
    ("net.transport.send", "repro.net.transport:IndirectTransport.send_updates", None),
    ("net.reliable.send", "repro.net.reliable:ReliableTransport.send_updates", None),
    ("net.simulator.run", "repro.net.simulator:Simulator.run", None),
    ("net.simulator.step", "repro.net.simulator:Simulator.step", None),
    ("core.dpr.step", "repro.core.dpr:DPRNode.step", None),
    ("core.recovery.checkpoint", "repro.core.dpr:DPRNode.state_dict", None),
    ("core.recovery.checkpoint", "repro.core.recovery:CheckpointStore.save", None),
    ("core.recovery.takeover", "repro.core.recovery:RecoveryManager.on_death", None),
    ("serve.incremental.update", "repro.serve.incremental:IncrementalRanker.update", None),
    ("serve.index.update", "repro.serve.index:RankIndex.update", None),
    ("serve.index.top_k", "repro.serve.index:RankIndex.top_k", None),
    ("serve.index.rank_of", "repro.serve.index:RankIndex.rank_of", None),
    ("serve.index.percentile", "repro.serve.index:RankIndex.percentile", None),
]

#: Span name -> layer, for spans whose name is not ``<layer>.<op>``:
#: the benchmark's own pipeline stages.
STAGE_LAYER = {
    "generate": "graph.generators",
    "crawl": "crawl",
    "load": "graph.io",
    "partition": "graph.partition",
    "reference": "core.pagerank",
    "build": "core.engine",
    "run": "core.engine",
    "server": "serve.service",
    "sync": "serve.service",
    "refresh": "serve.service",
    "queries": "bench.queries",
    "mutate": "bench.mutate",
}


def install(tracer: Tracer) -> None:
    for name, target, measure in TARGETS:
        tracer.wrap(name, target, measure)
    tracer.enabled = True


def layer_of(span_name: str) -> str:
    layer = STAGE_LAYER.get(span_name)
    return layer if layer is not None else span_name.rsplit(".", 1)[0]


#: The stages whose wall the end-to-end timings measure.
TIMED_STAGES = ("run", "refresh", "queries")


def layer_self_times(stats: SpanStats) -> Dict[str, float]:
    """Self seconds per program layer inside the timed stages.

    With the benchmark's own ``bench.*`` time (query loop, oracle
    checks) they sum to the wall of those stages.
    """
    out: Dict[str, float] = {}
    for name, secs in stats.self_by_name(TIMED_STAGES).items():
        layer = layer_of(name)
        if not layer.startswith("bench."):
            out[layer] = out.get(layer, 0.0) + secs
    return out


def _p50(values: np.ndarray, scale: float) -> float:
    return float(np.median(values)) * scale if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``stats`` are that repeat's spans; ``counters`` are the counts the
    program itself reports (``RunResult`` / ``FlushStats`` fields) plus
    the few the benchmark measures directly (cut fraction, L1 error,
    cold-query latency).  ``*_s`` values are inclusive span seconds
    unless the name says ``self_s``.
    """
    run = "run"
    c = counters.get
    m: Dict[str, float] = {}

    # -- set-up stages -----------------------------------------------------
    m["graph.generators.generate_s"] = stats.self_time("generate")
    m["crawl.crawl_s"] = stats.total("crawl")
    m["graph.io.save_s"] = stats.total("graph.io.save")
    m["graph.io.load_s"] = stats.total("load")
    m["graph.partition.partition_s"] = stats.total("partition")
    m["graph.partition.cut_fraction"] = c("cut_fraction", 0.0)
    m["core.pagerank.reference_s"] = stats.total("reference")
    m["linalg.operators.group_blocks_s"] = stats.total("linalg.operators.group_blocks")
    m["linalg.operators.cut_entries"] = stats.units("linalg.operators.group_blocks", "build")
    m["overlay.build_s"] = stats.total("overlay.build")

    # -- the timed run -----------------------------------------------------
    run_s = stats.total(run)
    rounds = c("rounds", 0.0)
    m["core.engine.build_s"] = stats.total("build")
    m["core.engine.run_s"] = run_s
    m["core.engine.first_run_s"] = c("first_run_s", 0.0)
    m["core.engine.rounds"] = rounds
    m["core.engine.round_ms"] = _ratio(run_s * 1e3, rounds)
    m["core.engine.self_s"] = stats.self_time(run)
    hybrid = c("is_hybrid", 0.0)
    m["core.hybrid.fast_rounds"] = c("fast_rounds", 0.0)
    m["core.hybrid.replayed_rounds"] = c("replayed_rounds", 0.0)
    m["core.hybrid.self_s"] = stats.self_time(run) if hybrid else 0.0

    matvec_s = stats.total("linalg.jacobi.matvec", run)
    m["linalg.jacobi.matvec_calls"] = stats.calls("linalg.jacobi.matvec", run)
    m["linalg.jacobi.matvec_s"] = matvec_s
    m["linalg.jacobi.matvec_gbps"] = _ratio(
        stats.units("linalg.jacobi.matvec", run) / 1e9, matvec_s
    )
    m["linalg.jacobi.solve_calls"] = stats.calls("linalg.jacobi.solve", run)
    m["linalg.jacobi.solve_s"] = stats.total("linalg.jacobi.solve", run)
    m["linalg.jacobi.inner_sweeps"] = c("jacobi_inner_sweeps", 0.0)

    m["linalg.montecarlo.walk_s"] = stats.total("linalg.montecarlo.walk", run)
    m["linalg.montecarlo.token_steps"] = c("token_steps", 0.0)
    m["linalg.montecarlo.l1_error"] = c("mc_l1_error", 0.0)

    frames, suppressed = c("codec_frames", 0.0), c("codec_suppressed", 0.0)
    m["net.adaptive.encode_calls"] = stats.calls("net.adaptive.encode", run)
    m["net.adaptive.encode_s"] = stats.total("net.adaptive.encode", run)
    m["net.adaptive.frames"] = frames
    m["net.adaptive.suppressed"] = suppressed
    m["net.adaptive.suppressed_ratio"] = _ratio(suppressed, frames + suppressed)
    m["net.codec.frame_bytes"] = stats.units("net.adaptive.encode", run)

    m["net.bandwidth.merge_calls"] = stats.calls("net.bandwidth.merge", run)
    m["net.bandwidth.merge_s"] = stats.total("net.bandwidth.merge", run)
    m["net.bandwidth.record_calls"] = stats.calls("net.bandwidth.record", run)
    m["net.bandwidth.record_s"] = stats.total("net.bandwidth.record", run)
    m["net.bandwidth.data_bytes"] = c("data_bytes", 0.0)
    m["net.bandwidth.lookup_bytes"] = c("lookup_bytes", 0.0)
    m["net.bandwidth.ack_bytes"] = c("ack_bytes", 0.0)

    route_calls = stats.calls("overlay.route", run)
    m["overlay.route_calls"] = route_calls
    m["overlay.next_hop_calls"] = stats.calls("overlay.next_hop", run)
    m["overlay.route_s"] = stats.self_time("overlay.route", run) + stats.self_time(
        "overlay.next_hop", run
    )
    m["overlay.mean_hops"] = _ratio(stats.units("overlay.route", run), route_calls)

    m["net.transport.send_calls"] = stats.calls("net.transport.send", run)
    m["net.transport.send_s"] = stats.total("net.transport.send", run)
    m["net.transport.dropped"] = c("dropped_updates", 0.0)
    m["net.simulator.events"] = stats.calls("net.simulator.step", run)
    m["net.simulator.self_s"] = stats.self_time("net.simulator.run", run) + stats.self_time(
        "net.simulator.step", run
    )
    m["core.dpr.step_calls"] = stats.calls("core.dpr.step", run)
    m["core.dpr.step_s"] = stats.total("core.dpr.step", run)

    retransmits = c("retransmits", 0.0)
    m["net.reliable.send_s"] = stats.total("net.reliable.send", run)
    m["net.reliable.retransmits"] = retransmits
    m["net.reliable.gave_up"] = c("gave_up", 0.0)
    m["net.reliable.retransmit_ratio"] = _ratio(retransmits, c("data_messages", 0.0))
    m["core.recovery.checkpoint_saves"] = c("checkpoint_saves", 0.0)
    m["core.recovery.checkpoint_s"] = stats.total("core.recovery.checkpoint", run)
    m["core.recovery.takeovers"] = c("takeovers", 0.0)
    m["core.recovery.takeover_s"] = stats.total("core.recovery.takeover", run)
    m["net.heartbeat.deaths_detected"] = c("deaths_detected", 0.0)

    # -- the serving tail --------------------------------------------------
    m["serve.service.build_s"] = stats.total("server")
    m["serve.service.sync_p50_ms"] = _p50(stats.durations("sync"), 1e3)
    m["serve.incremental.update_p50_ms"] = _p50(
        stats.durations("serve.incremental.update", "refresh"), 1e3
    )
    m["serve.incremental.inner_sweeps"] = c("serve_inner_sweeps", 0.0)
    m["serve.incremental.fallback_share"] = c("serve_fallback_share", 0.0)
    m["serve.index.update_p50_ms"] = _p50(
        stats.durations("serve.index.update", "refresh"), 1e3
    )
    for op in ("top_k", "rank_of", "percentile"):
        m[f"serve.index.{op}_p50_us"] = _p50(
            stats.durations(f"serve.index.{op}", "queries"), 1e6
        )
    m["serve.index.cold_query_p50_us"] = c("cold_query_p50_us", 0.0)
    return m
