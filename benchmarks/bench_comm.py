"""Bench: wire-codec traffic reduction under the error budget.

§4.4 charges every cross-group score update a flat 100 bytes per link
record, and §6 leaves traffic reduction as future work.  The codec
layer (repro.net.codec / repro.net.adaptive) implements that future
work; this bench is its gate.  One workload — DPR2, site partition,
direct transport on a Pastry overlay, flat engine, synchronous
schedule at the Figure-8 round budget — runs under three codecs:

* ``none``     — the paper's flat byte model; calibrated data bytes
  must equal the paper-model bytes exactly (accounting identity);
* ``delta``    — lossless delta frames (ε_comm = 0); final ranks must
  be bit-identical to the uncoded run while the calibrated data bytes
  shrink by at least ``GATE_MIN_REDUCTION``×;
* ``delta-q16``— half-precision deltas spending ε_comm = 1e-4; the
  measured L1 rank deviation from the uncoded run must stay within
  the certified bound ε_comm/(1−α).

A second case folds in the suppression-threshold ablation (the
``send_threshold`` knob, predating the codec): more suppression must
weakly reduce messages, and mild suppression must not destroy
accuracy.

On teardown the module writes ``BENCH_comm.json`` at the repo root;
``tools/check_bench_regression.py`` compares the gated reduction
factors and the coded-over-uncoded wall ratios against the committed
copy in CI.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.coordinator import run_distributed_pagerank
from repro.core.pagerank import pagerank_open
from repro.experiments import default_graph, run_compression_ablation
from repro.graph import google_contest_like, make_partition

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_comm.json"

#: CI gate: minimum paper-bytes-over-data-bytes reduction for the
#: lossless delta codec at the headline scale.
GATE_MIN_REDUCTION = 3.0

#: CI gate: maximum wall time of the lossless delta run over the same
#: rounds uncoded — the bookkeeping that saves the bytes has to stay
#: cheaper than the bytes.
GATE_MAX_DELTA_WALL_X = 2.5

#: Headline workload: the Figure-8 scale and round budget.
N_PAGES = 100_000
N_SITES = 2_000
N_GROUPS = 64
ROUNDS = 266
PERIOD = 100.0

#: Error budget of the lossy contender.
COMM_EPSILON = 1e-4

#: case name -> recorded result row.
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_comm.json once every case has run."""
    yield
    if not _RESULTS:
        return
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "comm",
                "workload": "dpr2 / direct transport / pastry overlay / "
                "site partition / flat engine / synchronous schedule",
                "gate_min_reduction_100k": GATE_MIN_REDUCTION,
                "gate_max_delta_wall_x": GATE_MAX_DELTA_WALL_X,
                "cases": _RESULTS,
            },
            indent=2,
        )
        + "\n"
    )


def _run(graph, partition, reference, codec, epsilon):
    t0 = time.perf_counter()
    res = run_distributed_pagerank(
        graph,
        n_groups=N_GROUPS,
        algorithm="dpr2",
        partition=partition,
        partition_strategy="site",
        transport="direct",
        overlay="pastry",
        schedule="sync",
        t1=PERIOD,
        t2=PERIOD,
        sample_interval=PERIOD,
        seed=17,
        engine="flat",
        codec=codec,
        comm_epsilon=epsilon,
        reference=reference,
        max_time=ROUNDS * PERIOD + PERIOD / 2.0,
    )
    return res, time.perf_counter() - t0


def test_codec_reduction_100k():
    graph = google_contest_like(N_PAGES, N_SITES, seed=17)
    partition = make_partition(graph, N_GROUPS, "site")
    reference = pagerank_open(graph).ranks

    base, base_s = _run(graph, partition, reference, "none", 0.0)
    delta, delta_s = _run(graph, partition, reference, "delta", 0.0)
    q16, q16_s = _run(graph, partition, reference, "delta-q16", COMM_EPSILON)

    # Gate 1 — the uncoded path is the paper's byte model, exactly:
    # the calibrated counter and the paper-formula counter must agree
    # byte for byte when no codec is installed.
    assert base.traffic.data_bytes == base.traffic.paper_data_bytes
    assert base.codec_stats is None

    # Gate 2 — lossless delta: bit-identical ranks and the calibrated
    # wire bytes shrink by at least the gate factor at the 1e5-page
    # scale, measured against the *uncoded* run's bytes.  The coded
    # run's own paper-model charge can only be lower than the uncoded
    # run's (frames whose segment did not change at all are suppressed
    # for free, so §4.4 never charges them either).
    assert delta.ranks.tobytes() == base.ranks.tobytes()
    assert delta.traffic.paper_data_bytes <= base.traffic.data_bytes
    reduction = base.traffic.data_bytes / delta.traffic.data_bytes
    assert reduction >= GATE_MIN_REDUCTION, (
        f"delta codec reduction {reduction:.2f}x fell below the "
        f"{GATE_MIN_REDUCTION}x gate at the 1e5-page scale"
    )

    # Gate 3 — error budget: the measured L1 rank deviation of the
    # lossy run must honour the certificate ε_comm/(1−α).
    certified = q16.codec_stats["certified_bound"]
    deviation = float(np.abs(q16.ranks - base.ranks).sum())
    assert deviation <= certified, (
        f"q16 deviation {deviation:.3e} exceeds the certified "
        f"bound {certified:.3e}"
    )
    assert q16.codec_stats["residual_mass"] <= COMM_EPSILON + 1e-12
    q16_reduction = q16.traffic.paper_data_bytes / q16.traffic.data_bytes

    # Gate 4 — the codec's wall-time price over the same rounds uncoded.
    delta_wall_x = delta_s / base_s
    assert delta_wall_x <= GATE_MAX_DELTA_WALL_X, (
        f"lossless delta costs {delta_wall_x:.2f}x the uncoded wall, "
        f"above the {GATE_MAX_DELTA_WALL_X}x gate"
    )

    _RESULTS["codec_100k"] = {
        "n_pages": N_PAGES,
        "n_groups": N_GROUPS,
        "rounds": ROUNDS,
        "comm_epsilon": COMM_EPSILON,
        "paper_bytes": int(base.traffic.data_bytes),
        "delta_data_bytes": int(delta.traffic.data_bytes),
        "q16_data_bytes": int(q16.traffic.data_bytes),
        "delta_reduction_x": round(reduction, 2),
        "q16_reduction_x": round(q16_reduction, 2),
        "delta_bit_identical": True,
        "q16_deviation_l1": deviation,
        "q16_certified_bound": certified,
        "delta_frames": int(delta.codec_stats["frames"]),
        "delta_suppressed": int(delta.codec_stats["suppressed_frames"]),
        "q16_frames": int(q16.codec_stats["frames"]),
        "q16_suppressed": int(q16.codec_stats["suppressed_frames"]),
        "q16_exact_flushes": int(q16.codec_stats["exact_flushes"]),
        "none_wall_s": round(base_s, 3),
        "delta_wall_s": round(delta_s, 3),
        "q16_wall_s": round(q16_s, 3),
        "delta_over_none_wall_x": round(delta_wall_x, 2),
        "q16_over_none_wall_x": round(q16_s / base_s, 2),
    }


def test_suppression_ablation(scale, save_result):
    """Folded from the former bench_compression.py: the paper's
    future-work item measured with the plain ``send_threshold`` knob
    (no codec), unchanged semantics."""
    graph = default_graph(scale)
    result = run_compression_ablation(
        graph,
        n_groups=16,
        thresholds=(0.0, 1e-8, 1e-4, 1e-2),
        max_time=120.0,
    )
    save_result("compression", result.format())

    # More suppression -> (weakly) fewer messages.
    assert result.messages[-1] < result.messages[0]
    # Mild suppression must not destroy accuracy.
    assert result.final_errors[1] < 10 * max(result.final_errors[0], 1e-12)

    _RESULTS["suppression"] = {
        "n_pages": graph.n_pages,
        "n_groups": 16,
        "thresholds": list(result.thresholds),
        "messages": [int(m) for m in result.messages],
        "final_errors": [float(e) for e in result.final_errors],
    }
