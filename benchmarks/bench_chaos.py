"""Bench: event engine vs hybrid fast path on the full churn scenario.

Both engines run the EXPERIMENTS.md churn scenario — DPR2 over the
reliable direct transport on a lossy network (85% delivery, 15% ACK
loss, duplicates, reordering) with crash faults, heartbeat detection,
checkpointing and recovery — for a fixed round horizon.  The event
engine schedules every transmission, retransmission, ACK, heartbeat
and checkpoint as a simulator event; the hybrid engine runs flat
kernels per round with the fault plane advanced between rounds and
the reliable ARQ conversations replayed at round granularity as
array waves (DESIGN.md §13).

The comparison is only meaningful if the approximation holds, so each
scale first asserts the equivalence contract:

* identical fault-machinery outcomes — groups crashed, deaths
  detected, takeovers, checkpoint saves (the fault plane replays the
  exact injector/heartbeat/recovery event chain);
* the same ε verdict against the centralized reference, with the
  final relative errors within documented tolerance of each other;
* both ARQ stacks actually retransmitted (the scenario exercises the
  reliable layer; retransmit *counts* legitimately differ because the
  replay consumes chaos draws in round order rather than timer order).

The horizon is fixed (no convergence target) so both engines execute
exactly the same number of rounds and the wall-clock ratio isolates
engine cost rather than sample-trip timing.

On teardown the module writes ``BENCH_chaos.json`` at the repo root:
per-scale wall-clock for both engines, the speedup, the verdicts and
fault counters.  The 10⁵-page case gates CI: hybrid must stay at
least ``GATE_MIN_SPEEDUP``× faster than the event engine.
"""

import json
import pathlib
import time

from repro.core.coordinator import run_distributed_pagerank
from repro.core.pagerank import pagerank_open
from repro.experiments.chaos import CHURN_SCENARIO
from repro.graph import google_contest_like, make_partition

import pytest

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_chaos.json"

#: CI gate: minimum hybrid-over-event speedup at the largest scale
#: (measured 9.3-9.6x over four runs with the array ARQ replay and the flat receiver
#: memory; the relative ratchet in tools/check_bench_regression.py sits
#: on top).
GATE_MIN_SPEEDUP = 7.5

#: ε for the convergence verdict both engines must agree on.
EPSILON = 1e-4

#: Documented tolerance between the engines' final relative errors on
#: faulted configs (DESIGN.md §13: recovery timing and ARQ round
#: granularity are ε-level, not state corruption).
ERROR_TOLERANCE = 1e-5

#: Churn round period (CHURN_SCENARIO pins t1 = t2 = 10).
PERIOD = float(CHURN_SCENARIO["t1"])

SCALES = [
    dict(name="10k", n_pages=10_000, n_sites=200, n_groups=16, rounds=40),
    dict(name="100k", n_pages=100_000, n_sites=2_000, n_groups=64, rounds=40),
]

#: scale name -> recorded result row (filled as cases run).
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_chaos.json once every case has run."""
    yield
    if not _RESULTS:
        return
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "chaos",
                "workload": "EXPERIMENTS.md churn scenario (reliable direct "
                "transport, 0.85 delivery, ack loss, duplicates, reordering, "
                "crashes + heartbeat + checkpoint + recovery)",
                "gate_min_speedup_100k": GATE_MIN_SPEEDUP,
                "epsilon": EPSILON,
                "scales": [_RESULTS[s["name"]] for s in SCALES if s["name"] in _RESULTS],
            },
            indent=2,
        )
        + "\n"
    )


def _run(engine, graph, partition, reference, n_groups, rounds):
    # Fixed horizon, no convergence target: both engines execute the
    # same rounds; the drain margin mirrors bench_engine.
    max_time = rounds * PERIOD + PERIOD / 2.0
    t0 = time.perf_counter()
    res = run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        engine=engine,
        seed=5,
        partition=partition,
        reference=reference,
        max_time=max_time,
        **CHURN_SCENARIO,
    )
    return res, time.perf_counter() - t0


@pytest.mark.parametrize("case", SCALES, ids=[s["name"] for s in SCALES])
def test_chaos_speedup(case):
    graph = google_contest_like(case["n_pages"], case["n_sites"], seed=11)
    partition = make_partition(graph, case["n_groups"], "url")
    reference = pagerank_open(graph).ranks

    hybrid, hybrid_s = _run(
        "hybrid", graph, partition, reference, case["n_groups"], case["rounds"]
    )
    event, event_s = _run(
        "event", graph, partition, reference, case["n_groups"], case["rounds"]
    )

    # Equivalence contract first — the speedup is meaningless unless
    # the fast path survives the same faults to the same verdict.
    assert hybrid.crashed_groups == event.crashed_groups
    assert hybrid.deaths_detected == event.deaths_detected
    assert hybrid.takeovers == event.takeovers
    assert hybrid.checkpoint_saves == event.checkpoint_saves
    assert hybrid.retransmits > 0 and event.retransmits > 0

    event_verdict = event.final_relative_error <= EPSILON
    hybrid_verdict = hybrid.final_relative_error <= EPSILON
    assert hybrid_verdict == event_verdict, (
        f"ε verdicts disagree: event err {event.final_relative_error:.3e}, "
        f"hybrid err {hybrid.final_relative_error:.3e}, ε={EPSILON:g}"
    )
    err_gap = abs(hybrid.final_relative_error - event.final_relative_error)
    assert err_gap <= ERROR_TOLERANCE, (
        f"final errors drifted {err_gap:.3e} apart "
        f"(tolerance {ERROR_TOLERANCE:g})"
    )
    assert hybrid.fidelity == "approximate"
    assert hybrid.replayed_rounds == case["rounds"]

    speedup = event_s / hybrid_s
    _RESULTS[case["name"]] = {
        "name": case["name"],
        "n_pages": case["n_pages"],
        "n_groups": case["n_groups"],
        "rounds": case["rounds"],
        "event_wall_s": round(event_s, 3),
        "hybrid_wall_s": round(hybrid_s, 3),
        "speedup": round(speedup, 2),
        "epsilon_verdicts_agree": True,
        "event_final_error": event.final_relative_error,
        "hybrid_final_error": hybrid.final_relative_error,
        "crashed_groups": int(event.crashed_groups),
        "takeovers": int(event.takeovers),
        "checkpoint_saves": int(event.checkpoint_saves),
        "event_retransmits": int(event.retransmits),
        "hybrid_retransmits": int(hybrid.retransmits),
        "event_messages": int(event.traffic.total_messages),
        "hybrid_messages": int(hybrid.traffic.total_messages),
    }

    if case["name"] == "100k":
        assert speedup >= GATE_MIN_SPEEDUP, (
            f"hybrid engine speedup {speedup:.2f}x fell below the "
            f"{GATE_MIN_SPEEDUP}x gate at the 1e5-page churn scale"
        )
