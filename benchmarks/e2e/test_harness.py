"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs the ``--quick`` (1e4-page) version of all six workloads through
the real entry point — one untraced and two traced measurements each —
and checks what the benchmark promises: every declared metric is
emitted, spans nest, self times are non-negative and sum to no more
than the wall, and counts repeat exactly.
"""

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_UNITS = {"count", "B"}


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--quick", *extra],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One untraced and two traced quick measurements per workload."""
    out = {"plain_wall_s": 0.0}
    spans_dir = tmp_path_factory.mktemp("spans")
    for w in SPEC["workloads"]:
        name = w["name"]
        spans = spans_dir / f"{name}.json"
        began = time.perf_counter()
        plain = _run(name, 0)
        out["plain_wall_s"] += time.perf_counter() - began
        out[name] = {
            "plain": plain,
            "traced": [_run(name, 1, "--spans-out", str(spans)), _run(name, 1)],
            "spans": json.loads(spans.read_text()),
        }
    return out


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [d["name"] for key in ("workloads", "end_to_end", "per_layer") for d in SPEC[key]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for d in SPEC["end_to_end"]:
        assert set(d) == {"name", "unit", "better", "bound"}
        assert 0 < d["bound"] <= 0.25 and d["better"] in ("lower", "higher")
    for d in SPEC["per_layer"]:
        assert set(d) == {"name", "unit", "better"}
    for d in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(d["unit"]), d
    setup = [d for d in SPEC["end_to_end"] if d["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(d["bound"] for d in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420


def test_spec_and_code_name_the_same_workloads():
    from workloads import WORKLOADS

    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]


def test_quick_pass_is_quick(quick):
    assert quick["plain_wall_s"] < 60


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(quick, workload):
    runs = quick[workload]
    for result, declared in (
        (runs["plain"], SPEC["end_to_end"]),
        (runs["traced"][0], SPEC["per_layer"]),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {d["name"] for d in declared}
        for d in declared:
            m = result["metrics"][d["name"]]
            assert m["unit"] == d["unit"]
            assert math.isfinite(m["value"]), d["name"]
    for d in SPEC["end_to_end"]:
        assert runs["plain"]["metrics"][d["name"]]["value"] > 0, d["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_spans_nest_and_self_times_fit_the_wall(quick, workload):
    spans = quick[workload]["spans"]
    start, end = np.array(spans["start"]), np.array(spans["end"])
    parent, repeat = np.array(spans["parent"]), np.array(spans["repeat"])
    assert start.size > 0
    assert np.all(end >= start)
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    assert np.all(p < child)
    assert np.all(start[child] >= start[p]) and np.all(end[child] <= end[p])
    assert np.all(repeat[child] == repeat[p])
    dur = end - start
    covered = np.bincount(p, weights=dur[child], minlength=start.size)
    self_time = dur - covered
    assert self_time.min() > -1e-9
    # Self times partition the top-level spans, which do not overlap.
    top = dur[parent < 0].sum()
    assert self_time.sum() == pytest.approx(top, rel=1e-9)
    for r in np.unique(repeat):
        sel = repeat == r
        assert self_time[sel].sum() <= end[sel].max() - start[sel].min() + 1e-9


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(quick, workload):
    first, second = quick[workload]["traced"]
    for d in SPEC["per_layer"]:
        if d["unit"] in COUNT_UNITS:
            assert (
                first["metrics"][d["name"]]["value"] == second["metrics"][d["name"]]["value"]
            ), d["name"]


def test_each_layer_is_busy_somewhere_and_idle_elsewhere(quick):
    def value(workload, metric):
        return quick[workload]["traced"][0]["metrics"][metric]["value"]

    assert value("codec-100k", "net.adaptive.encode_calls") > 0
    assert value("flat-300k", "net.adaptive.encode_calls") == 0
    assert value("event-100k", "core.dpr.step_calls") > 0
    assert value("flat-300k", "core.dpr.step_calls") == 0
    assert value("churn-100k", "core.recovery.takeovers") > 0
    assert value("mc-100k", "linalg.montecarlo.token_steps") > 0
    assert value("mc-100k", "linalg.jacobi.matvec_calls") == 0
    assert value("serve-60k", "serve.incremental.update_p50_ms") > 0
    assert value("flat-300k", "serve.incremental.update_p50_ms") == 0
    assert value("flat-300k", "graph.io.load_s") > 0


def test_tracer_self_time_and_restore():
    import repro.linalg.jacobi as jacobi
    import repro.core.engine as engine

    original = jacobi.csr_matvec_into
    tracer = Tracer()
    tracer.wrap("matvec", "repro.linalg.jacobi:csr_matvec_into")
    tracer.wrap("nope", "repro.linalg.jacobi:no_such_function")
    tracer.enabled = True
    assert jacobi.csr_matvec_into is not original
    assert engine.csr_matvec_into is jacobi.csr_matvec_into  # import site patched
    assert tracer.missing == ["repro.linalg.jacobi:no_such_function"]
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        time.sleep(0.01)
    tracer.uninstall()
    assert jacobi.csr_matvec_into is original and engine.csr_matvec_into is original
    stats = tracer.aggregate()
    assert stats.calls("inner", "outer") == 1
    assert stats.total("outer") >= stats.total("inner") >= 0.01
    assert stats.self_time("outer") == pytest.approx(
        stats.total("outer") - stats.total("inner")
    )
    assert tracer.check_nesting() == []


def test_compare_verdicts():
    def s(*samples):
        q1, med, q3 = np.percentile(samples, [25, 50, 75])
        return {"median": med, "q1": q1, "q3": q3, "samples": list(samples)}

    steady = s(1.00, 1.01, 0.99, 1.00, 1.01)
    assert compare.verdict(steady, s(1.3, 1.31, 1.29, 1.3, 1.3), "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(steady, s(0.8, 0.81, 0.79, 0.8, 0.8), "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(steady, s(1.02, 1.01, 1.0, 1.02, 1.03), "lower", 0.1)["verdict"] == "unchanged"
    noisy = s(0.7, 1.0, 1.3, 0.8, 1.2)
    assert compare.verdict(noisy, s(0.9, 1.1, 1.4, 0.7, 1.0), "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(steady, s(1.3, 1.31, 1.29, 1.3, 1.3), "higher", 0.1)["verdict"] == "better"
