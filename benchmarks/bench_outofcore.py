"""Bench: out-of-core graph pipeline — build and rank beyond RAM.

The point of the streaming generator + memory-mapped storage is that
neither building a crawl nor ranking it should ever materialize the
dense edge list (two int64 endpoints per link, 16 bytes/link — the
working set of the eager COO path).  Each phase here runs in its own
subprocess and reports ``ru_maxrss``; the bench gates the *delta* over
the subprocess's post-import baseline (numpy/scipy imports alone cost
~100 MB that have nothing to do with the graph):

* **build** — stream-generate straight to an ``.npy`` directory; the
  peak must stay below ``16 × n_internal_links`` bytes (the dense
  internal edge list the eager generator would have allocated);
* **rank** — memory-map the directory and run the flat engine (DPR1,
  site partition, indirect/pastry) for a fixed round budget; the peak
  must stay below ``16 × n_links`` bytes (the crawl's full dense edge
  list — the paper's "7M internal / 15M total" accounting).

A third case checks correctness rather than memory: at 10⁵ pages the
memory-mapped load must produce bit-identical ranks and fingerprints
to the in-memory load.

On teardown the module writes ``BENCH_outofcore.json`` at the repo
root with per-phase wall-clock (the rank phase also split into operator
build and rank rounds), baseline/peak RSS, the dense-edge-list
budgets, and the identity-check verdicts.  The 10⁶-page case gates CI;
the 10⁷-page row is opt-in via ``REPRO_BENCH_XL=1`` (minutes of
runtime on one core).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_outofcore.json"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

#: Synchronous tick period (virtual time; arbitrary under sync).
PERIOD = 6.0

# K=8 rankers, the workload every committed row was recorded with (the
# per-block operator builder it was chosen for carried K x n row
# pointers; the two-operator build does not depend on K).
SCALES = [
    dict(name="1e6", n_pages=1_000_000, n_sites=10_000, n_groups=8, rounds=2),
    pytest.param(
        dict(name="1e7", n_pages=10_000_000, n_sites=100_000, n_groups=8, rounds=2),
        marks=[
            pytest.mark.slow,
            pytest.mark.skipif(
                os.environ.get("REPRO_BENCH_XL") != "1",
                reason="10M-page row is opt-in: set REPRO_BENCH_XL=1",
            ),
        ],
        id="1e7",
    ),
]

#: case name -> result row (filled as cases run).
_RESULTS = {}

_BUILD_SCRIPT = """\
import json, resource, sys, time
from repro.graph.generators import google_contest_like

cfg = json.loads(sys.argv[1])
baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
graph = google_contest_like(
    cfg["n_pages"], cfg["n_sites"], seed=cfg["seed"], out=cfg["path"]
)
seconds = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "baseline_kb": baseline_kb,
    "peak_kb": peak_kb,
    "seconds": seconds,
    "n_links": graph.n_links,
    "n_internal_links": graph.n_internal_links,
    "fingerprint": graph.fingerprint(),
}))
"""

_RANK_SCRIPT = """\
import json, resource, sys, time
import numpy as np
from repro.core.coordinator import DistributedConfig
from repro.core.engine import SynchronousEngine
from repro.graph.io import load_webgraph
from repro.graph.partition import make_partition

cfg = json.loads(sys.argv[1])
baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
graph = load_webgraph(cfg["path"], mmap=True)
partition = make_partition(graph, cfg["n_groups"], "site")
reference = np.full(graph.n_pages, 1.0 / graph.n_pages)
config = DistributedConfig(
    n_groups=cfg["n_groups"],
    algorithm="dpr1",
    transport="indirect",
    overlay="pastry",
    t1=cfg["period"],
    t2=cfg["period"],
    seed=17,
    schedule="sync",
    sample_interval=cfg["period"],
    engine="flat",
)
t1 = time.perf_counter()
engine = SynchronousEngine(graph, config, partition=partition, reference=reference)
t2 = time.perf_counter()
res = engine.run(max_time=cfg["rounds"] * cfg["period"] + cfg["period"] / 2.0)
t3 = time.perf_counter()
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "baseline_kb": baseline_kb,
    "peak_kb": peak_kb,
    "seconds": t3 - t0,
    "operator_build_seconds": t2 - t1,
    "rounds_seconds": t3 - t2,
    "rounds": int(res.max_outer_iterations),
    "ranks_sum": float(res.ranks.sum()),
}))
"""


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_outofcore.json once every case has run."""
    yield
    if not _RESULTS:
        return
    order = ["identity_1e5", "1e6", "1e7"]
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "outofcore",
                "workload": "streamed google_contest_like build -> .npy dir "
                "-> mmap load -> flat dpr1 / site / indirect / pastry",
                "gate": "phase peak RSS delta below the dense edge list "
                "(build: 16 B x internal links; rank: 16 B x total links)",
                "cases": [_RESULTS[n] for n in order if n in _RESULTS]
                + [r for n, r in _RESULTS.items() if n not in order],
            },
            indent=2,
        )
        + "\n"
    )


def _phase(script: str, cfg: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cfg)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, f"phase subprocess failed:\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", SCALES, ids=lambda c: c["name"])
def test_outofcore_build_and_rank(case, tmp_path):
    path = str(tmp_path / f"wg_{case['name']}")

    build = _phase(
        _BUILD_SCRIPT,
        {"n_pages": case["n_pages"], "n_sites": case["n_sites"], "seed": 2003,
         "path": path},
    )
    dense_internal = 16 * build["n_internal_links"]
    dense_total = 16 * build["n_links"]
    build_delta = (build["peak_kb"] - build["baseline_kb"]) * 1024

    rank = _phase(
        _RANK_SCRIPT,
        {"path": path, "n_groups": case["n_groups"], "rounds": case["rounds"],
         "period": PERIOD},
    )
    rank_delta = (rank["peak_kb"] - rank["baseline_kb"]) * 1024

    _RESULTS[case["name"]] = {
        "name": case["name"],
        "n_pages": case["n_pages"],
        "n_sites": case["n_sites"],
        "n_groups": case["n_groups"],
        "n_links": build["n_links"],
        "n_internal_links": build["n_internal_links"],
        "fingerprint": build["fingerprint"],
        "build_seconds": round(build["seconds"], 2),
        "build_baseline_rss_mb": round(build["baseline_kb"] / 1024, 1),
        "build_peak_rss_delta_mb": round(build_delta / 2**20, 1),
        "dense_internal_edge_list_mb": round(dense_internal / 2**20, 1),
        "rank_rounds": rank["rounds"],
        "rank_seconds": round(rank["seconds"], 2),
        "rank_operator_build_seconds": round(rank["operator_build_seconds"], 2),
        "rank_rounds_seconds": round(rank["rounds_seconds"], 2),
        "rank_baseline_rss_mb": round(rank["baseline_kb"] / 1024, 1),
        "rank_peak_rss_delta_mb": round(rank_delta / 2**20, 1),
        "dense_total_edge_list_mb": round(dense_total / 2**20, 1),
        "build_under_dense": bool(build_delta < dense_internal),
        "rank_under_dense": bool(rank_delta < dense_total),
    }

    assert rank["rounds"] == case["rounds"]
    assert build_delta < dense_internal, (
        f"build peak {build_delta / 2**20:.0f} MB exceeds the dense "
        f"internal edge list ({dense_internal / 2**20:.0f} MB)"
    )
    assert rank_delta < dense_total, (
        f"rank peak {rank_delta / 2**20:.0f} MB exceeds the dense "
        f"edge list ({dense_total / 2**20:.0f} MB)"
    )


def test_mmap_identity_1e5(tmp_path):
    """mmap-loaded graphs rank bit-identically to in-memory ones."""
    import numpy as np

    from repro.core.coordinator import run_distributed_pagerank
    from repro.graph.generators import google_contest_like
    from repro.graph.io import load_webgraph, save_webgraph
    from repro.graph.partition import make_partition

    n_pages, n_sites, n_groups, rounds = 100_000, 2_000, 16, 3
    eager = google_contest_like(n_pages, n_sites, seed=2003)
    path = tmp_path / "wg_1e5"
    save_webgraph(eager, path)
    mapped = load_webgraph(path, mmap=True)

    assert mapped.fingerprint() == eager.fingerprint()

    reference = np.full(n_pages, 1.0 / n_pages)

    def run(graph):
        partition = make_partition(graph, n_groups, "site")
        return run_distributed_pagerank(
            graph,
            n_groups=n_groups,
            algorithm="dpr1",
            transport="indirect",
            overlay="pastry",
            t1=PERIOD,
            t2=PERIOD,
            seed=17,
            schedule="sync",
            sample_interval=PERIOD,
            engine="flat",
            partition=partition,
            reference=reference,
            max_time=rounds * PERIOD + PERIOD / 2.0,
        )

    res_eager = run(eager)
    res_mapped = run(mapped)
    identical = res_eager.ranks.tobytes() == res_mapped.ranks.tobytes()

    _RESULTS["identity_1e5"] = {
        "name": "identity_1e5",
        "n_pages": n_pages,
        "rounds": rounds,
        "identical_fingerprints": True,
        "bit_identical_ranks": bool(identical),
    }
    assert identical
