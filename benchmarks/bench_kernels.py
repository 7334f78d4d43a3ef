"""Engineering bench: throughput of the numerical kernels.

Not a paper table — this measures the building blocks so regressions
in the hot paths (SpMV sweeps, block decomposition, full centralized
solves) are visible. These benches use pytest-benchmark's normal
multi-round timing since each call is fast.

Before/after cases
------------------
``jacobi_sweep`` is timed fresh-array vs. workspace out-buffer
(``jacobi_solve`` has one implementation, the ping-pong workspace
loop, and one case).  The per-ranker kernels the event engine used to
own — its stacked efferent SpMV, incremental X and DPR2 round — are
gone: every engine now runs the flat state's kernels, which the
end-to-end benchmark (``benchmarks/e2e``) measures.

``group_blocks_k_scaling`` times the partitioned-operator build on one
1e5-page graph at K = 16, 64 and 256: the builder makes a fixed number
of passes over the links, so the K=256 build may cost at most 3x the
K=16 one (a per-block builder paid ~95 µs per ordered group pair: 22x).

On teardown the module writes ``BENCH_kernels.json`` at the repo root
(per-kernel median ns, graph scale, speedups) so the perf trajectory
is machine-readable from this PR onward.
"""

import json
import pathlib
import statistics
from time import perf_counter

import numpy as np
import pytest

from repro.core.pagerank import pagerank_open
from repro.experiments import default_graph
from repro.graph import google_contest_like, make_partition
from repro.linalg import (
    JacobiWorkspace,
    group_blocks,
    jacobi_solve,
    jacobi_sweep,
    propagation_matrix,
)

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_kernels.json"

#: Group count for the partitioned build.
N_GROUPS = 32

#: kernel -> {"naive_ns": float, "fast_ns": float}
_MEDIANS = {}
#: Cases that time themselves: name -> JSON-ready record.
_CASES = {}


def _record(kind, variant, benchmark):
    if getattr(benchmark, "stats", None) is None:
        return  # --benchmark-disable: nothing to record
    median_s = benchmark.stats.stats.median
    _MEDIANS.setdefault(kind, {})[f"{variant}_ns"] = median_s * 1e9
    benchmark.extra_info["kernel"] = kind
    benchmark.extra_info["variant"] = variant


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


@pytest.fixture(scope="module")
def operator(graph):
    return propagation_matrix(graph, 0.85)


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json(scale):
    """Write BENCH_kernels.json once every recorded case has run."""
    yield
    if not _MEDIANS:
        return
    kernels = {}
    for kind, entry in sorted(_MEDIANS.items()):
        naive, fast = entry.get("naive_ns"), entry.get("fast_ns")
        kernels[kind] = dict(entry)
        if naive and fast:
            kernels[kind]["speedup"] = naive / fast
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "kernels",
                "scale": {
                    "n_pages": scale.n_pages,
                    "n_sites": scale.n_sites,
                    "n_groups": N_GROUPS,
                },
                "kernels": kernels,
                **_CASES,
            },
            indent=2,
        )
        + "\n"
    )


# ----------------------------------------------------------------------
# Single-kernel before/after
# ----------------------------------------------------------------------


def test_jacobi_sweep_throughput(benchmark, graph, operator):
    x = np.random.default_rng(0).random(graph.n_pages)
    f = np.full(graph.n_pages, 0.15)
    result = benchmark(jacobi_sweep, operator, x, f)
    assert result.shape == (graph.n_pages,)
    _record("jacobi_sweep", "naive", benchmark)


def test_jacobi_sweep_workspace(benchmark, graph, operator):
    x = np.random.default_rng(0).random(graph.n_pages)
    f = np.full(graph.n_pages, 0.15)
    out = np.empty(graph.n_pages)
    result = benchmark(jacobi_sweep, operator, x, f, out=out)
    assert result.shape == (graph.n_pages,)
    _record("jacobi_sweep", "fast", benchmark)


def test_jacobi_solve(benchmark, graph, operator):
    f = np.full(graph.n_pages, 0.15)
    ws = JacobiWorkspace(graph.n_pages)
    res = benchmark(jacobi_solve, operator, f, tol=1e-10, workspace=ws)
    assert res.converged
    _record("jacobi_solve", "fast", benchmark)


# ----------------------------------------------------------------------
# Structure builds and the end-to-end centralized solve (unchanged)
# ----------------------------------------------------------------------


def test_propagation_matrix_build(benchmark, graph):
    p = benchmark(propagation_matrix, graph, 0.85)
    assert p.shape == (graph.n_pages, graph.n_pages)


def test_group_blocks_build(benchmark, graph):
    part = make_partition(graph, N_GROUPS, "site")
    blocks = benchmark(group_blocks, graph, part, 0.85)
    assert blocks.n_groups == N_GROUPS


def test_group_blocks_k_scaling():
    graph = google_contest_like(100_000, 2_000, seed=17)
    partitions = {k: make_partition(graph, k, "site") for k in (16, 64, 256)}
    for part in partitions.values():  # the partition's own caches, untimed
        part.local_index()
        part.pages_of_group(0)
    samples = {k: [] for k in partitions}
    for _ in range(5):  # interleaved, so drift hits every K alike
        for k, part in partitions.items():
            t0 = perf_counter()
            blocks = group_blocks(graph, part, 0.85)
            samples[k].append(perf_counter() - t0)
            assert len(blocks.cross) > k
    seconds = {k: statistics.median(v) for k, v in samples.items()}
    ratio = seconds[256] / seconds[16]
    _CASES["group_blocks_k_scaling"] = {
        "n_pages": graph.n_pages,
        "seconds": {str(k): v for k, v in seconds.items()},
        "k256_over_k16_x": ratio,
    }
    assert ratio <= 3.0, f"K=256 build costs {ratio:.1f}x the K=16 build"


def test_centralized_pagerank_solve(benchmark, graph):
    result = benchmark(pagerank_open, graph, 0.85)
    assert result.converged
