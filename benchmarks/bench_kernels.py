"""Engineering bench: throughput of the numerical kernels.

Not a paper table — this measures the building blocks so regressions
in the hot paths (SpMV sweeps, block decomposition, full centralized
solves) are visible. These benches use pytest-benchmark's normal
multi-round timing since each call is fast.

Before/after cases
------------------
Each allocation-free kernel introduced by the hot-path work is
benchmarked against the naive implementation it replaced
(``jacobi_solve`` has one implementation, the ping-pong workspace
loop, and one case):

* ``jacobi_sweep``  — fresh-array sweep vs. workspace out-buffer sweep
* ``efferent``      — per-destination dict scan vs. stacked single SpMV
* ``refresh_x``     — re-sum-every-call vs. incrementally maintained X
* ``dpr2_outer_step`` — one full synchronous DPR2 round over all
  groups (refresh X + sweep + efferent for every ranker), naive vs
  fast; this is the composite number the acceptance gate tracks.

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

from repro.core.dpr import DPRNode
from repro.core.open_system import GroupSystem
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
from repro.net.message import ScoreUpdate

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_kernels.json"

#: Group count for the partitioned cases — large enough that the naive
#: per-destination dict scan (O(#cross blocks) per call) is visible.
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


@pytest.fixture(scope="module")
def partitioned(graph):
    part = make_partition(graph, N_GROUPS, "site")
    return GroupSystem(graph, part)


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


def _naive_efferent(blocks):
    """The pre-stacking efferent: scan every cross block (built once,
    outside the timed calls), one SpMV per destination."""
    cross = dict(blocks.cross)

    def efferent(g, r):
        return {h: block @ r for (src, h), block in cross.items() if src == g}

    return efferent


def test_efferent_naive(benchmark, partitioned):
    blocks = partitioned.blocks
    rs = [np.random.default_rng(g).random(blocks.group_size(g)) for g in range(N_GROUPS)]
    efferent = _naive_efferent(blocks)

    def all_groups():
        return [efferent(g, rs[g]) for g in range(N_GROUPS)]

    result = benchmark(all_groups)
    assert len(result) == N_GROUPS
    _record("efferent", "naive", benchmark)


def test_efferent_stacked(benchmark, partitioned):
    blocks = partitioned.blocks
    rs = [np.random.default_rng(g).random(blocks.group_size(g)) for g in range(N_GROUPS)]
    bufs = [blocks.efferent_buffer(g) for g in range(N_GROUPS)]

    def all_groups():
        return [blocks.efferent_into(g, rs[g], bufs[g]) for g in range(N_GROUPS)]

    result = benchmark(all_groups)
    assert len(result) == N_GROUPS
    _record("efferent", "fast", benchmark)


def test_refresh_x_naive(benchmark, partitioned):
    g = max(range(N_GROUPS), key=lambda h: len(partitioned.sources_of(h)))
    n = partitioned.group_size(g)
    rng = np.random.default_rng(7)
    latest = {src: rng.random(n) for src in partitioned.sources_of(g)}

    def resum():
        x = np.zeros(n)
        for vec in latest.values():
            x += vec
        return x

    result = benchmark(resum)
    assert result.shape == (n,)
    _record("refresh_x", "naive", benchmark)


def test_refresh_x_incremental(benchmark, partitioned):
    g = max(range(N_GROUPS), key=lambda h: len(partitioned.sources_of(h)))
    node = DPRNode(g, partitioned.diag(g), partitioned.beta_e[g], mode="dpr2")
    rng = np.random.default_rng(7)
    for src in partitioned.sources_of(g):
        node.receive(ScoreUpdate(src, g, rng.random(node.n_local), 1, generation=1))

    result = benchmark(node.refresh_x)
    assert result.shape == (node.n_local,)
    _record("refresh_x", "fast", benchmark)


# ----------------------------------------------------------------------
# Composite: one synchronous DPR2 outer round over every group
# ----------------------------------------------------------------------


class _SeedNode:
    """The pre-optimization DPR2 node: allocates on every call."""

    def __init__(self, group, a_group, beta_e):
        self.group = group
        self.a_group = a_group
        self.beta_e = beta_e
        self.r = np.zeros(beta_e.shape[0])
        self._latest_values = {}
        self._latest_gen = {}
        self.outer_iterations = 0

    def receive(self, update):
        src = update.src_group
        if src in self._latest_gen and update.generation <= self._latest_gen[src]:
            return
        self._latest_gen[src] = update.generation
        self._latest_values[src] = update.values

    def step(self):
        x = np.zeros(self.r.shape[0])
        for vec in self._latest_values.values():
            x += vec
        f = self.beta_e + x
        if self.r.shape[0]:
            self.r = jacobi_sweep(self.a_group, self.r, f)
        self.outer_iterations += 1
        return self.r


def _dpr2_round(nodes, efferent, receive_all):
    mail = []
    for node in nodes:
        r = node.step()
        for dst, values in efferent(node.group, r).items():
            mail.append(ScoreUpdate(node.group, dst, values, 1, node.outer_iterations))
    receive_all(mail)


def test_dpr2_outer_step_naive(benchmark, partitioned):
    nodes = [
        _SeedNode(g, partitioned.diag(g), partitioned.beta_e[g])
        for g in range(N_GROUPS)
    ]

    def receive_all(mail):
        for u in mail:
            nodes[u.dst_group].receive(u)

    benchmark(_dpr2_round, nodes, _naive_efferent(partitioned.blocks), receive_all)
    assert all(n.outer_iterations > 0 for n in nodes)
    _record("dpr2_outer_step", "naive", benchmark)


def test_dpr2_outer_step_fast(benchmark, partitioned):
    nodes = [
        DPRNode(g, partitioned.diag(g), partitioned.beta_e[g], mode="dpr2")
        for g in range(N_GROUPS)
    ]

    def receive_all(mail):
        for u in mail:
            nodes[u.dst_group].receive(u)

    benchmark(_dpr2_round, nodes, partitioned.efferent, receive_all)
    assert all(n.outer_iterations > 0 for n in nodes)
    _record("dpr2_outer_step", "fast", benchmark)


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
