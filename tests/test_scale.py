"""Moderate-scale end-to-end checks.

The default test workloads are a few hundred pages; these push one
order of magnitude higher to catch anything that only bites when the
vectorized paths carry real volume (accidental O(n²) loops, per-edge
Python iteration, quadratic assembly).  Wall-clock bounds are
generous — they are regression tripwires, not benchmarks.
"""

import time

import numpy as np
import pytest

from repro.core import pagerank_open, run_distributed_pagerank
from repro.graph import google_contest_like, make_partition
from repro.linalg import group_blocks


@pytest.fixture(scope="module")
def big_graph():
    return google_contest_like(30_000, 150, seed=99)


class TestScale:
    def test_generator_is_fast_at_30k_pages(self):
        t0 = time.time()
        g = google_contest_like(30_000, 150, seed=100)
        assert time.time() - t0 < 10.0
        assert g.n_pages == 30_000

    def test_centralized_pagerank_30k(self, big_graph):
        t0 = time.time()
        res = pagerank_open(big_graph, tol=1e-10)
        assert res.converged
        assert time.time() - t0 < 10.0

    def test_group_blocks_build_30k(self, big_graph):
        part = make_partition(big_graph, 64, "site")
        t0 = time.time()
        blocks = group_blocks(big_graph, part, 0.85)
        assert time.time() - t0 < 10.0
        # Sanity: the decomposition stores one entry per unique (u, v)
        # link pair (duplicate links sum into a single record).
        src, dst = big_graph.edges()
        unique_pairs = np.unique(src * np.int64(big_graph.n_pages) + dst).size
        total = sum(b.nnz for b in blocks.diag) + blocks.total_cut_entries()
        assert total == unique_pairs

    def test_distributed_run_30k_pages_64_rankers(self, big_graph):
        t0 = time.time()
        res = run_distributed_pagerank(
            big_graph,
            n_groups=64,
            partition_strategy="site",
            t1=1.0,
            t2=1.0,
            seed=7,
            target_relative_error=1e-4,
            max_time=400.0,
        )
        assert res.converged
        assert time.time() - t0 < 60.0

    def test_rank_mass_sane_at_scale(self, big_graph):
        res = pagerank_open(big_graph, tol=1e-10)
        # Open-system bounds: each rank in (beta, n], mean below E=1.
        assert (res.ranks >= 0.15 - 1e-9).all()
        assert 0.1 < res.ranks.mean() < 1.0
        assert np.isfinite(res.ranks).all()
