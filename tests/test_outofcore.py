"""Out-of-core pipeline tests: streaming build, mmap storage, identity.

The contract under test is *bit-identity*: chunked generation, the
``.npy`` directory format, memory-mapped loads, and the streamed
operator assembly must all be invisible — every path produces exactly
the bytes the eager in-memory path produces, so experiment results
can never depend on how the graph happened to reach memory.
"""

import numpy as np
import pytest

from repro.graph import (
    WebGraph,
    WebGraphDirWriter,
    backing_memmap,
    erdos_renyi_web,
    google_contest_like,
    load_webgraph,
    make_partition,
    save_webgraph,
)
from repro.graph.generators import _zipf_indices
from repro.graph.io import DIR_FORMAT_VERSION


def contest_eager(n_pages, n_sites, *, seed):
    """Oracle: :func:`google_contest_like` at its default shape as one
    global edge list per phase — every draw of the whole graph at once,
    then ``WebGraph``'s stable sort by source."""
    rng = np.random.default_rng(seed)
    weights = np.power(np.arange(1, n_sites + 1, dtype=np.float64), -0.9)
    weights /= weights.sum()
    sizes = np.maximum(1, np.floor(weights * n_pages).astype(np.int64))
    drift = n_pages - int(sizes.sum())
    i = 0
    while drift != 0:
        step = 1 if drift > 0 else -1
        if sizes[i % n_sites] + step >= 1:
            sizes[i % n_sites] += step
            drift -= step
        i += 1
    site_start = np.zeros(n_sites, dtype=np.int64)
    np.cumsum(sizes[:-1], out=site_start[1:])
    site_of = np.repeat(np.arange(n_sites, dtype=np.int64), sizes)

    sigma = 1.0
    degrees = np.floor(rng.lognormal(np.log(15.0) - 0.5 * sigma**2, sigma, size=n_pages))
    degrees = np.clip(degrees.astype(np.int64), 0, max(1, n_pages // 2))
    n_ext = rng.binomial(degrees, 1.0 - 7.0 / 15.0)
    n_int = degrees - n_ext
    n_intra = rng.binomial(n_int, 0.9)
    n_inter = n_int - n_intra
    if n_sites == 1:
        n_intra = n_intra + n_inter
        n_inter = np.zeros_like(n_inter)

    intra_src = np.repeat(np.arange(n_pages, dtype=np.int64), n_intra)
    src_site = site_of[intra_src]
    dom = sizes[src_site]
    local = _zipf_indices(rng, intra_src.size, dom, 0.8)
    intra_dst = site_start[src_site] + local
    loops = intra_dst == intra_src
    if loops.any():
        intra_dst[loops] = site_start[src_site[loops]] + (local[loops] + 1) % dom[loops]

    inter_src = np.repeat(np.arange(n_pages, dtype=np.int64), n_inter)
    inter_dst = np.zeros(0, dtype=np.int64)
    if inter_src.size:
        site_w = sizes.astype(np.float64)
        site_w /= site_w.sum()
        tgt_site = rng.choice(n_sites, size=inter_src.size, p=site_w)
        own = site_of[inter_src]
        for _ in range(4):
            bad = tgt_site == own
            if not bad.any():
                break
            tgt_site[bad] = rng.choice(n_sites, size=int(bad.sum()), p=site_w)
        still = tgt_site == own
        tgt_site[still] = (tgt_site[still] + 1) % n_sites
        local = _zipf_indices(rng, inter_src.size, sizes[tgt_site], 0.8)
        inter_dst = site_start[tgt_site] + local

    return WebGraph(
        n_pages,
        np.concatenate([intra_src, inter_src]),
        np.concatenate([intra_dst, inter_dst]),
        site_of=site_of,
        external_out=n_ext,
        site_names=tuple(f"www.site{i:04d}.edu" for i in range(n_sites)),
    )


def erdos_eager(n_pages, mean_out_degree, *, n_sites, seed):
    """Oracle: :func:`erdos_renyi_web` as one global target draw."""
    rng = np.random.default_rng(seed)
    degrees = rng.poisson(mean_out_degree, size=n_pages)
    n_ext = rng.binomial(degrees, 0.0)  # the default external_fraction
    src = np.repeat(np.arange(n_pages, dtype=np.int64), degrees - n_ext)
    dst = rng.integers(0, n_pages, size=src.size, dtype=np.int64)
    site_of = np.arange(n_pages, dtype=np.int64) % n_sites
    return WebGraph(n_pages, src, dst, site_of=site_of, external_out=n_ext)


def assert_same_arrays(graph, oracle):
    for name in ("indptr", "indices", "site_of", "external_out"):
        got, want = getattr(graph, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert graph.site_names == oracle.site_names


class TestStreamedGeneration:
    @pytest.mark.parametrize("n_pages,n_sites", [(5000, 40), (333, 333), (100, 1)])
    def test_contest_chunked_matches_eager(self, n_pages, n_sites):
        eager = contest_eager(n_pages, n_sites, seed=7)
        assert_same_arrays(google_contest_like(n_pages, n_sites, seed=7), eager)
        chunked = google_contest_like(n_pages, n_sites, seed=7, chunk_pages=257)
        assert chunked.fingerprint() == eager.fingerprint()
        assert chunked.site_names == eager.site_names

    def test_contest_to_dir_matches_eager(self, tmp_path):
        eager = contest_eager(4000, 60, seed=11)
        streamed = google_contest_like(
            4000, 60, seed=11, out=tmp_path / "wg", chunk_pages=501
        )
        assert streamed.fingerprint() == eager.fingerprint()
        # The returned graph is served straight off the written files.
        assert backing_memmap(streamed.indices) is not None

    def test_erdos_chunked_matches_eager(self, tmp_path):
        eager = erdos_eager(3000, 5, n_sites=30, seed=3)
        assert_same_arrays(erdos_renyi_web(3000, 5, n_sites=30, seed=3), eager)
        chunked = erdos_renyi_web(3000, 5, n_sites=30, seed=3, chunk_pages=119)
        on_disk = erdos_renyi_web(
            3000, 5, n_sites=30, seed=3, out=tmp_path / "wg", chunk_pages=119
        )
        assert chunked.fingerprint() == eager.fingerprint()
        assert on_disk.fingerprint() == eager.fingerprint()

    def test_chunk_size_is_invisible(self):
        prints = {
            google_contest_like(2500, 50, seed=5, chunk_pages=c).fingerprint()
            for c in (64, 1000, 10**6)
        }
        assert len(prints) == 1


class TestDirFormat:
    def test_dir_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        for mmap in (False, True):
            loaded = load_webgraph(path, mmap=mmap)
            assert loaded == tiny_graph
            assert loaded.site_names == tiny_graph.site_names

    def test_mmap_load_is_file_backed(self, tmp_path):
        g = google_contest_like(2000, 25, seed=4)
        path = tmp_path / "wg"
        save_webgraph(g, path)
        mapped = load_webgraph(path, mmap=True)
        assert backing_memmap(mapped.indices) is not None
        assert backing_memmap(mapped.indptr) is not None
        assert mapped.fingerprint() == g.fingerprint()

    def test_mmap_arrays_are_readonly(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        mapped = load_webgraph(path, mmap=True)
        with pytest.raises((ValueError, RuntimeError)):
            mapped.indices[0] = 99

    def test_dir_version_check(self, tmp_path, tiny_graph):
        import json

        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        meta = json.loads((path / "meta.json").read_text())
        meta["version"] = DIR_FORMAT_VERSION + 40
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_webgraph(path)

    def test_corrupt_array_rejected(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        (path / "indices.npy").write_bytes(b"not an npy file")
        with pytest.raises(ValueError):
            load_webgraph(path)

    def test_missing_array_rejected(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        (path / "indptr.npy").unlink()
        with pytest.raises(ValueError):
            load_webgraph(path)

    def test_corrupt_values_rejected_by_validation(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        indices = np.load(path / "indices.npy")
        indices[0] = tiny_graph.n_pages + 7  # out-of-range target
        np.save(path / "indices.npy", indices)
        with pytest.raises(Exception):
            load_webgraph(path, validate=True)

    def test_interrupted_write_leaves_no_target(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        writer = WebGraphDirWriter(
            path,
            indptr=tiny_graph.indptr,
            site_of=tiny_graph.site_of,
            external_out=tiny_graph.external_out,
            site_names=tiny_graph.site_names,
        )
        writer.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_existing_dir(self, tmp_path, tiny_graph):
        path = tmp_path / "wg"
        save_webgraph(tiny_graph, path)
        other = google_contest_like(300, 10, seed=9)
        save_webgraph(other, path)
        assert load_webgraph(path).fingerprint() == other.fingerprint()


class TestNpzHardening:
    def test_npz_write_is_atomic_on_failure(self, tmp_path, tiny_graph, monkeypatch):
        path = tmp_path / "g.npz"
        save_webgraph(tiny_graph, path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(RuntimeError):
            save_webgraph(tiny_graph, path)
        # The failed write never touched the existing file.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.npz"]

    def test_truncated_npz_rejected(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        save_webgraph(tiny_graph, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises((ValueError, OSError)):
            load_webgraph(path)

    def test_missing_field_rejected(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        save_webgraph(tiny_graph, path)
        with np.load(path, allow_pickle=True) as data:
            fields = dict(data)
        del fields["indices"]
        np.savez_compressed(path, **fields)
        with pytest.raises(ValueError, match="indices"):
            load_webgraph(path)


def _csr_bytes(m):
    return (m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes())


class TestStreamedOperators:
    @pytest.mark.parametrize("strategy", ["site", "url", "random", "ldg"])
    def test_group_blocks_streamed_matches_eager(self, strategy, contest_small, tmp_path):
        """One builder: a memory-mapped graph read in small chunks gives
        the operators of the in-memory graph read in one."""
        from repro.linalg.operators import group_blocks

        part = make_partition(contest_small, 6, strategy, seed=1)
        eager = group_blocks(contest_small, part)
        save_webgraph(contest_small, tmp_path / "wg")
        mapped = load_webgraph(tmp_path / "wg", mmap=True)
        streamed = group_blocks(mapped, part, chunk_edges=777)

        assert _csr_bytes(eager.diag_stack) == _csr_bytes(streamed.diag_stack)
        assert _csr_bytes(eager.cut) == _csr_bytes(streamed.cut)
        for name in ("row_map", "pair_src", "pair_dst", "pair_start", "pair_records"):
            a, b = getattr(eager, name), getattr(streamed, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for a, b in zip(eager.diag, streamed.diag):
            assert _csr_bytes(a) == _csr_bytes(b)
        assert list(eager.cross) == list(streamed.cross)
        for key, a in eager.cross.items():
            assert _csr_bytes(a) == _csr_bytes(streamed.cross[key])


class TestMmapRankingIdentity:
    def test_pagerank_identical_on_mmap_graph(self, tmp_path):
        from repro.core.pagerank import pagerank_open

        g = google_contest_like(3000, 50, seed=13)
        path = tmp_path / "wg"
        save_webgraph(g, path)
        mapped = load_webgraph(path, mmap=True)
        assert mapped.fingerprint() == g.fingerprint()
        a = pagerank_open(g).ranks
        b = pagerank_open(mapped).ranks
        assert a.tobytes() == b.tobytes()

    def test_flat_engine_identical_on_mmap_graph(self, tmp_path):
        from repro.core.coordinator import run_distributed_pagerank

        g = google_contest_like(3000, 50, seed=13)
        path = tmp_path / "wg"
        save_webgraph(g, path)
        mapped = load_webgraph(path, mmap=True)
        reference = np.full(g.n_pages, 1.0 / g.n_pages)

        def run(graph):
            return run_distributed_pagerank(
                graph,
                n_groups=8,
                algorithm="dpr1",
                transport="indirect",
                overlay="pastry",
                t1=6.0,
                t2=6.0,
                seed=17,
                schedule="sync",
                sample_interval=6.0,
                engine="flat",
                partition=make_partition(graph, 8, "site"),
                reference=reference,
                max_time=21.0,
            )

        assert run(g).ranks.tobytes() == run(mapped).ranks.tobytes()


class TestSharedMemoryPassThrough:
    def test_mmap_graph_ships_paths_not_segments(self, tmp_path):
        from repro.parallel.sharedmem import SharedWorkload, attach_workload

        g = google_contest_like(1500, 20, seed=21)
        path = tmp_path / "wg"
        save_webgraph(g, path)
        mapped = load_webgraph(path, mmap=True)
        with SharedWorkload(mapped, {}) as workload:
            spec = workload.spec()
            entries = spec["graph"]["arrays"]
            assert "mmap_path" in entries["indices"]
            assert "mmap_path" in entries["indptr"]
            keepalive = []
            attached, _ = attach_workload(spec, keepalive)
            assert attached.fingerprint() == g.fingerprint()

    def test_inmemory_graph_still_uses_shm(self, contest_small):
        from repro.parallel.sharedmem import SharedWorkload, attach_workload

        with SharedWorkload(contest_small, {}) as workload:
            spec = workload.spec()
            if workload.uses_shm:  # shm can be unavailable in sandboxes
                entries = spec["graph"]["arrays"]
                assert all("name" in e for e in entries.values())
            keepalive = []
            attached, _ = attach_workload(spec, keepalive)
            assert attached.fingerprint() == contest_small.fingerprint()


class TestChunkedFingerprint:
    def test_matches_monolithic_digest(self, contest_small):
        import hashlib

        h = hashlib.sha1()
        h.update(str(contest_small.n_pages).encode())
        for arr in (
            contest_small.indptr,
            contest_small.indices,
            contest_small.site_of,
            contest_small.external_out,
        ):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        h.update("\x00".join(contest_small.site_names).encode("utf-8"))
        assert contest_small.fingerprint() == h.hexdigest()
