"""Synthetic web-graph generators.

The paper evaluates on the Google programming-contest dataset: ~1M
HTML pages from 100 ``edu`` sites, ~15M total links of which only ~7M
point at pages inside the dataset.  The dataset is not redistributable,
so :func:`google_contest_like` synthesizes graphs matched to those
aggregate statistics:

* configurable page/site counts, power-law site sizes;
* heavy-tailed out-degrees with a configurable mean (paper: ~15);
* a configurable fraction of link targets *outside* the crawl
  (paper: 8/15), which creates the open-system rank leak;
* of the internal links, a configurable fraction intra-site
  (paper cites [16]: ~90%), which is what makes hash-by-site
  partitioning cheap;
* Zipf-like target popularity inside each site, so rank mass is skewed
  like a real web graph.

Several tiny deterministic generators (ring, star, complete, two-site)
are provided for unit tests where exact PageRank values are known in
closed form.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.graph.webgraph import WebGraph
from repro.utils.rng import as_generator, RngLike
from repro.utils.validation import (
    check_positive,
    check_probability,
)

__all__ = [
    "google_contest_like",
    "erdos_renyi_web",
    "ring_web",
    "star_web",
    "complete_web",
    "two_site_web",
    "powerlaw_cluster_web",
    "DEFAULT_CHUNK_PAGES",
]

#: Pages per edge block of the generators' blocked build.  At the
#: default mean out-degree this bounds the working set of transient
#: edge-block arrays (sources, sites, Zipf draws, targets, scatter
#: slots) near 10 MB per chunk.
DEFAULT_CHUNK_PAGES = 1 << 16


def _zipf_indices(
    rng: np.random.Generator, n_draws: int, domain: np.ndarray, exponent: float
) -> np.ndarray:
    """Vectorized approximate-Zipf sampling.

    For each draw ``i`` return an integer in ``[0, domain[i])`` whose
    distribution follows weights ``(k+1)^(-exponent)``.  Uses the
    continuous inverse-CDF approximation of the discrete Zipf law,
    which is accurate enough for workload generation and is fully
    vectorized (no per-draw Python loop).
    """
    if n_draws == 0:
        return np.zeros(0, dtype=np.int64)
    m = domain.astype(np.float64)
    u = rng.random(n_draws)
    if abs(exponent - 1.0) < 1e-9:
        # CDF ~ log(k+1)/log(m+1)
        k = np.expm1(u * np.log1p(m))
    else:
        b = 1.0 - exponent
        k = np.power(u * (np.power(m + 1.0, b) - 1.0) + 1.0, 1.0 / b) - 1.0
    idx = np.floor(k).astype(np.int64)
    return np.clip(idx, 0, domain - 1)


def _release_written(writer, lo: int, hi: int) -> None:
    """Flush a just-written range of a dir writer's indices memmap and
    hand its pages back to the OS, keeping streamed builds' resident
    set at one chunk.  No-op for in-memory builds (``writer is None``);
    data is safe because ``flush`` makes the pages clean before
    ``MADV_DONTNEED`` drops them (later reads repopulate from the
    file).
    """
    if writer is None:
        return
    from repro.graph.io import madvise_dontneed

    writer.indices.flush()
    madvise_dontneed(writer.indices, lo, hi)


def _edge_slots(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """CSR write positions: ``counts[i]`` consecutive slots at ``starts[i]``.

    Lets a streaming generator scatter one block of edges into its
    final CSR location (leaving gaps for edges of a later phase)
    without ever sorting a global edge list.
    """
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    ramp = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return np.repeat(starts, counts) + ramp


def _check_chunk_pages(chunk_pages: Optional[int]) -> int:
    chunk_pages = chunk_pages or DEFAULT_CHUNK_PAGES
    if chunk_pages < 1:
        raise ValueError("chunk_pages must be >= 1")
    return chunk_pages


def _indices_sink(out, indptr: np.ndarray, meta: dict):
    """Where a blocked build writes its CSR indices: ``(writer,
    indices)`` — an ``.npy``-directory writer under ``out`` and its
    indices memmap, or ``None`` and a fresh in-memory array."""
    if out is None:
        return None, np.empty(int(indptr[-1]), dtype=np.int64)
    from repro.graph.io import WebGraphDirWriter

    writer = WebGraphDirWriter(out, indptr=indptr, **meta)
    return writer, writer.indices


def _finish(writer, n_pages: int, indptr, indices, meta: dict) -> WebGraph:
    """The built graph: the writer's memory-mapped load, or the
    in-memory arrays adopted as they are."""
    if writer is not None:
        return writer.finalize(mmap=True)
    return WebGraph.from_csr(
        n_pages, indptr, indices, **meta, copy=False, validate=False
    )


def google_contest_like(
    n_pages: int = 10_000,
    n_sites: int = 100,
    *,
    mean_out_degree: float = 15.0,
    internal_link_fraction: float = 7.0 / 15.0,
    intra_site_fraction: float = 0.9,
    degree_sigma: float = 1.0,
    site_size_exponent: float = 0.9,
    popularity_exponent: float = 0.8,
    seed: RngLike = 0,
    out: Optional[Union[str, os.PathLike]] = None,
    chunk_pages: Optional[int] = None,
) -> WebGraph:
    """Generate a web graph with the paper dataset's aggregate shape.

    Parameters
    ----------
    n_pages, n_sites:
        Crawl size.  The paper's dataset is ~1M pages / 100 sites; the
        default is scaled down for interactive use — all statistics are
        scale-free.
    mean_out_degree:
        Mean number of out-links per page, counting links that leave
        the crawl (paper: 15M links / 1M pages = 15).
    internal_link_fraction:
        Probability that a link's target is inside the crawl
        (paper: 7M/15M).  The remainder becomes ``external_out``.
    intra_site_fraction:
        Of internal links, the fraction targeting the same site
        (paper cites ~90%).
    degree_sigma:
        Log-normal sigma of the out-degree distribution (heavier tail
        with larger sigma).
    site_size_exponent:
        Zipf exponent of site sizes (0 = equal-size sites).
    popularity_exponent:
        Zipf exponent of within-site target popularity (0 = uniform).
    seed:
        Seed or generator for reproducibility.
    out:
        Stream the graph into this ``.npy``-directory path (see
        :mod:`repro.graph.io`) and return the memory-mapped load
        (peak memory O(n_pages) plus one edge block, not O(n_links));
        ``None`` builds the indices array in memory.
    chunk_pages:
        Pages per edge block (default :data:`DEFAULT_CHUNK_PAGES`).
        The graph does not depend on it.

    The build never materializes a global edge list:

    * per-page arrays (degrees, external/intra/inter splits) are single
      vectorized draws;
    * intra-site targets are drawn in page-order blocks — numpy's
      ``Generator.random`` consumes the bitstream sequentially, so N
      blocked draws equal one draw of size N, and the graph is the
      same for every block size — and scattered into their final CSR
      slots (:func:`_edge_slots`), leaving per-page gaps for the
      inter-site links;
    * inter-site targets are one global phase: the collision resample
      loop keys off the *global* ``bad`` pattern, which no blocked
      schedule can reproduce.  Inter links are ~
      ``(1-intra_site_fraction)`` of internal links (paper: 10%), so
      this phase is small compared to the intra stream.

    Each page's intra targets (in draw order) precede its inter
    targets, the layout a stable sort of ``concat([intra, inter])`` by
    source gives (``tests/test_outofcore.py`` keeps that edge-list
    build as the oracle).

    Returns
    -------
    WebGraph
    """
    if n_pages <= 0:
        raise ValueError("n_pages must be positive")
    if not 1 <= n_sites <= n_pages:
        raise ValueError("need 1 <= n_sites <= n_pages")
    check_positive(mean_out_degree, "mean_out_degree")
    check_probability(internal_link_fraction, "internal_link_fraction")
    check_probability(intra_site_fraction, "intra_site_fraction")
    chunk_pages = _check_chunk_pages(chunk_pages)
    rng = as_generator(seed)

    # --- site sizes: Zipf weights, at least one page per site ---------
    weights = np.power(np.arange(1, n_sites + 1, dtype=np.float64), -site_size_exponent)
    weights /= weights.sum()
    sizes = np.maximum(1, np.floor(weights * n_pages).astype(np.int64))
    # Fix rounding drift by adjusting the largest sites.
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
    site_names = tuple(f"www.site{i:04d}.edu" for i in range(n_sites))

    # --- out-degrees: log-normal with the requested mean --------------
    mu = np.log(mean_out_degree) - 0.5 * degree_sigma**2
    degrees = np.floor(rng.lognormal(mu, degree_sigma, size=n_pages)).astype(np.int64)
    degrees = np.clip(degrees, 0, max(1, n_pages // 2))

    # --- split each page's links into external / intra / inter --------
    n_ext = rng.binomial(degrees, 1.0 - internal_link_fraction)
    n_int = degrees - n_ext
    n_intra = rng.binomial(n_int, intra_site_fraction)
    n_inter = n_int - n_intra
    if n_sites == 1:
        # No other site exists: inter-site links fold into intra-site.
        n_intra = n_intra + n_inter
        n_inter = np.zeros_like(n_inter)
    # Only the split counts matter from here on; at 10M pages each
    # retired int64 array is 80 MB of peak RSS.
    del degrees, n_int

    indptr = np.zeros(n_pages + 1, dtype=np.int64)
    np.cumsum(n_intra + n_inter, out=indptr[1:])
    meta = dict(site_of=site_of, external_out=n_ext, site_names=site_names)
    writer, indices = _indices_sink(out, indptr, meta)
    try:
        # --- intra-site links, one page block at a time ----------------
        for p0 in range(0, n_pages, chunk_pages):
            p1 = min(p0 + chunk_pages, n_pages)
            cnt = n_intra[p0:p1]
            m = int(cnt.sum())
            if m == 0:
                continue
            src = np.repeat(np.arange(p0, p1, dtype=np.int64), cnt)
            src_site = site_of[src]
            dom = sizes[src_site]
            local = _zipf_indices(rng, m, dom, popularity_exponent)
            dst = site_start[src_site] + local
            # Retarget self-loops deterministically to the next page
            # in-site (single-page sites keep the loop; it's harmless to
            # PageRank).
            loops = dst == src
            if loops.any():
                fix = (local[loops] + 1) % dom[loops]
                dst[loops] = site_start[src_site[loops]] + fix
            indices[_edge_slots(indptr[p0:p1], cnt)] = dst
            _release_written(writer, int(indptr[p0]), int(indptr[p1]))
            del src, src_site, dom, local, dst, loops

        # --- inter-site links: drawn in one global phase (the target
        # resampling consumes RNG state data-dependently, so chunked
        # draws would change the bitstream), written chunk by chunk ---
        if int(n_inter.sum()):
            inter_src = np.repeat(np.arange(n_pages, dtype=np.int64), n_inter)
            site_w = sizes.astype(np.float64)
            site_w /= site_w.sum()
            tgt_site = rng.choice(n_sites, size=inter_src.size, p=site_w)
            # Resample collisions with the source's own site a few
            # times; leftovers are shifted to the next site (keeps
            # vectorization).
            own = site_of[inter_src]
            for _ in range(4):
                bad = tgt_site == own
                if not bad.any():
                    break
                tgt_site[bad] = rng.choice(n_sites, size=int(bad.sum()), p=site_w)
            still = tgt_site == own
            tgt_site[still] = (tgt_site[still] + 1) % n_sites
            local = _zipf_indices(rng, inter_src.size, sizes[tgt_site], popularity_exponent)
            inter_dst = site_start[tgt_site] + local
            del inter_src, tgt_site, own, local
            inter_off = np.zeros(n_pages + 1, dtype=np.int64)
            np.cumsum(n_inter, out=inter_off[1:])
            for p0 in range(0, n_pages, chunk_pages):
                p1 = min(p0 + chunk_pages, n_pages)
                lo, hi = int(inter_off[p0]), int(inter_off[p1])
                if hi > lo:
                    slots = _edge_slots(
                        indptr[p0:p1] + n_intra[p0:p1], n_inter[p0:p1]
                    )
                    indices[slots] = inter_dst[lo:hi]
                _release_written(writer, int(indptr[p0]), int(indptr[p1]))

        return _finish(writer, n_pages, indptr, indices, meta)
    except BaseException:
        if writer is not None:
            writer.abort()
        raise


def erdos_renyi_web(
    n_pages: int,
    mean_out_degree: float = 8.0,
    *,
    n_sites: int = 1,
    external_fraction: float = 0.0,
    seed: RngLike = 0,
    out: Optional[Union[str, os.PathLike]] = None,
    chunk_pages: Optional[int] = None,
) -> WebGraph:
    """Uniform random graph: each page gets ``Poisson(mean)`` uniform targets.

    ``out`` / ``chunk_pages`` as for :func:`google_contest_like`:
    uniform targets are drawn in page-order blocks, which consumes the
    RNG bitstream exactly like one global draw, so the graph does not
    depend on the block size.
    """
    check_positive(mean_out_degree, "mean_out_degree")
    check_probability(external_fraction, "external_fraction")
    chunk_pages = _check_chunk_pages(chunk_pages)
    rng = as_generator(seed)
    degrees = rng.poisson(mean_out_degree, size=n_pages)
    n_ext = rng.binomial(degrees, external_fraction)
    n_int = degrees - n_ext
    site_of = np.arange(n_pages, dtype=np.int64) % n_sites

    indptr = np.zeros(n_pages + 1, dtype=np.int64)
    np.cumsum(n_int, out=indptr[1:])
    # WebGraph's default naming, which covers only the site ids
    # actually present (n_pages can be < n_sites).
    n_named = int(site_of.max()) + 1 if n_pages else 0
    meta = dict(
        site_of=site_of, external_out=n_ext,
        site_names=tuple(f"site{i:04d}.example.edu" for i in range(n_named)),
    )
    writer, indices = _indices_sink(out, indptr, meta)
    try:
        for p0 in range(0, n_pages, chunk_pages):
            p1 = min(p0 + chunk_pages, n_pages)
            m = int(indptr[p1] - indptr[p0])
            if m:
                indices[indptr[p0] : indptr[p1]] = rng.integers(
                    0, n_pages, size=m, dtype=np.int64
                )
                _release_written(writer, int(indptr[p0]), int(indptr[p1]))
        return _finish(writer, n_pages, indptr, indices, meta)
    except BaseException:
        if writer is not None:
            writer.abort()
        raise


def ring_web(n_pages: int, *, n_sites: int = 1) -> WebGraph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``.

    Closed-system PageRank is exactly uniform on a ring, making this
    the canonical correctness fixture.
    """
    if n_pages < 1:
        raise ValueError("ring needs at least one page")
    src = np.arange(n_pages, dtype=np.int64)
    dst = (src + 1) % n_pages
    site_of = src % n_sites
    return WebGraph(n_pages, src, dst, site_of=site_of)


def star_web(n_leaves: int) -> WebGraph:
    """Page 0 is the hub; each leaf links to the hub and back.

    PageRank is known in closed form, exercising skewed-rank paths.
    """
    if n_leaves < 1:
        raise ValueError("star needs at least one leaf")
    leaves = np.arange(1, n_leaves + 1, dtype=np.int64)
    src = np.concatenate([leaves, np.zeros(n_leaves, dtype=np.int64)])
    dst = np.concatenate([np.zeros(n_leaves, dtype=np.int64), leaves])
    return WebGraph(n_leaves + 1, src, dst)


def complete_web(n_pages: int) -> WebGraph:
    """Complete directed graph (no self links); PageRank is uniform."""
    if n_pages < 2:
        raise ValueError("complete graph needs at least two pages")
    idx = np.arange(n_pages, dtype=np.int64)
    src = np.repeat(idx, n_pages - 1)
    dst = np.concatenate([np.delete(idx, i) for i in range(n_pages)])
    return WebGraph(n_pages, src, dst)


def two_site_web(
    pages_per_site: int = 8, cross_links: int = 1, *, seed: RngLike = 0
) -> WebGraph:
    """Two densely linked sites joined by a few cross-site links.

    The minimal fixture for partition-cut experiments: hash-by-site
    partitioning yields exactly ``cross_links`` cut edges whenever the
    sites land in different groups.
    """
    if pages_per_site < 2:
        raise ValueError("need at least 2 pages per site")
    rng = as_generator(seed)
    n = 2 * pages_per_site
    src_list = []
    dst_list = []
    for s in range(2):
        base = s * pages_per_site
        for i in range(pages_per_site):
            # Ring inside the site plus one chord for density.
            src_list.append(base + i)
            dst_list.append(base + (i + 1) % pages_per_site)
            src_list.append(base + i)
            dst_list.append(base + (i + 2) % pages_per_site)
    for _ in range(cross_links):
        u = int(rng.integers(0, pages_per_site))
        v = int(rng.integers(0, pages_per_site))
        src_list.append(u)
        dst_list.append(pages_per_site + v)
    site_of = np.repeat(np.arange(2, dtype=np.int64), pages_per_site)
    return WebGraph(
        n,
        np.asarray(src_list),
        np.asarray(dst_list),
        site_of=site_of,
        site_names=("alpha.example.edu", "beta.example.edu"),
    )


def powerlaw_cluster_web(
    n_pages: int,
    out_links: int = 5,
    *,
    n_sites: int = 1,
    seed: RngLike = 0,
) -> WebGraph:
    """Preferential-attachment graph (Barabási–Albert flavour).

    Each new page links to ``out_links`` existing pages chosen
    proportionally to their current in-degree (+1 smoothing).  Produces
    the power-law in-degree distribution typical of web graphs without
    the site structure of :func:`google_contest_like`.
    """
    if n_pages < 2:
        raise ValueError("need at least 2 pages")
    if out_links < 1:
        raise ValueError("out_links must be >= 1")
    rng = as_generator(seed)
    src_list: list = []
    dst_list: list = []
    # Repeated-nodes trick: sampling uniformly from the endpoint pool
    # approximates degree-proportional sampling in O(1) per edge.
    pool = [0]
    for v in range(1, n_pages):
        k = min(out_links, v)
        targets = set()
        while len(targets) < k:
            if rng.random() < 0.2 or not pool:
                targets.add(int(rng.integers(0, v)))
            else:
                targets.add(int(pool[int(rng.integers(0, len(pool)))]))
        for t in targets:
            src_list.append(v)
            dst_list.append(t)
            pool.append(t)
        pool.append(v)
    site_of = np.arange(n_pages, dtype=np.int64) % n_sites
    return WebGraph(
        n_pages,
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        site_of=site_of,
    )
