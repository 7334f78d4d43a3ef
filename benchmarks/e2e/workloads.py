"""The six workloads and the one pipeline every workload walks.

Every workload is the same pipeline (ROADMAP aim 1) with a different
engine and input source doing the work::

    inputs -> partition -> reference -> engine build [-> server build]   set-up
    engine.run(target_relative_error=eps)                                timed
    phases x (mutate -> sync -> refresh -> 800 queries)                  serving tail

The rank workloads publish the engine's ranks into a fresh
``RankIndex`` (three phases: refresh = bulk index load + first top-k);
``serve-60k`` drives a live ``RankServer`` through mutation phases.
So every end-to-end metric is measured on every workload, and each
layer dominates one workload while being near idle in another.

All inputs are a function of ``--seed``; the program only ever receives
the generated graph / partition / config.  The web graph itself is
seeded per workload, not from ``--seed``: rounds-to-eps of the
generated graphs is bimodal in the graph seed (24 to 64 rounds at 1e-8
over ten seeds, on any partition), which would put a 2x spread between
seeds on ``time_to_eps_s`` and ``wire_bytes_to_eps`` and hide any
regression.  ``--seed`` drives everything else that is random: overlay
ids, walk tokens, the crawl order, true-web churn and the queried
pages.  ``event-100k`` and ``churn-100k`` also pin the engine seed
(see their definitions): async waits, loss and crash draws change how
much work the run is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.engine import MonteCarloEngine, SynchronousEngine
from repro.core.hybrid import HybridEngine
from repro.core.pagerank import pagerank_open
from repro.crawl import Crawler, TrueWeb
from repro.experiments.chaos import CHURN_SCENARIO
from repro.graph import google_contest_like, make_partition
from repro.graph.io import load_webgraph
from repro.graph.stats import partition_cut_statistics
from repro.linalg import mc_error_tolerance
from repro.linalg.norms import relative_l1_error
from repro.serve import CrawlFeed, RankServer
from repro.serve.index import (
    RankIndex,
    brute_force_percentile,
    brute_force_rank_of,
    brute_force_top_k,
)

from trace import Tracer

__all__ = ["WORKLOADS", "Workload", "Repeat", "Checks", "derive_seeds", "run_repeat"]

ENGINES = {
    "flat": SynchronousEngine,
    "event": DistributedRun,
    "hybrid": HybridEngine,
    "mc": MonteCarloEngine,
}

#: Simulated-time horizon; every workload stops on its own criterion
#: (target error / walk exhaustion) long before it.
MAX_TIME = 1e6
#: Staleness budget of the serving tier.
SERVE_EPSILON = 1e-3
#: Closed loop, one client: queries per phase in a fixed interleaving
#: of 60 % top-k (0), 30 % rank-of (1) and 10 % percentile (2).  The
#: mix is a pattern, not a draw: a drawn mix moved ``query_p50_us`` by
#: 10 % between seeds.  Pages and percentiles come from the query seed.
QUERIES_PER_PHASE = 800
QUERY_PATTERN = (0, 1, 0, 0, 1, 0, 2, 0, 1, 0)
#: Every CHECK_EVERY-th answer is verified against the brute-force
#: oracle; coprime to the pattern length so every kind is checked.
CHECK_EVERY = 47
TOP_K = 10
#: Load generator of ``serve-60k``: true-web edits and crawl budget per phase.
CHURN_PER_PHASE = 60
CRAWL_BUDGET = 150

_SYNC = dict(schedule="sync", t1=6.0, t2=6.0, sample_interval=6.0)
_FLAT = dict(
    algorithm="dpr2", transport="direct", overlay="pastry",
    partition_strategy="site", **_SYNC,
)


@dataclass(frozen=True)
class Size:
    pages: int
    sites: int
    groups: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str
    #: "memory" (eager generator), "stream" (generator streamed to an
    #: .npy directory, then memory-mapped) or "crawl" (TrueWeb + crawler).
    source: str
    full: Size
    quick: Size
    #: Target relative error; None runs the mc engine to walk exhaustion.
    epsilon: Optional[float]
    #: Seed of the web graph (see the module docstring).
    graph_seed: int
    config: Dict[str, object] = field(default_factory=dict)
    #: Refresh + query-burst rounds of the serving tail per walk.  A
    #: rank workload publishes into a fresh index each phase, so that a
    #: measurement of 3-4 walks still pools about ten refreshes.
    phases: int = 3
    #: ``DistributedConfig.seed``; None derives it from ``--seed``.
    engine_seed: Optional[int] = None


_QUICK = Size(10_000, 200, 16)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "flat-300k",
        "compute kernel: whole-system block SpMV (csr_matvec_into) on a streamed, "
        "memory-mapped graph; set-up is group_blocks; codec, fault plane and simulator idle",
        "flat", "stream", Size(300_000, 6_000, 64), _QUICK, 1e-8, 17, _FLAT,
    ),
    Workload(
        "codec-100k",
        "same engine and round loop as flat but codec=delta: per-pair AdaptiveCodec.encode and "
        "the transport replay dominate, compute is a few percent; only place wire bytes can fall",
        "flat", "memory", Size(100_000, 2_000, 64), _QUICK, 1e-8, 17,
        dict(_FLAT, codec="delta"),
    ),
    Workload(
        "event-100k",
        "the paper's regime (Fig 6-8): event engine, dpr1, async waits, 30% message loss, "
        "overlay-routed indirect transport; simulator events, DPRNode steps, jacobi_solve, routing",
        "event", "memory", Size(100_000, 2_000, 32), _QUICK, 1e-6, 17,
        dict(
            algorithm="dpr1", schedule="async", t1=0.0, t2=15.0, delivery_prob=0.7,
            transport="indirect", overlay="pastry", partition_strategy="site",
        ),
        # Async time-to-eps is a random variable of the wait and loss
        # draws: over ten engine seeds the wall spread 80 % (22 % with
        # the per-group mean waits pinned), so this workload pins them.
        engine_seed=2003,
    ),
    Workload(
        "churn-100k",
        "fault plane: hybrid engine on the EXPERIMENTS.md churn scenario (ARQ, loss, ACK loss, "
        "duplicates, crashes, heartbeat, checkpoint, takeover) over the same flat kernels as flat",
        "hybrid", "memory", Size(100_000, 2_000, 64), _QUICK, 1e-9, 11,
        dict(CHURN_SCENARIO),
        # Crash draws set how many groups die (Binomial(64, 0.25)):
        # wire bytes spread 3.3 % over engine seeds 11-20.  Seed 5 is
        # the one bench_chaos uses.
        engine_seed=5,
    ),
    Workload(
        "mc-100k",
        "fourth engine: Monte-Carlo walks (linalg.montecarlo) to walk exhaustion with its own "
        "sample/stop loop; bypassed by every Jacobi optimisation",
        "mc", "memory", Size(100_000, 2_000, 64), _QUICK, None, 17,
        dict(
            walks_per_page=32, transport="direct", overlay="pastry",
            partition_strategy="site", **_SYNC,
        ),
    ),
    Workload(
        "serve-60k",
        "writes beside reads on serve.index: crawl feed -> RankServer.apply (incremental "
        "re-rank) -> queries that pay the lazy bucket re-sort after every apply; closed loop, 1 client",
        "flat", "crawl", Size(60_000, 480, 16), Size(10_000, 80, 16), 1e-8, 7, _FLAT,
        phases=8,
    ),
)


def derive_seeds(seed: int) -> Dict[str, int]:
    """Partition, engine, crawler, churn and query seeds from ``--seed``."""
    labels = ("partition", "engine", "crawler", "churn", "queries")
    state = np.random.SeedSequence(seed).generate_state(len(labels))
    return {label: int(s) for label, s in zip(labels, state)}


class Checks:
    """Operations checked for correctness: one per run or checked query."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class Clock:
    """Wall seconds of every pass through a pipeline stage; each is also a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = {}

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with self.tracer.span(name):
            t0 = perf_counter()
            try:
                yield
            finally:
                self.samples.setdefault(name, []).append(perf_counter() - t0)

    def total(self) -> float:
        return sum(sum(v) for v in self.samples.values())


@dataclass
class Repeat:
    """Everything one walk of the pipeline measured."""

    setup_s: float
    run_s: float
    refresh_s: List[float]
    latencies_s: np.ndarray
    counters: Dict[str, float]
    #: Counts that must repeat exactly for one seed.
    signature: Tuple[int, ...]

    @property
    def timed_wall_s(self) -> float:
        return self.run_s + sum(self.refresh_s) + float(self.latencies_s.sum())


class QueryLog:
    """Latencies of the query bursts of one walk."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.bursts: List[np.ndarray] = []
        #: First rank-of and first percentile latency of each burst:
        #: the queries that pay the lazy re-sort after a refresh.
        self.cold: List[float] = []

    def burst(self, target, values: np.ndarray, checks: Checks) -> None:
        """One client's closed-loop burst of QUERIES_PER_PHASE queries.

        ``target`` answers ``top_k`` / ``rank_of`` / ``percentile`` (a
        ``RankIndex`` or a ``RankServer``); ``values`` is the rank
        vector it serves, for the brute-force oracle.
        """
        n = QUERIES_PER_PHASE
        kinds = QUERY_PATTERN * (n // len(QUERY_PATTERN))
        pages = self.rng.integers(0, values.size, size=n).tolist()
        qs = self.rng.uniform(0.0, 100.0, size=n).tolist()
        lat = np.empty(n, dtype=np.float64)
        cold: Dict[int, float] = {}
        for i in range(n):
            kind, page, q = kinds[i], pages[i], qs[i]
            if kind == 0:
                t0 = perf_counter()
                out = target.top_k(TOP_K)
                dt = perf_counter() - t0
            elif kind == 1:
                t0 = perf_counter()
                out = target.rank_of(page)
                dt = perf_counter() - t0
            else:
                t0 = perf_counter()
                out = target.percentile(q)
                dt = perf_counter() - t0
            lat[i] = dt
            if kind and kind not in cold:
                cold[kind] = dt
            if i % CHECK_EVERY == 0:
                if kind == 0:
                    want_p, want_v = brute_force_top_k(values, TOP_K)
                    ok = np.array_equal(out[0], want_p) and np.array_equal(out[1], want_v)
                elif kind == 1:
                    ok = out == brute_force_rank_of(values, page)
                else:
                    ok = out == brute_force_percentile(values, q)
                checks.check(bool(ok), f"query {i} kind {kind} disagrees with brute force")
        self.bursts.append(lat)
        self.cold.extend(cold.values())


def _inputs(wl: Workload, size: Size, seeds: Dict[str, int], clock: Clock, workdir: str):
    """The workload's graph (and, for a crawl, the live feed behind it)."""
    if wl.source == "crawl":
        n_web = size.pages * 6 // 5
        with clock.stage("generate"):
            web = TrueWeb(n_web, size.sites, seed=wl.graph_seed)
        with clock.stage("crawl"):
            crawler = Crawler(
                web, seeds=[0, n_web // 3, 2 * n_web // 3], seed=seeds["crawler"]
            )
            crawler.crawl_until(size.pages)
            feed = CrawlFeed(crawler)
            graph = feed.initial_graph()
        return graph, (web, crawler, feed)
    if wl.source == "stream":
        path = os.path.join(workdir, "graph")
        shutil.rmtree(path, ignore_errors=True)
        with clock.stage("generate"):
            google_contest_like(size.pages, size.sites, seed=wl.graph_seed, out=path)
        with clock.stage("load"):
            graph = load_webgraph(path, mmap=True)
        return graph, None
    with clock.stage("generate"):
        graph = google_contest_like(size.pages, size.sites, seed=wl.graph_seed)
    return graph, None


def _run_counters(wl: Workload, res) -> Dict[str, float]:
    """The counts the program reports about its own run."""
    traffic = res.traffic
    counters = dict(
        rounds=res.max_outer_iterations,
        data_bytes=traffic.data_bytes,
        lookup_bytes=traffic.lookup_bytes,
        ack_bytes=traffic.ack_bytes,
        data_messages=traffic.data_messages,
        dropped_updates=res.dropped_updates,
        retransmits=res.retransmits,
        gave_up=res.gave_up,
        checkpoint_saves=res.checkpoint_saves,
        takeovers=res.takeovers,
        deaths_detected=res.deaths_detected,
        fast_rounds=res.fast_rounds,
        replayed_rounds=res.replayed_rounds,
        is_hybrid=float(wl.engine == "hybrid"),
    )
    if res.codec_stats is not None:
        counters["codec_frames"] = res.codec_stats["frames"]
        counters["codec_suppressed"] = res.codec_stats["suppressed_frames"]
    # RunResult.inner_sweeps holds Jacobi sweeps, or walk-token steps under mc.
    sweeps_key = "token_steps" if wl.engine == "mc" else "jacobi_inner_sweeps"
    counters[sweeps_key] = int(res.inner_sweeps.sum())
    return counters


def _check_run(wl, config, build, res, reference, checks, counters, first) -> None:
    """The run's own correctness contracts, one operation each.

    ``build(config)`` constructs an engine on the walk's inputs.
    """
    if wl.engine == "mc":
        l1 = relative_l1_error(res.ranks, reference)
        counters["mc_l1_error"] = l1
        tol = mc_error_tolerance(reference, config.walks_per_page)
        checks.check(l1 <= tol, f"mc L1 error {l1:.4g} above its tolerance {tol:.4g}")
    else:
        err = res.final_relative_error
        checks.check(
            bool(res.converged) and err <= wl.epsilon,
            f"run stopped at relative error {err:.3g}, target {wl.epsilon:g}",
        )
    if config.crash_prob > 0.0:
        checks.check(
            res.takeovers == res.crashed_groups,
            f"{res.crashed_groups} groups crashed but {res.takeovers} were taken over",
        )
    if config.codec != "none" and first:
        # The lossless contract: coded ranks are byte-identical to an
        # uncoded run of the same inputs.  Once per process, untimed.
        plain = build(dataclasses.replace(config, codec="none")).run(
            max_time=MAX_TIME, target_relative_error=wl.epsilon
        )
        checks.check(
            plain.ranks.tobytes() == res.ranks.tobytes(),
            "codec ranks differ from the codec=none run",
        )


def _publish(
    wl: Workload, ranks: np.ndarray, clock: Clock, queries: QueryLog, checks: Checks
) -> None:
    """Serving tail of a rank workload: load a fresh index, then query it."""
    pages = np.arange(ranks.size, dtype=np.int64)
    for _ in range(wl.phases):
        index = RankIndex()
        with clock.stage("refresh"):
            index.update(pages, ranks)
            index.top_k(TOP_K)
        with clock.stage("queries"):
            queries.burst(index, ranks, checks)


def _serve(
    wl: Workload, live, server: RankServer, reference: np.ndarray,
    seeds: Dict[str, int], clock: Clock, queries: QueryLog, checks: Checks,
) -> Dict[str, float]:
    """Serving tail of ``serve-60k``: mutation phases against a live server."""
    web, crawler, feed = live
    drift = relative_l1_error(server.ranker.ranks, reference)
    checks.check(
        drift <= SERVE_EPSILON,
        f"served ranks {drift:.3g} from the reference, budget {SERVE_EPSILON:g}",
    )
    sweeps = 0
    fallbacks = 0
    for phase in range(wl.phases):
        with clock.stage("mutate"):
            web.churn(CHURN_PER_PHASE, seed=seeds["churn"] + phase)
            crawler.step(CRAWL_BUDGET)
        with clock.stage("sync"):
            batch = feed.sync()
        with clock.stage("refresh"):
            stats = server.apply(batch)
            server.top_k(TOP_K)
        sweeps += stats.inner_sweeps
        fallbacks += stats.mode == "full"
        stale = server.staleness()
        checks.check(
            stale <= SERVE_EPSILON,
            f"phase {phase}: certified staleness {stale:.3g} over {SERVE_EPSILON:g}",
        )
        with clock.stage("queries"):
            queries.burst(server, server.ranker.ranks, checks)
    return {"serve_inner_sweeps": sweeps, "serve_fallback_share": fallbacks / wl.phases}


def run_repeat(
    wl: Workload,
    size: Size,
    seeds: Dict[str, int],
    tracer: Tracer,
    workdir: str,
    checks: Checks,
    *,
    first: bool,
) -> Repeat:
    """Walk the pipeline once: set up from scratch, rank to eps, serve."""
    clock = Clock(tracer)

    # -- set-up: everything before the timed region ------------------------
    graph, live = _inputs(wl, size, seeds, clock, workdir)
    strategy = str(wl.config["partition_strategy"])
    with clock.stage("partition"):
        partition = make_partition(graph, size.groups, strategy, seed=seeds["partition"])
    with clock.stage("reference"):
        reference = pagerank_open(graph, tol=1e-12).ranks
    engine_seed = seeds["engine"] if wl.engine_seed is None else wl.engine_seed
    config = DistributedConfig(
        n_groups=size.groups, engine=wl.engine, seed=engine_seed, **wl.config
    )

    def build(cfg: DistributedConfig):
        return ENGINES[wl.engine](graph, cfg, partition=partition, reference=reference)

    with clock.stage("build"):
        engine = build(config)
    server = None
    if live is not None:
        with clock.stage("server"):
            server = RankServer(graph, n_groups=size.groups, epsilon=SERVE_EPSILON)
    setup_s = clock.total()

    # -- timed: rank to eps ------------------------------------------------
    with clock.stage("run"):
        res = engine.run(max_time=MAX_TIME, target_relative_error=wl.epsilon)

    counters = _run_counters(wl, res)
    _check_run(wl, config, build, res, reference, checks, counters, first)
    if tracer.enabled:
        counters["cut_fraction"] = partition_cut_statistics(graph, partition).cut_fraction

    # -- serving tail ------------------------------------------------------
    queries = QueryLog(seeds["queries"])
    if server is None:
        _publish(wl, res.ranks, clock, queries, checks)
    else:
        counters.update(_serve(wl, live, server, reference, seeds, clock, queries, checks))
    if queries.cold:
        counters["cold_query_p50_us"] = float(np.median(queries.cold)) * 1e6

    latencies = np.concatenate(queries.bursts)
    wire_bytes = counters["data_bytes"] + counters["lookup_bytes"] + counters["ack_bytes"]
    return Repeat(
        setup_s=setup_s,
        run_s=clock.samples["run"][0],
        refresh_s=clock.samples["refresh"],
        latencies_s=latencies,
        counters=counters,
        signature=(
            int(counters["rounds"]),
            int(wire_bytes),
            int(counters["data_messages"]),
            int(res.inner_sweeps.sum()),
            int(counters.get("serve_inner_sweeps", 0)),
            int(latencies.size),
        ),
    )
