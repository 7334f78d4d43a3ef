"""Command-line interface: reproduce paper results from the shell.

Usage::

    python -m repro fig6   [--pages N] [--sites N] [--groups K] [--seed S]
    python -m repro fig7   [--pages N] [--sites N] [--groups K]
    python -m repro fig8   [--pages N] [--ks 2,10,100]
    python -m repro table1 [--ns 1000,10000,100000]
    python -m repro run    [--pages N] [--groups K] [--algorithm dpr1]
                           [--transport indirect] [--overlay pastry] ...
    python -m repro summary [--pages N] [--sites N]
    python -m repro graphgen --out DIR [--pages N] [--chunk-pages C]
    python -m repro partitions [--pages N] [--groups K] [--graph DIR]
                               [--strategies site,ldg,...] [--cut-only]
    python -m repro engines [--pages N] [--groups K] [--target EPS]
                            [--engines dpr1,dpr2-event,flat,mc]
                            [--walks-per-page R]
    python -m repro chaos   [--pages N] [--groups K] [--target EPS]
                            [--engines event,hybrid]
    python -m repro serve   [--web-pages N] [--crawl N] [--groups K]
                            [--epsilon EPS] [--phases P] [--churn C]
    python -m repro compression [--pages N] [--groups K] [--target EPS]
                                [--comm-epsilon EPS] [--codecs none,delta,...]

Every subcommand prints the same text tables the benches save, so a
user can regenerate any paper artifact without touching pytest.  The
nine experiment subcommands (fig6 … compression) share one handler:
:data:`EXPERIMENT_COMMANDS` maps each one's flags onto the options of
its :data:`repro.parallel.tasks.REGISTRY` declaration and its result
onto the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import fields
from typing import List, Optional

from repro.analysis.reporting import format_table
from repro.core.coordinator import GROUPS, DistributedConfig, config_flag
from repro.utils.validation import BOOLEAN, POSITIVE, Domain, integer

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _name_list(text: str) -> List[str]:
    return [x for x in text.split(",") if x]


def _option(parser, flag: str, domain: Domain, default, help=None) -> None:
    """Declare one option whose value ``domain`` parses and range-checks
    (a switch when the domain is boolean), so an out-of-range string is
    a usage error at parse time."""

    def parse(text: str):
        try:
            return domain.parse(text, "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    if domain is BOOLEAN:
        parser.add_argument(flag, action="store_true", default=default, help=help)
    else:
        parser.add_argument(
            flag, type=parse, choices=domain.choices, default=default, help=help
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (see module docstring for usage)."""
    from repro.experiments import (
        BAKEOFF_STRATEGIES,
        CHAOS_ENGINES,
        COMPRESSION_CONTENDERS,
        ENGINE_CONTENDERS,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Page Ranking in Structured P2P Networks "
        "(ICPP 2003) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive_int = integer(1)

    def add_workload(p):
        p.add_argument("--pages", type=int, default=4000, help="crawl size")
        p.add_argument("--sites", type=int, default=100, help="site count")
        p.add_argument("--seed", type=int, default=2003)

    def add_config(p, *names):
        """Declare the ``repro run`` options of the named config fields
        (all of them, under their group headings, when none is named),
        read off the validity table."""
        sections = {}
        if not names:
            sections = {g: p.add_argument_group(g, text) for g, text in GROUPS.items()}
        for f in fields(DistributedConfig):
            flag, meta = config_flag(f), f.metadata
            # --seed is add_workload's: one seed drives the crawl and the run.
            if flag in (None, "--seed") or (names and f.name not in names):
                continue
            section = sections.get(meta["group"], p)
            _option(section, flag, meta["domain"], f.default, meta["help"])

    def add_cache_dir(p, what="cached tables reproduce byte-identically"):
        p.add_argument(
            "--cache-dir", default=None,
            help="artifact cache directory (default: $REPRO_CACHE_DIR if "
            f"set, else no caching); {what}",
        )

    def add_bakeoff(name, help, contenders, target_help, *, groups=16, max_time=3000.0,
                    max_time_help="simulated-time budget per run"):
        """A bake-off subcommand: one workload (generated or ``--graph``),
        one contender list, one ε target and time budget, one cached table."""
        p = sub.add_parser(name, help=help)
        add_workload(p)
        _option(p, "--groups", positive_int, groups, "ranker count K")
        flag, names = contenders
        p.add_argument(
            flag, type=_name_list, default=list(names),
            help=f"comma-separated names (default: all of {','.join(names)})",
        )
        _option(p, "--target", POSITIVE, 1e-4, target_help)
        _option(p, "--max-time", POSITIVE, max_time, max_time_help)
        p.add_argument(
            "--graph", default=None,
            help="load this saved webgraph (directory → memory-mapped, "
            "*.npz → in-memory) instead of generating one; --pages/--sites "
            "are ignored",
        )
        add_cache_dir(p)
        return p

    p_fig6 = sub.add_parser("fig6", help="relative error vs time (Fig 6)")
    add_workload(p_fig6)
    add_config(p_fig6, "engine", "schedule")
    p_fig6.add_argument("--groups", type=int, default=64)
    p_fig6.add_argument("--max-time", type=float, default=90.0)

    p_fig7 = sub.add_parser("fig7", help="monotone average rank (Fig 7)")
    add_workload(p_fig7)
    add_config(p_fig7, "engine", "schedule")
    p_fig7.add_argument("--groups", type=int, default=100)
    p_fig7.add_argument("--max-time", type=float, default=90.0)

    p_fig8 = sub.add_parser("fig8", help="iterations vs #rankers (Fig 8)")
    add_workload(p_fig8)
    add_config(p_fig8, "engine", "schedule")
    p_fig8.add_argument("--ks", type=_int_list, default=[2, 10, 100, 256])
    p_fig8.add_argument("--max-time", type=float, default=4000.0)

    p_t1 = sub.add_parser("table1", help="iteration interval & bandwidth (Table 1)")
    p_t1.add_argument("--ns", type=_int_list, default=[1000, 10000, 100000])
    p_t1.add_argument("--hop-samples", type=int, default=400)

    p_run = sub.add_parser("run", help="one distributed page-ranking run")
    add_workload(p_run)
    p_run.add_argument("--target", type=float, default=1e-5, help="target relative error")
    p_run.add_argument("--max-time", type=float, default=1000.0)
    add_config(p_run)

    p_sum = sub.add_parser("summary", help="describe a generated crawl")
    add_workload(p_sum)

    p_gen = sub.add_parser(
        "graphgen",
        help="stream-generate a crawl to an on-disk webgraph directory",
    )
    add_workload(p_gen)
    p_gen.add_argument(
        "--out", required=True,
        help="destination path: a directory for the memory-mappable "
        "format (recommended), or *.npz for the compressed archive",
    )
    _option(
        p_gen, "--chunk-pages", positive_int, None,
        "pages generated per chunk (bounds peak memory; default "
        "2**16; the emitted graph is bit-identical for every value)",
    )

    p_part = add_bakeoff(
        "partitions",
        "partitioner bake-off: cut size, balance, traffic, and "
        "rounds-to-target for every placement strategy on one graph",
        ("--strategies", BAKEOFF_STRATEGIES),
        "relative-error target for the rounds-to-ε column",
        max_time_help="simulated-time budget per convergence run",
    )
    p_part.add_argument(
        "--cut-only", action="store_true",
        help="skip the convergence runs (no centralized reference "
        "solve); keeps 1e7-page graphs feasible",
    )

    p_eng = add_bakeoff(
        "engines",
        "engine bake-off: rounds-to-ε, L1 error, messages, and "
        "bytes for dpr1/dpr2-event/flat/mc on one identical workload",
        ("--engines", ENGINE_CONTENDERS),
        "relative-error target ε (the Jacobi engines stop here; "
        "mc runs to walk exhaustion unless it reaches ε first)",
    )
    add_config(p_eng, "walks_per_page")

    add_bakeoff(
        "chaos",
        "chaos bake-off: the EXPERIMENTS.md churn scenario on the "
        "event engine vs the hybrid fault-tolerant fast path — same ε "
        "verdict, fault counters, and wall-clock speedup",
        ("--engines", CHAOS_ENGINES),
        "relative-error target ε for the verdict column",
        groups=8,
        max_time=405.0,
        max_time_help="simulated-time budget per run (default: 40 rounds of "
        "the scenario's T=10 period plus a drain margin)",
    )

    p_comp = add_bakeoff(
        "compression",
        "wire-compression bake-off: data bytes, paper-model bytes, "
        "reduction factor, certified bound vs measured deviation for "
        "each codec on one identical workload",
        ("--codecs", COMPRESSION_CONTENDERS),
        "relative-error target ε for the rounds-to-ε column",
    )
    _option(
        p_comp, "--comm-epsilon", POSITIVE, 1e-4,
        "error budget ε_comm used by the lossy contenders (delta-eps and delta-q16)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serving-tier demo: incremental re-ranking + indexed top-k "
        "queries against a crawler mutating the graph under churn",
    )
    for flag, domain, default, help in (
        ("--web-pages", positive_int, 3000, "TrueWeb size (the hidden full web)"),
        ("--sites", positive_int, 60, "site count"),
        ("--crawl", positive_int, 1200, "pages crawled before the server boots"),
        ("--groups", positive_int, 8, "ranker count K"),
        ("--epsilon", POSITIVE, 1e-3, "staleness budget ε (relative L1)"),
        ("--phases", positive_int, 4, "churn-crawl-sync-query phases"),
        ("--churn", integer(0), 80, "TrueWeb link edits per phase"),
        ("--budget", positive_int, 200, "crawler fetch budget per phase"),
        ("--queries", positive_int, 400, "queries fired per phase"),
    ):
        _option(p_serve, flag, domain, default, help)
    p_serve.add_argument("--seed", type=int, default=2003)
    add_cache_dir(p_serve)

    p_all = sub.add_parser("all", help="run the full reproduction suite")
    add_workload(p_all)
    p_all.add_argument(
        "--only", type=_name_list, default=None,
        help="comma-separated experiment names (default: all)",
    )
    p_all.add_argument("--out", default=None, help="directory for result tables")
    _option(
        p_all, "--jobs", positive_int, 1,
        "worker processes for the sweep (1 = serial; results are "
        "bit-identical for every value)",
    )
    add_cache_dir(p_all, "holds graphs, reference vectors and sweep-point results")

    return parser


def _make_graph(args):
    from repro.graph import google_contest_like

    return google_contest_like(args.pages, min(args.sites, args.pages), seed=args.seed)


def cmd_run(args) -> int:
    from repro.core import run_distributed_pagerank

    flags = ((f.name, config_flag(f)) for f in fields(DistributedConfig))
    keywords = {name: getattr(args, flag[2:].replace("-", "_")) for name, flag in flags if flag}
    try:
        config = DistributedConfig(**keywords)
    except ValueError as exc:
        # Cross-field config constraints (e.g. chaos without --reliable)
        # surface as a usage error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_distributed_pagerank(
        _make_graph(args), config, target_relative_error=args.target, max_time=args.max_time
    )
    rows = [
        ("converged", str(result.converged)),
        ("time to target", str(result.time_to_target)),
        ("final relative error", f"{result.final_relative_error:.3e}"),
        ("outer iterations (max)", result.max_outer_iterations),
        ("inner sweeps (max)", result.max_inner_sweeps),
        ("messages", result.traffic.total_messages),
        ("bytes", result.traffic.total_bytes),
        ("updates dropped", result.dropped_updates),
    ]
    if result.fidelity != "exact" or args.engine == "hybrid":
        rows += [
            ("fidelity", result.fidelity),
            ("fast rounds", result.fast_rounds),
            ("replayed rounds", result.replayed_rounds),
        ]
    if config.reliable:
        rows += [
            ("ack messages", result.traffic.ack_messages),
            ("ack bytes", result.traffic.ack_bytes),
            ("retransmits", result.retransmits),
            ("sends abandoned", result.gave_up),
            ("duplicates dropped", result.dup_drops),
            ("acks lost", result.acks_lost),
        ]
    if result.codec_stats is not None:
        cs = result.codec_stats
        rows += [
            ("codec", cs["codec"]),
            ("paper-model bytes", result.traffic.paper_data_bytes),
            ("frames / suppressed / exact",
             f"{cs['frames']} / {cs['suppressed_frames']} / "
             f"{cs['exact_flushes']}"),
            ("certified rank-error bound", f"{cs['certified_bound']:.3e}"),
        ]
    if config.crash_prob > 0 or config.heartbeat_interval > 0 or config.recovery:
        rows += [
            ("groups crashed", result.crashed_groups),
            ("deaths detected", result.deaths_detected),
            ("takeovers", result.takeovers),
            ("checkpoints written", result.checkpoint_saves),
        ]
    print(format_table(["metric", "value"], rows, title="distributed run"))
    return 0 if result.converged else 1


def cmd_summary(args) -> int:
    from repro.graph import summarize

    summary = summarize(_make_graph(args))
    rows = [(k, v) for k, v in summary.as_dict().items()]
    print(format_table(["statistic", "value"], rows, title="crawl summary"))
    return 0


def cmd_graphgen(args) -> int:
    """Stream-generate a crawl straight to disk and describe it."""
    import time

    from repro.graph import google_contest_like

    t0 = time.perf_counter()
    graph = google_contest_like(
        args.pages,
        min(args.sites, args.pages),
        seed=args.seed,
        out=args.out,
        chunk_pages=args.chunk_pages,
    )
    seconds = time.perf_counter() - t0
    rows = [
        ("path", args.out),
        ("pages", graph.n_pages),
        ("sites", graph.n_sites),
        ("internal links", graph.n_internal_links),
        ("total links", graph.n_links),
        ("fingerprint", graph.fingerprint()),
        ("build seconds", f"{seconds:.2f}"),
    ]
    print(format_table(["field", "value"], rows, title="graphgen"))
    return 0


def _cache(args):
    from repro.parallel.cache import ArtifactCache, cache_from_env

    root = getattr(args, "cache_dir", None)
    return ArtifactCache(root) if root else cache_from_env()


def _graph(args):
    """The workload graph: loaded from ``--graph`` when the subcommand
    has it and it is given, else generated from --pages/--sites/--seed."""
    path = getattr(args, "graph", None)
    if path is None:
        return _make_graph(args)
    from repro.graph.io import load_webgraph

    return load_webgraph(path, mmap=not str(path).endswith(".npz"))


def _figure(args) -> dict:
    """The options fig6/7/8 share (their --seed seeds the graph only)."""
    return dict(graph=_graph(args), max_time=args.max_time, engine=args.engine,
                schedule=args.schedule)


def _bakeoff(args) -> dict:
    """The options the graph bake-offs share (--seed seeds graph and runs)."""
    return dict(graph=_graph(args), n_groups=args.groups, seed=args.seed,
                target_relative_error=args.target, max_time=args.max_time)


#: Subcommand -> (experiment in ``repro.parallel.tasks.REGISTRY``, its
#: options from the parsed flags, the verdict that sets the exit code;
#: None: always 0).
EXPERIMENT_COMMANDS = {
    "fig6": ("fig6", lambda a: dict(_figure(a), n_groups=a.groups), None),
    "fig7": ("fig7", lambda a: dict(_figure(a), n_groups=a.groups),
             lambda result: all(result.monotone.values())),
    "fig8": ("fig8", lambda a: dict(_figure(a), ks=a.ks), None),
    "table1": ("table1", lambda a: dict(ns=a.ns, hop_samples=a.hop_samples), None),
    "partitions": ("partitions", lambda a: dict(
        _bakeoff(a), strategies=a.strategies, measure_rank=not a.cut_only), None),
    "engines": ("engines", lambda a: dict(
        _bakeoff(a), engines=a.engines, walks_per_page=a.walks_per_page), None),
    "chaos": ("chaos", lambda a: dict(_bakeoff(a), engines=a.engines),
              lambda result: result.verdicts_agree()),
    "compression": ("codecs", lambda a: dict(
        _bakeoff(a), codecs=a.codecs, comm_epsilon=a.comm_epsilon),
        lambda result: result.certified()),
    "serve": ("serve", lambda a: dict(
        web_pages=a.web_pages, web_sites=min(a.sites, a.web_pages),
        crawl_pages=min(a.crawl, a.web_pages), n_groups=a.groups, epsilon=a.epsilon,
        phases=a.phases, churn_per_phase=a.churn, crawl_budget=a.budget,
        queries_per_phase=a.queries, seed=a.seed),
        lambda result: result.within_budget()),
}


def cmd_experiment(args) -> int:
    """Run one registered experiment under the artifact cache, print
    its table, and map its verdict to the exit code."""
    from repro.parallel.cache import activate
    from repro.parallel.executor import run_suite

    name, options, passed = EXPERIMENT_COMMANDS[args.command]
    options = options(args)
    graph = options.pop("graph", None)
    cache = _cache(args)
    with activate(cache) if cache is not None else contextlib.nullcontext():
        results, _, _ = run_suite([name], {name: options}, graph=graph)
    result = results[name]
    print(result.format())
    return 0 if passed is None or passed(result) else 1


def cmd_all(args) -> int:
    """Run every experiment and print/write the combined report."""
    from repro.experiments import ExperimentScale, run_all

    scale = ExperimentScale(
        n_pages=args.pages, n_sites=min(args.sites, args.pages), seed=args.seed
    )
    report = run_all(
        scale=scale, only=args.only, out_dir=args.out, jobs=args.jobs, cache=_cache(args)
    )
    print(report.format())
    return 0


COMMANDS = {
    "run": cmd_run,
    "summary": cmd_summary,
    "graphgen": cmd_graphgen,
    "all": cmd_all,
    **dict.fromkeys(EXPERIMENT_COMMANDS, cmd_experiment),
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
