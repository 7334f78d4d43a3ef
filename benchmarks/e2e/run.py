#!/usr/bin/env python3
"""End-to-end benchmark of the distributed page-ranking reproduction.

One measurement (what the driver runs; one fresh process)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

sets up and runs the workload's pipeline repeatedly for about ``S``
seconds (at least ``MIN_REPEATS`` times), checks every output, and
prints each metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics and ``trace_overhead_pct``.

Several measurements (``--repeats N`` and/or several ``--workload``)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--repeats N] [--seed S]
                                  [--trace] [--quick] [--out results.json]

run each (workload, repeat) in a fresh child process of the form above
and print medians, quartiles and sample counts; see ``suite.py``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP: all load comes from this one process on
# a 2-core host.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Pipeline walks per measurement, whatever ``--seconds`` says: the
#: reported set-up and run times are medians over them.
MIN_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def parse_args(argv: List[str]) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names, metavar="NAME",
                    help=f"one of {', '.join(names)}; repeatable; default all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="how long one measurement keeps repeating the pipeline")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="1: report per-layer metrics from traced repeats")
    ap.add_argument("--quick", action="store_true",
                    help="1e4-page versions of every workload (harness self-test)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="fresh child processes per workload (suite mode)")
    ap.add_argument("--out", help="suite mode: write the results file here")
    ap.add_argument("--spans-out", help="single traced measurement: dump raw spans here")
    args = ap.parse_args(argv)
    args.workload = args.workload or names
    args.spec = spec
    return args


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark, so each pipeline walk
    reports its own peak (Linux; elsewhere the peak stays cumulative)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def measure(args: argparse.Namespace) -> dict:
    """One measurement of one workload in this process."""
    import numpy as np

    import layers
    from trace import Tracer
    from workloads import WORKLOADS, Checks, derive_seeds, run_repeat

    wl = next(w for w in WORKLOADS if w.name == args.workload[0])
    size = wl.full
    if args.quick:
        size = wl.quick
        wl = dataclasses.replace(wl, phases=min(wl.phases, 2))
    seeds = derive_seeds(args.seed)
    checks = Checks()
    tracer = Tracer()
    # Traced measurements alternate untraced/traced walks, so they need
    # an even count with at least two of each.
    min_repeats = MIN_REPEATS + 1 if args.trace else MIN_REPEATS
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)

    repeats = []
    peak_rss_kib: List[int] = []
    traced_metrics: List[Dict[str, float]] = []
    layer_shares: List[Dict[str, float]] = []
    began = perf_counter()
    try:
        while (
            len(repeats) < min_repeats
            or (args.trace and len(repeats) % 2)
            or perf_counter() - began < args.seconds
        ):
            i = len(repeats)
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                layers.install(tracer)
                tracer.repeat = i
            lo = len(tracer)
            reset_peak_rss()
            try:
                rep = run_repeat(wl, size, seeds, tracer, workdir, checks, first=(i == 0))
            finally:
                tracer.uninstall()
            if repeats:
                checks.check(
                    rep.signature == repeats[0].signature,
                    f"repeat {i} counts {rep.signature} differ from {repeats[0].signature}",
                )
            rep.counters["first_run_s"] = repeats[0].run_s if repeats else rep.run_s
            if traced:
                stats = tracer.aggregate(lo)
                traced_metrics.append(layers.layer_metrics(stats, rep.counters))
                layer_shares.append(layers.layer_self_times(stats))
            repeats.append(rep)
            peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            gc.collect()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in traced_metrics)
            for name in traced_metrics[0]
        }
        plain = statistics.median(r.timed_wall_s for r in repeats[0::2])
        with_trace = statistics.median(r.timed_wall_s for r in repeats[1::2])
        metrics["trace_overhead_pct"] = (with_trace / plain - 1.0) * 100.0
        wanted = args.spec["per_layer"]
        shares = {
            layer: statistics.median(s.get(layer, 0.0) for s in layer_shares)
            for layer in sorted({k for s in layer_shares for k in s})
        }
        print(f"# layer self time inside run + refresh + queries ({wl.name}, seconds, median of traced repeats)")
        for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:<22} {secs:10.4f}")
        if tracer.missing:
            print(f"# unresolved trace targets: {', '.join(tracer.missing)}")
        problems = tracer.check_nesting()
        checks.check(not problems, f"span log inconsistent: {problems}")
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        lat = np.concatenate([r.latencies_s for r in repeats])
        # Nearest-rank percentiles: an observed latency, never an interpolation.
        p50, p999 = np.percentile(lat, [50.0, 99.9], method="inverted_cdf")
        refresh = [s for r in repeats for s in r.refresh_s]
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in repeats),
            "time_to_eps_s": statistics.median(r.run_s for r in repeats),
            "wire_bytes_to_eps": repeats[0].signature[1],
            "peak_rss_mib": statistics.median(peak_rss_kib) / 1024.0,
            "refresh_p50_ms": statistics.median(refresh) * 1e3,
            "queries_per_s": lat.size / float(lat.sum()),
            "query_p50_us": float(p50) * 1e6,
            "query_p999_us": float(p999) * 1e6,
        }
        wanted = args.spec["end_to_end"]

    out = {}
    for decl in wanted:
        value = metrics[decl["name"]]
        out[decl["name"]] = {"value": value, "unit": decl["unit"]}
        print(f"{wl.name:<12} {decl['name']:<36} {value!r:>24} {decl['unit']}")
    print(
        f"# {wl.name}: {len(repeats)} pipeline walks, seed {args.seed}, "
        f"{checks.attempted} operations checked, {checks.failed} failed"
    )
    for note in checks.notes:
        print(f"# FAILED: {note}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": out,
    }


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if len(args.workload) == 1 and args.repeats == 1:
        result = measure(args)
        print(json.dumps(result))
        return 0
    import suite

    return suite.run_suite(args, Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
