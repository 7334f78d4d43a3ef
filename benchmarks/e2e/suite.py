"""Several measurements: fresh child per (workload, repeat), one results file.

Each repeat of each workload is a fresh child process running
``run.py`` in its single-measurement form, so ``peak_rss_mib`` and
first-touch page-fault cost are the same every repeat.  The results
file carries a host and provenance header, every sample, and per
metric the median, the quartiles and the sample count; ``compare.py``
reads two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

__all__ = ["run_suite", "summarise"]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _ram_gib() -> float:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 2**20
    except OSError:
        pass
    return 0.0


def provenance(args: argparse.Namespace, root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "ram_gib": round(_ram_gib(), 2),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def _child(run_py: Path, args: argparse.Namespace, workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(run_py), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["log"] = [ln for ln in proc.stdout.splitlines()[:-1] if ln.startswith("#")]
    return result


def run_suite(args: argparse.Namespace, run_py: Path) -> int:
    root = run_py.parent.parent.parent
    results: Dict[str, object] = {"header": provenance(args, root), "workloads": {}}
    print("# " + json.dumps(results["header"]))
    failed_any = False
    for workload in args.workload:
        runs = [_child(run_py, args, workload, 0) for _ in range(args.repeats)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        # Same seed, same inputs: deterministic counts must repeat exactly.
        wire = {r["metrics"]["wire_bytes_to_eps"]["value"] for r in runs}
        attempted += 1
        if len(wire) != 1:
            failed += 1
            print(f"# FAILED: {workload}: wire_bytes_to_eps differs across repeats: {sorted(wire)}")
        entry: Dict[str, object] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": {},
        }
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "unit": first["unit"], "samples": values, **summarise(values)
            }
        print(f"== {workload}: {args.repeats} fresh processes, seed {args.seed}, "
              f"failed_share {failed}/{attempted}")
        print(f"   {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
        for name, s in entry["end_to_end"].items():
            print(f"   {name:<20} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['n']:>3}  {s['unit']}")
        if args.trace:
            traced = _child(run_py, args, workload, 1)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            entry["per_layer"] = traced["metrics"]
            for line in traced["log"]:
                print("   " + line)
            for name, m in traced["metrics"].items():
                print(f"   {name:<36} {m['value']:>14.6g}  {m['unit']}")
        for run in runs:
            for line in run["log"]:
                if line.startswith("# FAILED"):
                    print("   " + line)
        failed_any = failed_any or entry["failed"] > 0
        results["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if failed_any else 0
