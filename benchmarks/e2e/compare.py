#!/usr/bin/env python3
"""A/B comparison of two results files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians with
their quartiles, how much worse B's median is than A's (as a share of
A's, signed so that positive is worse), the bound from
``BENCHMARK.json``, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread (quartile distance over median,
  on either side) is wider than the bound, so the bound cannot be
  checked — unless every B sample beats every A sample (``better``);
* ``better``     B's median is better by more than A's own spread;
* ``unchanged``  otherwise.

Exits non-zero on any ``worse`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def _spread(s: Dict[str, float]) -> float:
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(a: Dict, b: Dict, better: str, bound: float) -> Dict[str, object]:
    """Compare one metric's summaries; ``a`` is the parent, ``b`` the change."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(_spread(a), _spread(b))
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
    if spread > bound:
        word = "better" if all_better else "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif -worse_by > _spread(a) and worse_by < 0:
        word = "better"
    else:
        word = "unchanged"
    return {"worse_by": worse_by, "spread": spread, "verdict": word}


def compare(a: Dict, b: Dict, spec: Dict) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for decl in spec["end_to_end"]:
            name = decl["name"]
            if name not in entry_a["end_to_end"] or name not in entry_b["end_to_end"]:
                continue
            sa, sb = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            rows.append(
                {"workload": workload, "metric": name, "unit": decl["unit"],
                 "bound": decl["bound"], "a": sa, "b": sb,
                 **verdict(sa, sb, decl["better"], decl["bound"])}
            )
        rows.append(
            {"workload": workload, "metric": "failed_share", "unit": "ratio", "bound": 0.0,
             "a": entry_a["failed_share"], "b": entry_b["failed_share"],
             "verdict": "worse" if entry_b["failed_share"] > entry_a["failed_share"]
             else "unchanged"}
        )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    for side, res in (("A", a), ("B", b)):
        h = res["header"]
        print(f"# {side}: {argv[0] if side == 'A' else argv[1]} sha {h['git_sha'][:12]} "
              f"seed {h['seed']} repeats {h['repeats']} nproc {h['nproc']} "
              f"python {h['python']} numpy {h['numpy']} scipy {h['scipy']}")
    print(f"{'workload':<12} {'metric':<18} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'worse by':>9} {'bound':>6}  verdict")
    bad = 0
    for row in compare(a, b, spec):
        if row["metric"] == "failed_share":
            print(f"{row['workload']:<12} {'failed_share':<18} {row['a']:>36.6g} "
                  f"{row['b']:>36.6g} {'':>9} {'0':>6}  {row['verdict']}")
        else:
            sa, sb = row["a"], row["b"]
            fa = f"{sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
            fb = f"{sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
            print(f"{row['workload']:<12} {row['metric']:<18} {fa:>36} {fb:>36} "
                  f"{row['worse_by'] * 100:>+8.2f}% {row['bound'] * 100:>5.0f}%  "
                  f"{row['verdict']}")
        bad += row["verdict"] == "worse"
    print(f"# {bad} worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
