#!/usr/bin/env python
"""Fail CI when a freshly regenerated bench regresses its headline.

Every ``BENCH_*.json`` at the repo root is committed alongside the
code, so ``git show HEAD:<file>`` is the baseline the current build
must defend.  A bench job regenerates the file, then runs this script:
for each gated metric the fresh value may not fall more than
``TOLERANCE`` (20%) below the committed one.  Metrics where lower is
better are listed with ``"lower"`` and gated symmetrically.

The in-bench assertions already gate *absolute* floors (e.g. the 3x
codec reduction, the 5x engine speedup); this check is the relative
ratchet on top — a build that still clears the floor but gives back a
fifth of its headline is a regression worth failing.

Usage::

    python tools/check_bench_regression.py [BENCH_file.json ...]

With no arguments, checks every manifest entry whose fresh JSON exists
on disk.  A file with no committed baseline (first PR to add it) is
reported and skipped.  Exit status 0 when every gated metric holds,
1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Maximum fraction of the committed headline a build may give back.
TOLERANCE = 0.20

#: file -> [(dotted path, direction)]; path segments index dicts by
#: key and lists by integer (negative OK).
MANIFEST = {
    "BENCH_chaos.json": [
        ("scales.-1.speedup", "higher"),
    ],
    "BENCH_comm.json": [
        ("cases.codec_100k.delta_reduction_x", "higher"),
        ("cases.codec_100k.q16_reduction_x", "higher"),
        ("cases.codec_100k.delta_over_none_wall_x", "lower"),
        ("cases.codec_100k.q16_over_none_wall_x", "lower"),
    ],
    "BENCH_engine.json": [
        ("scales.-1.speedup", "higher"),
    ],
    "BENCH_kernels.json": [
        ("group_blocks_k_scaling.k256_over_k16_x", "lower"),
    ],
}


def resolve(doc, path: str) -> float:
    """Walk ``doc`` along a dotted path of keys / list indices."""
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return float(node)


def committed_json(name: str):
    """The committed copy of ``name`` at HEAD, or None if absent."""
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def check_file(name: str) -> int:
    fresh_path = REPO_ROOT / name
    if not fresh_path.exists():
        print(f"{name}: fresh copy missing (bench did not run?)")
        return 1
    fresh = json.loads(fresh_path.read_text())
    baseline = committed_json(name)
    if baseline is None:
        print(f"{name}: no committed baseline yet, skipping")
        return 0

    failures = 0
    for path, direction in MANIFEST[name]:
        try:
            old = resolve(baseline, path)
        except (KeyError, IndexError, TypeError):
            print(f"{name}: {path}: not in committed baseline, skipping")
            continue
        new = resolve(fresh, path)
        if direction == "higher":
            floor = old * (1.0 - TOLERANCE)
            ok = new >= floor
            verdict = f"{new:.3g} vs committed {old:.3g} (floor {floor:.3g})"
        else:
            ceiling = old * (1.0 + TOLERANCE)
            ok = new <= ceiling
            verdict = (
                f"{new:.3g} vs committed {old:.3g} (ceiling {ceiling:.3g})"
            )
        status = "ok" if ok else "REGRESSION"
        print(f"{name}: {path}: {verdict}: {status}")
        failures += 0 if ok else 1
    return failures


def main(argv) -> int:
    names = argv or [
        name for name in MANIFEST if (REPO_ROOT / name).exists()
    ]
    failures = 0
    for name in names:
        if name not in MANIFEST:
            print(f"{name}: no gated metrics registered")
            return 1
        failures += check_file(name)
    if failures:
        print(f"{failures} gated bench metric(s) regressed beyond 20%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
