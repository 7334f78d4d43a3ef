#!/usr/bin/env python
"""Executed lines per file: run pytest in-process under ``sys.settrace``.

A stdlib stand-in for a coverage tool, for the question "which lines of
these files does this test run ever execute".  A line is *executable*
when the compiled module has bytecode for it (``co_lines`` of the
module's code objects, recursively) and *executed* when a traced frame
reported it.  Only frames whose code lives in one of the named files get
a line tracer, so the cost is one call hook per Python call plus line
events inside the named files.  Subprocesses (``--jobs`` pools) are not
traced.

Usage::

    python tools/linecov.py PATH [PATH ...] [-- PYTEST_ARGS ...]
    python tools/linecov.py --missing PATH ... [-- PYTEST_ARGS ...]

Each ``PATH`` is a ``.py`` file or a directory scanned recursively.
Everything after ``--`` goes to pytest (default: ``-x -q``, the tier-1
run).  Prints one ``<executed>/<executable>  <file>`` row per file and
a total; ``--missing`` also lists each file's never-executed lines.
Exits with pytest's exit code.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set


def executable_lines(path: Path) -> Set[int]:
    """Line numbers that carry bytecode in the compiled module."""

    def walk(code) -> Iterator[int]:
        for _, _, line in code.co_lines():
            if line:
                yield line
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                yield from walk(const)

    return set(walk(compile(path.read_text(), str(path), "exec")))


def _ranges(lines: List[int]) -> str:
    """``[3, 4, 5, 9]`` → ``"3-5, 9"``."""
    out: List[List[int]] = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def main(argv: List[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1:]
    else:
        pytest_args = ["-x", "-q"]
    missing = "--missing" in argv
    argv = [arg for arg in argv if arg != "--missing"]
    if not argv:
        print(__doc__)
        return 2
    files: List[Path] = []
    for arg in argv:
        path = Path(arg).resolve()
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    hits: Dict[str, Set[int]] = {str(path): set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in hits:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_run = total_lines = 0
    for path in files:
        lines = executable_lines(path)
        run = hits[str(path)] & lines
        total_run += len(run)
        total_lines += len(lines)
        print(f"{len(run):5d}/{len(lines):<5d}  {path}")
        if missing and lines - run:
            print(f"             never run: {_ranges(sorted(lines - run))}")
    print(f"{total_run:5d}/{total_lines:<5d}  total ({len(files)} files)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
