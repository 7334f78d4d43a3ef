"""In-memory span tracer for the end-to-end benchmark.

A span is ``(name, start, end, parent, repeat)``: the benchmark opens
spans itself around each pipeline stage (:meth:`Tracer.span`) and, for
the calls made *inside* ``engine.run`` / ``server.apply``, wraps the
program's public entry points from outside (:meth:`Tracer.wrap`) — no
edits under ``src/``.  Module-level functions are patched at every
import site (each ``repro`` module that bound the name with
``from ... import``), methods on the class that defines them.

Spans are appended to flat typed arrays and nothing is computed while
the program runs; :meth:`Tracer.aggregate` derives calls, inclusive
time, self time (duration minus the time the span's children cover)
and per-call durations afterwards, and :meth:`Tracer.write` dumps the
raw spans.  The program is single-threaded, so one open-span stack
gives every span its parent.

With the tracer uninstalled the original functions are back in place,
which is how the end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "SpanStats"]

#: ``measure(args, kwargs, result) -> float`` — work units of one call
#: (bytes moved, hops taken, ...), summed per span name.
Measure = Callable[[tuple, dict, object], float]


class SpanStats:
    """Per-(stage, name) statistics of one slice of the span log."""

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, str], Tuple[int, float, float, np.ndarray]] = {}
        self._units: Dict[Tuple[str, str], float] = {}

    def _select(self, name: str, stage: Optional[str]):
        for (st, nm), row in self._rows.items():
            if nm == name and (stage is None or st == stage):
                yield (st, nm), row

    def calls(self, name: str, stage: Optional[str] = None) -> int:
        return sum(row[0] for _, row in self._select(name, stage))

    def total(self, name: str, stage: Optional[str] = None) -> float:
        """Inclusive seconds (children included)."""
        return sum(row[1] for _, row in self._select(name, stage))

    def self_time(self, name: str, stage: Optional[str] = None) -> float:
        """Seconds not covered by child spans."""
        return sum(row[2] for _, row in self._select(name, stage))

    def units(self, name: str, stage: Optional[str] = None) -> float:
        return sum(
            self._units.get(key, 0.0) for key, _ in self._select(name, stage)
        )

    def durations(self, name: str, stage: Optional[str] = None) -> np.ndarray:
        parts = [row[3] for _, row in self._select(name, stage)]
        return np.concatenate(parts) if parts else np.zeros(0)

    def self_by_name(self, stages: Tuple[str, ...]) -> Dict[str, float]:
        """Self seconds per span name inside the given stages."""
        out: Dict[str, float] = {}
        for (st, nm), row in self._rows.items():
            if st in stages:
                out[nm] = out.get(nm, 0.0) + row[2]
        return out


class Tracer:
    """Records spans; patches and restores the wrapped entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        #: Work units of the few spans that measure them, by span index.
        self._units: Dict[int, float] = {}
        #: (first span index, repeat id): spans from that index on
        #: belong to that workload repeat.
        self._repeat_marks: List[Tuple[int, int]] = [(0, 0)]
        self._stack: List[int] = []
        self.enabled = False
        self._patches: List[Tuple[object, str, object]] = []
        #: Targets that could not be resolved (renamed or removed in
        #: the program); their metrics read 0 instead of crashing.
        self.missing: List[str] = []

    # -- recording ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_id[name] = nid
        return nid

    @property
    def repeat(self) -> int:
        """Workload-repeat id stamped on every span opened from now on."""
        return self._repeat_marks[-1][1]

    @repeat.setter
    def repeat(self, value: int) -> None:
        self._repeat_marks.append((len(self._start), value))

    def _begin(self, nid: int) -> int:
        idx = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(idx)
        # Clock read last so the bookkeeping above is charged to the
        # parent, not to this span.
        self._start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Explicit span around a pipeline stage (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        idx = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(idx)

    def __len__(self) -> int:
        return len(self._start)

    # -- patching ----------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, measure: Optional[Measure]) -> Callable:
        nid = self._intern(name)
        begin, finish, units = self._begin, self._finish, self._units

        if measure is None:

            def traced(*args, **kwargs):
                idx = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(idx)

        else:

            def traced(*args, **kwargs):
                idx = begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(idx)
                units[idx] = measure(args, kwargs, result)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap(self, name: str, target: str, measure: Optional[Measure] = None) -> None:
        """Wrap ``"pkg.module:function"`` or ``"pkg.module:Class.method"``.

        An unresolvable target is recorded in :attr:`missing`.
        """
        module_name, _, qual = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner: object = module
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = (
                owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            )
        except (ImportError, AttributeError, KeyError):
            original = None
        if not inspect.isfunction(original):
            if target not in self.missing:
                self.missing.append(target)
            return
        traced = self._wrapper(name, original, measure)
        if inspect.isclass(owner):
            self._patch(owner, attr, original, traced)
            return
        # A module-level function: every ``from m import f`` made its
        # own binding, so patch each import site that still holds it.
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, original, traced)

    def _patch(self, owner: object, attr: str, original: object, traced: object) -> None:
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.enabled = False

    # -- analysis ----------------------------------------------------------
    def _arrays(self, lo: int, hi: int):
        # Copies: a live view would pin the arrays against further appends.
        name = np.array(self._name[lo:hi], dtype=np.int64)
        start = np.array(self._start[lo:hi], dtype=np.float64)
        end = np.array(self._end[lo:hi], dtype=np.float64)
        parent = np.array(self._parent[lo:hi], dtype=np.int64)
        units = np.zeros(hi - lo, dtype=np.float64)
        if self._units:
            at = np.fromiter(self._units.keys(), dtype=np.int64, count=len(self._units))
            value = np.fromiter(self._units.values(), dtype=np.float64, count=len(self._units))
            inside = (at >= lo) & (at < hi)
            units[at[inside] - lo] = value[inside]
        return name, start, end, parent, units

    def _repeats(self) -> np.ndarray:
        firsts = np.array([m[0] for m in self._repeat_marks])
        ids = np.array([m[1] for m in self._repeat_marks])
        return ids[np.searchsorted(firsts, np.arange(len(self)), side="right") - 1]

    def aggregate(self, lo: int = 0, hi: Optional[int] = None) -> SpanStats:
        """Statistics of spans ``lo .. hi`` keyed by (stage, name).

        The *stage* of a span is the name of its top-level ancestor —
        one of the benchmark's own pipeline spans — so a callee such as
        ``jacobi_solve`` can be read separately inside ``run`` and
        inside ``reference``.  The slice must hold whole top-level
        spans (parents inside it).
        """
        hi = len(self) if hi is None else hi
        stats = SpanStats()
        if hi <= lo:
            return stats
        name, start, end, parent, units = self._arrays(lo, hi)
        n = hi - lo
        dur = end - start
        local_parent = parent - lo
        has_parent = local_parent >= 0
        covered = np.bincount(
            local_parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - covered
        # Spans are appended in open order, so a span's top-level
        # ancestor is the last top-level span opened at or before it.
        tops = np.flatnonzero(~has_parent)
        stage_of = name[tops[np.searchsorted(tops, np.arange(n), side="right") - 1]]
        key = stage_of * len(self.names) + name
        order = np.argsort(key, kind="stable")
        bounds = np.flatnonzero(np.diff(key[order])) + 1
        for group in np.split(order, bounds):
            k = int(key[group[0]])
            pair = (self.names[k // len(self.names)], self.names[k % len(self.names)])
            stats._rows[pair] = (
                int(group.size),
                float(dur[group].sum()),
                float(self_time[group].sum()),
                dur[group],
            )
            u = float(units[group].sum())
            if u:
                stats._units[pair] = u
        return stats

    def check_nesting(self) -> List[str]:
        """Violations of: child inside parent, same repeat, self time >= 0."""
        name, start, end, parent, _ = self._arrays(0, len(self))
        repeat = self._repeats()
        problems: List[str] = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans never closed")
        if np.any(end < start):
            problems.append("span ends before it starts")
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        if np.any(p >= child):
            problems.append("parent opened after child")
        if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
            problems.append("child span outside its parent")
        if np.any(repeat[child] != repeat[p]):
            problems.append("child and parent carry different repeat ids")
        dur = end - start
        covered = np.bincount(p, weights=dur[child], minlength=len(self))
        if np.any(dur - covered < -1e-9):
            problems.append("negative self time")
        return problems

    def write(self, path: str) -> None:
        """Dump the raw spans (one column per field) as JSON."""
        name, start, end, parent, units = self._arrays(0, len(self))
        repeat = self._repeats()
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "missing_targets": self.missing,
                    "name": name.tolist(),
                    "start": start.tolist(),
                    "end": end.tolist(),
                    "parent": parent.tolist(),
                    "repeat": repeat.tolist(),
                    "units": units.tolist(),
                },
                fh,
            )
