"""The experiment registry and the task bag it plans.

An experiment is declared **once**, in its own module under
:mod:`repro.experiments`, next to its result class:

* its *point functions* — independent, deterministic, seeded
  computations — each registered under a task kind with
  :func:`point`, which also says what of the workload the point runs
  on (nothing, the graph, or the graph and one reference vector) and
  derives its cache key from the bound call
  (:func:`repro.parallel.cache.cached_call`);
* its *options and their defaults* — the keyword-only parameters of
  its ``run_*`` function, declared with :func:`experiment` together
  with ``plan(options)`` (which points make up the sweep, in canonical
  order) and ``assemble(options, values)`` (how their values become
  the result object).

Everything else here is a look-up in those two tables with no
per-experiment branch: :func:`plan_experiment` turns a declaration
into an explicit :class:`SweepTask` list, :func:`execute_task` runs
one task against the per-process workload, and
:func:`assemble_experiment` rebuilds the result in plan order — so
results are identical whether the tasks ran inline or scattered across
a worker pool.  ``run_*`` itself has no body of its own: it is
"plan → run the bag inline → assemble" through
:func:`repro.parallel.executor.run_suite`, the executor ``run_all``
uses.

The per-process workload (graph + reference vectors) is installed once
with :func:`set_worker_workload` — in the parent for inline runs, in
the pool initializer (:func:`init_worker`, attaching shared memory)
for parallel runs.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.parallel.cache import ArtifactCache, cached_call, set_active_cache

if TYPE_CHECKING:
    from repro.experiments.workloads import ExperimentScale

__all__ = [
    "SweepTask",
    "Point",
    "Experiment",
    "POINTS",
    "REGISTRY",
    "REF_DEFAULT",
    "REF_TRADEOFF",
    "REFERENCE_TOLS",
    "point",
    "experiment",
    "suite_options",
    "plan_experiment",
    "assemble_experiment",
    "set_worker_workload",
    "init_worker",
    "execute_task",
]

#: Reference-vector keys a point can run against.
REF_DEFAULT = "default"
REF_TRADEOFF = "tol1e-12"

#: Solver tolerance of each reference vector (None: the solver's own
#: default); the executor computes the ones the planned tasks name.
REFERENCE_TOLS: Dict[str, Optional[float]] = {REF_DEFAULT: None, REF_TRADEOFF: 1e-12}


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of suite work.

    ``index`` is the task's position in its experiment's plan (the
    order ``assemble`` expects its values in).  ``params`` are the
    keyword arguments of the point function registered under ``kind``
    and must be picklable (plain scalars/strings only).
    """

    experiment: str
    index: int
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Point:
    """A registered point function and the workload inputs it takes.

    ``reference`` names the reference vector (a :data:`REFERENCE_TOLS`
    key) of a point called as ``fn(graph, reference, **params)``; a
    point with ``reference=None`` is called as ``fn(graph, **params)``
    when ``graph`` is set and as ``fn(**params)`` otherwise.
    """

    fn: Callable[..., Any]
    reference: Optional[str] = None
    graph: bool = False


@dataclass(frozen=True)
class Experiment:
    """One suite experiment: default options, its plan and its assembly.

    ``plan(options)`` yields ``(task kind, point params)`` pairs in
    canonical order; ``assemble(options, values)`` builds the result
    object from the points' values in that order.  Both receive the
    fully resolved options (defaults overlaid with the caller's).
    """

    defaults: Mapping[str, Any]
    plan: Callable[[Mapping[str, Any]], Iterable[Tuple[str, Dict[str, Any]]]]
    assemble: Callable[[Mapping[str, Any], Sequence[Any]], Any]


#: Task kind -> point function (filled by :func:`point`).
POINTS: Dict[str, Point] = {}

#: Experiment name -> declaration (filled by :func:`experiment`).
REGISTRY: Dict[str, Experiment] = {}


def point(
    kind: str, *, reference: Optional[str] = None, graph: bool = False, **constants: Any
) -> Callable[[Callable], Callable]:
    """Decorator: register a point function under task kind ``kind``.

    The function is memoized through the artifact cache as
    ``point/<kind>``, keyed by its bound call and ``constants`` (what it
    bakes in beyond its arguments); ``reference`` and ``graph`` declare
    its workload inputs (see :class:`Point`; a reference implies the
    graph).
    """

    def decorate(fn: Callable) -> Callable:
        fn = cached_call(f"point/{kind}", **constants)(fn)
        POINTS[kind] = Point(fn, reference, graph or reference is not None)
        return fn

    return decorate


def experiment(name: str, plan: Callable, assemble: Callable) -> Callable[[Callable], Callable]:
    """Decorator: declare suite experiment ``name`` on its ``run_*``.

    The decorated function is a *declaration*: its keyword-only
    parameters are the experiment's options and their defaults (the
    only place they are stated), its docstring documents them, and it
    has no body.  ``graph`` / ``scale`` are the workload, not options.
    The function returned runs the declaration through the suite's
    executor — plan, run the bag inline, assemble — so a single
    ``run_*`` call and ``run_all(only=[name])`` execute the same tasks.
    """

    def decorate(declaration: Callable) -> Callable:
        signature = inspect.signature(declaration)
        defaults = {
            key: p.default
            for key, p in signature.parameters.items()
            if p.kind is p.KEYWORD_ONLY and key != "scale"
        }
        REGISTRY[name] = Experiment(defaults, plan, assemble)

        @functools.wraps(declaration)
        def run(*args: Any, **kwargs: Any) -> Any:
            from repro.parallel.executor import run_suite

            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            options = bound.arguments
            graph, scale = options.pop("graph", None), options.pop("scale", None)
            results, _, _ = run_suite([name], {name: options}, graph=graph, scale=scale)
            return results[name]

        return run

    return decorate


def _lookup(table: Mapping[str, Any], key: str, what: str) -> Any:
    # Importing the package runs every experiment module, i.e. every
    # registration (a spawn-started worker gets here first).
    import repro.experiments  # noqa: F401

    try:
        return table[key]
    except KeyError:
        raise ValueError(f"unknown {what}: {key!r}") from None


def _resolve(name: str, options: Mapping[str, Any]) -> Tuple[Experiment, Dict[str, Any]]:
    """An experiment and its options: defaults overlaid with ``options[name]``."""
    declared = _lookup(REGISTRY, name, "experiment")
    given = options.get(name, {})
    unknown = sorted(set(given) - set(declared.defaults))
    if unknown:
        raise ValueError(f"experiment {name!r} has no option(s) {unknown}")
    return declared, {**declared.defaults, **given}


def suite_options(
    scale: ExperimentScale,
    *,
    fig8_ks: Optional[Sequence[int]] = None,
    table1_ns: Optional[Sequence[int]] = None,
    overlay_ns: Optional[Sequence[int]] = None,
) -> Dict[str, Dict[str, Any]]:
    """What a ``run_all`` suite overrides of the experiments' defaults.

    ``table1_ns`` / ``overlay_ns`` default to the experiments' own
    grids scaled with the workload (unchanged at the default 4000-page
    scale); ``fig8_ks`` overrides Fig 8's ranker counts when given.
    Every other option keeps its declared default.
    """
    options = {}
    for name, ns, minimum in (("table1", table1_ns, 64), ("overlay_hops", overlay_ns, 16)):
        if ns is None:
            declared = _lookup(REGISTRY, name, "experiment")
            ns = scale.sweep_grid(declared.defaults["ns"], minimum=minimum)
        options[name] = {"ns": tuple(int(n) for n in ns)}
    if fig8_ks is not None:
        options["fig8"] = {"ks": tuple(int(k) for k in fig8_ks)}
    return options


def plan_experiment(name: str, options: Mapping[str, Any]) -> List[SweepTask]:
    """Decompose one experiment into its independent sweep tasks.

    ``options`` maps experiment names to option overrides (e.g. the
    result of :func:`suite_options`); experiments it does not mention
    run on their declared defaults.
    """
    declared, resolved = _resolve(name, options)
    return [
        SweepTask(name, index, kind, params)
        for index, (kind, params) in enumerate(declared.plan(resolved))
    ]


def assemble_experiment(name: str, options: Mapping[str, Any], values: Sequence[Any]):
    """Rebuild an experiment's result object from task values.

    ``values`` must be in plan order (task ``index``); the object is
    the one ``run_*`` with the same options returns.
    """
    declared, resolved = _resolve(name, options)
    return declared.assemble(resolved, values)


# ----------------------------------------------------------------------
# Per-process workload + execution
# ----------------------------------------------------------------------
#: Process-local workload: {"graph": WebGraph|None, "refs": {key: array},
#: "keepalive": [SharedMemory, ...]}.
_WORKLOAD: Dict[str, Any] = {"graph": None, "refs": {}, "keepalive": []}


def set_worker_workload(graph, refs: Mapping[str, Any], keepalive: Optional[list] = None) -> None:
    """Install the workload tasks of this process will run against."""
    _WORKLOAD["graph"] = graph
    _WORKLOAD["refs"] = dict(refs)
    _WORKLOAD["keepalive"] = keepalive or []


def init_worker(
    spec: Mapping[str, Any],
    cache_root: Optional[str],
    own_tracker: bool = False,
) -> None:
    """Pool initializer: attach the shared workload, activate the cache.

    Runs once per worker process.  ``spec`` comes from
    :meth:`SharedWorkload.spec`; ``cache_root`` re-activates the
    parent's artifact cache so workers share warm artifacts;
    ``own_tracker`` is True for spawn-started workers (whose private
    resource tracker must forget the parent-owned segments).
    """
    from repro.parallel.sharedmem import attach_workload

    keepalive: list = []
    graph, refs = attach_workload(spec, keepalive, unregister=own_tracker)
    set_worker_workload(graph, refs, keepalive)
    set_active_cache(ArtifactCache(cache_root) if cache_root else None)


def execute_task(kind: str, params: Mapping[str, Any]) -> Tuple[Any, float]:
    """Run one task in this process; returns ``(value, seconds)``.

    Calls the point function registered under ``kind`` with the
    workload inputs it declared and ``params`` as keywords.
    """
    registered = _lookup(POINTS, kind, "task kind")
    inputs: Tuple[Any, ...] = ()
    if registered.graph:
        graph, refs, ref = _WORKLOAD["graph"], _WORKLOAD["refs"], registered.reference
        if graph is None or (ref is not None and ref not in refs):
            raise RuntimeError(
                f"task {kind!r} needs the workload graph"
                + ("" if ref is None else f" and reference {ref!r}")
                + ", but they are not installed"
            )
        inputs = (graph,) if ref is None else (graph, refs[ref])
    t0 = time.perf_counter()
    value = registered.fn(*inputs, **params)
    return value, time.perf_counter() - t0
