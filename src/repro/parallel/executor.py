"""Task-bag execution: inline or across a process pool.

:func:`run_suite` is the one runner of the experiment suite — behind
``report.run_all`` for every ``jobs`` value and behind every single
``run_*`` call.  It plans the selected experiments into independent
tasks (:mod:`repro.parallel.tasks`), builds the workload the planned
tasks name, executes them — inline and in plan order for ``jobs == 1``,
over a ``ProcessPoolExecutor`` with a shared-memory workload for
``jobs > 1`` — then reassembles the results in the caller's experiment
order.  Every mode runs the same point functions with the same seeds,
so the assembled results (and hence the formatted report tables) are
bit-identical across modes.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.parallel import tasks as _tasks
from repro.parallel.cache import active_cache
from repro.parallel.sharedmem import SharedWorkload
from repro.parallel.tasks import SweepTask, assemble_experiment, execute_task, plan_experiment

if TYPE_CHECKING:
    from repro.experiments.workloads import ExperimentScale
    from repro.graph.webgraph import WebGraph

__all__ = ["run_suite"]


def _run_task(task: SweepTask) -> Tuple[Any, float]:
    """Pool entry point: run one task against the worker's workload."""
    return execute_task(task.kind, task.params)


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork-less platforms
        return multiprocessing.get_context("spawn")


def run_suite(
    selected: Sequence[str],
    options: Optional[Mapping[str, Mapping[str, Any]]] = None,
    *,
    graph: Optional[WebGraph] = None,
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, List[float]]]:
    """Run the selected experiments as a task bag.

    ``options`` maps experiment names to overrides of their declared
    defaults.  The workload is ``graph`` or, when that is ``None``, the
    contest-like graph of ``scale`` (``None``: the default scale) —
    generated only if a planned task runs on it — plus every reference
    vector those tasks name.

    Returns ``(results, durations, task_durations)`` keyed by
    experiment name, with ``results`` in ``selected`` order and
    ``durations[name]`` the summed task seconds of that experiment
    (the cost the suite would pay serially — the right input for
    parallel-schedule analysis).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    options = options or {}
    plan = [task for name in selected for task in plan_experiment(name, options)]

    # Build the shared workload once in the parent, through the active
    # artifact cache: what it holds is read off the planned tasks.
    points = [_tasks.POINTS[task.kind] for task in plan]
    needed = {p.reference for p in points} - {None}
    refs: Dict[str, Any] = {}
    if not any(p.graph for p in points):
        graph = None
    else:
        from repro.experiments.workloads import default_graph, reference_ranks

        if graph is None:
            graph = default_graph() if scale is None else default_graph(scale)
        refs = {
            key: reference_ranks(graph, tol=tol)
            for key, tol in _tasks.REFERENCE_TOLS.items()
            if key in needed
        }

    if jobs == 1 or len(plan) <= 1:
        _tasks.set_worker_workload(graph, refs)
        try:
            outcomes = [_run_task(task) for task in plan]
        finally:
            _tasks.set_worker_workload(None, {})
    else:
        cache = active_cache()
        cache_root = str(cache.root) if cache is not None else None
        ctx = _pool_context()
        with SharedWorkload(graph, refs) as workload:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(plan)),
                mp_context=ctx,
                initializer=_tasks.init_worker,
                initargs=(
                    workload.spec(),
                    cache_root,
                    ctx.get_start_method() != "fork",
                ),
            ) as pool:
                outcomes = list(pool.map(_run_task, plan))

    results: Dict[str, Any] = {}
    durations: Dict[str, float] = {}
    task_durations: Dict[str, List[float]] = {}
    for name in selected:
        mine = [out for task, out in zip(plan, outcomes) if task.experiment == name]
        results[name] = assemble_experiment(name, options, [value for value, _ in mine])
        task_durations[name] = [seconds for _, seconds in mine]
        durations[name] = float(sum(task_durations[name]))
    return results, durations, task_durations
