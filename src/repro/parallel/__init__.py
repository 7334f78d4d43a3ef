"""Parallel experiment harness.

Three cooperating pieces:

* :mod:`repro.parallel.cache` — content-addressed artifact cache for
  graphs, reference vectors, and sweep-point results;
* :mod:`repro.parallel.sharedmem` — zero-copy CSR workload handoff to
  worker processes via POSIX shared memory;
* :mod:`repro.parallel.tasks` / :mod:`repro.parallel.executor` — the
  experiment registry (each experiment declared once: points, options,
  plan, assembly), its decomposition into independent seeded tasks,
  and the one runner that executes them, inline or over a process
  pool, with bit-identical results.
"""

from repro.parallel.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    activate,
    active_cache,
    array_fingerprint,
    cache_from_env,
    cache_key,
    cached_call,
    cached_point,
    set_active_cache,
)
from repro.parallel.executor import run_suite
from repro.parallel.sharedmem import SharedWorkload, attach_workload
from repro.parallel.tasks import (
    SweepTask,
    assemble_experiment,
    execute_task,
    plan_experiment,
    suite_options,
)

__all__ = [
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "SharedWorkload",
    "SweepTask",
    "activate",
    "active_cache",
    "array_fingerprint",
    "attach_workload",
    "assemble_experiment",
    "cache_from_env",
    "cache_key",
    "cached_call",
    "cached_point",
    "execute_task",
    "plan_experiment",
    "run_suite",
    "set_active_cache",
    "suite_options",
]
