"""Distributed page ranking — the paper's core contribution.

Layered as the paper presents it:

* :mod:`~repro.core.pagerank` — Algorithm 1, classic centralized
  PageRank (both the paper's literal renormalizing loop and the
  open-system fixed point used as the distributed reference, "CPR").
* :mod:`~repro.core.open_system` — §3's Open System PageRank:
  per-group operators and Algorithm 2 (``GroupPageRank``).
* :mod:`~repro.core.dpr` — §4.2's DPR1/DPR2 group step (pure
  computation, no networking).
* :mod:`~repro.core.engine` — the one ranker state every engine runs
  on (rank vector, receiver memory, counters), the round loop every
  bulk-synchronous engine shares, and the flat engine: whole-system
  block SpMV rounds with analytically accounted traffic, bit-identical
  to the event engine's synchronous schedule.
* :mod:`~repro.core.ranker` — the event engine: page rankers as
  simulator processes over that state — wake on an exponential timer,
  refresh X, compute, emit Y, sleep.
* :mod:`~repro.core.coordinator` — the config, set-up and report every
  engine shares, and the entry point that runs the engine a config
  names, producing the traces behind Figs 6–8.
* :mod:`~repro.core.convergence` — relative-error/monotonicity
  instrumentation (Theorems 4.1/4.2 checks).
* :mod:`~repro.core.recovery` — checkpointing and heartbeat-triggered
  takeover of permanently crashed rankers (§4.2's "shutdown" made
  survivable).
* :mod:`~repro.core.faultplane` — the fault stack a config asks for
  (reliability layer, injectors, heartbeat, checkpoint, recovery),
  built once for every engine.
"""

from repro.core.pagerank import (
    PageRankResult,
    pagerank_algorithm1,
    pagerank_open,
    iterations_to_relative_error,
)
from repro.core.open_system import GroupSystem, group_pagerank
from repro.core.hits import HITSResult, hits
from repro.core.convergence import (
    ConvergenceTrace,
    is_monotone_nondecreasing,
)
from repro.core.coordinator import (
    DistributedConfig,
    RunResult,
    assemble_run_result,
    run_distributed_pagerank,
)
from repro.core.engine import SynchronousEngine
from repro.core.ranker import DistributedRun, PageRanker

__all__ = [
    "PageRankResult",
    "pagerank_algorithm1",
    "pagerank_open",
    "iterations_to_relative_error",
    "GroupSystem",
    "group_pagerank",
    "HITSResult",
    "hits",
    "PageRanker",
    "ConvergenceTrace",
    "is_monotone_nondecreasing",
    "DistributedConfig",
    "DistributedRun",
    "RunResult",
    "assemble_run_result",
    "run_distributed_pagerank",
    "SynchronousEngine",
]
