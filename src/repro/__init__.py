"""repro — Distributed Page Ranking in Structured P2P Networks.

A complete, self-contained reproduction of Shi, Yu, Yang & Wang,
*"Distributed Page Ranking in Structured P2P Networks"* (ICPP 2003):
Open System PageRank, the DPR1/DPR2 asynchronous distributed
algorithms, structured overlays (Pastry / Chord / CAN), direct and
indirect score transmission, and the communication cost model —
plus the experiment harness regenerating every figure and table of
the paper's evaluation.

Quick start
-----------
>>> from repro import google_contest_like, pagerank_open, run_distributed_pagerank
>>> graph = google_contest_like(2000, 50, seed=1)
>>> centralized = pagerank_open(graph)
>>> result = run_distributed_pagerank(
...     graph, n_groups=8, algorithm="dpr1", target_relative_error=1e-4
... )
>>> result.converged
True

Package layout
--------------
``repro.graph``
    Web link graphs: the :class:`~repro.graph.webgraph.WebGraph`
    structure, synthetic generators matched to the paper's dataset,
    partitioning strategies (§4.1), statistics, persistence.
``repro.linalg``
    Sparse propagation operators, per-group block decomposition,
    Jacobi kernels, norms and the convergence bounds of Thms 3.1–3.3.
``repro.core``
    Algorithms 1–4: centralized PageRank, GroupPageRank, DPR1/DPR2
    rankers, the run coordinator and convergence instrumentation.
``repro.overlay``
    Pastry, Chord and CAN overlays with hop/neighbor statistics.
``repro.net``
    Deterministic discrete-event simulator, direct/indirect
    transports (§4.4), traffic accounting, loss and churn injection.
``repro.analysis``
    The §4.4–4.5 cost model (Table 1), ranking metrics, reporting.
``repro.experiments``
    ``run_fig6`` / ``run_fig7`` / ``run_fig8`` / ``run_table1`` and
    the ablation suite.
"""

from repro.graph import (
    WebGraph,
    google_contest_like,
    make_partition,
    Partition,
)
from repro.core import (
    pagerank_algorithm1,
    pagerank_open,
    PageRankResult,
    GroupSystem,
    group_pagerank,
    DistributedConfig,
    DistributedRun,
    RunResult,
    run_distributed_pagerank,
)
from repro.overlay import PastryOverlay, ChordOverlay, CANOverlay, build_overlay
from repro.analysis import CostModel, table1_rows

__version__ = "1.0.0"

__all__ = [
    "WebGraph",
    "google_contest_like",
    "make_partition",
    "Partition",
    "pagerank_algorithm1",
    "pagerank_open",
    "PageRankResult",
    "GroupSystem",
    "group_pagerank",
    "DistributedConfig",
    "DistributedRun",
    "RunResult",
    "run_distributed_pagerank",
    "PastryOverlay",
    "ChordOverlay",
    "CANOverlay",
    "build_overlay",
    "CostModel",
    "table1_rows",
    "__version__",
]
