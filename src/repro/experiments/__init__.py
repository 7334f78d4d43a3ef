"""Experiment harness: one module per paper table/figure plus ablations.

Every experiment returns a result object with ``rows()`` (raw data)
and ``format()`` (a paper-shaped text table), so tests can assert on
shapes and benches can print the reproduction next to the published
values.

One definition per experiment: each experiment — the nine of the
suite (:data:`EXPERIMENTS`) and the five bake-offs (``partitions``,
``engines``, ``chaos``, ``codecs``, ``serve``) — is declared in its
module, next to its result class: its seeded *point functions*
(``@point``), its options and defaults (the keyword signature of its
``run_*``), and ``plan`` / ``assemble`` (``@experiment``); see
:mod:`repro.parallel.tasks`.  ``run_*`` and :func:`run_all` execute
that one declaration through the same task-bag executor, so a single
run and the ``run_all(only=[name])`` section are the same bytes.
Importing this package is what fills the registry.

Scaling: the paper's runs use ~1M pages and up to 10 000 rankers; the
defaults here are scaled down (see DESIGN.md §2) and every size is a
parameter — pass ``scale`` or explicit sizes to go bigger.
"""

from repro.experiments.workloads import default_graph, DEFAULT_CONFIGS, ExperimentScale
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.ablations import (
    PartitioningResult,
    run_partitioning_ablation,
    TransportResult,
    run_transport_comparison,
    CompressionResult,
    run_compression_ablation,
    OverlayHopsResult,
    run_overlay_hops,
    TradeoffResult,
    run_time_vs_bandwidth,
)
from repro.experiments.engines import (
    ENGINE_CONTENDERS,
    EngineBakeoffResult,
    run_engine_bakeoff,
)
from repro.experiments.chaos import (
    CHAOS_ENGINES,
    ChaosBakeoffResult,
    run_chaos_bakeoff,
)
from repro.experiments.compression import (
    COMPRESSION_CONTENDERS,
    CompressionBakeoffResult,
    run_compression_bakeoff,
)
from repro.experiments.serve import (
    ServeDemoResult,
    run_serve_demo,
)
from repro.experiments.partitions import (
    BAKEOFF_STRATEGIES,
    PartitionBakeoffResult,
    run_partition_bakeoff,
)
from repro.experiments.report import ReproductionReport, run_all, EXPERIMENTS

__all__ = [
    "default_graph",
    "DEFAULT_CONFIGS",
    "ExperimentScale",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    "Table1Result",
    "run_table1",
    "PartitioningResult",
    "run_partitioning_ablation",
    "TransportResult",
    "run_transport_comparison",
    "CompressionResult",
    "run_compression_ablation",
    "OverlayHopsResult",
    "run_overlay_hops",
    "TradeoffResult",
    "run_time_vs_bandwidth",
    "BAKEOFF_STRATEGIES",
    "PartitionBakeoffResult",
    "run_partition_bakeoff",
    "ENGINE_CONTENDERS",
    "EngineBakeoffResult",
    "run_engine_bakeoff",
    "CHAOS_ENGINES",
    "ChaosBakeoffResult",
    "run_chaos_bakeoff",
    "COMPRESSION_CONTENDERS",
    "CompressionBakeoffResult",
    "run_compression_bakeoff",
    "ServeDemoResult",
    "run_serve_demo",
    "ReproductionReport",
    "run_all",
    "EXPERIMENTS",
]
