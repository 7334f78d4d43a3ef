"""One-shot reproduction report.

:func:`run_all` executes every experiment in the suite — the four
paper artifacts plus the ablations — and assembles a single text
report (optionally writing each table to a directory).  This is the
programmatic equivalent of running the full benchmark suite, intended
for ``python -m repro all`` and for users who want the complete
paper-vs-measured story in one call.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.workloads import ExperimentScale

__all__ = ["ReproductionReport", "run_all", "EXPERIMENTS"]

#: The suite, in report order; each name is declared (options, points,
#: plan, assembly) in its own module and looked up in
#: :data:`repro.parallel.tasks.REGISTRY`, which also holds the
#: bake-offs ``run_all(only=...)`` can select.
EXPERIMENTS = (
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "partitioning",
    "transport",
    "compression",
    "overlay_hops",
    "tradeoff",
)


@dataclass
class ReproductionReport:
    """Results and formatted tables of a full reproduction run."""

    scale: ExperimentScale
    results: Dict[str, object] = field(default_factory=dict)
    sections: Dict[str, str] = field(default_factory=dict)
    durations: Dict[str, float] = field(default_factory=dict)
    #: Per-experiment task compute seconds (plan order); durations[name]
    #: is their sum, so serial/parallel reports stay comparable.
    task_durations: Dict[str, List[float]] = field(default_factory=dict)

    def format(self) -> str:
        """The whole report as one text document."""
        header = (
            "Reproduction report — Distributed Page Ranking in Structured "
            "P2P Networks (ICPP 2003)\n"
            f"workload: {self.scale.n_pages} pages / {self.scale.n_sites} sites "
            f"(seed {self.scale.seed})\n"
        )
        parts = [header]
        for name in self.sections:
            parts.append(
                f"{'=' * 70}\n[{name}]  ({self.durations.get(name, 0.0):.1f}s)\n"
            )
            parts.append(self.sections[name])
        return "\n".join(parts)

    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Write one ``<name>.txt`` per experiment plus ``report.txt``."""
        os.makedirs(directory, exist_ok=True)
        for name, text in self.sections.items():
            with open(os.path.join(directory, f"{name}.txt"), "w") as fh:
                fh.write(text + "\n")
        with open(os.path.join(directory, "report.txt"), "w") as fh:
            fh.write(self.format() + "\n")


def run_all(
    *,
    scale: ExperimentScale = ExperimentScale(),
    only: Optional[Sequence[str]] = None,
    out_dir: Optional[Union[str, os.PathLike]] = None,
    fig8_ks: Optional[Sequence[int]] = None,
    table1_ns: Optional[Sequence[int]] = None,
    overlay_ns: Optional[Sequence[int]] = None,
    jobs: int = 1,
    cache=None,
) -> ReproductionReport:
    """Run the (selected) experiment suite on one shared workload.

    Parameters
    ----------
    scale:
        Workload size; one graph is generated and shared by every
        graph-based experiment so results are comparable.  The Table 1
        and overlay-hops size grids scale with it (``sweep_grid``)
        unless overridden via ``table1_ns`` / ``overlay_ns``;
        ``fig8_ks`` overrides Fig 8's ranker counts.  Every other
        option is the experiment's declared default.
    only:
        :data:`repro.parallel.tasks.REGISTRY` names to run, in this
        order (default: :data:`EXPERIMENTS`).
    out_dir:
        When given, tables are written there after the suite runs.
    jobs:
        Worker processes for the sweep.  1 (the default) runs every
        sweep point inline in plan order; N > 1 scatters them over a
        process pool with the graph handed off through shared memory.
        Results are bit-identical for every value.
    cache:
        An :class:`repro.parallel.ArtifactCache` to memoize graphs,
        reference vectors and sweep-point results through (default:
        whatever cache is already active, usually none).
    """
    from repro.parallel.cache import activate
    from repro.parallel.executor import run_suite
    from repro.parallel.tasks import REGISTRY, suite_options

    selected = list(EXPERIMENTS if only is None else only)
    unknown = set(selected) - set(REGISTRY)
    if unknown:
        raise ValueError(f"unknown experiments: {sorted(unknown)}")

    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        options = suite_options(
            scale, fig8_ks=fig8_ks, table1_ns=table1_ns, overlay_ns=overlay_ns
        )
        results, durations, task_durations = run_suite(
            selected, options, scale=scale, jobs=jobs
        )

    report = ReproductionReport(scale=scale)
    for name in selected:
        report.results[name] = results[name]
        report.sections[name] = results[name].format()
        report.durations[name] = durations[name]
        report.task_durations[name] = task_durations[name]
    if out_dir is not None:
        report.save(out_dir)
    return report
