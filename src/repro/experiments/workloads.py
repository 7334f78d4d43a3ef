"""Shared workload construction for the experiment suite.

The paper's dataset (Google programming-contest crawl) is modelled by
:func:`~repro.graph.generators.google_contest_like`; this module pins
the generator parameters to the paper's reported statistics and
provides the three (p, T1, T2) configurations labelled A/B/C in
Figs 6–7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.generators import google_contest_like
from repro.graph.webgraph import WebGraph
from repro.parallel.tasks import point

__all__ = [
    "ExperimentScale",
    "default_graph",
    "reference_ranks",
    "n_pages_point",
    "DEFAULT_CONFIGS",
]

#: Reference n_pages at which sweep grids equal their published
#: defaults (the pre-harness hard-coded values).
_BASELINE_PAGES = 4000


@dataclass(frozen=True)
class ExperimentScale:
    """Workload size knobs, defaulting to a laptop-friendly scale.

    The paper's experiments use ~1M pages / 100 sites.  The statistics
    the figures depend on (convergence shape, monotonicity,
    K-insensitivity) are scale-free; ``n_pages`` here trades wall time
    for fidelity of absolute magnitudes only.
    """

    n_pages: int = 4000
    n_sites: int = 100
    seed: int = 2003  # the paper's year, for flavour

    def scaled(self, factor: float) -> "ExperimentScale":
        """A proportionally larger/smaller workload."""
        return ExperimentScale(
            n_pages=max(100, int(self.n_pages * factor)),
            n_sites=self.n_sites,
            seed=self.seed,
        )

    def sweep_grid(
        self, base: Sequence[int], *, minimum: int = 16
    ) -> Tuple[int, ...]:
        """Scale an overlay/ranker size grid with the workload.

        ``base`` is the grid used at the default 4000-page scale; a
        smaller workload shrinks it proportionally (clamped to
        ``minimum``, deduplicated, order preserved) so a small-scale
        smoke run really is small.  At the default scale the grid is
        returned unchanged.
        """
        factor = self.n_pages / _BASELINE_PAGES
        out = []
        for b in base:
            v = max(int(minimum), int(round(b * factor)))
            if v not in out:
                out.append(v)
        return tuple(out)


def default_graph(scale: ExperimentScale = ExperimentScale()) -> WebGraph:
    """The contest-like graph all figure experiments run on.

    Parameters pinned to the paper's dataset statistics: mean
    out-degree 15, 7/15 of links internal, ~90% of internal links
    intra-site.  When an artifact cache is active the generated graph
    is stored/retrieved by its generator parameters; generation is
    deterministic, so a hit is bit-identical to regeneration.
    """
    from repro.parallel.cache import active_cache, cache_key

    params = dict(
        generator="google_contest_like",
        n_pages=scale.n_pages,
        n_sites=min(scale.n_sites, scale.n_pages),
        mean_out_degree=15.0,
        internal_link_fraction=7.0 / 15.0,
        intra_site_fraction=0.9,
        seed=scale.seed,
    )
    cache = active_cache()
    if cache is not None:
        key = cache_key("webgraph", params)
        hit = cache.load_graph(key)
        if hit is not None:
            return hit
    params.pop("generator")
    graph = google_contest_like(**params)
    if cache is not None:
        cache.store_graph(key, graph)
    return graph


def reference_ranks(graph: WebGraph, *, tol: Optional[float] = None) -> np.ndarray:
    """Centralized reference PageRank ``R*`` for ``graph``.

    Every experiment measures against this fixed point; routing the
    computation through here lets an active artifact cache compute it
    once per (graph, tolerance) instead of once per experiment.  With
    no active cache this is exactly ``pagerank_open(graph).ranks``.
    """
    from repro.core.pagerank import pagerank_open
    from repro.parallel.cache import active_cache, cache_key

    kwargs = {} if tol is None else {"tol": float(tol)}
    cache = active_cache()
    if cache is None:
        return pagerank_open(graph, **kwargs).ranks
    key = cache_key(
        "reference",
        {
            "graph": graph.fingerprint(),
            "solver": "pagerank_open",
            "alpha": 0.85,
            "tol": "default" if tol is None else float(tol),
            "dangling": "leak",
        },
    )
    hit = cache.load_arrays(key)
    if hit is not None:
        return hit["ranks"]
    ranks = pagerank_open(graph, **kwargs).ranks
    cache.store_arrays(key, ranks=ranks)
    return ranks


@point("n_pages", graph=True)
def n_pages_point(graph: WebGraph) -> int:
    """The workload's page count, for the tables that print it."""
    return graph.n_pages


#: The paper's three experiment configurations (Figs 6 and 7):
#: label -> (delivery probability p, T1, T2).
DEFAULT_CONFIGS: Dict[str, Tuple[float, float, float]] = {
    "A": (1.0, 0.0, 6.0),
    "B": (0.7, 0.0, 6.0),
    "C": (0.7, 0.0, 15.0),
}
