"""The hidden full web **W** (paper Fig 1).

A :class:`TrueWeb` is the ground truth the crawler explores: a
multi-site directed graph over *all* pages, which continues to change
while being crawled (pages gain and lose links).  It is deliberately a
thin mutable adjacency structure, not a :class:`WebGraph`: the
immutable CSR form with external-link counts is the *crawled view*,
produced by :meth:`repro.crawl.crawler.Crawler.snapshot`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.generators import google_contest_like
from repro.utils.rng import as_generator, RngLike

__all__ = ["TrueWeb"]


class TrueWeb:
    """A mutable multi-site web of ``n_pages`` pages.

    Parameters
    ----------
    n_pages, n_sites, seed:
        Passed to the contest-like generator, with
        ``internal_link_fraction=1.0``: the *whole* web has no
        "external" links — externality is a property of a crawl's
        frontier, not of W itself.
    """

    def __init__(
        self,
        n_pages: int = 5000,
        n_sites: int = 50,
        *,
        mean_out_degree: float = 15.0,
        intra_site_fraction: float = 0.9,
        seed: RngLike = 0,
    ):
        base = google_contest_like(
            n_pages,
            n_sites,
            mean_out_degree=mean_out_degree,
            internal_link_fraction=1.0,
            intra_site_fraction=intra_site_fraction,
            seed=seed,
        )
        self.n_pages = base.n_pages
        self.site_of = base.site_of.copy()
        self.site_names = base.site_names
        #: Adjacency as mutable per-page target lists.
        self.links: List[List[int]] = [
            base.successors(p).tolist() for p in range(self.n_pages)
        ]
        #: Monotone edit counter; crawler revisits compare against it.
        self.version = 0
        self._page_version = np.zeros(self.n_pages, dtype=np.int64)

    # ------------------------------------------------------------------
    def out_links(self, page: int) -> List[int]:
        """Current out-links of ``page`` (what a fetch would observe)."""
        return list(self.links[page])

    def page_version(self, page: int) -> int:
        """Edit version of ``page`` (bumped on every link change)."""
        return int(self._page_version[page])

    # ------------------------------------------------------------------
    # Mutation (the web changes under the crawler's feet)
    # ------------------------------------------------------------------
    def add_link(self, src: int, dst: int) -> None:
        """Page ``src`` gains a link to ``dst``."""
        self._check(src)
        self._check(dst)
        self.links[src].append(dst)
        self._bump(src)

    def remove_link(self, src: int, dst: int) -> bool:
        """Remove one ``src -> dst`` link; False if absent."""
        self._check(src)
        try:
            self.links[src].remove(dst)
        except ValueError:
            return False
        self._bump(src)
        return True

    def churn(self, n_edits: int, *, seed: RngLike = None) -> List[Tuple[str, int, int]]:
        """Apply ``n_edits`` random link edits (half adds, half removes).

        Returns the edit log ``[(op, src, dst), ...]`` for test
        introspection.
        """
        rng = as_generator(seed)
        log: List[Tuple[str, int, int]] = []
        for _ in range(n_edits):
            src = int(rng.integers(0, self.n_pages))
            if self.links[src] and rng.random() < 0.5:
                dst = self.links[src][int(rng.integers(0, len(self.links[src])))]
                self.remove_link(src, dst)
                log.append(("remove", src, dst))
            else:
                dst = int(rng.integers(0, self.n_pages))
                self.add_link(src, dst)
                log.append(("add", src, dst))
        return log

    # ------------------------------------------------------------------
    def _bump(self, page: int) -> None:
        self.version += 1
        self._page_version[page] = self.version

    def _check(self, page: int) -> None:
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page {page} out of range [0, {self.n_pages})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_links = sum(len(l) for l in self.links)
        return f"TrueWeb(n_pages={self.n_pages}, links={n_links}, version={self.version})"
