"""CAN overlay (Ratnasamy et al., SIGCOMM 2001) — ref [13].

CAN maps nodes to zones of a d-dimensional torus and routes greedily
through zone neighbors; with d=2 the expected path length grows as
``O(√N)`` — markedly worse than Pastry/Chord's logarithmic hops, which
is visible in the overlay-hops bench and is why the paper's bandwidth
analysis assumes a logarithmic overlay.

This implementation models the common analysis simplification of a
*converged, evenly loaded* CAN: the unit torus is cut into ``rows``
horizontal bands, each band into equal zones, with band/zone counts as
equal as ``n_nodes`` allows.  Nodes are assigned to zones by a seeded
permutation (so node index order is uncorrelated with torus position,
as in a real join sequence).  Routing is deterministic: first travel
vertically the shorter way around to the destination band, then
horizontally the shorter way within the band — each step crosses one
zone boundary through a real CAN neighbor, so hop counts match greedy
CAN on this zone layout.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.overlay.base import Overlay
from repro.utils.hashing import stable_uint64
from repro.utils.rng import as_generator

__all__ = ["CANOverlay"]


class CANOverlay(Overlay):
    """A converged 2-d CAN torus over ``n_nodes`` rankers."""

    def __init__(self, n_nodes: int, *, seed: int = 0):
        super().__init__(n_nodes)
        self.seed = int(seed)
        self.rows = max(1, int(math.isqrt(n_nodes)))
        base = n_nodes // self.rows
        extra = n_nodes % self.rows
        # Band r holds cols_of[r] zones; first `extra` bands get one more.
        self.cols_of = np.array(
            [base + (1 if r < extra else 0) for r in range(self.rows)], dtype=np.int64
        )
        self.row_start = np.zeros(self.rows, dtype=np.int64)
        np.cumsum(self.cols_of[:-1], out=self.row_start[1:])

        rng = as_generator(stable_uint64(f"can:{seed}", salt="overlay"))
        self.cell_of_node = rng.permutation(n_nodes).astype(np.int64)
        self.node_of_cell = np.empty(n_nodes, dtype=np.int64)
        self.node_of_cell[self.cell_of_node] = np.arange(n_nodes)
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------
    def cell_coords(self, cell: int) -> Tuple[int, int]:
        """(band row, column within band) of a zone index."""
        row = int(np.searchsorted(self.row_start, cell, side="right")) - 1
        col = int(cell - self.row_start[row])
        return row, col

    def cell_at(self, row: int, col: int) -> int:
        """Zone index from (band row, column), with torus wrap."""
        row %= self.rows
        col %= int(self.cols_of[row])
        return int(self.row_start[row] + col)

    def zone_rect(self, node: int) -> Tuple[float, float, float, float]:
        """Zone of ``node`` as ``(x0, x1, y0, y1)`` in the unit torus."""
        self._check_node(node)
        row, col = self.cell_coords(int(self.cell_of_node[node]))
        cols = int(self.cols_of[row])
        return (col / cols, (col + 1) / cols, row / self.rows, (row + 1) / self.rows)

    def owner_of_point(self, x: float, y: float) -> int:
        """Node owning the torus point ``(x, y)``."""
        x %= 1.0
        y %= 1.0
        row = min(int(y * self.rows), self.rows - 1)
        col = min(int(x * int(self.cols_of[row])), int(self.cols_of[row]) - 1)
        return int(self.node_of_cell[self.cell_at(row, col)])

    def owner(self, key: int) -> int:
        """Node owning a hashed key (key -> torus point -> zone)."""
        x = (stable_uint64(key, salt="can-x") % (1 << 53)) / float(1 << 53)
        y = (stable_uint64(key, salt="can-y") % (1 << 53)) / float(1 << 53)
        return self.owner_of_point(x, y)

    # ------------------------------------------------------------------
    # Overlay interface
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Zone neighbors: adjacent in-band zones plus all zones of the
        adjacent bands whose x-interval overlaps (torus wrap in both
        axes)."""
        cached = self._neighbor_cache.get(node)
        if cached is not None:
            return cached
        self._check_node(node)
        row, col = self.cell_coords(int(self.cell_of_node[node]))
        cols = int(self.cols_of[row])
        ns = set()
        if cols > 1:
            ns.add(int(self.node_of_cell[self.cell_at(row, col - 1)]))
            ns.add(int(self.node_of_cell[self.cell_at(row, col + 1)]))
        x0, x1 = col / cols, (col + 1) / cols
        for drow in (-1, 1):
            if self.rows == 1:
                break
            nrow = (row + drow) % self.rows
            ncols = int(self.cols_of[nrow])
            for ncol in range(ncols):
                nx0, nx1 = ncol / ncols, (ncol + 1) / ncols
                if self._intervals_touch(x0, x1, nx0, nx1):
                    ns.add(int(self.node_of_cell[self.cell_at(nrow, ncol)]))
        ns.discard(node)
        result = tuple(sorted(ns))
        self._neighbor_cache[node] = result
        return result

    @staticmethod
    def _intervals_touch(a0: float, a1: float, b0: float, b1: float) -> bool:
        """Overlap test for circular intervals on [0, 1) (closed ends so
        zones sharing only a corner still count as CAN neighbors)."""
        eps = 1e-12
        # Unwrap: compare on the circle by also shifting one interval.
        for shift in (-1.0, 0.0, 1.0):
            if a0 + shift <= b1 + eps and b0 <= a1 + shift + eps:
                return True
        return False

    def next_hop(self, at: int, dst: int) -> int:
        """CAN forwarding: vertical leg toward the destination band
        (shorter way around), then horizontal within the band."""
        self._check_node(at)
        self._check_node(dst)
        if at == dst:
            return dst
        row_a, col_a = self.cell_coords(int(self.cell_of_node[at]))
        row_d, col_d = self.cell_coords(int(self.cell_of_node[dst]))

        if row_a != row_d:
            # Vertical leg: step one band the shorter way around.
            down = (row_d - row_a) % self.rows
            up = (row_a - row_d) % self.rows
            drow = 1 if down <= up else -1
            nrow = (row_a + drow) % self.rows
            # Enter the adjacent band at the zone closest (circularly)
            # to the destination's x-center.
            ncols = int(self.cols_of[nrow])
            dcols = int(self.cols_of[row_d])
            target_x = (col_d + 0.5) / dcols
            # Candidate zones must overlap our zone's x-interval.
            cols_a = int(self.cols_of[row_a])
            x0, x1 = col_a / cols_a, (col_a + 1) / cols_a
            best, best_d = None, float("inf")
            for ncol in range(ncols):
                nx0, nx1 = ncol / ncols, (ncol + 1) / ncols
                if not self._intervals_touch(x0, x1, nx0, nx1):
                    continue
                center = (ncol + 0.5) / ncols
                d = abs(center - target_x)
                d = min(d, 1.0 - d)
                if d < best_d - 1e-15 or (abs(d - best_d) <= 1e-15 and best is None):
                    best, best_d = self.cell_at(nrow, ncol), d
            assert best is not None
            return int(self.node_of_cell[best])

        # Horizontal leg within the destination band.
        cols = int(self.cols_of[row_a])
        right = (col_d - col_a) % cols
        left = (col_a - col_d) % cols
        dcol = 1 if right <= left else -1
        return int(self.node_of_cell[self.cell_at(row_a, col_a + dcol)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CANOverlay(n_nodes={self.n_nodes}, rows={self.rows})"
