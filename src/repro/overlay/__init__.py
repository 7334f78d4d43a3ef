"""Structured peer-to-peer overlay substrate.

The paper runs page rankers as nodes of a structured overlay network
(Pastry [6]; Chord [14], CAN [13] and Tapestry [15] are cited as the
same class).  The overlay contributes two quantities to the paper's
analysis:

* ``h`` — the mean routing hop count (≈2.5 / 3.5 / 4.0 for Pastry with
  10³ / 10⁴ / 10⁵ nodes), which multiplies the bandwidth of indirect
  transmission (formula 4.1) and the lookup cost of direct
  transmission (formula 4.2);
* ``g`` — the mean neighbor count, which bounds the per-iteration
  message count of indirect transmission (formula 4.3, ``S_it = gN``).

This package implements Pastry (prefix routing + leaf set), Chord
(finger-table routing) and CAN (d-torus greedy routing) behind one
:class:`~repro.overlay.base.Overlay` interface, plus hop/neighbor
statistics used by the cost model and the Table 1 bench.

Implementation note: routing state is *derived on demand* from the
sorted id array via binary search rather than materialized per node,
which keeps 100 000-node overlays cheap while producing exactly the
entries a fully materialized routing table would hold.
"""

from repro.overlay.base import Overlay, RouteResult
from repro.overlay.node_id import (
    ID_BITS,
    ID_SPACE,
    node_id_of,
    digits_of,
    digit_at,
    shared_prefix_digits,
    ring_distance,
    clockwise_distance,
)
from repro.overlay.pastry import PastryOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.can import CANOverlay
from repro.overlay.tapestry import TapestryOverlay
from repro.overlay.metrics import hop_statistics, neighbor_statistics, HopStatistics

__all__ = [
    "Overlay",
    "RouteResult",
    "ID_BITS",
    "ID_SPACE",
    "node_id_of",
    "digits_of",
    "digit_at",
    "shared_prefix_digits",
    "ring_distance",
    "clockwise_distance",
    "PastryOverlay",
    "ChordOverlay",
    "CANOverlay",
    "TapestryOverlay",
    "hop_statistics",
    "neighbor_statistics",
    "HopStatistics",
    "OVERLAYS",
    "build_overlay",
]


#: Overlay kinds by name — the registry :func:`build_overlay` dispatches
#: on and ``DistributedConfig.overlay`` / ``--overlay`` take their
#: choices from.
OVERLAYS = {
    "pastry": PastryOverlay,
    "chord": ChordOverlay,
    "can": CANOverlay,
    "tapestry": TapestryOverlay,
}


def build_overlay(kind: str, n_nodes: int, *, seed: int = 0, **kwargs):
    """Construct an overlay by name (a key of :data:`OVERLAYS`)."""
    if kind not in OVERLAYS:
        raise ValueError(
            f"unknown overlay kind {kind!r}; expected one of {sorted(OVERLAYS)}"
        )
    return OVERLAYS[kind](n_nodes, seed=seed, **kwargs)
