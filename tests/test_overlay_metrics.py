"""Unit tests for repro.overlay.metrics and the factory."""

import numpy as np
import pytest

from repro.overlay import build_overlay, hop_statistics, neighbor_statistics
from repro.overlay.chord import ChordOverlay
from repro.overlay.pastry import PastryOverlay


class TestHopStatistics:
    def test_fields_consistent(self):
        ov = PastryOverlay(64, seed=0)
        hs = hop_statistics(ov, 200, seed=1)
        assert hs.n_nodes == 64
        assert 0 < hs.mean <= hs.max
        assert hs.p50 <= hs.p95 <= hs.max

    def test_single_node_zero_hops(self):
        ov = PastryOverlay(1, seed=0)
        hs = hop_statistics(ov, 10)
        assert hs.mean == 0.0

    def test_deterministic_given_seed(self):
        ov = ChordOverlay(32, seed=0)
        a = hop_statistics(ov, 100, seed=5)
        b = hop_statistics(ov, 100, seed=5)
        assert a.mean == b.mean

    def test_as_dict(self):
        ov = PastryOverlay(16, seed=0)
        d = hop_statistics(ov, 50).as_dict()
        assert {"mean", "p50", "p95", "max"} <= set(d)


class TestNeighborStatistics:
    def test_full_enumeration_small(self):
        ov = ChordOverlay(32, seed=0)
        stats = neighbor_statistics(ov)
        assert stats["sampled"] == 0.0
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_sampling_kicks_in(self):
        ov = ChordOverlay(64, seed=0)
        stats = neighbor_statistics(ov, max_nodes=10)
        assert stats["sampled"] == 1.0


class TestFactory:
    @pytest.mark.parametrize("kind", ["pastry", "chord", "can"])
    def test_builds_each_kind(self, kind):
        ov = build_overlay(kind, 20, seed=1)
        assert ov.n_nodes == 20
        assert ov.route(0, 19).path[-1] == 19

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown overlay"):
            build_overlay("kademlia", 10)


class TestHopMemo:
    @pytest.mark.parametrize("kind", ["pastry", "chord", "can", "tapestry"])
    def test_memoised_hops_match_routes_and_stop_routing(self, kind, monkeypatch):
        """``hops`` is routed once per ordered pair and ``forward``
        stepped once per ``(at, dst)``: both equal the uncached answers
        everywhere (``hop_counts`` is the array form), and a second
        sweep over warm caches takes no ``next_hop`` step at all."""
        ov = build_overlay(kind, 64, seed=3)
        cold = build_overlay(kind, 64, seed=3)
        pairs = [(s, d) for s in range(64) for d in range(64)]
        first = {p: ov.hops(*p) for p in pairs}
        for s, d in pairs:
            path = [s]
            while path[-1] != d:
                path.append(cold.next_hop(path[-1], d))
            assert ov.route(s, d).path == path
            assert first[(s, d)] == len(path) - 1
        src, dst = np.array(pairs).T
        assert ov.hop_counts(src, dst).tolist() == list(first.values())
        assert cold.hop_counts(src[::7], dst[::7]).tolist() == list(first.values())[::7]

        steps = []
        real = type(ov).next_hop
        monkeypatch.setattr(
            type(ov),
            "next_hop",
            lambda self, at, dst: steps.append((at, dst)) or real(self, at, dst),
        )
        fresh = build_overlay(kind, 64, seed=3)
        assert fresh.route(0, 63).hops == first[(0, 63)] and steps  # spy is live
        steps.clear()
        assert {p: ov.hops(*p) for p in pairs} == first
        assert all(ov.forward(s, d) == ov.route(s, d).path[1] for s, d in pairs if s != d)
        assert steps == []

    def test_out_of_range_is_still_rejected(self):
        ov = build_overlay("chord", 8, seed=0)
        with pytest.raises(IndexError):
            ov.hops(0, 8)
