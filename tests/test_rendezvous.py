"""Tests for rendezvous (HRW) partitioning and membership changes."""

import pytest

from repro.graph import google_contest_like, make_partition
from repro.graph.partition import partition_rendezvous


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(2000, 40, seed=6)


class TestRendezvousBasics:
    def test_sites_stay_whole(self, graph):
        part = partition_rendezvous(graph, 8)
        for s in range(graph.n_sites):
            pages = graph.pages_of_site(s)
            assert len(set(part.group_of[pages].tolist())) == 1

    def test_deterministic(self, graph):
        assert partition_rendezvous(graph, 8) == partition_rendezvous(graph, 8)

    def test_salt_changes_layout(self, graph):
        a = partition_rendezvous(graph, 8, salt="x")
        b = partition_rendezvous(graph, 8, salt="y")
        assert a != b

    def test_spreads_over_groups(self, graph):
        part = partition_rendezvous(graph, 8)
        used = set(part.group_of.tolist())
        assert len(used) >= 6  # 40 sites over 8 groups: ~all used

    def test_make_partition_dispatch(self, graph):
        part = make_partition(graph, 8, "rendezvous")
        assert part == partition_rendezvous(graph, 8)


class TestMembershipChange:
    def test_minimal_movement_on_leave(self, graph):
        """When one ranker leaves, ONLY its sites move (HRW's defining
        property) — contrast with `site_hash % K`, which reshuffles
        nearly everything when K changes."""
        full = partition_rendezvous(graph, 8)
        without_3 = partition_rendezvous(
            graph, 8, alive=[g for g in range(8) if g != 3]
        )
        moved = full.group_of != without_3.group_of
        # Every moved page was on the departed ranker.
        assert (full.group_of[moved] == 3).all()
        # And ranker 3 ends up empty.
        assert (without_3.group_of != 3).all()

    def test_mod_k_site_hash_moves_much_more(self, graph):
        """Quantify the advantage: HRW moves ~1/K of pages; mod-K
        site hashing moves a large fraction."""
        from repro.graph.partition import partition_by_site_hash

        hrw_before = partition_rendezvous(graph, 8)
        hrw_after = partition_rendezvous(graph, 8, alive=list(range(7)))
        hrw_moved = (hrw_before.group_of != hrw_after.group_of).mean()

        mod_before = partition_by_site_hash(graph, 8)
        mod_after = partition_by_site_hash(graph, 7)
        mod_moved = (mod_before.group_of != mod_after.group_of).mean()

        assert hrw_moved < 0.45
        assert mod_moved > 2 * hrw_moved

    def test_join_only_pulls_pages_to_newcomer(self, graph):
        """Symmetric property: adding a ranker only moves pages TO it."""
        seven = partition_rendezvous(graph, 8, alive=list(range(7)))
        eight = partition_rendezvous(graph, 8)
        moved = seven.group_of != eight.group_of
        assert (eight.group_of[moved] == 7).all()

    def test_alive_validation(self, graph):
        with pytest.raises(ValueError):
            partition_rendezvous(graph, 8, alive=[])
        with pytest.raises(ValueError):
            partition_rendezvous(graph, 8, alive=[9])

    def test_reranking_after_leave_converges(self, graph):
        """End to end: converge on 8 rankers, ranker 3 departs, pages
        redistribute minimally, the system re-converges."""
        from repro.core import pagerank_open, run_distributed_pagerank

        reference = pagerank_open(graph, tol=1e-12).ranks
        before = run_distributed_pagerank(
            graph,
            partition=partition_rendezvous(graph, 8),
            n_groups=8,
            t1=1.0,
            t2=1.0,
            seed=4,
            reference=reference,
            target_relative_error=1e-4,
            max_time=400.0,
        )
        assert before.converged
        after = run_distributed_pagerank(
            graph,
            partition=partition_rendezvous(graph, 8, alive=[0, 1, 2, 4, 5, 6, 7]),
            n_groups=8,
            t1=1.0,
            t2=1.0,
            seed=4,
            reference=reference,
            target_relative_error=1e-4,
            max_time=400.0,
        )
        assert after.converged
