"""Unit tests for repro.core.open_system (§3, Algorithm 2)."""

import numpy as np
import pytest

from repro.core.open_system import GroupSystem, group_pagerank
from repro.core.pagerank import pagerank_open
from repro.graph import make_partition, partition_contiguous


class TestGroupPageRank:
    def test_solves_group_fixed_point(self, contest_small):
        part = make_partition(contest_small, 4, "site")
        system = GroupSystem(contest_small, part)
        x = np.zeros(system.group_size(0))
        res = group_pagerank(system.diag(0), system.beta_e[0], x, tol=1e-13)
        assert res.converged
        lhs = res.x
        rhs = system.diag(0) @ res.x + system.beta_e[0] + x
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shape_mismatch_rejected(self, contest_small):
        part = make_partition(contest_small, 4, "site")
        system = GroupSystem(contest_small, part)
        with pytest.raises(ValueError):
            group_pagerank(system.diag(0), system.beta_e[0], np.zeros(3))


class TestGroupSystemAlgebra:
    def test_exact_afferent_closes_the_system(self, contest_small):
        """With exact X, per-group solves equal the global solution.

        This is the central §3 identity: the partitioned open systems
        glued by their afferent vectors ARE centralized PageRank.
        """
        part = make_partition(contest_small, 5, "site")
        system = GroupSystem(contest_small, part)
        global_ranks = pagerank_open(contest_small, tol=1e-14).ranks
        group_ranks = [global_ranks[system.blocks.pages[g]] for g in range(5)]
        xs = system.exact_afferent(group_ranks)
        for g in range(5):
            res = group_pagerank(
                system.diag(g), system.beta_e[g], xs[g], tol=1e-13
            )
            np.testing.assert_allclose(res.x, group_ranks[g], atol=1e-8)

    def test_assemble_roundtrip(self, contest_small):
        part = partition_contiguous(contest_small, 6)
        system = GroupSystem(contest_small, part)
        vec = np.arange(contest_small.n_pages, dtype=np.float64)
        groups = [vec[system.blocks.pages[g]] for g in range(6)]
        np.testing.assert_array_equal(system.assemble(groups), vec)

    def test_assemble_validates_shapes(self, contest_small):
        part = partition_contiguous(contest_small, 3)
        system = GroupSystem(contest_small, part)
        with pytest.raises(ValueError):
            system.assemble([np.zeros(1)] * 2)
        with pytest.raises(ValueError):
            system.assemble([np.zeros(1)] * 3)

    def test_cross_records_counts_cut_links(self, twosite):
        part = partition_contiguous(twosite, 2)
        system = GroupSystem(twosite, part)
        # two_site_web(…, cross_links=2): exactly 2 cut records 0 -> 1.
        assert system.cross_records(0, 1) == 2
        assert system.cross_records(1, 0) == 0

    def test_efferent_keys_match_destinations(self, contest_small):
        """A ranker's emission reaches exactly its group's destinations."""
        from repro.core.coordinator import DistributedConfig, DistributedRun

        run = DistributedRun(contest_small, DistributedConfig(n_groups=4))
        sent = []
        run.transport.send_updates = lambda g, updates: sent.extend(updates)
        run._wake(0)
        assert [u.dst_group for u in sent] == run.system.destinations_of(0)

    def test_scalar_and_vector_e_agree(self, contest_small):
        part = make_partition(contest_small, 3, "site")
        s1 = GroupSystem(contest_small, part, e=2.0)
        s2 = GroupSystem(contest_small, part, e=np.full(contest_small.n_pages, 2.0))
        for g in range(3):
            np.testing.assert_array_equal(s1.beta_e[g], s2.beta_e[g])

    def test_validations(self, contest_small, tiny_graph):
        part = make_partition(contest_small, 3, "site")
        with pytest.raises(ValueError):
            GroupSystem(tiny_graph, part)
        with pytest.raises(ValueError):
            GroupSystem(contest_small, part, alpha=1.0)
        with pytest.raises(ValueError):
            GroupSystem(contest_small, part, e=np.ones(3))


def test_cross_records_survive_engine_construction(contest_small):
    """The flat engine used to release the cross blocks ``cross_records``
    read, after which every pair silently reported 0 link records."""
    from repro.core.coordinator import DistributedConfig
    from repro.core.engine import SynchronousEngine

    part = make_partition(contest_small, 5, "site")
    before = GroupSystem(contest_small, part)
    want = {key: block.nnz for key, block in before.blocks.cross.items()}
    assert want and all(want.values())

    config = DistributedConfig(
        n_groups=5, engine="flat", schedule="sync", t1=6.0, t2=6.0, sample_interval=6.0
    )
    engine = SynchronousEngine(contest_small, config, partition=part)
    for g in range(5):
        for h in range(5):
            assert before.cross_records(g, h) == want.get((g, h), 0)
            assert engine.system.cross_records(g, h) == want.get((g, h), 0)
