"""Unit tests for repro.core.pagerank (Algorithm 1 & the CPR reference)."""

import numpy as np
import pytest

from repro.core.pagerank import (
    iterations_to_relative_error,
    pagerank_algorithm1,
    pagerank_open,
)
from repro.graph import WebGraph, star_web


class TestPagerankOpen:
    def test_uniform_on_ring(self, ring8):
        res = pagerank_open(ring8, 0.85, tol=1e-13)
        assert res.converged
        # Closed ring with E=1: fixed point is exactly 1 everywhere.
        np.testing.assert_allclose(res.ranks, 1.0, atol=1e-10)

    def test_uniform_on_complete(self, complete6):
        res = pagerank_open(complete6, 0.85, tol=1e-13)
        np.testing.assert_allclose(res.ranks, 1.0, atol=1e-10)

    def test_star_closed_form(self):
        """Hub/leaf ranks of the star satisfy the fixed-point equations."""
        g = star_web(4)
        alpha, beta = 0.85, 0.15
        res = pagerank_open(g, alpha, tol=1e-14)
        hub, leaves = res.ranks[0], res.ranks[1:]
        np.testing.assert_allclose(leaves, leaves[0], atol=1e-12)
        # hub = α·Σ leaf + β;  leaf = α·hub/4 + β.
        assert hub == pytest.approx(alpha * leaves.sum() + beta, abs=1e-10)
        assert leaves[0] == pytest.approx(alpha * hub / 4 + beta, abs=1e-10)

    def test_fixed_point_residual(self, contest_small):
        from repro.linalg import propagation_matrix

        res = pagerank_open(contest_small, 0.85, tol=1e-13)
        p = propagation_matrix(contest_small, 0.85)
        resid = res.ranks - (p @ res.ranks + 0.15 * np.ones(contest_small.n_pages))
        assert np.abs(resid).max() < 1e-10

    def test_rank_leak_lowers_mean(self, contest_small):
        """Open system: external links leak rank, mean < E (Fig 7's 0.3)."""
        res = pagerank_open(contest_small, 0.85)
        assert res.mean_rank < 0.6
        assert res.mean_rank > 0.1

    def test_ranks_nonnegative(self, contest_small):
        res = pagerank_open(contest_small, 0.85)
        assert (res.ranks >= 0).all()

    def test_personalized_e_shifts_rank(self, ring8):
        e = np.zeros(8)
        e[0] = 8.0  # all teleport mass at page 0
        res = pagerank_open(ring8, 0.85, e=e, tol=1e-13)
        assert res.ranks[0] == res.ranks.max()
        # Rank decays around the ring away from the source.
        assert res.ranks[1] > res.ranks[4]

    def test_e_validation(self, ring8):
        with pytest.raises(ValueError):
            pagerank_open(ring8, e=np.ones(3))
        with pytest.raises(ValueError):
            pagerank_open(ring8, e=-np.ones(8))

    def test_alpha_validation(self, ring8):
        with pytest.raises(ValueError):
            pagerank_open(ring8, alpha=1.0)

    def test_empty_graph(self):
        res = pagerank_open(WebGraph(0, [], []))
        assert res.converged
        assert res.ranks.size == 0

    def test_history(self, ring8):
        res = pagerank_open(ring8, record_history=True, tol=1e-12)
        assert len(res.deltas) == res.iterations
        assert res.deltas[-1] <= 1e-12


class TestDanglingRedistribution:
    def test_redistribute_conserves_mass_on_dangling_graph(self):
        """With redistribution and no external links, total rank mass
        equals n exactly even with dangling pages."""
        g = WebGraph(4, [0, 1], [1, 2])  # pages 2, 3 dangling
        res = pagerank_open(g, 0.85, dangling="redistribute", tol=1e-13)
        assert res.converged
        assert res.ranks.sum() == pytest.approx(4.0, abs=1e-8)

    def test_leak_loses_dangling_mass(self):
        g = WebGraph(4, [0, 1], [1, 2])
        res = pagerank_open(g, 0.85, dangling="leak", tol=1e-13)
        assert res.ranks.sum() < 4.0

    def test_modes_agree_without_dangling_pages(self, ring8):
        a = pagerank_open(ring8, dangling="leak", tol=1e-13).ranks
        b = pagerank_open(ring8, dangling="redistribute", tol=1e-13).ranks
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_invalid_mode(self, ring8):
        with pytest.raises(ValueError, match="dangling"):
            pagerank_open(ring8, dangling="teleport")

    def test_redistribute_fixed_point(self):
        g = star_web(3)  # no dangling, plus check with one added
        g2 = WebGraph(
            g.n_pages + 1,
            *g.edges(),
        )
        res = pagerank_open(g2, 0.85, dangling="redistribute", tol=1e-13)
        from repro.linalg import propagation_matrix

        p = propagation_matrix(g2, 0.85)
        dangling_mass = 0.85 * res.ranks[g2.dangling_pages()].sum()
        n = g2.n_pages
        expected = p @ res.ranks + dangling_mass / n + 0.15
        np.testing.assert_allclose(res.ranks, expected, atol=1e-9)


class TestAlgorithm1:
    def test_mass_conserved(self, contest_small):
        """Algorithm 1 reinjects lost mass: ‖R‖₁ stays 1."""
        res = pagerank_algorithm1(contest_small, eps=1e-12)
        assert res.converged
        assert res.ranks.sum() == pytest.approx(1.0, abs=1e-8)

    def test_uniform_on_ring(self, ring8):
        res = pagerank_algorithm1(ring8, eps=1e-13)
        np.testing.assert_allclose(res.ranks, 1.0 / 8, atol=1e-10)

    def test_ranks_nonnegative(self, contest_small):
        res = pagerank_algorithm1(contest_small)
        assert (res.ranks >= 0).all()

    def test_custom_start_converges_same(self, ring8):
        a = pagerank_algorithm1(ring8, eps=1e-13)
        b = pagerank_algorithm1(ring8, eps=1e-13, s=np.ones(8) / 8.0)
        np.testing.assert_allclose(a.ranks, b.ranks, atol=1e-8)

    def test_rejects_zero_mass_e(self, ring8):
        with pytest.raises(ValueError):
            pagerank_algorithm1(ring8, e=np.zeros(8))

    def test_hub_outranks_leaves(self):
        res = pagerank_algorithm1(star_web(6), eps=1e-12)
        assert res.ranks[0] == res.ranks.max()


class TestIterationsToRelativeError:
    def test_matches_direct_measurement(self, contest_small):
        ref = pagerank_open(contest_small, tol=1e-13).ranks
        iters = iterations_to_relative_error(contest_small, ref, 1e-4)
        assert 3 < iters < 200

    def test_threshold_monotone(self, contest_small):
        ref = pagerank_open(contest_small, tol=1e-13).ranks
        loose = iterations_to_relative_error(contest_small, ref, 1e-2)
        tight = iterations_to_relative_error(contest_small, ref, 1e-6)
        assert loose < tight

    def test_zero_iterations_when_already_there(self, ring8):
        ref = pagerank_open(ring8, tol=1e-13).ranks
        assert iterations_to_relative_error(ring8, ref, 0.5, r0=ref) == 0

    def test_unreachable_threshold_raises(self, ring8):
        ref = pagerank_open(ring8, tol=1e-13).ranks
        with pytest.raises(RuntimeError):
            iterations_to_relative_error(ring8, ref, 1e-14, max_iter=3)
