"""Unit tests for Gauss-Seidel and Aitken-accelerated solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.pagerank import pagerank_open
from repro.linalg import (
    aitken_extrapolate,
    gauss_seidel_solve,
    jacobi_solve,
    jacobi_solve_accelerated,
    propagation_matrix,
)


def pagerank_system(graph, alpha=0.85):
    p = propagation_matrix(graph, alpha)
    f = (1 - alpha) * np.ones(graph.n_pages)
    return p, f


class TestGaussSeidel:
    def test_same_fixed_point_as_jacobi(self, contest_small):
        p, f = pagerank_system(contest_small)
        gs = gauss_seidel_solve(p, f, tol=1e-13)
        jac = jacobi_solve(p, f, tol=1e-13)
        assert gs.converged
        np.testing.assert_allclose(gs.x, jac.x, atol=1e-9)

    def test_fewer_sweeps_than_jacobi(self, contest_small):
        """Stein-Rosenberg: GS converges at least as fast as Jacobi."""
        p, f = pagerank_system(contest_small)
        gs = gauss_seidel_solve(p, f, tol=1e-12)
        jac = jacobi_solve(p, f, tol=1e-12)
        assert gs.iterations < jac.iterations

    def test_warm_start(self, contest_small):
        p, f = pagerank_system(contest_small)
        cold = gauss_seidel_solve(p, f, tol=1e-12)
        warm = gauss_seidel_solve(p, f, x0=cold.x, tol=1e-12)
        assert warm.iterations <= 2

    def test_empty_system(self):
        res = gauss_seidel_solve(sp.csr_matrix((0, 0)), np.zeros(0))
        assert res.converged

    def test_shape_validation(self, contest_small):
        p, f = pagerank_system(contest_small)
        with pytest.raises(ValueError):
            gauss_seidel_solve(p, np.zeros(3))
        with pytest.raises(ValueError):
            gauss_seidel_solve(p, f, x0=np.zeros(3))
        with pytest.raises(ValueError):
            gauss_seidel_solve(p, f, max_iter=0)

    def test_history(self, contest_small):
        p, f = pagerank_system(contest_small)
        res = gauss_seidel_solve(p, f, tol=1e-10, record_history=True)
        assert len(res.deltas) == res.iterations


class TestAitken:
    def test_exact_on_pure_geometric(self):
        """x_k = x* + c·λ^k is annihilated exactly."""
        x_star = np.array([2.0, -1.0, 5.0])
        c = np.array([1.0, 3.0, -2.0])
        lam = 0.8
        xs = [x_star + c * lam**k for k in range(3)]
        np.testing.assert_allclose(aitken_extrapolate(*xs), x_star, atol=1e-10)

    def test_converged_components_unchanged(self):
        x = np.array([1.0, 2.0])
        out = aitken_extrapolate(x, x, x)
        np.testing.assert_array_equal(out, x)


class TestAcceleratedJacobi:
    def test_same_answer(self, contest_small):
        p, f = pagerank_system(contest_small)
        acc = jacobi_solve_accelerated(p, f, tol=1e-13)
        ref = pagerank_open(contest_small, tol=1e-13).ranks
        assert acc.converged
        np.testing.assert_allclose(acc.x, ref, atol=1e-9)

    def test_competitive_on_web_graphs(self, contest_small):
        # On a well-damped web graph extrapolation is roughly a wash;
        # it must never be much worse than plain Jacobi.
        p, f = pagerank_system(contest_small, alpha=0.95)
        plain = jacobi_solve(p, f, tol=1e-12)
        acc = jacobi_solve_accelerated(p, f, tol=1e-12, extrapolate_every=8)
        assert acc.converged
        assert acc.iterations <= 1.3 * plain.iterations

    def test_dramatic_win_on_slow_geometric_system(self):
        """Where the error is a single geometric mode (the regime
        Kamvar et al. target), Aitken collapses thousands of sweeps to
        a handful."""
        n = 50
        p = sp.identity(n, format="csr") * 0.999
        f = np.full(n, 0.001)
        plain = jacobi_solve(p, f, tol=1e-10, max_iter=50_000)
        acc = jacobi_solve_accelerated(
            p, f, tol=1e-10, max_iter=50_000, extrapolate_every=5
        )
        assert acc.converged
        assert acc.iterations < plain.iterations / 50
        np.testing.assert_allclose(acc.x, plain.x, atol=1e-6)

    def test_validates_extrapolate_every(self, contest_small):
        p, f = pagerank_system(contest_small)
        with pytest.raises(ValueError):
            jacobi_solve_accelerated(p, f, extrapolate_every=2)


class TestGaussSeidelInDPR:
    def test_dpr1_with_gauss_seidel_converges(self, contest_small):
        from repro.core import run_distributed_pagerank

        res = run_distributed_pagerank(
            contest_small,
            n_groups=6,
            inner_solver="gauss_seidel",
            t1=1.0,
            t2=1.0,
            seed=3,
            target_relative_error=1e-5,
            max_time=300.0,
        )
        assert res.converged

    def test_gs_uses_fewer_inner_sweeps(self, contest_small):
        from repro.core import run_distributed_pagerank

        kwargs = dict(
            n_groups=6, t1=1.0, t2=1.0, seed=3,
            target_relative_error=1e-5, max_time=300.0,
        )
        jac = run_distributed_pagerank(contest_small, inner_solver="jacobi", **kwargs)
        gs = run_distributed_pagerank(
            contest_small, inner_solver="gauss_seidel", **kwargs
        )
        assert gs.inner_sweeps.sum() < jac.inner_sweeps.sum()

    def test_invalid_solver_rejected(self):
        from repro.core.coordinator import DistributedConfig

        with pytest.raises(ValueError, match="inner_solver"):
            DistributedConfig(inner_solver="sor")
