"""Equivalence layer for the allocation-free hot-path kernels.

Every fast kernel introduced by the perf work — workspace-backed
Jacobi sweeps/solves, the stacked efferent SpMV, and the incremental
running-``X`` — is checked here against a naive reference
implementation (the pre-optimization code path, re-implemented
inline) to ≤ 1e-15, and in
the exact paths to *bitwise* equality.

Also covers the degenerate fast-path inputs (zero-page groups, groups
with no efferent destinations, dangling pages) and a property-based
test that whole DPR runs on the fast kernels produce **bit-identical**
final ranks to the seed implementation on random graphs/partitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dpr import DPRNode
from repro.core.open_system import GroupSystem
from repro.graph import WebGraph, make_partition
from repro.linalg import (
    JacobiWorkspace,
    csr_matvec_into,
    group_blocks,
    jacobi_solve,
    jacobi_sweep,
    propagation_matrix,
)
from repro.net.message import ScoreUpdate

TOL = 1e-15


@pytest.fixture
def blocks(contest_small):
    part = make_partition(contest_small, 8, "site")
    return group_blocks(contest_small, part, 0.85)


# ----------------------------------------------------------------------
# Naive references: the seed implementation, verbatim.
# ----------------------------------------------------------------------


def efferent_reference(blocks, g, r):
    """Pre-stacking efferent: scan every cross block, one SpMV each."""
    return {h: block @ r for (src, h), block in blocks.cross.items() if src == g}


def naive_jacobi_solve(p, f, x0=None, *, tol, max_iter=10_000):
    """Seed ``jacobi_solve``: a fresh iterate and a fresh ``Δx`` per sweep.

    Returns ``(x, per-sweep ‖Δx‖₁ list)``.
    """
    x = np.zeros(f.shape[0]) if x0 is None else np.array(x0, dtype=np.float64)
    deltas = []
    for _ in range(max_iter):
        x_new = p.dot(x) + f
        deltas.append(float(np.abs(x_new - x).sum()))
        x = x_new
        if deltas[-1] <= tol:
            break
    return x, deltas


def naive_refresh_x(latest_values, n_local):
    """Seed ``DPRNode.refresh_x``: fresh zeros + per-source adds."""
    x = np.zeros(n_local, dtype=np.float64)
    for vec in latest_values.values():
        x += vec
    return x


class SeedDPRNode:
    """The seed (pre-optimization) node: allocates everything per step."""

    def __init__(self, group, a_group, beta_e, mode):
        self.group = group
        self.a_group = a_group
        self.beta_e = np.asarray(beta_e, dtype=np.float64)
        self.mode = mode
        self.r = np.zeros(self.beta_e.shape[0])
        self._latest_values = {}
        self._latest_gen = {}
        self.outer_iterations = 0

    @property
    def n_local(self):
        return self.r.shape[0]

    def receive(self, update):
        src = update.src_group
        if src in self._latest_gen and update.generation <= self._latest_gen[src]:
            return
        self._latest_gen[src] = update.generation
        self._latest_values[src] = update.values

    def step(self):
        x = naive_refresh_x(self._latest_values, self.n_local)
        f = self.beta_e + x
        if self.n_local == 0:
            self.outer_iterations += 1
            return self.r
        if self.mode == "dpr1":
            self.r = jacobi_solve(self.a_group, f, x0=self.r, tol=1e-10, max_iter=1000).x
        else:
            self.r = jacobi_sweep(self.a_group, self.r, f)
        self.outer_iterations += 1
        return self.r


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------


class TestSweepEquivalence:
    def test_csr_matvec_into_matches_spmv(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        x = np.random.default_rng(0).random(contest_small.n_pages)
        out = np.empty_like(x)
        csr_matvec_into(p, x, out)
        np.testing.assert_array_equal(out, p @ x)

    def test_out_buffer_sweep_bit_identical(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        rng = np.random.default_rng(1)
        x = rng.random(contest_small.n_pages)
        f = rng.random(contest_small.n_pages)
        out = np.empty_like(x)
        np.testing.assert_array_equal(
            jacobi_sweep(p, x, f, out=out), jacobi_sweep(p, x, f)
        )

    def test_workspace_solve_bit_identical(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        f = np.full(contest_small.n_pages, 0.15)
        ws = JacobiWorkspace(contest_small.n_pages)
        ref_x, ref_deltas = naive_jacobi_solve(p, f, tol=1e-12)
        # A bare call owns a workspace for the call; a caller-supplied
        # one runs the same loop.  Both match the seed loop bit for bit.
        for fast in (
            jacobi_solve(p, f, tol=1e-12, record_history=True),
            jacobi_solve(p, f, tol=1e-12, record_history=True, workspace=ws),
        ):
            assert fast.iterations == len(ref_deltas)
            assert fast.converged
            assert fast.final_delta == ref_deltas[-1]
            assert fast.deltas == ref_deltas
            np.testing.assert_array_equal(fast.x, ref_x)

    def test_workspace_solve_warm_start_bit_identical(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        rng = np.random.default_rng(2)
        f = rng.random(contest_small.n_pages)
        x0 = rng.random(contest_small.n_pages)
        ws = JacobiWorkspace(contest_small.n_pages)
        ref_x, ref_deltas = naive_jacobi_solve(p, f, x0, tol=1e-11)
        fast = jacobi_solve(p, f, x0=x0, tol=1e-11, workspace=ws)
        assert fast.iterations == len(ref_deltas)
        np.testing.assert_array_equal(fast.x, ref_x)

    def test_workspace_is_reusable_across_solves(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        ws = JacobiWorkspace(contest_small.n_pages)
        rng = np.random.default_rng(3)
        for _ in range(3):
            f = rng.random(contest_small.n_pages)
            ref = jacobi_solve(p, f, tol=1e-10)
            fast = jacobi_solve(p, f, tol=1e-10, workspace=ws)
            np.testing.assert_array_equal(fast.x, ref.x)

    def test_workspace_size_mismatch_rejected(self, contest_small):
        p = propagation_matrix(contest_small, 0.85)
        f = np.full(contest_small.n_pages, 0.15)
        with pytest.raises(ValueError):
            jacobi_solve(p, f, workspace=JacobiWorkspace(contest_small.n_pages + 1))


class TestEfferentEquivalence:
    def test_stacked_matches_reference_bitwise(self, blocks):
        rng = np.random.default_rng(0)
        for g in range(blocks.n_groups):
            r = rng.random(blocks.group_size(g))
            ref = efferent_reference(blocks, g, r)
            fast = blocks.efferent(g, r)
            assert sorted(fast) == sorted(ref)
            for h, vec in ref.items():
                np.testing.assert_array_equal(fast[h], vec)
                assert np.abs(fast[h] - vec).max(initial=0.0) <= TOL

    def test_efferent_into_matches_reference(self, blocks):
        rng = np.random.default_rng(1)
        for g in range(blocks.n_groups):
            r = rng.random(blocks.group_size(g))
            out = blocks.efferent_buffer(g)
            fast = blocks.efferent_into(g, r, out)
            for h, vec in efferent_reference(blocks, g, r).items():
                np.testing.assert_array_equal(fast[h], vec)

    def test_efferent_into_rejects_bad_buffer(self, blocks):
        r = np.zeros(blocks.group_size(0))
        with pytest.raises(ValueError):
            blocks.efferent_into(0, r, np.zeros(blocks.efferent_rows(0) + 1))

    def test_adjacency_matches_cross_scan(self, blocks):
        for g in range(blocks.n_groups):
            assert blocks.destinations_of(g) == sorted(
                h for (s, h) in blocks.cross if s == g
            )
            assert blocks.sources_of(g) == sorted(
                s for (s, h) in blocks.cross if h == g
            )

    def test_efferent_views_are_independent_per_call(self, blocks):
        g = next(g for g in range(blocks.n_groups) if blocks.destinations_of(g))
        r = np.random.default_rng(2).random(blocks.group_size(g))
        first = blocks.efferent(g, r)
        second = blocks.efferent(g, 2.0 * r)
        for h, vec in first.items():
            # A later call must not overwrite earlier results in flight.
            np.testing.assert_array_equal(vec, efferent_reference(blocks, g, r)[h])
            np.testing.assert_array_equal(second[h], 2.0 * vec)


class TestRefreshXEquivalence:
    def _node_and_sources(self, contest_small):
        part = make_partition(contest_small, 6, "site")
        system = GroupSystem(contest_small, part)
        dst = max(range(6), key=lambda h: len(system.sources_of(h)))
        node = DPRNode(dst, system.diag(dst), system.beta_e[dst], mode="dpr2")
        return system, node, dst

    # One policy is left (the id is kept from when "delta" sat beside it).
    @pytest.mark.parametrize("policy", ["exact"])
    def test_incremental_matches_naive_resum(self, contest_small, policy):
        system, node, dst = self._node_and_sources(contest_small)
        rng = np.random.default_rng(4)
        sources = system.sources_of(dst) or [dst + 1 % 6]
        latest = {}
        for gen in range(1, 6):
            for src in sources:
                v = rng.random(node.n_local)
                node.receive(ScoreUpdate(src, dst, v, 1, generation=gen))
                latest[src] = v
            np.testing.assert_array_equal(
                node.refresh_x(), naive_refresh_x(latest, node.n_local)
            )

    def test_exact_mode_bit_identical_under_interleaving(self, contest_small):
        system, node, dst = self._node_and_sources(contest_small)
        rng = np.random.default_rng(5)
        sources = system.sources_of(dst)
        latest = {}
        for gen in range(1, 9):
            # Only a rotating subset re-sends each generation.
            for src in sources[gen % (len(sources) or 1) :]:
                v = rng.random(node.n_local)
                node.receive(ScoreUpdate(src, dst, v, 1, generation=gen))
                latest[src] = v
            np.testing.assert_array_equal(
                node.refresh_x(), naive_refresh_x(latest, node.n_local)
            )

    def test_no_mail_step_skips_refresh(self, contest_small):
        system, node, dst = self._node_and_sources(contest_small)
        # No mail has ever arrived: the cached f = βE + 0 is valid.
        node.step()
        node.step()
        assert node.refresh_skips == 2
        src = system.sources_of(dst)[0]
        node.receive(
            ScoreUpdate(src, dst, np.ones(node.n_local), 1, generation=1)
        )
        node.step()
        assert node.refresh_skips == 2  # mail arrived: refresh ran
        node.step()
        assert node.refresh_skips == 3


# ----------------------------------------------------------------------
# Degenerate fast-path inputs
# ----------------------------------------------------------------------


class TestDegenerateInputs:
    def test_zero_page_group(self, contest_small):
        # K far above the site count forces empty groups.
        part = make_partition(contest_small, 64, "site")
        system = GroupSystem(contest_small, part)
        empty = next(g for g in range(64) if system.group_size(g) == 0)
        node = DPRNode(empty, system.diag(empty), system.beta_e[empty], mode="dpr2")
        r = node.step()
        assert r.size == 0
        assert node.last_step_delta == 0.0
        assert system.efferent(empty, r) == {}
        assert system.blocks.efferent_rows(empty) == 0

    def test_group_with_no_efferent_destinations(self):
        # Two isolated cliques: no cut links at all.
        g = WebGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], site_of=[0, 0, 0, 1, 1, 1])
        part = make_partition(g, 2, "site")
        blocks = group_blocks(g, part, 0.85)
        for grp in range(2):
            assert blocks.destinations_of(grp) == []
            assert blocks.sources_of(grp) == []
            r = np.random.default_rng(0).random(blocks.group_size(grp))
            assert blocks.efferent(grp, r) == {}
            assert efferent_reference(blocks, grp, r) == {}
            out = blocks.efferent_buffer(grp)
            assert out.size == 0
            assert blocks.efferent_into(grp, r, out) == {}

    def test_dangling_pages(self):
        # Page 2 and 5 have no out-links; their columns must be empty
        # in both the diagonal and the stacked efferent operators.
        g = WebGraph(6, [0, 1, 3, 4], [2, 3, 5, 0], site_of=[0, 0, 0, 1, 1, 1])
        part = make_partition(g, 2, "site")
        blocks = group_blocks(g, part, 0.85)
        for grp in range(2):
            r = np.ones(blocks.group_size(grp))
            ref = efferent_reference(blocks, grp, r)
            fast = blocks.efferent(grp, r)
            assert sorted(fast) == sorted(ref)
            for h in ref:
                np.testing.assert_array_equal(fast[h], ref[h])
        # A full solve still runs and matches the naive path.
        system = GroupSystem(g, part)
        for grp in range(2):
            node = DPRNode(grp, system.diag(grp), system.beta_e[grp], mode="dpr1")
            ref = SeedDPRNode(grp, system.diag(grp), system.beta_e[grp], "dpr1")
            np.testing.assert_array_equal(node.step(), ref.step())

    def test_single_group_partition(self, contest_small):
        part = make_partition(contest_small, 1, "site")
        blocks = group_blocks(contest_small, part, 0.85)
        assert blocks.destinations_of(0) == []
        assert blocks.efferent(0, np.ones(contest_small.n_pages)) == {}


# ----------------------------------------------------------------------
# Property-based: whole runs are bit-identical to the seed implementation
# ----------------------------------------------------------------------


@st.composite
def web_graphs(draw, max_pages=24):
    n = draw(st.integers(min_value=2, max_value=max_pages))
    n_edges = draw(st.integers(min_value=0, max_value=3 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges))
    n_sites = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    return WebGraph(n, src, dst, site_of=[p % n_sites for p in range(n)])


class TestEndToEndBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        graph=web_graphs(),
        k=st.integers(min_value=1, max_value=5),
        mode=st.sampled_from(["dpr1", "dpr2"]),
        strategy=st.sampled_from(["site", "random"]),
        rounds=st.integers(min_value=1, max_value=6),
    )
    def test_fast_run_bit_identical_to_seed(self, graph, k, mode, strategy, rounds):
        """Stacked-efferent + incremental-X (exact mode) + workspace
        sweeps reproduce the seed implementation bit for bit."""
        part = make_partition(graph, k, strategy, seed=7)
        system = GroupSystem(graph, part)
        fast = [
            DPRNode(g, system.diag(g), system.beta_e[g], mode=mode) for g in range(k)
        ]
        seed = [
            SeedDPRNode(g, system.diag(g), system.beta_e[g], mode) for g in range(k)
        ]
        for _ in range(rounds):
            mail_fast, mail_seed = [], []
            for nf, ns in zip(fast, seed):
                rf = nf.step()
                rs = ns.step()
                np.testing.assert_array_equal(rf, rs)
                for dst, values in system.efferent(nf.group, rf).items():
                    mail_fast.append(
                        ScoreUpdate(nf.group, dst, values, 1, nf.outer_iterations)
                    )
                for dst, values in efferent_reference(
                    system.blocks, ns.group, rs
                ).items():
                    mail_seed.append(
                        ScoreUpdate(ns.group, dst, values, 1, ns.outer_iterations)
                    )
            for u in mail_fast:
                fast[u.dst_group].receive(u)
            for u in mail_seed:
                seed[u.dst_group].receive(u)
        final_fast = system.assemble([n.r for n in fast])
        final_seed = system.assemble([n.r for n in seed])
        np.testing.assert_array_equal(final_fast, final_seed)
