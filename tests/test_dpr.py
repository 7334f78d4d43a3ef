"""Unit tests for the DPR1/DPR2 ranker state: the receive rule, the
group step and the warm start, on the event engine's flat state.

Includes a synchronous-round harness that drives the event engine's
rankers by hand — every ranker wakes, then every message is delivered —
which isolates the algorithmic claims (Theorems 4.1/4.2, fixed-point
convergence) from network timing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convergence import is_monotone_nondecreasing
from repro.core.coordinator import DistributedConfig, DistributedRun
from repro.core.pagerank import pagerank_open
from repro.graph import google_contest_like
from repro.net.message import ScoreUpdate

#: For the hypothesis tests, which cannot take function-scoped fixtures.
GRAPH = google_contest_like(300, 12, seed=4)


def build_run(graph, k, mode, **overrides):
    """An event engine whose rankers are never started."""
    return DistributedRun(graph, DistributedConfig(n_groups=k, algorithm=mode, **overrides))


def synchronous_rounds(run, rounds):
    """Drive all rankers in lockstep: wake each, then deliver every Y."""
    for _ in range(rounds):
        for g in range(run.n_groups):
            run._wake(g)
        run.sim.run()
    return run.assemble_ranks()


def pair(run, src, dst):
    """``(position, destination-local rows)`` of the pair src → dst."""
    p = run.system.blocks.pair_position[(src, dst)]
    return p, run._pairs[p][3]


def deliver(run, src, dst, values, generation):
    run._on_deliver(dst, ScoreUpdate(src, dst, values, 1, generation=generation))
    run._land_inbox()


def x_of(run, g):
    """Group ``g``'s refreshed afferent sum X."""
    run._refresh_group(g)
    return run._x[run._slices[g]].copy()


def dense(run, g, rows, values):
    out = np.zeros(run.system.group_size(g))
    out[rows] = values
    return out


class TestReceiveSemantics:
    def test_keeps_newest_generation(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        g = run.system.sources_of(1)[0]
        _, rows = pair(run, g, 1)
        deliver(run, g, 1, np.full(rows.size, 2.0), generation=3)
        deliver(run, g, 1, np.full(rows.size, 1.0), generation=2)  # stale: ignored
        assert run._stale[1] == 1
        np.testing.assert_array_equal(x_of(run, 1), dense(run, 1, rows, 2.0))

    def test_equal_generation_is_stale(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        g = run.system.sources_of(0)[0]
        _, rows = pair(run, g, 0)
        deliver(run, g, 0, np.ones(rows.size), generation=1)
        deliver(run, g, 0, np.full(rows.size, 9.0), generation=1)
        assert run._stale[0] == 1
        np.testing.assert_array_equal(x_of(run, 0), dense(run, 0, rows, 1.0))

    def test_x_sums_over_sources(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        a, b = run.system.sources_of(2)[:2]
        (_, rows_a), (_, rows_b) = pair(run, a, 2), pair(run, b, 2)
        deliver(run, a, 2, np.full(rows_a.size, 1.0), generation=1)
        deliver(run, b, 2, np.full(rows_b.size, 2.0), generation=1)
        np.testing.assert_array_equal(
            x_of(run, 2), dense(run, 2, rows_a, 1.0) + dense(run, 2, rows_b, 2.0)
        )

    def test_wrong_shape_rejected(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        g = run.system.sources_of(0)[0]
        _, rows = pair(run, g, 0)
        with pytest.raises(ValueError):
            deliver(run, g, 0, np.zeros(rows.size + 1), generation=1)

    def test_receive_copies_values(self, contest_small):
        """Regression: mutating the sent array after delivery must not
        corrupt the receiver memory."""
        run = build_run(contest_small, 4, "dpr1")
        g = run.system.sources_of(1)[0]
        _, rows = pair(run, g, 1)
        buf = np.full(rows.size, 2.0)
        deliver(run, g, 1, buf, generation=1)
        buf[:] = 99.0  # sender reuses its buffer
        np.testing.assert_array_equal(x_of(run, 1), dense(run, 1, rows, 2.0))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 5), st.floats(0.0, 4.0)),
            max_size=40,
        )
    )
    def test_queued_deliveries_land_as_if_one_at_a_time(self, deliveries):
        """A queue with repeated pairs, stale and out-of-order
        generations lands exactly as the same deliveries landed one by
        one: memory, generations, stale counts, first-arrival order and
        every group's X."""
        one, queued = (build_run(GRAPH, 4, "dpr1") for _ in range(2))
        pairs = list(one.system.blocks.pair_position)
        for i, gen, value in deliveries:
            src, dst = pairs[i % len(pairs)]
            _, rows = pair(one, src, dst)
            for run in (one, queued):
                run._on_deliver(dst, ScoreUpdate(src, dst, np.full(rows.size, value), 1, gen))
            one._land_inbox()
        queued._land_inbox()
        assert one._recv.tobytes() == queued._recv.tobytes()
        assert np.array_equal(one._recv_gen, queued._recv_gen)
        assert np.array_equal(one._stale, queued._stale)
        arrived = one._recv_gen >= 0
        assert np.array_equal(
            np.argsort(one._recv_rank[arrived]), np.argsort(queued._recv_rank[arrived])
        )
        for g in range(4):
            assert x_of(one, g).tobytes() == x_of(queued, g).tobytes()


class TestStepSemantics:
    def test_dpr1_reaches_local_fixed_point(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        run._wake(0)
        r = run._r[run._slices[0]]
        # R = A_G R + βE + X holds after an inner solve.
        resid = r - (run.system.diag(0) @ r + run.system.beta_e[0])
        assert np.abs(resid).max() < 1e-8

    def test_dpr2_is_single_sweep(self, contest_small):
        run = build_run(contest_small, 4, "dpr2")
        run._wake(0)
        assert run._inner_sweeps[0] == 1
        expected = run.system.beta_e[0]  # A @ 0 + βE + 0
        np.testing.assert_allclose(run._r[run._slices[0]], expected)

    def test_counters_advance(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        run._wake(0)
        run._wake(0)
        assert run._outer[0] == 2
        assert run._inner_sweeps[0] >= 2

    def test_empty_group_steps_harmlessly(self, contest_small):
        # Force empty groups via a K larger than the site count spread.
        run = build_run(contest_small, 64, "dpr1")
        sizes = [run.system.group_size(g) for g in range(64)]
        empty = sizes.index(0)
        run._wake(empty)
        assert run._r[run._slices[empty]].size == 0
        assert run._outer[empty] == 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DistributedConfig(algorithm="dpr3")


class TestSynchronousConvergence:
    @pytest.mark.parametrize("mode", ["dpr1", "dpr2"])
    def test_converges_to_centralized(self, contest_small, mode):
        run = build_run(contest_small, 6, mode)
        reference = pagerank_open(contest_small, tol=1e-13).ranks
        ranks = synchronous_rounds(run, 80)
        err = np.abs(ranks - reference).sum() / np.abs(reference).sum()
        assert err < 1e-6

    def test_theorem_4_1_monotonicity(self, contest_small):
        """DPR1 from R0=0: every page's rank sequence never decreases."""
        run = build_run(contest_small, 5, "dpr1")
        history = [synchronous_rounds(run, 1) for _ in range(15)]
        diffs = np.diff(np.vstack(history), axis=0)
        assert (diffs >= -1e-12).all()

    def test_theorem_4_2_bounded_by_centralized(self, contest_small):
        """DPR1 iterates never exceed the centralized fixed point."""
        run = build_run(contest_small, 5, "dpr1")
        reference = pagerank_open(contest_small, tol=1e-13).ranks
        for _ in range(15):
            ranks = synchronous_rounds(run, 1)
            assert (ranks <= reference + 1e-9).all()

    def test_dpr1_mean_rank_monotone(self, contest_small):
        run = build_run(contest_small, 5, "dpr1")
        means = [synchronous_rounds(run, 1).mean() for _ in range(12)]
        assert is_monotone_nondecreasing(means)

    def test_k1_equals_centralized_after_one_dpr1_step(self, contest_small):
        """With one group there are no afferent links: a single
        GroupPageRank call IS centralized PageRank."""
        run = build_run(contest_small, 1, "dpr1", local_tol=1e-13, max_inner=5000)
        run._wake(0)
        reference = pagerank_open(contest_small, tol=1e-13).ranks
        np.testing.assert_allclose(run.assemble_ranks(), reference, atol=1e-8)


class TestSeedAfferent:
    """A warm start seeds every pair at generation 0."""

    def test_seed_feeds_x_and_is_superseded(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        ranks = np.full(contest_small.n_pages, 0.5)
        run.warm_start(ranks)
        g = run.system.sources_of(1)[0]
        p, rows = pair(run, g, 1)
        seeded = run.system.blocks.cross[(g, 1)] @ ranks[run.system.blocks.pages[g]]
        np.testing.assert_array_equal(run._recv[run._pairs[p][2]], seeded[rows])
        assert (run._recv_gen == 0).all()
        # A real generation-1 update replaces the generation-0 seed.
        deliver(run, g, 1, np.full(rows.size, 2.0), generation=1)
        assert run._stale[1] == 0
        np.testing.assert_array_equal(run._recv[run._pairs[p][2]], np.full(rows.size, 2.0))

    def test_seed_copies_values(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        ranks = np.full(contest_small.n_pages, 0.25)
        run.warm_start(ranks)
        ranks[:] = 99.0
        np.testing.assert_array_equal(run.assemble_ranks(), np.full(contest_small.n_pages, 0.25))

    def test_seed_rejects_wrong_shape(self, contest_small):
        run = build_run(contest_small, 4, "dpr1")
        with pytest.raises(ValueError, match="shape"):
            run.warm_start(np.ones(contest_small.n_pages + 1))
