"""Tests of the experiment harness at reduced scale.

Each paper figure/table experiment is run small and its *shape*
assertions — the qualitative claims of the paper — are checked:
Fig 6 error decays; Fig 7 is monotone with a sub-E plateau; Fig 8
orders DPR1 < DPR2 and is K-insensitive; Table 1 reproduces the
published numbers with paper hop counts.
"""

import pytest

from repro.experiments import (
    DEFAULT_CONFIGS,
    ExperimentScale,
    default_graph,
    run_compression_ablation,
    run_fig6,
    run_fig7,
    run_fig8,
    run_overlay_hops,
    run_partitioning_ablation,
    run_table1,
    run_transport_comparison,
)

SMALL = ExperimentScale(n_pages=600, n_sites=30, seed=5)


@pytest.fixture(scope="module")
def small_graph():
    return default_graph(SMALL)


class TestWorkloads:
    def test_default_graph_statistics(self, small_graph):
        from repro.graph.stats import internal_link_fraction, intra_site_link_fraction

        assert small_graph.n_pages == 600
        assert 0.35 < internal_link_fraction(small_graph) < 0.6
        assert 0.8 < intra_site_link_fraction(small_graph) < 1.0

    def test_configs_match_paper(self):
        assert DEFAULT_CONFIGS == {
            "A": (1.0, 0.0, 6.0),
            "B": (0.7, 0.0, 6.0),
            "C": (0.7, 0.0, 15.0),
        }

    def test_scaled(self):
        assert SMALL.scaled(2.0).n_pages == 1200


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, small_graph):
        return run_fig6(small_graph, n_groups=12, max_time=60.0)

    def test_all_configs_present(self, result):
        assert set(result.results) == {"A", "B", "C"}

    def test_error_decays(self, result):
        for label, res in result.results.items():
            errs = res.trace.relative_errors
            assert errs[-1] < 0.1 * errs[0], label

    def test_lossless_beats_lossy(self, result):
        """Paper's A-vs-B ordering: p=1 ends lower than p=0.7."""
        final_a = result.results["A"].trace.final_error()
        final_b = result.results["B"].trace.final_error()
        assert final_a <= final_b * 1.5  # allow noise, forbid inversion

    def test_format_is_printable(self, result):
        text = result.format()
        assert "Fig 6" in text
        assert "series A" in text

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == 3
        assert all(len(r) == 4 for r in rows)

    def test_fitted_decay_rates(self, result):
        rates = result.rates()
        assert set(rates) == {"A", "B", "C"}
        # All configs converge => all rates negative; the lossless
        # config decays at least as fast as the slow lossy one.
        assert rates["A"] < 0
        assert rates["A"] <= rates["C"] + 1e-9


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, small_graph):
        return run_fig7(small_graph, n_groups=12, max_time=60.0)

    def test_monotone_everywhere(self, result):
        assert all(result.monotone.values())

    def test_plateau_below_e(self, result):
        """Rank leak: the mean rank plateaus well below E=1 (paper: ~0.3)."""
        for label, plateau in result.plateau.items():
            assert 0.05 < plateau < 0.7, label

    def test_plateau_approaches_centralized_mean(self, result):
        res = result.results["A"]
        assert abs(
            result.plateau["A"] - float(res.reference.mean())
        ) < 0.05 * float(res.reference.mean()) + 1e-9

    def test_format(self, result):
        assert "Fig 7" in result.format()


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, small_graph):
        return run_fig8(small_graph, ks=(2, 8, 24), max_time=3000.0)

    def test_all_runs_converged(self, result):
        for algo, per_k in result.iterations.items():
            assert all(v > 0 for v in per_k.values()), (algo, per_k)

    def test_dpr1_no_slower_than_dpr2(self, result):
        for k in result.iterations["dpr1"]:
            assert result.iterations["dpr1"][k] <= result.iterations["dpr2"][k] + 1

    def test_k_insensitivity(self, result):
        """Paper: 'the number of page rankers has little effect'."""
        for algo in ("dpr1", "dpr2"):
            vals = list(result.iterations[algo].values())
            assert max(vals) <= 4 * max(min(vals), 1)

    def test_cpr_positive(self, result):
        assert result.cpr_iterations > 0

    def test_format(self, result):
        text = result.format()
        assert "DPR1" in text and "CPR" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(ns=(1000,), hop_samples=150)

    def test_paper_row_exact(self, result):
        row = result.paper_rows[0]
        assert row["min_iteration_interval_s"] == pytest.approx(7500.0)
        assert row["min_node_bandwidth_Bps"] == pytest.approx(100_000.0)

    def test_measured_hops_close_to_paper(self, result):
        assert abs(result.measured_hops[1000] - 2.5) < 0.5

    def test_format(self, result):
        assert "Table 1" in result.format()


class TestAblations:
    def test_partitioning_orders_strategies(self, small_graph):
        res = run_partitioning_ablation(
            small_graph, n_groups=8, measure_traffic=False
        )
        site_cut = res.cut_stats["site"]["n_cut_links"]
        rand_cut = res.cut_stats["random"]["n_cut_links"]
        url_cut = res.cut_stats["url"]["n_cut_links"]
        assert site_cut < rand_cut
        assert site_cut < url_cut
        assert "§4.1" in res.format()

    def test_transport_tradeoff(self, small_graph):
        # N must exceed the Pastry leaf-set span (16) or every route is
        # one hop and indirect transmission has nothing to amplify.
        res = run_transport_comparison(small_graph, n_groups=48, max_time=300.0)
        ind = res.runs["indirect"]
        dire = res.runs["direct"]
        assert ind.converged and dire.converged
        # §4.4: direct sends more messages (lookups per destination),
        # indirect spends more bytes (h× relay amplification).
        assert dire.traffic.total_messages > ind.traffic.total_messages
        assert ind.traffic.data_bytes > dire.traffic.data_bytes
        assert "transmission" in res.format()

    def test_compression_saves_messages(self, small_graph):
        res = run_compression_ablation(
            small_graph, n_groups=8, thresholds=(0.0, 1e-3), max_time=60.0
        )
        assert res.messages[1] < res.messages[0]
        assert "suppression" in res.format()

    def test_time_vs_bandwidth_tradeoff(self, small_graph):
        from repro.experiments import run_time_vs_bandwidth

        res = run_time_vs_bandwidth(
            small_graph, n_groups=8, wait_means=(1.0, 4.0), max_time=2000.0
        )
        # §4.5: slower cadence -> longer convergence, lower byte rate.
        assert res.times_to_target[0] < res.times_to_target[1]
        assert res.bytes_per_time_unit[0] > res.bytes_per_time_unit[1]
        assert "bandwidth" in res.format()

    def test_overlay_hops_ranks_overlays(self):
        res = run_overlay_hops(ns=(64, 256), samples=120)
        hops = {(kind, n): mean for kind, n, mean, _, _ in res.rows()}
        # Pastry routes in fewer hops than CAN at every size.
        for n in (64, 256):
            assert hops[("pastry", n)] < hops[("can", n)]
        assert "overlay" in res.format()


class TestCodecsBakeoff:
    """The wire-compression bake-off runs each contender exactly once."""

    @pytest.fixture
    def engine_runs(self, monkeypatch):
        import repro.core.coordinator as coordinator

        runs = []
        real = coordinator.run_distributed_pagerank

        def spy(*args, **kwargs):
            runs.append(kwargs["codec"])
            return real(*args, **kwargs)

        monkeypatch.setattr(coordinator, "run_distributed_pagerank", spy)
        return runs

    @pytest.mark.parametrize(
        "codecs, planned",
        [
            (("none", "delta", "delta-eps", "delta-q16"), 4),
            (("delta", "delta-eps"), 3),  # the uncoded baseline still runs, once
        ],
    )
    def test_one_engine_run_per_contender(self, small_graph, engine_runs, codecs, planned):
        from repro.experiments import run_compression_bakeoff

        result = run_compression_bakeoff(small_graph, n_groups=8, codecs=codecs)
        assert len(engine_runs) == planned
        assert engine_runs[0] == "none"
        assert [row[0] for row in result.rows()] == list(codecs)
        assert result.certified()
        for row in result.rows():
            if row[0] in ("none", "delta"):  # lossless: bit-identical to uncoded
                assert row[7] == 0.0
