"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig8_ks_parsing(self):
        args = build_parser().parse_args(["fig8", "--ks", "2,10,50"])
        assert args.ks == [2, 10, 50]

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "dpr1"
        assert args.transport == "indirect"
        assert args.overlay == "pastry"

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "dpr3"])

    def test_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.reliable is False
        assert args.retry_timeout == 4.0
        assert args.max_retries == 8
        assert args.crash_prob == 0.0
        assert args.heartbeat_interval == 0.0
        assert args.recovery is False
        assert args.pause_faults == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--delivery-prob", "1.5"],
            ["--crash-prob", "-0.1"],
            ["--ack-loss-prob", "2"],
            ["--duplicate-prob", "-1"],
            ["--reorder-prob", "1.01"],
            ["--retry-timeout", "0"],
            ["--retry-backoff", "0.5"],
            ["--retry-jitter", "-1"],
            ["--retry-max-timeout", "-5"],
            ["--max-retries", "-1"],
            ["--heartbeat-interval", "-2"],
            ["--heartbeat-miss", "0"],
            ["--checkpoint-interval", "-1"],
            ["--pause-faults", "-3"],
            ["--pause-mean-outage", "-1"],
            ["--crash-after", "-1"],
            ["--crash-horizon", "-1"],
            ["--reorder-max-delay", "-0.5"],
        ],
    )
    def test_out_of_range_values_rejected(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", *flags])


class TestCommands:
    def test_summary(self, capsys):
        rc = main(["summary", "--pages", "400", "--sites", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crawl summary" in out
        assert "intra_site_link_fraction" in out

    def test_run_small(self, capsys):
        rc = main(
            [
                "run",
                "--pages", "400",
                "--sites", "10",
                "--groups", "4",
                "--max-time", "300",
                "--target", "1e-4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out
        assert "True" in out

    def test_table1(self, capsys):
        rc = main(["table1", "--ns", "1000", "--hop-samples", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7,500" in out  # the paper's published T at N=1000

    def test_fig8_tiny(self, capsys):
        rc = main(
            ["fig8", "--pages", "400", "--sites", "10", "--ks", "2,4",
             "--max-time", "2000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "DPR1" in out

    def test_fig6_tiny(self, capsys):
        rc = main(
            ["fig6", "--pages", "300", "--sites", "10", "--groups", "6",
             "--max-time", "30"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig 6" in out
        assert "series A" in out

    def test_fig7_tiny_monotone_exit_code(self, capsys):
        rc = main(
            ["fig7", "--pages", "300", "--sites", "10", "--groups", "6",
             "--max-time", "30"]
        )
        out = capsys.readouterr().out
        assert rc == 0  # monotone (Thm 4.1) => success exit code
        assert "Fig 7" in out

    def test_all_subset(self, capsys, tmp_path):
        rc = main(
            ["all", "--pages", "300", "--sites", "10",
             "--only", "partitioning", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Reproduction report" in out
        assert (tmp_path / "partitioning.txt").exists()

    def test_run_reliable_reports_counters(self, capsys):
        rc = main(
            [
                "run",
                "--pages", "400",
                "--sites", "10",
                "--groups", "4",
                "--max-time", "300",
                "--target", "1e-4",
                "--reliable",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "retransmits" in out
        assert "ack messages" in out

    def test_run_recovery_reports_counters(self, capsys):
        rc = main(
            [
                "run",
                "--pages", "400",
                "--sites", "10",
                "--groups", "4",
                "--max-time", "100",
                "--target", "1e-4",
                "--reliable",
                "--crash-prob", "0.2",
                "--heartbeat-interval", "2.0",
                "--checkpoint-interval", "5.0",
                "--recovery",
            ]
        )
        out = capsys.readouterr().out
        assert "takeovers" in out
        assert "groups crashed" in out
        assert rc in (0, 1)  # crash draw may or may not block convergence

    def test_run_chaos_without_reliable_is_usage_error(self, capsys):
        rc = main(
            [
                "run",
                "--pages", "400",
                "--sites", "10",
                "--duplicate-prob", "0.5",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "reliable" in err

    def test_run_recovery_without_heartbeat_is_usage_error(self, capsys):
        rc = main(
            ["run", "--pages", "400", "--sites", "10", "--recovery"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "heartbeat" in err

    def test_run_nonconvergence_exit_code(self, capsys):
        rc = main(
            [
                "run",
                "--pages", "400",
                "--sites", "10",
                "--groups", "4",
                "--max-time", "1",
                "--target", "1e-30",
            ]
        )
        assert rc == 1


class TestExperimentCommands:
    """The subcommands that run a registry experiment through one handler."""

    def test_graphgen_then_cut_only_partitions_solves_no_reference(
        self, capsys, tmp_path, monkeypatch
    ):
        import dataclasses

        import repro.core.pagerank
        from repro.graph.io import backing_memmap
        from repro.parallel import tasks

        out = tmp_path / "graph"
        assert main(["graphgen", "--pages", "600", "--sites", "12", "--out", str(out)]) == 0
        assert "graphgen" in capsys.readouterr().out

        solves, graphs = [], []
        real = repro.core.pagerank.pagerank_open
        monkeypatch.setattr(
            repro.core.pagerank, "pagerank_open",
            lambda *a, **k: solves.append(1) or real(*a, **k),
        )
        registered = tasks.POINTS["partitions_cut"]

        def spy(graph, **params):
            graphs.append(graph)
            return registered.fn(graph, **params)

        monkeypatch.setitem(tasks.POINTS, "partitions_cut", dataclasses.replace(registered, fn=spy))
        rc = main(["partitions", "--graph", str(out), "--groups", "4", "--cut-only"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "partitioner bake-off (n=600, K=4, ε=0.0001, cut-only)" in text
        assert len(graphs) == 6  # one point per default strategy ...
        assert all(backing_memmap(g.indices) is not None for g in graphs)  # ... on the mmap load
        assert solves == []  # and no centralized reference solve

    @pytest.mark.parametrize(
        "argv, title",
        [
            (["fig7", "--groups", "6", "--max-time", "30"], "Fig 7"),
            (["engines", "--groups", "4"], "engine bake-off (n=500"),
            (["chaos", "--groups", "4"], "chaos bake-off (n=500"),
            (["compression", "--groups", "4", "--codecs", "delta,delta-eps"],
             "wire-compression bake-off (n=500"),
            (["serve", "--web-pages", "500", "--crawl", "200", "--groups", "3",
              "--phases", "1", "--queries", "40"], "serving tier under load"),
        ],
        ids=["fig7", "engines", "chaos", "compression", "serve"],
    )
    def test_smoke(self, capsys, argv, title):
        workload = [] if argv[0] == "serve" else ["--pages", "500", "--sites", "10"]
        rc = main([*argv, *workload])
        assert rc == 0
        assert title in capsys.readouterr().out
