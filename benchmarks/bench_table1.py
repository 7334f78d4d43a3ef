"""Bench: regenerate Table 1 (iteration interval & node bandwidth).

Paper values: T = 7500 / 10500 / 12000 s and B = 100 / 10 / 1 KB/s at
N = 10³ / 10⁴ / 10⁵.  The bench derives the same rows twice — once
from the paper's quoted Pastry hop counts (expected to match to the
digit) and once from hop counts measured on this repo's Pastry.
"""

import pytest

from repro.experiments import run_table1

PAPER_T = {1_000: 7_500.0, 10_000: 10_500.0, 100_000: 12_000.0}
PAPER_B = {1_000: 100_000.0, 10_000: 10_000.0, 100_000: 1_000.0}


def test_table1(benchmark, save_result):
    result = benchmark.pedantic(
        run_table1,
        # 300 sampled routes (default 400): EXPERIMENTS.md Table 1 was recorded with them.
        kwargs=dict(hop_samples=300),
        rounds=1,
        iterations=1,
    )
    save_result("table1", result.format())

    # With paper hops the published numbers come out exactly.
    for row in result.paper_rows:
        n = int(row["n_rankers"])
        assert row["min_iteration_interval_s"] == pytest.approx(PAPER_T[n])
        assert row["min_node_bandwidth_Bps"] == pytest.approx(PAPER_B[n])

    # With measured hops the derivation lands within 25% of published.
    for row in result.measured_rows:
        n = int(row["n_rankers"])
        assert row["min_iteration_interval_s"] == pytest.approx(PAPER_T[n], rel=0.25)

    for n, h in result.measured_hops.items():
        benchmark.extra_info[f"hops_{n}"] = h
