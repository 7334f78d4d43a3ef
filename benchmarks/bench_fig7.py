"""Bench: regenerate Figure 7 (monotone average rank, DPR1, K=100).

Paper claims verified here:
* the rank sequence of DPR1 is monotone non-decreasing (Thm 4.1/4.2);
* the average rank plateaus well below E=1 (the paper observes ~0.3)
  because most of the crawl's links point outside the dataset.
"""

import pytest

from repro.experiments import default_graph, run_fig7


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_fig7(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_fig7,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("fig7", result.format())

    assert all(result.monotone.values()), "Theorem 4.1 violated in simulation"
    for label, plateau in result.plateau.items():
        assert 0.05 < plateau < 0.7, f"config {label}: plateau {plateau}"

    benchmark.extra_info["plateau_A"] = result.plateau["A"]
    benchmark.extra_info["centralized_mean"] = float(
        result.results["A"].reference.mean()
    )
