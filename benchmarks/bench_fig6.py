"""Bench: regenerate Figure 6 (relative error vs time, DPR1, A/B/C).

Paper claims verified here:
* distributed PageRank converges to the centralized ranks (error → 0);
* loss (B) and slower nodes (C) delay but do not prevent convergence.
"""

import pytest

from repro.experiments import default_graph, run_fig6


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_fig6(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_fig6,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("fig6", result.format())

    # Shape assertions (the paper's qualitative findings).
    for label, res in result.results.items():
        errs = res.trace.relative_errors
        assert errs[-1] < 0.05 * errs[0], f"config {label} did not converge"
    t_a = result.results["A"].trace.time_to_error(0.01)
    t_c = result.results["C"].trace.time_to_error(0.01)
    assert t_a is not None
    if t_c is not None:
        assert t_a <= t_c, "loss+slow nodes should not beat the calm config"

    # Fitted decay rates (more negative = faster): A ≺ B ≺ C ordering.
    rates = result.rates()
    assert rates["A"] < 0 and rates["B"] < 0
    assert rates["A"] <= rates["C"] + 1e-9

    benchmark.extra_info["final_error_A"] = result.results["A"].trace.final_error()
    benchmark.extra_info["time_to_1pct_A"] = t_a
    benchmark.extra_info["decay_rates"] = {k: round(v, 4) for k, v in rates.items()}
