"""Bench: regenerate Figure 8 (iterations to converge vs #rankers).

Paper claims verified here:
* DPR1 converges in fewer iterations than DPR2;
* DPR1 needs no more iterations than centralized PageRank;
* the number of page rankers has little effect on convergence speed.
"""

import pytest

from repro.experiments import default_graph, run_fig8


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_fig8(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_fig8,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("fig8", result.format())

    dpr1 = result.iterations["dpr1"]
    dpr2 = result.iterations["dpr2"]
    assert all(v > 0 for v in dpr1.values()), "a DPR1 run missed the threshold"
    assert all(v > 0 for v in dpr2.values()), "a DPR2 run missed the threshold"
    for k in dpr1:
        assert dpr1[k] <= dpr2[k] + 1, f"DPR1 slower than DPR2 at K={k}"
        assert dpr1[k] <= result.cpr_iterations + 2, f"DPR1 slower than CPR at K={k}"
    # K-insensitivity across two orders of magnitude.
    for algo in ("dpr1", "dpr2"):
        vals = list(result.iterations[algo].values())
        assert max(vals) <= 4 * max(min(vals), 1)

    benchmark.extra_info["cpr_iterations"] = result.cpr_iterations
    benchmark.extra_info["dpr1"] = dpr1
    benchmark.extra_info["dpr2"] = dpr2
