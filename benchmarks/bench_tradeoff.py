"""Bench: §4.5's convergence-time-vs-bandwidth trade-off, measured.

The paper derives the trade-off analytically (Table 1 caps the
iteration cadence to fit the bisection budget); this bench measures
both sides of it in simulation: slower cadence ⇒ proportionally
longer convergence but proportionally lower bandwidth *rate*, with
total traffic roughly constant.
"""

import pytest

from repro.experiments import default_graph, run_time_vs_bandwidth


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_time_vs_bandwidth(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_time_vs_bandwidth,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("tradeoff", result.format())

    times = result.times_to_target
    rates = result.bytes_per_time_unit
    # Longer iteration interval -> longer convergence, lower rate.
    assert times[0] < times[1] < times[2]
    assert rates[0] > rates[1] > rates[2]
    # Total bytes stays within a small factor across a 9x cadence range
    # (the work to converge is cadence-independent).
    totals = result.bytes_total
    assert max(totals) < 4 * min(totals)

    benchmark.extra_info["times"] = times
    benchmark.extra_info["rates"] = [round(r) for r in rates]
