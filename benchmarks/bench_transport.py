"""Ablation bench: direct vs indirect transmission (§4.4).

Verifies both halves of the paper's trade-off, end to end:
* direct transmission sends asymptotically more messages
  (lookup + send per destination ⇒ O((h+1)N²));
* indirect transmission consumes more bytes (every record relayed
  over ~h overlay hops ⇒ O(h·l·W)).
"""

import pytest

from repro.experiments import default_graph, run_transport_comparison


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_transport(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_transport_comparison,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("transport", result.format())

    ind = result.runs["indirect"]
    dire = result.runs["direct"]
    assert ind.converged and dire.converged
    assert dire.traffic.total_messages > ind.traffic.total_messages
    assert ind.traffic.data_bytes > dire.traffic.data_bytes
    # Formula sanity: measured indirect msgs/iter within the gN bound's
    # order of magnitude.
    pred = result.predicted_messages_per_iteration()
    iters = max(int(ind.trace.max_outer_iterations[-1]), 1)
    measured = ind.traffic.total_messages / iters
    assert measured < 5 * pred["indirect"]

    benchmark.extra_info["indirect_msgs"] = ind.traffic.total_messages
    benchmark.extra_info["direct_msgs"] = dire.traffic.total_messages
    benchmark.extra_info["indirect_bytes"] = ind.traffic.total_bytes
    benchmark.extra_info["direct_bytes"] = dire.traffic.total_bytes
