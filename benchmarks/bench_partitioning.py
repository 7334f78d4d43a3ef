"""Ablation bench: partitioning strategies (§4.1).

Verifies the paper's argument for hash-by-site placement: with ~90%
of links intra-site, site-granularity partitioning cuts an order of
magnitude fewer links than random or URL-hash placement, and the
saving shows up one-for-one in real bytes on the simulated network.
"""

import pytest

from repro.experiments import default_graph, run_partitioning_ablation


@pytest.fixture(scope="module")
def graph(scale):
    return default_graph(scale)


def test_partitioning(benchmark, graph, save_result):
    result = benchmark.pedantic(
        run_partitioning_ablation,
        kwargs=dict(graph=graph),
        rounds=1,
        iterations=1,
    )
    save_result("partitioning", result.format())

    site = result.cut_stats["site"]["n_cut_links"]
    rand = result.cut_stats["random"]["n_cut_links"]
    url = result.cut_stats["url"]["n_cut_links"]
    assert site < 0.3 * rand
    assert site < 0.3 * url
    assert result.run_bytes["site"] < result.run_bytes["random"]

    benchmark.extra_info["cut_links"] = {
        "site": site, "random": rand, "url": url
    }
