"""Ablation bench: overlay routing statistics (h and g of §4.4–4.5).

Measures mean hop counts and neighbor counts for Pastry, Chord and
CAN across network sizes — the paper's h ≈ 2.5/3.5/4.0 Pastry numbers
plus the comparison that justifies choosing a logarithmic overlay.
"""

import pytest

from repro.experiments import run_overlay_hops
from repro.overlay import PastryOverlay, hop_statistics


def test_overlay_scaling(benchmark, save_result):
    result = benchmark.pedantic(
        run_overlay_hops,
        rounds=1,
        iterations=1,
    )
    save_result("overlay_hops", result.format())

    hops = {(kind, n): mean for kind, n, mean, _, _ in result.rows()}
    # Pastry (log₁₆ N) never loses; CAN's √N growth overtakes Chord's
    # log₂ N once the network is large enough (at N=100 they tie-ish).
    for n in (100, 1_000, 10_000):
        assert hops[("pastry", n)] <= hops[("chord", n)]
        assert hops[("pastry", n)] < hops[("can", n)]
        # Pastry and Tapestry are the same digit-resolving class.
        assert abs(hops[("pastry", n)] - hops[("tapestry", n)]) < 1.0
    for n in (1_000, 10_000):
        assert hops[("chord", n)] < hops[("can", n)]
    # CAN grows ~√N: quadrupling N from 1e3 to 1e4 must grow hops
    # super-logarithmically, unlike Pastry/Chord.
    assert hops[("can", 10_000)] > 2 * hops[("can", 1_000)]

    benchmark.extra_info["pastry_hops"] = {
        n: hops[("pastry", n)] for n in (100, 1_000, 10_000)
    }


def test_pastry_paper_hop_numbers(benchmark):
    """The specific h values the paper quotes from [6]."""

    def measure():
        return {
            n: hop_statistics(PastryOverlay(n, seed=1), 300, seed=0).mean
            for n in (1_000, 10_000)
        }

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert measured[1_000] == pytest.approx(2.5, abs=0.5)
    assert measured[10_000] == pytest.approx(3.5, abs=0.5)
    benchmark.extra_info.update({f"h_{k}": v for k, v in measured.items()})
