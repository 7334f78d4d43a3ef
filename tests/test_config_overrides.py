"""Overrides on an already-normalised config re-derive what was
defaulted (``sample_interval``) or dispatched (``engine``).

``DistributedConfig`` writes resolved defaults back into its fields, so
copying those fields under new timing or a new engine used to carry an
interval the user never set: a "not a multiple of the period" error, or
— when the stale value happened to be a multiple — a run that silently
sampled every second round.
"""

import dataclasses

import pytest

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.graph import ring_web


def once_per_round(result, period):
    times = list(result.trace.times)
    assert result.config.sample_interval == period
    assert times[:3] == [0.0, period, 2 * period]


def test_new_timing_on_a_flat_config_resamples_at_the_new_period():
    base = DistributedConfig(n_groups=3, engine="flat", schedule="sync")
    assert base.sample_interval == 3.0
    result = run_distributed_pagerank(ring_web(12), base, t1=2.0, t2=2.0, max_time=9.0)
    once_per_round(result, 2.0)


def test_switching_a_sync_event_config_to_flat_picks_up_the_period():
    base = DistributedConfig(n_groups=3, schedule="sync")
    assert (base.engine, base.sample_interval) == ("event", 1.0)
    with pytest.raises(ValueError, match="round boundaries"):
        dataclasses.replace(base, engine="flat")  # copies the resolved 1.0
    result = run_distributed_pagerank(ring_web(12), base, engine="flat", max_time=9.0)
    once_per_round(result, 3.0)


def test_a_stale_interval_that_is_a_multiple_no_longer_skips_rounds():
    base = DistributedConfig(n_groups=3, engine="flat", schedule="sync")
    result = run_distributed_pagerank(ring_web(12), base, t1=1.0, t2=2.0, max_time=9.0)
    once_per_round(result, 1.5)


def test_with_overrides_keeps_what_the_caller_gave():
    explicit = DistributedConfig(engine="flat", schedule="sync", sample_interval=6.0)
    assert explicit.with_overrides(n_groups=4).sample_interval == 6.0
    dispatched = DistributedConfig(engine="flat", schedule="sync", reliable=True)
    assert dispatched.engine == "hybrid"
    assert dispatched.with_overrides(reliable=False).engine == "flat"
    assert dataclasses.replace(dispatched, reliable=False).engine == "hybrid"


def test_plain_replace_still_works_where_nothing_derived_changes():
    base = DistributedConfig(engine="flat", schedule="sync", codec="delta")
    plain = dataclasses.replace(base, codec="none")
    assert (plain.codec, plain.engine, plain.sample_interval) == ("none", "flat", 3.0)
