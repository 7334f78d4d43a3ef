"""Tests generated from ``DistributedConfig``'s validity table.

Each test iterates the table — the field declarations, ``RULES``, the
engine matrix — instead of listing fields by hand, so a new field, flag
or rule is covered the day it is declared.  No engine runs here.
"""

import argparse
import dataclasses
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cli import build_parser
from repro.core.capabilities import ENGINES, RULES, requested_features, unsupported_features
from repro.core.coordinator import GROUPS, DistributedConfig, config_flag, config_reference
from tests.config_strategies import FIELDS, out_of_domain, valid_configs

FLAGGED = [f for f in FIELDS.values() if config_flag(f)]

#: The parent commit's `repro run` options (frozen: this PR may add none).
RUN_OPTIONS = {
    "--pages", "--sites", "--seed", "--target", "--max-time",
    "--groups", "--engine", "--schedule", "--algorithm", "--partition", "--overlay",
    "--transport", "--t1", "--t2", "--delivery-prob",
    "--walks-per-page", "--walk-mode", "--dangling-mode",
    "--reliable", "--retry-timeout", "--retry-backoff", "--retry-jitter",
    "--retry-max-timeout", "--max-retries",
    "--ack-loss-prob", "--duplicate-prob", "--reorder-prob", "--reorder-max-delay",
    "--pause-faults", "--pause-horizon", "--pause-mean-outage",
    "--crash-prob", "--crash-after", "--crash-horizon",
    "--codec", "--comm-epsilon", "--send-threshold",
    "--heartbeat-interval", "--heartbeat-miss", "--checkpoint-interval", "--recovery",
}  # fmt: skip

SUBCOMMANDS = {
    "fig6", "fig7", "fig8", "table1", "run", "summary", "graphgen",
    "partitions", "engines", "serve", "chaos", "compression", "all",
}  # fmt: skip

#: One minimal config per rule that breaks it (and only it).
VIOLATIONS = {
    "wait-bounds": dict(t1=3.0, t2=1.0),
    "mean-waits-length": dict(n_groups=4, mean_waits=[1.0] * 3),
    "mean-waits-async": dict(n_groups=2, schedule="sync", mean_waits=[1.0, 2.0]),
    "gauss-seidel-dpr1": dict(algorithm="dpr2", inner_solver="gauss_seidel"),
    "epsilon-needs-codec": dict(comm_epsilon=1e-4),
    "codec-needs-delivery": dict(codec="delta", delivery_prob=0.9),
    "codec-excludes-threshold": dict(codec="delta", send_threshold=1e-6),
    "codec-excludes-crash": dict(codec="delta", crash_prob=0.1),
    "mc-exact-frames": dict(engine="mc", schedule="sync", codec="delta", comm_epsilon=1e-4),
    "retry-cap": dict(retry_timeout=10.0, retry_max_timeout=5.0),
    "chaos-needs-reliable": dict(duplicate_prob=0.1),
    "recovery-needs-heartbeat": dict(recovery=True),
}


def subparsers():
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


# -- (a) domains ---------------------------------------------------------------


@pytest.mark.parametrize("name", FIELDS)
def test_out_of_domain_value_dies_at_construction(name):
    bad = out_of_domain(FIELDS[name])
    with pytest.raises(ValueError, match=name):
        DistributedConfig(**{name: bad})


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(overlay="bogus"),
        dict(transport="bogus"),
        dict(partition_strategy="bogus"),
        dict(inner_solver="bogus"),
        dict(engine="flat", schedule="sync", inner_solver="bogus"),
        dict(max_inner=0),
        dict(local_tol=-1.0),
        dict(n_groups=2.5),
    ],
)
def test_late_or_silent_failures_now_die_at_construction(kwargs):
    """Each of these used to pass ``DistributedConfig(...)`` and fail
    inside a kernel after the partition and reference solve, or never."""
    with pytest.raises(ValueError, match=list(kwargs)[-1]):
        DistributedConfig(**kwargs)


def test_integer_domains_accept_numpy_integers():
    cfg = DistributedConfig(n_groups=np.int64(4), seed=np.int32(7), max_retries=np.uint8(2))
    assert (cfg.n_groups, cfg.seed, cfg.max_retries) == (4, 7, 2)


def test_every_field_sits_under_a_declared_group():
    assert {f.metadata["group"] for f in FIELDS.values()} == set(GROUPS)


# -- (b) rules -----------------------------------------------------------------


def test_every_rule_has_a_violation_case():
    assert set(VIOLATIONS) == {rule.key for rule in RULES}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.key)
def test_minimal_violation_is_rejected_with_the_rules_message(rule):
    kwargs = VIOLATIONS[rule.key]
    probe = SimpleNamespace(**{**{n: f.default for n, f in FIELDS.items()}, **kwargs})
    on = frozenset(requested_features(probe))
    assert [r.key for r in RULES if r.violated(probe, on)] == [rule.key]
    with pytest.raises(ValueError, match=re.escape(rule.message.split("{")[0])):
        DistributedConfig(**kwargs)


# -- (c) CLI parity --------------------------------------------------------------


def test_run_options_and_subcommands_are_the_parents():
    choices = subparsers()
    assert set(choices) == SUBCOMMANDS
    options = set(choices["run"]._option_string_actions) - {"-h", "--help"}
    assert options == RUN_OPTIONS
    assert {config_flag(f) for f in FLAGGED} == RUN_OPTIONS - {
        "--pages", "--sites", "--target", "--max-time"
    }


@pytest.mark.parametrize("f", FLAGGED, ids=lambda f: f.name)
def test_flag_default_and_domain_match_the_field(f):
    flag = config_flag(f)
    run = subparsers()["run"]
    action = run._option_string_actions[flag]
    # --seed is the workload seed: one value drives the crawl and the run.
    assert action.default == (2003 if f.name == "seed" else f.default)
    assert action.choices == f.metadata["domain"].choices
    if action.nargs == 0:  # a switch has no value to get wrong
        return
    with pytest.raises(SystemExit):
        run.parse_args([flag, str(out_of_domain(f))])


def test_cli_accepts_what_the_library_accepts():
    args = build_parser().parse_args(["run", "--partition", "ldg", "--overlay", "tapestry"])
    assert (args.partition, args.overlay) == ("ldg", "tapestry")
    build_parser().parse_args(["run", "--partition", "rendezvous"])


# -- (d) generated valid configs -----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(valid_configs())
def test_every_generated_config_constructs_and_normalises_once(kwargs):
    cfg = DistributedConfig(**kwargs)
    assert dataclasses.replace(cfg) == cfg
    assert cfg.with_overrides() == cfg
    assert cfg.engine in ENGINES
    assert unsupported_features(cfg, cfg.engine) == []
    assert cfg.sample_interval > 0


# -- docs ------------------------------------------------------------------------


def test_committed_configuration_reference_is_current():
    text = (pathlib.Path(__file__).parent.parent / "docs" / "ALGORITHMS.md").read_text()
    begin, end = "<!-- config-reference:begin -->\n", "\n<!-- config-reference:end -->"
    committed = text[text.index(begin) + len(begin) : text.index(end)]
    assert committed == config_reference(), (
        "docs/ALGORITHMS.md is stale: paste the output of "
        "repro.core.coordinator.config_reference() between the markers"
    )
