"""Engine capability registry and config validator.

Four execution engines share one :class:`~repro.core.coordinator.
DistributedConfig`, and each supports a different slice of it: the
event engine simulates everything, the flat engine trades generality
for whole-system kernels, the hybrid engine recovers the fault and
async features on top of the flat kernels, and the Monte-Carlo engine
replaces the iteration entirely.  What a valid config is lives in
tables, read by one validator:

* the *domain* of every field, declared on the field itself
  (``DistributedConfig``'s ``metadata["domain"]``);
* :data:`FEATURES` — every optional capability a config can request
  (the async schedule among them), each with the one predicate that
  decides whether it does (rules, engine dispatch and the hybrid
  engine's fault-plane switch all read it by key);
* :data:`RULES` — the cross-field constraints, phrased over those
  feature keys;
* :data:`ENGINES` / :data:`CODEC_ENGINES` — what each engine supports;
* :func:`validate_config` — domains, then rules, then engine × codec
  × feature, with rejection messages that name the engines that *do*
  support the offending feature;
* :func:`resolve_engine` — the default-on dispatch rule: a ``flat``
  request whose config needs features only the hybrid engine has
  (faults, async schedule) silently resolves to ``hybrid``, so the
  fast path stays the default instead of a separate opt-in.

Adding an engine, a feature or a constraint means editing a table
here; the validation and dispatch logic never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import DistributedConfig

__all__ = [
    "CODEC_ENGINES",
    "ENGINES",
    "FEATURES",
    "RULES",
    "SCHEDULES",
    "EngineProfile",
    "Feature",
    "Rule",
    "codecs_supported",
    "engines_supporting",
    "needs_fault_plane",
    "requested_features",
    "resolve_engine",
    "unsupported_features",
    "validate_config",
]


@dataclass(frozen=True)
class Feature:
    """One optional capability a config can request."""

    #: Stable identifier used in :class:`EngineProfile.features` sets
    #: and :class:`Rule` key lists.
    key: str
    #: The config fields whose values request it.
    fields: Tuple[str, ...]
    #: True when a config requests this feature.
    requested: Callable[["DistributedConfig"], bool]
    #: Name used in rejection messages where the field names alone
    #: would not say which of the field's values is meant.
    label: str = ""
    #: True when the feature runs as a process on the hybrid engine's
    #: persistent fault plane (injectors, heartbeat, checkpoints,
    #: takeover) rather than inside a round.
    plane: bool = False

    def __str__(self) -> str:
        return self.label or "/".join(self.fields)


#: Every feature, in the order rejection messages list them.  The
#: predicates read the config as the caller gave it, so they hold
#: before and after ``DistributedConfig`` normalises itself.
FEATURES: Tuple[Feature, ...] = (
    Feature("async", ("schedule",), lambda c: c.schedule == "async", "schedule='async'"),
    Feature("loss", ("delivery_prob",), lambda c: c.delivery_prob < 1.0, "delivery_prob < 1"),
    Feature("reliable", ("reliable",), lambda c: c.reliable),
    Feature(
        "chaos",
        ("ack_loss_prob", "duplicate_prob", "reorder_prob"),
        lambda c: c.ack_loss_prob > 0 or c.duplicate_prob > 0 or c.reorder_prob > 0,
    ),
    Feature("suppress", ("send_threshold",), lambda c: c.send_threshold > 0.0),
    Feature("codec", ("codec",), lambda c: c.codec != "none", "codec != 'none'"),
    Feature("comm_epsilon", ("comm_epsilon",), lambda c: c.comm_epsilon > 0.0, "comm_epsilon > 0"),
    Feature("pause", ("pause_faults",), lambda c: c.pause_faults > 0, plane=True),
    Feature("crash", ("crash_prob",), lambda c: c.crash_prob > 0.0, plane=True),
    Feature("heartbeat", ("heartbeat_interval",), lambda c: c.heartbeat_interval > 0.0, plane=True),
    Feature(
        "checkpoint", ("checkpoint_interval",), lambda c: c.checkpoint_interval > 0.0, plane=True
    ),
    Feature("recovery", ("recovery",), lambda c: c.recovery, plane=True),
    Feature("vector_e", ("e",), lambda c: isinstance(c.e, np.ndarray), "vector-valued e"),
)

_FEATURE_BY_KEY: Dict[str, Feature] = {f.key: f for f in FEATURES}


@dataclass(frozen=True)
class Rule:
    """One cross-field constraint on a config.

    The rule binds a config that requests every feature in ``when``;
    such a config must also request every ``requires`` key, none of
    the ``excludes`` keys, and satisfy ``holds`` — a comparison of the
    named ``fields`` for what no feature expresses.  ``message`` is
    formatted with the offending config as ``c``.
    """

    key: str
    message: str
    when: Tuple[str, ...] = ()
    requires: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()
    holds: Optional[Callable[["DistributedConfig"], bool]] = None

    def violated(self, config: "DistributedConfig", on: frozenset) -> bool:
        """True when ``config``, requesting the feature keys ``on``,
        breaks this rule."""
        if not on.issuperset(self.when):
            return False
        return (
            not on.issuperset(self.requires)
            or not on.isdisjoint(self.excludes)
            or (self.holds is not None and not self.holds(config))
        )

    def mentions(self) -> Tuple[str, ...]:
        """Every config field the rule reads, features' fields first."""
        keys = self.when + self.requires + self.excludes
        return sum((_FEATURE_BY_KEY[k].fields for k in keys), ()) + self.fields


#: The cross-field constraints, in the order they are checked.  They
#: restrict *configs*, whatever the engine; what an engine lacks is the
#: :data:`ENGINES` matrix below.
RULES: Tuple[Rule, ...] = (
    Rule("wait-bounds", "t2 must be >= t1", fields=("t1", "t2"), holds=lambda c: c.t2 >= c.t1),
    Rule(
        "mean-waits-length",
        "mean_waits needs one entry per group (n_groups={c.n_groups})",
        fields=("mean_waits", "n_groups"),
        holds=lambda c: c.mean_waits is None or len(c.mean_waits) == c.n_groups,
    ),
    Rule(
        "mean-waits-async",
        "the sync schedule derives one common wait from (t1+t2)/2; explicit mean_waits "
        "are only meaningful under schedule='async'",
        fields=("mean_waits", "schedule"),
        holds=lambda c: c.mean_waits is None or c.schedule != "sync",
    ),
    Rule(
        "gauss-seidel-dpr1",
        "inner_solver='gauss_seidel' needs algorithm='dpr1': dpr2 runs one Jacobi sweep "
        "per outer step and has no inner solve",
        fields=("inner_solver", "algorithm"),
        holds=lambda c: c.inner_solver != "gauss_seidel" or c.algorithm == "dpr1",
    ),
    Rule(
        "epsilon-needs-codec",
        "comm_epsilon is the wire codec's error budget; set codec='delta' or "
        "codec='delta-q16' to use it",
        when=("comm_epsilon",), requires=("codec",),
    ),
    Rule(
        "codec-needs-delivery",
        "a delta codec needs guaranteed delivery (delivery_prob == 1): a lost frame "
        "breaks the pair's delta chain; run reliable=True with chaos knobs to model bad "
        "networks under a codec",
        when=("codec",), excludes=("loss",),
    ),
    Rule(
        "codec-excludes-threshold",
        "send_threshold and a wire codec are mutually exclusive: the "
        "codec's ε_comm budget subsumes ad-hoc threshold suppression",
        when=("codec",), excludes=("suppress",),
    ),
    Rule(
        "codec-excludes-crash",
        "codec != 'none' does not support crash/recovery faults: a takeover discards "
        "receiver codec state mid-chain (resync handshakes are future work); pause "
        "faults are fine",
        when=("codec",), excludes=("crash", "recovery"),
    ),
    Rule(
        "mc-exact-frames",
        "the mc engine's token frames are exact by construction; comm_epsilon must stay 0",
        when=("comm_epsilon",), fields=("engine",), holds=lambda c: c.engine != "mc",
    ),
    Rule(
        "retry-cap",
        "retry_max_timeout must be >= retry_timeout",
        fields=("retry_timeout", "retry_max_timeout"),
        holds=lambda c: c.retry_max_timeout >= c.retry_timeout,
    ),
    Rule(
        "chaos-needs-reliable",
        "ack_loss_prob/duplicate_prob/reorder_prob model the reliability layer's "
        "adversaries and require reliable=True",
        when=("chaos",), requires=("reliable",),
    ),
    Rule(
        "recovery-needs-heartbeat",
        "recovery requires failure detection: set heartbeat_interval > 0",
        when=("recovery",), requires=("heartbeat",),
    ),
)


#: ``DistributedConfig.schedule`` values: exponential waits (the
#: paper's timing model) or one common fixed period.
SCHEDULES: Tuple[str, ...] = ("async", "sync")


@dataclass(frozen=True)
class EngineProfile:
    """What one execution engine supports.

    Attributes
    ----------
    name:
        The ``DistributedConfig.engine`` value.
    summary:
        One clause describing the engine's execution model, used as
        the lead-in of rejection messages.
    features:
        Keys into :data:`FEATURES` this engine supports.
    round_boundary_sampling:
        True when the engine only samples at round boundaries, so
        ``sample_interval`` must be a whole multiple of the
        synchronous period (the event engine samples at arbitrary
        times and is exempt).
    fidelity:
        The engine's accuracy contract relative to the event engine
        on the same config: ``"exact"`` (bit-identical where the
        config overlaps) or ``"approximate"`` (documented-tolerance
        equivalence; see DESIGN.md §13).
    """

    name: str
    summary: str
    features: frozenset
    round_boundary_sampling: bool
    fidelity: str


ENGINES: Dict[str, EngineProfile] = {
    profile.name: profile
    for profile in (
        EngineProfile(
            name="event",
            summary="simulates every message as a discrete event",
            features=frozenset(f.key for f in FEATURES),
            round_boundary_sampling=False,
            fidelity="exact",
        ),
        EngineProfile(
            name="flat",
            summary="runs failure-free bulk-synchronous rounds",
            features=frozenset({"loss", "codec", "comm_epsilon", "vector_e"}),
            round_boundary_sampling=True,
            fidelity="exact",
        ),
        EngineProfile(
            name="hybrid",
            summary=(
                "runs flat bulk-synchronous rounds over a persistent "
                "fault plane"
            ),
            features=frozenset(f.key for f in FEATURES),
            round_boundary_sampling=True,
            fidelity="approximate",
        ),
        EngineProfile(
            name="mc",
            summary="runs failure-free bulk-synchronous rounds",
            features=frozenset({"codec"}),
            round_boundary_sampling=True,
            fidelity="approximate",
        ),
    )
}


#: Codec × engine validity table (``DistributedConfig.codec``).  The
#: score engines all speak the delta codecs — one emit step
#: (``SynchronousEngine._build_sends``) encodes for all three — while
#: the Monte-Carlo engine ships walk tokens, not
#: score vectors: its frames are exact varint gap lists
#: (:func:`repro.net.codec.token_frame_bytes`), so the quantized
#: ``delta-q16`` codec has nothing to quantize and is rejected.
#: Cross-engine requirements (guaranteed delivery, no crash faults, no
#: ad-hoc ``send_threshold``) are :data:`RULES` — they restrict
#: *configs*, not engines.
CODEC_ENGINES: Dict[str, Tuple[str, ...]] = {
    "none": ("event", "flat", "hybrid", "mc"),
    "delta": ("event", "flat", "hybrid", "mc"),
    "delta-q16": ("event", "flat", "hybrid"),
}


def codecs_supported(engine: str) -> List[str]:
    """Codec names valid for ``engine``, table order."""
    return [c for c, engines in CODEC_ENGINES.items() if engine in engines]


def engines_supporting(feature_key: str) -> List[str]:
    """Engine names supporting ``feature_key``, registry order."""
    return [
        name
        for name, profile in ENGINES.items()
        if feature_key in profile.features
    ]


def requested_features(config: "DistributedConfig") -> List[str]:
    """Keys of every feature ``config`` asks for, table order."""
    return [f.key for f in FEATURES if f.requested(config)]


def needs_fault_plane(config: "DistributedConfig") -> bool:
    """True when ``config`` requests a feature that runs as a process
    on the hybrid engine's persistent fault plane."""
    return any(f.plane and f.requested(config) for f in FEATURES)


def unsupported_features(
    config: "DistributedConfig", engine: str
) -> List[str]:
    """Requested feature keys the ``engine`` profile lacks."""
    profile = ENGINES[engine]
    return [
        key
        for key in requested_features(config)
        if key not in profile.features
    ]


def resolve_engine(config: "DistributedConfig") -> str:
    """Default-on dispatch: upgrade ``flat`` to ``hybrid`` when needed.

    A config that names the flat engine but requests fault features or
    the async schedule resolves to the hybrid engine, which supports
    every feature the event engine does.  Every other engine name
    resolves to itself: the dispatch is a fast-path default, not a
    general fallback chain (asking for ``mc`` with faults is a
    contradiction to report, not to paper over).
    """
    if config.engine == "flat" and unsupported_features(config, "flat"):
        return "hybrid"
    return config.engine


def validate_config(config: "DistributedConfig") -> None:
    """The single validator, reading the tables in three steps.

    Every field against its own domain; then :data:`RULES`; then the
    engine the config resolves to (:func:`resolve_engine`) against its
    codec and feature support.  Raises ``ValueError`` naming the
    offending field, the broken rule, or the unsupported features
    together with the engines that do support them.  It reads the
    config as the caller gave it — ``DistributedConfig`` calls it
    before normalising — and accepts an already-normalised one too.
    """
    for f in fields(config):
        f.metadata["domain"].check(getattr(config, f.name), f.name)
    on = frozenset(requested_features(config))
    for rule in RULES:
        if rule.violated(config, on):
            raise ValueError(rule.message.format(c=config))
    engine = resolve_engine(config)
    profile = ENGINES[engine]
    codec = config.codec
    if engine not in CODEC_ENGINES[codec]:
        raise ValueError(
            f"engine={engine!r} does not support codec={codec!r} "
            f"(supported by: {', '.join(CODEC_ENGINES[codec])})"
        )
    lacking = [f for f in FEATURES if f.key in on - profile.features]
    if lacking:
        parts = [
            f"{f} (supported by: {', '.join(engines_supporting(f.key))})"
            for f in lacking
        ]
        raise ValueError(
            f"engine={engine!r} {profile.summary} "
            f"and does not support: {'; '.join(parts)}"
        )
