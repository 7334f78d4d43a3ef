"""Engine capability registry.

Four execution engines share one :class:`~repro.core.coordinator.
DistributedConfig`, and each supports a different slice of it: the
event engine simulates everything, the flat engine trades generality
for whole-system kernels, the hybrid engine recovers the fault and
async features on top of the flat kernels, and the Monte-Carlo engine
replaces the iteration entirely.  Scattering those constraints as ad
hoc ``raise ValueError`` sites (the pre-registry state of
``DistributedConfig.__post_init__``) meant every new engine re-derived
the feature list and no rejection message could say *which* engine the
user should switch to.

This module is the single source of truth instead:

* :data:`FEATURES` — every config feature an engine may lack, each
  with a predicate that decides whether a given config requests it;
* :data:`ENGINES` — one :class:`EngineProfile` per engine declaring
  its supported schedules, features, and sampling discipline;
* :func:`validate_config` — the table-driven check
  ``DistributedConfig.__post_init__`` delegates to, whose error
  messages name the engines that *do* support the offending feature;
* :func:`resolve_engine` — the default-on dispatch rule: a ``flat``
  request whose config needs features only the hybrid engine has
  (faults, async schedule) silently resolves to ``hybrid``, so the
  fast path stays the default instead of a separate opt-in.

Adding an engine or a feature means editing the two tables here; the
validation and dispatch logic never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import DistributedConfig

__all__ = [
    "CODEC_ENGINES",
    "ENGINES",
    "FEATURES",
    "EngineProfile",
    "codecs_supported",
    "engines_supporting",
    "requested_features",
    "resolve_engine",
    "unsupported_features",
    "validate_config",
]


@dataclass(frozen=True)
class Feature:
    """One optional config capability an engine may or may not have."""

    #: Stable identifier used in :class:`EngineProfile.features` sets.
    key: str
    #: Human-readable name used in rejection messages (matches the
    #: config field the user set).
    label: str
    #: True when a config requests this feature.
    requested: Callable[["DistributedConfig"], bool]


#: Every feature the engines differ on, in the order rejection
#: messages list them.  Chaos knobs are not listed separately: config
#: validation already forces them to ride on ``reliable``.
FEATURES: Tuple[Feature, ...] = (
    Feature(
        "loss", "delivery_prob < 1", lambda c: c.delivery_prob < 1.0
    ),
    Feature("reliable", "reliable", lambda c: c.reliable),
    Feature(
        "suppress", "suppress_tol", lambda c: c.suppress_tol > 0.0
    ),
    Feature("pause", "pause_faults", lambda c: c.pause_faults > 0),
    Feature("crash", "crash_prob", lambda c: c.crash_prob > 0.0),
    Feature(
        "heartbeat",
        "heartbeat_interval",
        lambda c: c.heartbeat_interval > 0.0,
    ),
    Feature(
        "checkpoint",
        "checkpoint_interval",
        lambda c: c.checkpoint_interval > 0.0,
    ),
    Feature("recovery", "recovery", lambda c: c.recovery),
    Feature(
        "x_delta", "x_mode='delta'", lambda c: c.x_mode == "delta"
    ),
    Feature(
        "vector_e",
        "vector-valued e",
        lambda c: isinstance(c.e, np.ndarray),
    ),
)

_FEATURE_BY_KEY: Dict[str, Feature] = {f.key: f for f in FEATURES}


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
    schedules:
        Supported ``DistributedConfig.schedule`` values.
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
    schedules: Tuple[str, ...]
    features: frozenset
    round_boundary_sampling: bool
    fidelity: str


ENGINES: Dict[str, EngineProfile] = {
    profile.name: profile
    for profile in (
        EngineProfile(
            name="event",
            summary="simulates every message as a discrete event",
            schedules=("async", "sync"),
            features=frozenset(f.key for f in FEATURES),
            round_boundary_sampling=False,
            fidelity="exact",
        ),
        EngineProfile(
            name="flat",
            summary="runs failure-free bulk-synchronous rounds",
            schedules=("sync",),
            features=frozenset({"loss", "vector_e"}),
            round_boundary_sampling=True,
            fidelity="exact",
        ),
        EngineProfile(
            name="hybrid",
            summary=(
                "runs flat bulk-synchronous rounds over a persistent "
                "fault plane"
            ),
            schedules=("async", "sync"),
            # Everything except the node-internal delta-X maintenance,
            # which only exists inside DPRNode's running sum (the
            # hybrid re-sums afferent segments exactly; emulating the
            # delta drift would be approximating an approximation).
            features=frozenset(
                f.key for f in FEATURES if f.key != "x_delta"
            ),
            round_boundary_sampling=True,
            fidelity="approximate",
        ),
        EngineProfile(
            name="mc",
            summary="runs failure-free bulk-synchronous rounds",
            schedules=("sync",),
            features=frozenset(),
            round_boundary_sampling=True,
            fidelity="approximate",
        ),
    )
}


#: Codec × engine validity table (``DistributedConfig.codec``).  The
#: score engines all speak the delta codecs — the event engine encodes
#: in ``PageRanker._emit``, the flat/hybrid engines at their round
#: emit paths — while the Monte-Carlo engine ships walk tokens, not
#: score vectors: its frames are exact varint gap lists
#: (:func:`repro.net.codec.token_frame_bytes`), so the quantized
#: ``delta-q16`` codec has nothing to quantize and is rejected.
#: Cross-engine requirements (guaranteed delivery, no crash faults, no
#: ad-hoc ``suppress_tol``) are enforced by ``DistributedConfig``
#: itself — they restrict *configs*, not engines.
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
    the async schedule resolves to the hybrid engine, *provided* the
    hybrid supports everything requested — otherwise the flat name is
    kept so validation points at the event engine instead of failing
    twice.  Every other engine name resolves to itself: the dispatch
    is a fast-path default, not a general fallback chain (asking for
    ``mc`` with faults is a contradiction to report, not to paper
    over).
    """
    if config.engine != "flat":
        return config.engine
    needs_hybrid = config.schedule != "sync" or unsupported_features(
        config, "flat"
    )
    if not needs_hybrid:
        return "flat"
    if config.schedule in ENGINES["hybrid"].schedules and not (
        unsupported_features(config, "hybrid")
    ):
        return "hybrid"
    return "flat"


def validate_config(config: "DistributedConfig") -> None:
    """Registry-driven engine/schedule/feature validation.

    Raises ``ValueError`` with a message naming both the offending
    features and the engines that support them.  The engine name itself
    is checked by ``DistributedConfig.__post_init__`` before it calls
    here.
    """
    profile = ENGINES[config.engine]
    if config.schedule not in profile.schedules:
        supporters = [
            name
            for name, p in ENGINES.items()
            if config.schedule in p.schedules
        ]
        raise ValueError(
            f"engine={config.engine!r} implements only "
            f"schedule={profile.schedules[0]!r}; "
            f"schedule={config.schedule!r} is supported by "
            f"engines: {', '.join(supporters)}"
        )
    codec = config.codec
    if codec not in CODEC_ENGINES:
        raise ValueError(
            f"codec must be one of {tuple(CODEC_ENGINES)}, got {codec!r}"
        )
    if config.engine not in CODEC_ENGINES[codec]:
        raise ValueError(
            f"engine={config.engine!r} does not support codec={codec!r} "
            f"(supported by: {', '.join(CODEC_ENGINES[codec])})"
        )
    unsupported = unsupported_features(config, config.engine)
    if unsupported:
        parts = []
        for key in unsupported:
            feature = _FEATURE_BY_KEY[key]
            supporters = engines_supporting(key)
            parts.append(
                f"{feature.label} (supported by: "
                f"{', '.join(supporters)})"
            )
        raise ValueError(
            f"engine={config.engine!r} {profile.summary} "
            f"and does not support: {'; '.join(parts)}"
        )
