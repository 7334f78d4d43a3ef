"""End-to-end orchestration of a distributed page-ranking run.

:func:`run_distributed_pagerank` is the package's main entry point: it
builds the engine the config names — by default the event engine
(:class:`~repro.core.ranker.DistributedRun`), which wires graph →
partition → :class:`~repro.core.open_system.GroupSystem` → overlay →
transport → rankers → fault plane — and runs it through the one
tick/sample/stop loop (:meth:`repro.core.engine.RoundEngine.run`)
until convergence (or a time budget), returning a :class:`RunResult`
carrying everything the paper's figures plot.  This module holds what
every engine shares: the validity table (:class:`DistributedConfig`),
the set-up (:class:`RunSetup`) and the report (:class:`RunResult`).

The experiment parameters mirror §5 exactly: ``K`` page groups, wait
means drawn from ``[T1, T2]``, per-node exponential waits, delivery
probability ``p``, and the 0.01% relative-error threshold of Fig 8.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.capabilities import (
    CODEC_ENGINES,
    ENGINES,
    FEATURES,
    RULES,
    SCHEDULES,
    engines_supporting,
    resolve_engine,
    validate_config,
)
from repro.core.convergence import ConvergenceTrace
from repro.core.dpr import ALGORITHMS, INNER_SOLVERS
from repro.core.open_system import GroupSystem
from repro.core.pagerank import pagerank_open
from repro.graph.partition import STRATEGIES, Partition, make_partition
from repro.graph.webgraph import WebGraph
from repro.linalg.montecarlo import DANGLING_MODES, WALK_MODES
from repro.net.bandwidth import TrafficAccountant, TrafficSnapshot
from repro.net.failures import BernoulliLoss, NoLoss
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulator
from repro.net.transport import TRANSPORTS, Transport, build_transport
from repro.overlay import OVERLAYS, build_overlay
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import (
    BOOLEAN,
    FRACTION,
    NON_NEGATIVE,
    POSITIVE,
    PROBABILITY,
    Domain,
    at_least,
    integer,
    one_of,
    optional,
)

__all__ = [
    "GROUPS",
    "MIN_MEAN_WAIT",
    "DistributedConfig",
    "DistributedRun",
    "RunResult",
    "RunSetup",
    "assemble_run_result",
    "config_flag",
    "config_reference",
    "config_transport",
    "run_distributed_pagerank",
]

#: Waits are clamped below to keep a mean of exactly 0 (possible when
#: T1 = T2 = 0) from livelocking the event loop at one instant.
MIN_MEAN_WAIT = 1e-3


def __getattr__(name: str):
    # The event engine runs on the round engines' flat state, whose
    # module imports this one; it is resolved here on first use.
    if name == "DistributedRun":
        from repro.core.ranker import DistributedRun

        return DistributedRun
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Field groups of :class:`DistributedConfig`, in table order: heading →
#: one-line description.  ``repro run --help`` prints them as sections
#: and the configuration reference in docs/ALGORITHMS.md as a column.
GROUPS: Dict[str, str] = {
    "experiment": "the paper's §5 parameters: graph placement, overlay, timing, loss",
    "engine": "execution engine, wake schedule, local solver and sampling",
    "monte-carlo": "random-walk engine knobs (--engine mc; repro.linalg.montecarlo)",
    "reliability": "ACK/retry transport layer (repro.net.reliable)",
    "chaos": "message-level adversaries (require --reliable)",
    "churn": "node pause and crash injection",
    "compression": "wire codec and traffic suppression (repro.net.codec / repro.net.adaptive)",
    "recovery": "failure detection and checkpoint-based takeover",
}


def _check_e(value, name: str) -> None:
    """``e``: None (uniform 1), one finite number, or a per-page array
    (its length is checked against the graph when the run is built).
    Other sequences are refused: the engines tell a personalised run
    by ``isinstance(e, np.ndarray)``."""
    if value is None or (isinstance(value, np.ndarray) and value.ndim == 1):
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be None, a number or a 1-D numpy array")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_mean_waits(value, name: str) -> None:
    """``mean_waits``: None, or a sequence of non-negative waits."""
    if value is not None and any(w < 0 for w in value):
        raise ValueError(f"{name} must be non-negative")


def _spec(default, domain: Domain, group: str, help: str = "", flag: Optional[str] = None):
    """One row of the validity table: a dataclass field stating its
    domain, its :data:`GROUPS` heading and — for a ``repro run`` option
    — its help text, once.  A field with help text is an option,
    spelled after the field unless ``flag`` renames it
    (:func:`config_flag`); one without is library-only."""
    meta = {"domain": domain, "group": group, "help": help, "flag": flag}
    return field(default=default, metadata=meta)


def config_flag(f) -> Optional[str]:
    """The ``repro run`` option that sets config field ``f`` (one of
    ``dataclasses.fields(DistributedConfig)``); None for a library-only
    field."""
    if not f.metadata["help"]:
        return None
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


@dataclass
class DistributedConfig:
    """Parameters of one distributed page-ranking experiment.

    Field names follow the paper: ``n_groups`` is K, ``t1``/``t2``
    bound the per-group mean waits, ``delivery_prob`` is p.

    The field declarations are the validity table: each states its
    domain, group, CLI flag and help once, and
    :func:`repro.core.capabilities.validate_config`, the ``repro run``
    parser and the configuration reference in docs/ALGORITHMS.md
    (:func:`config_reference`) all read them from here.
    """

    n_groups: int = _spec(16, integer(1), "experiment", "ranker count K", "--groups")
    algorithm: str = _spec(
        "dpr1", one_of(ALGORITHMS), "experiment",
        "solve each group to convergence per outer step (dpr1) or run one sweep (dpr2)",
    )
    #: "hybrid" keeps the flat kernels but runs the fault-tolerance
    #: stack and the async schedule on a persistent event-simulated
    #: fault plane (:mod:`repro.core.hybrid`); "mc" replaces the Jacobi
    #: iteration with the seeded Monte-Carlo random-walk estimator
    #: (:mod:`repro.linalg.montecarlo`).  Per-engine capabilities live
    #: in :mod:`repro.core.capabilities`.
    engine: str = _spec(
        "event", one_of(ENGINES), "engine",
        "execution engine: per-message event simulation (event), vectorized "
        "bulk-synchronous rounds (flat; much faster at scale), the fault-tolerant fast "
        "path (hybrid; flat-speed rounds over a persistent fault plane — flat requests "
        "with fault knobs or --schedule async dispatch here automatically), or the "
        "Monte-Carlo random-walk estimator (mc; statistical accuracy, O(log n) rounds).  "
        "flat, hybrid and mc sample once per round; flat and mc require --schedule sync",
    )
    #: The sync period is ``max((t1+t2)/2, MIN_MEAN_WAIT)`` — the
    #: bulk-synchronous schedule the flat engine reproduces exactly.
    schedule: str = _spec(
        "async", one_of(SCHEDULES), "engine",
        "wake schedule: exponential waits (async, the paper's model) or one common "
        "fixed period (sync; the event engine is then bit-identical to --engine flat)",
    )
    alpha: float = _spec(0.85, FRACTION, "experiment")
    partition_strategy: str = _spec(
        "site", one_of(STRATEGIES), "experiment", "page placement strategy", "--partition"
    )
    overlay: str = _spec("pastry", one_of(OVERLAYS), "experiment", "structured overlay kind")
    transport: str = _spec(
        "indirect", one_of(TRANSPORTS), "experiment",
        "overlay-routed and recombined per hop (indirect), or lookup then point-to-point",
    )
    t1: float = _spec(0.0, NON_NEGATIVE, "experiment", "lower bound of the mean waits")
    t2: float = _spec(6.0, NON_NEGATIVE, "experiment", "upper bound of the mean waits")
    delivery_prob: float = _spec(
        1.0, PROBABILITY, "experiment", "probability p that a score update is delivered"
    )
    local_tol: float = _spec(1e-10, NON_NEGATIVE, "engine")
    max_inner: int = _spec(1000, integer(1), "engine")
    #: DPR1 only: dpr2 has no inner solve (a rule rejects the pair).
    inner_solver: str = _spec("jacobi", one_of(INNER_SOLVERS), "engine")
    hop_delay: float = _spec(0.5, NON_NEGATIVE, "experiment")
    aggregation_delay: float = _spec(0.25, NON_NEGATIVE, "experiment")
    #: Promoted from the compression ablation.  Mutually exclusive
    #: with a wire codec, whose budgeted suppression subsumes it.
    send_threshold: float = _spec(
        0.0, NON_NEGATIVE, "compression",
        "skip sending an efferent vector whose L1 change since the last send is at or "
        "below this threshold (0 disables; mutually exclusive with --codec)",
    )
    #: See :mod:`repro.net.codec` / :mod:`repro.net.adaptive`.  Needs
    #: guaranteed delivery (``delivery_prob == 1``; the reliable layer
    #: and chaos are fine) and no crash/recovery faults — delta
    #: sessions assume the receiver replays every frame in order.
    codec: str = _spec(
        "none", one_of(CODEC_ENGINES), "compression",
        "wire codec for cross-group score updates: flat 100 B/record accounting (none), "
        "varint delta frames with float32 deltas (delta), or float16 deltas (delta-q16); "
        "at --comm-epsilon 0 every frame is an exact flush and delivered values are "
        "bit-identical to an uncompressed run",
    )
    comm_epsilon: float = _spec(
        0.0, NON_NEGATIVE, "compression",
        "total certified error budget ε_comm in efferent L1 mass the codec may suppress "
        "(0 = lossless); rank deviation is certified at or below ε_comm / (1 - alpha)",
    )
    e: Union[float, np.ndarray, None] = _spec(
        None, Domain("None, a number or a 1-D array", _check_e), "experiment"
    )
    #: Sampling cadence of the run loop.  ``None`` resolves in
    #: ``__post_init__``: 1.0 for the event engine, the synchronous
    #: period for the round engines.  Those only accept whole
    #: multiples of the period — their samples land exactly on round
    #: boundaries, so any finer cadence would silently change trip
    #: ordering and final-round traffic relative to the event engine
    #: instead of staying bit-identical.
    sample_interval: Optional[float] = _spec(None, optional(POSITIVE), "engine")
    seed: int = _spec(
        0, integer(), "experiment",
        "seed of every named random stream (on the command line, of the crawl too)",
    )
    #: Explicit per-ranker mean waits (length ``n_groups``); overrides
    #: the uniform [t1, t2] draw.  Lets experiments model deliberate
    #: stragglers / heterogeneous hardware.
    mean_waits: Optional[Sequence[float]] = _spec(
        None, Domain("None or non-negative numbers", _check_mean_waits), "experiment"
    )

    #: The estimator's R; the documented error bound is
    #: :func:`repro.linalg.montecarlo.mc_error_tolerance`.
    walks_per_page: int = _spec(
        16, integer(1), "monte-carlo",
        "walk tokens launched per page; relative L1 error scales as 1/sqrt(R)",
    )
    walk_mode: str = _spec(
        "terminate", one_of(WALK_MODES), "monte-carlo",
        "rank estimator: credit walk terminations, or every visit scaled by 1-alpha",
    )
    dangling_mode: str = _spec(
        "absorb", one_of(DANGLING_MODES), "monte-carlo",
        "walks at zero-out-degree pages die (absorb, the open-system reference behaviour) "
        "or restart at a random page (jump; biased vs. the centralized reference)",
    )

    reliable: bool = _spec(
        False, BOOLEAN, "reliability",
        "wrap the transport in ReliableTransport (seq numbers, ACKs, timeout-driven "
        "retransmission, receive-side dedup)",
    )
    retry_timeout: float = _spec(4.0, POSITIVE, "reliability", "initial retransmission timeout")
    retry_backoff: float = _spec(2.0, at_least(1), "reliability", "timeout multiplier per retry")
    retry_jitter: float = _spec(
        0.0, NON_NEGATIVE, "reliability", "uniform jitter added to each timeout"
    )
    retry_max_timeout: float = _spec(60.0, POSITIVE, "reliability", "timeout cap across retries")
    max_retries: int = _spec(8, integer(0), "reliability", "retransmissions before giving up")

    ack_loss_prob: float = _spec(0.0, PROBABILITY, "chaos", "probability an ACK is destroyed")
    duplicate_prob: float = _spec(
        0.0, PROBABILITY, "chaos", "probability a delivery is duplicated"
    )
    reorder_prob: float = _spec(0.0, PROBABILITY, "chaos", "probability a delivery is held back")
    reorder_max_delay: float = _spec(
        0.0, NON_NEGATIVE, "chaos", "largest extra delay of a held-back delivery"
    )

    #: Transient pause/resume churn is §4.2's "sleep/suspend"; permanent
    #: crashes ("even shutdown") fire in [crash_after, crash_after +
    #: crash_horizon].
    pause_faults: int = _spec(0, integer(0), "churn", "number of transient pause/resume faults")
    pause_horizon: float = _spec(20.0, NON_NEGATIVE, "churn", "window pauses start in")
    pause_mean_outage: float = _spec(5.0, NON_NEGATIVE, "churn", "mean pause duration")
    crash_prob: float = _spec(0.0, PROBABILITY, "churn", "per-ranker permanent crash probability")
    crash_after: float = _spec(10.0, NON_NEGATIVE, "churn", "warmup before crashes may fire")
    crash_horizon: float = _spec(10.0, NON_NEGATIVE, "churn", "window crashes fire in")

    heartbeat_interval: float = _spec(
        0.0, NON_NEGATIVE, "recovery", "failure-detector sweep period (0 disables)"
    )
    heartbeat_miss_threshold: int = _spec(
        3, integer(1), "recovery", "missed beats before a group is declared dead",
        "--heartbeat-miss",
    )
    checkpoint_interval: float = _spec(
        0.0, NON_NEGATIVE, "recovery", "ranker state snapshot period (0 disables)"
    )
    recovery: bool = _spec(
        False, BOOLEAN, "recovery",
        "take over detected-dead groups from checkpoints (needs --heartbeat-interval > 0)",
    )

    def __post_init__(self) -> None:
        # What the caller gave for the two fields normalisation
        # rewrites; :meth:`with_overrides` re-derives them.
        self._given = {
            "engine": self.engine, "sample_interval": self.sample_interval
        }
        validate_config(self)
        # Default-on fast-path dispatch: a "flat" request that needs
        # faults or the async schedule runs on the hybrid engine.
        self.engine = resolve_engine(self)
        period = max(0.5 * (self.t1 + self.t2), MIN_MEAN_WAIT)
        by_round = ENGINES[self.engine].round_boundary_sampling
        if self.sample_interval is None:
            self.sample_interval = period if by_round else 1.0
        ratio = self.sample_interval / period
        if by_round and not (ratio >= 1.0 and float(ratio).is_integer()):
            raise ValueError(
                f"engine={self.engine!r} samples at round boundaries: "
                "sample_interval must be a whole multiple of the "
                f"synchronous period {period!r} (got "
                f"{self.sample_interval!r}); pass sample_interval=None "
                "to use the period itself"
            )

    def with_overrides(self, **overrides) -> "DistributedConfig":
        """A copy with ``overrides`` applied on top of what the caller
        *gave*, not of what normalisation derived from it.

        ``dataclasses.replace`` copies the normalised fields, which
        pins a defaulted ``sample_interval`` to the old period and a
        dispatched ``engine`` to the old feature set; here both are
        re-derived unless overridden.
        """
        return replace(self, **{**self._given, **overrides})


def config_reference() -> str:
    """The configuration reference as a markdown table, one row per
    :class:`DistributedConfig` field, generated from the validity
    table: flag, default, domain and group off the field, the engines
    that support the features the field requests (``all`` when no
    engine lacks any) off the capability matrix, and the keys of the
    :data:`~repro.core.capabilities.RULES` that read it.  docs/ALGORITHMS.md carries the output between two
    marker comments; ``tests/test_config_table.py`` keeps it current.
    """
    lines = [
        "| field | flag | default | domain | group | engines accepting it when set | rules |",
        "|---|---|---|---|---|---|---|",
    ]
    for f in fields(DistributedConfig):
        limits = {str(ft): engines_supporting(ft.key) for ft in FEATURES if f.name in ft.fields}
        if f.name == "codec":
            limits.update((f"codec={c!r}", names) for c, names in CODEC_ENGINES.items())
        engines = "; ".join(
            f"{what}: {', '.join(names)}"
            for what, names in limits.items()
            if len(names) < len(ENGINES)
        )
        flag = config_flag(f)
        rules = ", ".join(rule.key for rule in RULES if f.name in rule.mentions())
        lines.append(
            f"| `{f.name}` | {f'`{flag}`' if flag else '—'} | `{f.default!r}` "
            f"| {f.metadata['domain'].text} | {f.metadata['group']} | {engines or 'all'} | {rules or '—'} |"
        )
    return "\n".join(lines)


@dataclass
class RunResult:
    """Everything a finished run reports.

    Attributes
    ----------
    ranks:
        Final global rank vector (assembled from the groups).
    reference:
        The centralized solution ``R*`` the run was measured against.
    trace:
        Sampled time series (Fig 6/7 material).
    converged:
        True when the target relative error was reached.
    time_to_target:
        Simulated time of first reaching the target (None otherwise).
    outer_iterations, inner_sweeps:
        Per-group loop/sweep counts at the end of the run.
    traffic:
        Final cumulative traffic snapshot.
    dropped_updates:
        Updates suppressed by the loss model.
    quiescent, quiescence_time:
        Whether/when reference-free termination detection fired (only
        meaningful when the run was started with ``quiescence_delta``).
    retransmits, gave_up, dup_drops, dead_drops, acks_lost:
        Reliability-layer counters (zero when ``reliable`` is off):
        timeout-driven retransmissions, sends abandoned after the
        retry budget, receive-side duplicate suppressions, deliveries
        swallowed by dead groups, and chaos-destroyed ACKs.
    crashed_groups, deaths_detected, takeovers, checkpoint_saves:
        Fault/recovery counters: permanent crashes injected, heartbeat
        death declarations, checkpoint-restored takeovers performed,
        and checkpoints written.
    fidelity:
        The engine's accuracy contract for *this* run: ``"exact"``
        (bit-identical to the event engine on the same config) or
        ``"approximate"`` (documented-tolerance equivalence — compare
        ``final_relative_error`` against the tolerance in DESIGN.md
        §13).  The hybrid engine reports ``"exact"`` when the config
        let it run the pure flat path and ``"approximate"`` when the
        fault plane or async schedule was engaged.
    fast_rounds, replayed_rounds:
        Hybrid round-split counters: rounds executed purely as flat
        sparse kernels vs. rounds whose messaging was replayed through
        the persistent event-simulated fault plane.  Both zero for the
        other engines.
    codec_stats:
        Wire-codec session counters (``None`` when ``codec="none"``):
        frames shipped / suppressed / exact-flushed, entries sent, the
        outstanding residual mass, and the certified rank-deviation
        bound ``ε_comm / (1 − α)`` (see :mod:`repro.net.adaptive`).
        Calibrated vs paper bytes live on :attr:`traffic`
        (``data_bytes`` vs ``paper_data_bytes``).
    """

    ranks: np.ndarray
    reference: np.ndarray
    trace: ConvergenceTrace
    converged: bool
    time_to_target: Optional[float]
    outer_iterations: np.ndarray
    inner_sweeps: np.ndarray
    traffic: TrafficSnapshot
    dropped_updates: int
    quiescent: bool = False
    quiescence_time: Optional[float] = None
    retransmits: int = 0
    gave_up: int = 0
    dup_drops: int = 0
    dead_drops: int = 0
    acks_lost: int = 0
    crashed_groups: int = 0
    deaths_detected: int = 0
    takeovers: int = 0
    checkpoint_saves: int = 0
    fidelity: str = "exact"
    fast_rounds: int = 0
    replayed_rounds: int = 0
    codec_stats: Optional[Dict[str, float]] = None
    config: DistributedConfig = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def final_relative_error(self) -> float:
        return self.trace.final_error()

    @property
    def max_outer_iterations(self) -> int:
        return int(self.outer_iterations.max()) if self.outer_iterations.size else 0

    @property
    def max_inner_sweeps(self) -> int:
        return int(self.inner_sweeps.max()) if self.inner_sweeps.size else 0


def assemble_run_result(
    *,
    ranks: np.ndarray,
    reference: np.ndarray,
    trace: ConvergenceTrace,
    converged: bool,
    time_to_target: Optional[float],
    outer_iterations: np.ndarray,
    inner_sweeps: np.ndarray,
    accountant: TrafficAccountant,
    now: float,
    dropped_updates: int,
    config: DistributedConfig,
    quiescent: bool = False,
    quiescence_time: Optional[float] = None,
    fidelity: str = "exact",
    **counters: int,
) -> RunResult:
    """Build a :class:`RunResult` from one finished run's pieces.

    This is the single reporting path shared by the event engine
    (:class:`~repro.core.ranker.DistributedRun`) and the flat engine
    (:class:`~repro.core.engine.SynchronousEngine`): the traffic
    snapshot is taken here, from the one :class:`TrafficAccountant`
    both engines feed, so reported totals always come out of the same
    counter arithmetic.  Reliability/fault counters that an engine
    does not track (the flat engine runs failure-free) default to 0
    via ``counters``.
    """
    return RunResult(
        ranks=ranks,
        reference=reference,
        trace=trace,
        converged=converged,
        time_to_target=time_to_target,
        outer_iterations=outer_iterations,
        inner_sweeps=inner_sweeps,
        traffic=accountant.snapshot(now),
        dropped_updates=dropped_updates,
        quiescent=quiescent,
        quiescence_time=quiescence_time,
        fidelity=fidelity,
        config=config,
        **counters,
    )


def config_transport(
    config: DistributedConfig, sim: Simulator, overlay, accountant, loss
) -> Transport:
    """The transport ``config`` names, wired to ``sim``.

    The one place the config's transport knobs (kind, hop delay,
    aggregation delay) turn into a transport object: the event engine's
    wire, the hybrid engine's fault plane and the round engines'
    scratch accounting replay all come from here, so all of them charge
    a send identically.
    """
    kwargs = {}
    if config.transport == "indirect":
        kwargs["aggregation_delay"] = config.aggregation_delay
    return build_transport(
        config.transport,
        sim,
        overlay,
        accountant,
        loss=loss,
        latency=FixedLatency(config.hop_delay),
        **kwargs,
    )


class RunSetup:
    """What every engine builds first, from the same named seed streams.

    Partition (checked against ``n_groups``), the group decomposition,
    the centralized reference, the overlay, the traffic accountant, the
    origin loss model, the shared wire-codec session manager and the
    synchronous period.  The event engine
    (:class:`~repro.core.ranker.DistributedRun`) and the round engines
    (:mod:`repro.core.engine`, :mod:`repro.core.hybrid`) all start
    here, so one seed gives every engine the same partition, overlay
    ids and loss stream.  Named streams are independent: which of them
    an engine goes on to draw, and in what order, changes none of the
    others.

    Parameters
    ----------
    graph, config:
        The crawl and the experiment parameters.
    partition, reference:
        Optional precomputed partition / centralized solution.
    group_system:
        False skips the grouped operator (the Monte-Carlo engine walks
        the raw CSR).  The default reference is
        :func:`~repro.core.pagerank.pagerank_open` on the same graph
        either way, solved to 1e-12 with the grouped operator.
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
        group_system: bool = True,
    ):
        self.graph = graph
        self.config = config
        seeds = self._seeds = SeedSequenceFactory(config.seed)

        self.partition = (
            partition
            if partition is not None
            else make_partition(
                graph,
                config.n_groups,
                config.partition_strategy,
                seed=seeds.seed("partition"),
            )
        )
        if self.partition.n_groups != config.n_groups:
            raise ValueError("partition n_groups disagrees with config")

        self.system: Optional[GroupSystem] = None
        if group_system:
            self.system = GroupSystem(
                graph, self.partition, alpha=config.alpha, e=config.e
            )
        if reference is not None:
            self.reference = np.asarray(reference, dtype=np.float64)
        else:
            # The Jacobi engines are measured against a 1e-12 solve, the
            # Monte-Carlo engine's coarser walk estimates against the default.
            tol = 1e-12 if group_system else 1e-10
            self.reference = pagerank_open(graph, config.alpha, e=config.e, tol=tol).ranks

        self.overlay = build_overlay(
            config.overlay, config.n_groups, seed=seeds.seed("overlay") % (2**31)
        )
        self.accountant = TrafficAccountant(config.n_groups)
        self._loss = (
            NoLoss()
            if config.delivery_prob >= 1.0
            else BernoulliLoss(config.delivery_prob, seed=seeds.generator("loss"))
        )
        #: Common tick period of the synchronous schedule.
        self.period = max(0.5 * (config.t1 + config.t2), MIN_MEAN_WAIT)

        #: Shared wire-codec session manager (None when codec="none",
        #: and for the Monte-Carlo engine, whose token frames need no
        #: session).  One instance serves every ranker: pair state is
        #: keyed by (src, dst), and the per-pair error budget splits
        #: ε_comm over the pairs that actually exchange updates — the
        #: same pair universe in every engine, so the certified
        #: budgets, and every frame's byte size, agree across engines.
        self._codec = None
        if config.codec != "none" and group_system:
            from repro.net.adaptive import AdaptiveCodec

            self._codec = AdaptiveCodec(
                config.codec,
                epsilon=config.comm_epsilon,
                n_pairs=self.system.blocks.pair_src.size,
            )

    @property
    def n_groups(self) -> int:
        """Number of page groups (the paper's K)."""
        return self.config.n_groups

    def _group_mean_waits(self) -> List[float]:
        """Each ranker's mean wait between loop steps (§5's timing)."""
        cfg = self.config
        if cfg.schedule == "sync":
            # One common fixed period for every ranker; the "wait-
            # means" stream is simply not drawn from (named streams
            # are independent, so skipping it perturbs nothing).
            return [0.5 * (cfg.t1 + cfg.t2)] * cfg.n_groups
        if cfg.mean_waits is not None:
            return [float(w) for w in cfg.mean_waits]
        wait_rng = self._seeds.generator("wait-means")
        return [
            float(wait_rng.uniform(cfg.t1, cfg.t2)) for _ in range(cfg.n_groups)
        ]

    def _codec_stats(self) -> Optional[Dict]:
        """Codec counter snapshot + certified bound (None when off)."""
        if self._codec is None:
            return None
        return {
            **self._codec.stats(),
            "certified_bound": self._codec.certified_bound(self.config.alpha),
        }


def run_distributed_pagerank(
    graph: WebGraph,
    config: Optional[DistributedConfig] = None,
    *,
    partition: Optional[Partition] = None,
    reference: Optional[np.ndarray] = None,
    max_time: float = 1000.0,
    target_relative_error: Optional[float] = None,
    quiescence_delta: Optional[float] = None,
    quiescence_samples: int = 3,
    **config_overrides,
) -> RunResult:
    """One-call distributed PageRank.

    Keyword overrides are applied on top of ``config`` (or the
    defaults), e.g.::

        result = run_distributed_pagerank(
            graph, n_groups=100, algorithm="dpr2", delivery_prob=0.7,
            t1=0, t2=15, target_relative_error=1e-4,
        )
    """
    if config is None:
        config = DistributedConfig(**config_overrides)
    elif config_overrides:
        config = config.with_overrides(**config_overrides)
    # Imported lazily: the engine modules import coordinator types.
    from repro.core.engine import MonteCarloEngine, SynchronousEngine
    from repro.core.hybrid import HybridEngine
    from repro.core.ranker import DistributedRun

    engine_class = {
        "event": DistributedRun,
        "flat": SynchronousEngine,
        "hybrid": HybridEngine,
        "mc": MonteCarloEngine,
    }[config.engine]
    return engine_class(
        graph, config, partition=partition, reference=reference
    ).run(
        max_time=max_time,
        target_relative_error=target_relative_error,
        quiescence_delta=quiescence_delta,
        quiescence_samples=quiescence_samples,
    )
