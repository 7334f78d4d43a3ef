"""End-to-end orchestration of a distributed page-ranking run.

:func:`run_distributed_pagerank` is the package's main entry point: it
wires graph → partition → :class:`~repro.core.open_system.GroupSystem`
→ overlay → transport → rankers → monitor, runs the event simulation
until convergence (or a time budget), and returns a
:class:`RunResult` carrying everything the paper's figures plot.

The experiment parameters mirror §5 exactly: ``K`` page groups, wait
means drawn from ``[T1, T2]``, per-node exponential waits, delivery
probability ``p``, and the 0.01% relative-error threshold of Fig 8.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.capabilities import ENGINES, resolve_engine, validate_config
from repro.core.convergence import ConvergenceTrace, Monitor
from repro.core.dpr import DPRNode
from repro.core.faultplane import FaultPlane
from repro.core.open_system import GroupSystem
from repro.core.ranker import MIN_MEAN_WAIT, PageRanker
from repro.core.recovery import RecoveryManager
from repro.graph.partition import Partition, make_partition
from repro.graph.webgraph import WebGraph
from repro.net.bandwidth import TrafficAccountant, TrafficSnapshot
from repro.net.failures import BernoulliLoss, NodePauseInjector, NoLoss
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulator
from repro.net.transport import Transport, build_transport
from repro.overlay import build_overlay
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_probability,
)

__all__ = [
    "DistributedConfig",
    "DistributedRun",
    "RunResult",
    "RunSetup",
    "assemble_run_result",
    "config_transport",
    "run_distributed_pagerank",
]


@dataclass
class DistributedConfig:
    """Parameters of one distributed page-ranking experiment.

    Field names follow the paper: ``n_groups`` is K, ``t1``/``t2``
    bound the per-group mean waits, ``delivery_prob`` is p.
    """

    n_groups: int = 16
    algorithm: str = "dpr1"  # "dpr1" | "dpr2"
    #: Execution engine: "event" replays every message on the
    #: discrete-event simulator; "flat" runs the same outer loops as
    #: whole-system block SpMVs with analytically accounted traffic
    #: (see :mod:`repro.core.engine`).  Under the synchronous schedule
    #: the two produce bit-identical ranks and identical traffic.
    #: "hybrid" keeps the flat kernels but runs the fault-tolerance
    #: stack (ARQ, churn, heartbeat, checkpoint/recovery) and the
    #: async schedule on a persistent event-simulated fault plane
    #: (see :mod:`repro.core.hybrid`); a "flat" request that needs
    #: those features resolves to "hybrid" automatically
    #: (:func:`repro.core.capabilities.resolve_engine`).
    #: "mc" replaces the Jacobi iteration entirely with the seeded
    #: Monte-Carlo random-walk estimator (Das Sarma et al.; see
    #: :mod:`repro.linalg.montecarlo`): statistically-toleranced
    #: ranks in O(log n) rounds, with cut-crossing walk tokens as the
    #: per-round messages.  Per-engine capabilities live in the
    #: :mod:`repro.core.capabilities` registry.
    engine: str = "event"
    #: Wake scheduling of the *event* engine: "async" draws
    #: exponential waits (the paper's timing model); "sync" makes
    #: every ranker tick at the common fixed period
    #: ``max((t1+t2)/2, MIN_MEAN_WAIT)`` — the bulk-synchronous
    #: schedule the flat engine reproduces exactly.
    schedule: str = "async"
    alpha: float = 0.85
    partition_strategy: str = "site"  # "site" | "url" | "random" | "contiguous"
    overlay: str = "pastry"  # "pastry" | "chord" | "can"
    transport: str = "indirect"  # "indirect" | "direct"
    t1: float = 0.0
    t2: float = 6.0
    delivery_prob: float = 1.0
    local_tol: float = 1e-10
    max_inner: int = 1000
    inner_solver: str = "jacobi"  # "jacobi" | "gauss_seidel" (DPR1 only)
    #: Running afferent-sum maintenance policy per node: "exact"
    #: (bit-reproducible, the default) or "delta" (O(changed) updates;
    #: see repro.core.dpr module docs for the tradeoff).
    x_mode: str = "exact"
    hop_delay: float = 0.5
    aggregation_delay: float = 0.25
    suppress_tol: float = 0.0
    #: Canonical name for the delta-suppression threshold (promoted
    #: from the compression ablation): skip sending a pair's efferent
    #: vector when it moved less than this in L1 since the last send.
    #: Writes through to ``suppress_tol`` (the historical field, kept
    #: for compatibility); setting both to different values is an
    #: error.  Mutually exclusive with a wire codec, whose budgeted
    #: suppression subsumes this ad-hoc rule.
    send_threshold: float = 0.0
    #: Wire codec for cross-group score updates: "none" (paper byte
    #: model, the default), "delta" (varint index gaps + float32
    #: deltas), or "delta-q16" (float16 deltas).  See
    #: :mod:`repro.net.codec` / :mod:`repro.net.adaptive`; validity
    #: per engine lives in ``capabilities.CODEC_ENGINES``.  Requires
    #: guaranteed delivery (``delivery_prob == 1``; the reliable layer
    #: and chaos are fine) and no crash/recovery faults — delta
    #: sessions assume the receiver replays every frame in order.
    codec: str = "none"
    #: Total error budget ε_comm (L1 efferent mass) the codec may
    #: suppress across the whole run; 0 means lossless (every shipped
    #: frame is an exact flush, delivered values bit-identical to an
    #: uncompressed run).  Requires ``codec != "none"``.
    comm_epsilon: float = 0.0
    e: Union[float, np.ndarray, None] = None
    #: Monitor sampling cadence.  ``None`` resolves in
    #: ``__post_init__``: 1.0 for the event engine, the synchronous
    #: period for the flat engine.  The flat engine only accepts
    #: intervals that are whole multiples of the period — its samples
    #: land exactly on round boundaries, so any finer cadence would
    #: silently change trip ordering and final-round traffic relative
    #: to the event engine instead of staying bit-identical.
    sample_interval: Optional[float] = None
    seed: int = 0
    #: Explicit per-ranker mean waits (length ``n_groups``); overrides
    #: the uniform [t1, t2] draw.  Lets experiments model deliberate
    #: stragglers / heterogeneous hardware.
    mean_waits: Optional[Sequence[float]] = None

    # -- Monte-Carlo engine (engine="mc"; repro.linalg.montecarlo) -----
    #: Walk tokens launched per page — the estimator's R.  Relative L1
    #: error shrinks as 1/sqrt(walks_per_page); the documented bound is
    #: :func:`repro.linalg.montecarlo.mc_error_tolerance`.
    walks_per_page: int = 16
    #: Rank estimator: "terminate" credits a page per walk termination
    #: (one count per walk, lowest variance per count); "visit" credits
    #: every round a token spends on the page, scaled by 1−α.
    walk_mode: str = "terminate"
    #: Walk behaviour at zero-out-degree pages: "absorb" (open-system,
    #: matches the centralized reference) or "jump" (classic random
    #: jump; biased vs. the open-system fixed point — opt-in).
    dangling_mode: str = "absorb"

    # -- reliability layer (ACK/retry; see repro.net.reliable) ---------
    #: Wrap the transport in ReliableTransport (seq numbers, ACKs,
    #: timeout-driven retransmission, idempotent receive-side dedup).
    reliable: bool = False
    retry_timeout: float = 4.0
    retry_backoff: float = 2.0
    retry_jitter: float = 0.0
    retry_max_timeout: float = 60.0
    max_retries: int = 8

    # -- message chaos (requires ``reliable``; repro.net.failures) -----
    ack_loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_max_delay: float = 0.0

    # -- node churn ----------------------------------------------------
    #: Transient pause/resume churn (§4.2 "sleep/suspend"): number of
    #: injected faults, the window they start in, and the mean outage.
    pause_faults: int = 0
    pause_horizon: float = 20.0
    pause_mean_outage: float = 5.0
    #: Permanent crashes (§4.2 "even shutdown"): per-ranker crash
    #: probability, applied in the window [crash_after, crash_after +
    #: crash_horizon].
    crash_prob: float = 0.0
    crash_after: float = 10.0
    crash_horizon: float = 10.0

    # -- failure detection & recovery ----------------------------------
    #: Heartbeat sweep period (0 disables detection).
    heartbeat_interval: float = 0.0
    heartbeat_miss_threshold: int = 3
    #: Periodic DPRNode.state_dict snapshot period (0 disables).
    checkpoint_interval: float = 0.0
    #: Checkpoint-based takeover of detected-dead groups (requires
    #: ``heartbeat_interval > 0``).
    recovery: bool = False

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.algorithm not in ("dpr1", "dpr2"):
            raise ValueError("algorithm must be 'dpr1' or 'dpr2'")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {tuple(sorted(ENGINES))}, "
                f"got {self.engine!r}"
            )
        if self.schedule not in ("async", "sync"):
            raise ValueError("schedule must be 'async' or 'sync'")
        if self.x_mode not in ("exact", "delta"):
            raise ValueError("x_mode must be 'exact' or 'delta'")
        if self.walks_per_page < 1:
            raise ValueError("walks_per_page must be >= 1")
        if self.walk_mode not in ("terminate", "visit"):
            raise ValueError("walk_mode must be 'terminate' or 'visit'")
        if self.dangling_mode not in ("absorb", "jump"):
            raise ValueError("dangling_mode must be 'absorb' or 'jump'")
        check_fraction(self.alpha, "alpha")
        check_non_negative(self.t1, "t1")
        check_non_negative(self.t2, "t2")
        if self.t2 < self.t1:
            raise ValueError("t2 must be >= t1")
        check_probability(self.delivery_prob, "delivery_prob")
        check_non_negative(self.hop_delay, "hop_delay")
        check_non_negative(self.aggregation_delay, "aggregation_delay")
        if self.mean_waits is not None:
            if len(self.mean_waits) != self.n_groups:
                raise ValueError(
                    f"mean_waits has {len(self.mean_waits)} entries for "
                    f"{self.n_groups} groups"
                )
            if any(w < 0 for w in self.mean_waits):
                raise ValueError("mean_waits must be non-negative")
        if self.schedule == "sync" and self.mean_waits is not None:
            raise ValueError(
                "the sync schedule derives one common wait from (t1+t2)/2; "
                "explicit mean_waits are only meaningful under schedule='async'"
            )
        # Promote the canonical send_threshold name into the historical
        # suppress_tol field (and mirror back) before any feature
        # predicate reads it.
        check_non_negative(self.send_threshold, "send_threshold")
        check_non_negative(self.suppress_tol, "suppress_tol")
        if self.send_threshold > 0.0:
            if (
                self.suppress_tol > 0.0
                and self.suppress_tol != self.send_threshold
            ):
                raise ValueError(
                    "send_threshold and suppress_tol name the same knob; "
                    f"got conflicting values {self.send_threshold!r} and "
                    f"{self.suppress_tol!r}"
                )
            self.suppress_tol = self.send_threshold
        else:
            self.send_threshold = self.suppress_tol
        # Default-on fast-path dispatch: a "flat" request whose config
        # needs faults or the async schedule resolves to the hybrid
        # engine (which runs those features on a persistent fault
        # plane) before any capability validation happens.
        self.engine = resolve_engine(self)
        period = max(0.5 * (self.t1 + self.t2), MIN_MEAN_WAIT)
        profile = ENGINES[self.engine]
        if self.sample_interval is None:
            self.sample_interval = (
                period if profile.round_boundary_sampling else 1.0
            )
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        if profile.round_boundary_sampling:
            ratio = self.sample_interval / period
            if ratio < 1.0 or not float(ratio).is_integer():
                if os.environ.get("REPRO_STRICT_SAMPLING", "1") == "0":
                    # Permissive mode: round the cadence up to the
                    # next round boundary instead of refusing to run.
                    rounded = max(1, math.ceil(ratio - 1e-12)) * period
                    warnings.warn(
                        f"engine={self.engine!r} samples at round "
                        f"boundaries: rounding sample_interval "
                        f"{self.sample_interval!r} up to {rounded!r} "
                        f"(the next multiple of the synchronous "
                        f"period {period!r}); set "
                        "REPRO_STRICT_SAMPLING=1 to make this an "
                        "error",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.sample_interval = float(rounded)
                else:
                    raise ValueError(
                        f"engine={self.engine!r} samples at round "
                        "boundaries: sample_interval must be a whole "
                        "multiple of the synchronous period "
                        f"{period!r} (got {self.sample_interval!r}); "
                        "pass sample_interval=None to use the period "
                        "itself, or set REPRO_STRICT_SAMPLING=0 to "
                        "round up with a warning"
                    )
        # Engine capability validation is table-driven; rejection
        # messages name the engines that do support each feature
        # (see repro.core.capabilities), including the codec × engine
        # validity table.
        validate_config(self)
        # Cross-engine codec requirements: delta sessions assume every
        # frame is replayed in order at the receiver.
        check_non_negative(self.comm_epsilon, "comm_epsilon")
        if self.codec == "none" and self.comm_epsilon > 0.0:
            raise ValueError(
                "comm_epsilon is the wire codec's error budget; "
                "set codec='delta' or codec='delta-q16' to use it"
            )
        if self.codec != "none":
            if self.delivery_prob < 1.0:
                raise ValueError(
                    "a delta codec needs guaranteed delivery "
                    "(delivery_prob == 1): a lost frame breaks the "
                    "pair's delta chain; run reliable=True with chaos "
                    "knobs to model bad networks under a codec"
                )
            if self.suppress_tol > 0.0:
                raise ValueError(
                    "send_threshold/suppress_tol and a wire codec are "
                    "mutually exclusive: the codec's ε_comm budget "
                    "subsumes ad-hoc threshold suppression"
                )
            if self.crash_prob > 0.0 or self.recovery:
                raise ValueError(
                    "codec != 'none' does not support crash/recovery "
                    "faults: a takeover discards receiver codec state "
                    "mid-chain (resync handshakes are future work); "
                    "pause faults are fine"
                )
            if self.engine == "mc" and self.comm_epsilon > 0.0:
                raise ValueError(
                    "the mc engine's token frames are exact by "
                    "construction; comm_epsilon must stay 0"
                )
        # Reliability / fault-tolerance knobs.
        check_non_negative(self.retry_timeout, "retry_timeout")
        if self.retry_timeout <= 0:
            raise ValueError("retry_timeout must be > 0")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        check_non_negative(self.retry_jitter, "retry_jitter")
        if self.retry_max_timeout < self.retry_timeout:
            raise ValueError("retry_max_timeout must be >= retry_timeout")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        check_probability(self.ack_loss_prob, "ack_loss_prob")
        check_probability(self.duplicate_prob, "duplicate_prob")
        check_probability(self.reorder_prob, "reorder_prob")
        check_non_negative(self.reorder_max_delay, "reorder_max_delay")
        if not self.reliable and (
            self.ack_loss_prob > 0
            or self.duplicate_prob > 0
            or self.reorder_prob > 0
        ):
            raise ValueError(
                "ack_loss_prob/duplicate_prob/reorder_prob model the "
                "reliability layer's adversaries and require reliable=True"
            )
        if self.pause_faults < 0:
            raise ValueError("pause_faults must be >= 0")
        check_non_negative(self.pause_horizon, "pause_horizon")
        check_non_negative(self.pause_mean_outage, "pause_mean_outage")
        check_probability(self.crash_prob, "crash_prob")
        check_non_negative(self.crash_after, "crash_after")
        check_non_negative(self.crash_horizon, "crash_horizon")
        check_non_negative(self.heartbeat_interval, "heartbeat_interval")
        if self.heartbeat_miss_threshold < 1:
            raise ValueError("heartbeat_miss_threshold must be >= 1")
        check_non_negative(self.checkpoint_interval, "checkpoint_interval")
        if self.recovery and self.heartbeat_interval <= 0:
            raise ValueError(
                "recovery requires failure detection: set heartbeat_interval > 0"
            )


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
    (:class:`DistributedRun`) and the flat engine
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
    (:class:`DistributedRun`) and the round engines
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
        the raw CSR); the default reference is then
        :func:`~repro.core.pagerank.pagerank_open` on the same graph.
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
        elif group_system:
            self.reference = self.system.solve_exact()
        else:
            from repro.core.pagerank import pagerank_open

            self.reference = pagerank_open(graph, config.alpha, e=config.e).ranks

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


class DistributedRun(RunSetup):
    """A fully wired distributed page-ranking system, ready to run.

    Splitting construction from :meth:`run` lets tests and examples
    poke at the assembled parts (rankers, transport, overlay) and
    inject faults before or during execution.
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        super().__init__(graph, config, partition=partition, reference=reference)
        seeds = self._seeds
        self.sim = Simulator()
        self.rankers: List[PageRanker] = []
        #: Reliability layer now (rankers are wired to its transport),
        #: fault processes once the ranker list is populated.
        self.faults = FaultPlane(
            self.sim,
            self.rankers,
            config,
            seeds,
            self._make_replacement,
            transport=config_transport(
                config, self.sim, self.overlay, self.accountant, self._loss
            ),
        )
        self.transport = self.faults.transport

        self._mean_waits = self._group_mean_waits()
        for g in range(config.n_groups):
            self.rankers.append(self._make_ranker(g, seeds.generator(f"wait/{g}")))
        self.transport.attach(self._deliver)
        self.monitor: Optional[Monitor] = None
        self.faults.install()

    @property
    def recovery(self) -> Optional[RecoveryManager]:
        """The takeover manager (None unless ``config.recovery``)."""
        return self.faults.recovery

    # ------------------------------------------------------------------
    def _make_ranker(self, g: int, seed) -> PageRanker:
        cfg = self.config
        node = DPRNode(
            g,
            self.system.diag(g),
            self.system.beta_e[g],
            mode=cfg.algorithm,
            local_tol=cfg.local_tol,
            max_inner=cfg.max_inner,
            inner_solver=cfg.inner_solver,
            x_mode=cfg.x_mode,
        )
        return PageRanker(
            self.sim,
            node,
            self.system,
            self.transport,
            mean_wait=self._mean_waits[g],
            seed=seed,
            suppress_tol=cfg.suppress_tol,
            fixed_wait=cfg.schedule == "sync",
            codec=self._codec,
        )

    def _make_replacement(self, g: int, epoch: int) -> PageRanker:
        """Recovery factory: a blank ranker for group ``g`` with a
        private deterministic stream per takeover epoch."""
        return self._make_ranker(g, self._seeds.generator(f"recovery/{g}/{epoch}"))

    def _deliver(self, dst_group: int, update) -> None:
        self.rankers[dst_group].receive(update)

    def install_pause_injector(self, injector: NodePauseInjector) -> None:
        """Add node churn to the run (must be called before :meth:`run`)."""
        injector.install(self.sim, self.rankers)

    def warm_start(self, ranks: np.ndarray) -> None:
        """Seed the run with a prior global rank vector.

        Setting each node's ``r`` alone is not enough: the outer step
        recomputes ``R`` from ``βE + X``, so with empty afferent state
        the first step erases the carried ranks before they are ever
        sent.  This scatters ``ranks`` into every node *and* seeds each
        node's afferent state with the generation-0 contributions its
        sources would have sent for those ranks, so the first outer
        step refines the previous fixed point instead of starting over.
        Must be called before :meth:`run`.
        """
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != (self.graph.n_pages,):
            raise ValueError(
                f"warm-start vector has shape {ranks.shape}, "
                f"want ({self.graph.n_pages},)"
            )
        pages = self.system.blocks.pages
        for g, ranker in enumerate(self.rankers):
            ranker.node.r = ranks[pages[g]].copy()
        for g, ranker in enumerate(self.rankers):
            # ``efferent`` returns views into one shared buffer;
            # ``seed_afferent`` copies before storing.
            for dst, values in self.system.efferent(g, ranker.node.r).items():
                self.rankers[dst].node.seed_afferent(g, values)

    def run(
        self,
        *,
        max_time: float = 1000.0,
        target_relative_error: Optional[float] = None,
        quiescence_delta: Optional[float] = None,
        quiescence_samples: int = 3,
    ) -> RunResult:
        """Execute the simulation and gather results.

        The run stops at the first of: the target relative error being
        reached (sampled at ``config.sample_interval``), system-wide
        quiescence (when ``quiescence_delta`` is set — the
        reference-free termination rule, held for
        ``quiescence_samples`` consecutive samples; see
        :class:`~repro.core.convergence.Monitor`), or simulated time
        ``max_time``.
        """
        cfg = self.config
        monitor = self.monitor = Monitor(
            self.sim,
            self.system,
            self.rankers,
            self.reference,
            interval=cfg.sample_interval,
            accountant=self.accountant,
            target_relative_error=target_relative_error,
            quiescence_delta=quiescence_delta,
            quiescence_samples=quiescence_samples,
        )
        monitor.start()
        for ranker in self.rankers:
            ranker.start()
        self.faults.start()
        stop = None
        if target_relative_error is not None or quiescence_delta is not None:
            def stop() -> bool:
                return monitor.converged or monitor.quiescent
        self.sim.run(until=max_time, stop_condition=stop)
        monitor.stop()
        self.faults.stop()

        return assemble_run_result(
            ranks=monitor.current_ranks(),
            reference=self.reference,
            trace=monitor.trace,
            converged=monitor.converged,
            time_to_target=monitor.target_time,
            outer_iterations=np.array(
                [rk.node.outer_iterations for rk in self.rankers], dtype=np.int64
            ),
            inner_sweeps=np.array(
                [rk.node.inner_sweeps for rk in self.rankers], dtype=np.int64
            ),
            accountant=self.accountant,
            now=self.sim.now,
            dropped_updates=self.transport.dropped_updates,
            quiescent=monitor.quiescent,
            quiescence_time=monitor.quiescence_time,
            config=cfg,
            codec_stats=self._codec_stats(),
            **self.faults.counters(self.sim.now),
        )


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
        from dataclasses import replace

        config = replace(config, **config_overrides)
    # Imported lazily: the engine modules import coordinator types.
    from repro.core.engine import MonteCarloEngine, SynchronousEngine
    from repro.core.hybrid import HybridEngine

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
