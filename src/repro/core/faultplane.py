"""The fault stack a config asks for, built once for every engine.

The reliability layer (retry policy, chaos model, ACK/retry transport
wrapper), the crash/pause injectors, the heartbeat failure detector,
the periodic checkpointer and the checkpoint-based recovery manager
are all duck-typed over a simulator and a *live ranker list* (see
:mod:`repro.core.recovery` for the entry contract).  The event engine
(:class:`~repro.core.ranker.DistributedRun`) passes its
:class:`~repro.core.ranker.PageRanker` list, each entry with a wake
chain; the hybrid engine (:class:`~repro.core.hybrid.HybridEngine`)
passes bare :class:`~repro.core.ranker.Ranker` entries, its round loop
deciding who steps.  Either way an entry's ``node`` is its group's
share of the one flat state
(:class:`~repro.core.ranker.RankerState`).  Because both go through
:class:`FaultPlane`,
one seed yields one fault schedule — the same named streams
(``"chaos"``, ``"retry-jitter"``, ``"pause-injector"``,
``"crash-injector"``) drawn in the same order, the same events
scheduled in the same sequence — on either engine.

The config is the only way faults enter a run: the ``pause_*``,
``crash_*``, heartbeat, checkpoint and recovery fields of
:class:`~repro.core.coordinator.DistributedConfig` name every process
built here.  Processes are started once and never stopped; a run ends
by no longer advancing the simulator (the run loop,
:meth:`repro.core.engine.RoundEngine.run`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.recovery import (
    Checkpointer,
    CheckpointStore,
    RankerFactory,
    RecoveryManager,
)
from repro.net.failures import ChaosModel, NodeCrashInjector, NodePauseInjector
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.transport import Transport
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import DistributedConfig

__all__ = ["FaultPlane"]


class FaultPlane:
    """Reliability layer + fault processes of one run.

    Construction builds the reliability layer, which the rankers must
    be wired to before they exist; :meth:`install` adds the processes
    that need the populated ranker list.

    Parameters
    ----------
    sim:
        The simulator the processes run on (``None`` is allowed when
        the config requests no process — the hybrid engine's pure ARQ
        replay).
    rankers:
        The *live* list, indexed by group; may still be empty here but
        must be populated before :meth:`install`.  Takeovers replace
        entries in place.
    config, seeds:
        The experiment parameters and the run's named seed streams.
    make_replacement:
        ``factory(group, epoch)`` building a blank replacement ranker.
    transport:
        The inner transport; wrapped in
        :class:`~repro.net.reliable.ReliableTransport` when
        ``config.reliable`` (the result is :attr:`transport`).  Pass
        ``None`` to bring an own ARQ endpoint built from :attr:`retry`
        and :attr:`chaos`, and register it as :attr:`reliable`.
    """

    def __init__(
        self,
        sim: Optional[Simulator],
        rankers: List,
        config: "DistributedConfig",
        seeds: SeedSequenceFactory,
        make_replacement: RankerFactory,
        *,
        transport: Optional[Transport] = None,
    ):
        self.sim = sim
        self.rankers = rankers
        self.config = config
        self._seeds = seeds
        self._make_replacement = make_replacement
        self.retry: Optional[RetryPolicy] = None
        self.chaos: Optional[ChaosModel] = None
        #: The ARQ endpoint whose counters the run reports (anything
        #: with ``ReliableTransport``'s counter names), if any.
        self.reliable = None
        #: What rankers (and everything else) speak to.
        self.transport = transport
        if config.reliable:
            self.retry = RetryPolicy(
                timeout=config.retry_timeout,
                backoff=config.retry_backoff,
                jitter=config.retry_jitter,
                max_timeout=config.retry_max_timeout,
                max_retries=config.max_retries,
            )
            self.chaos = ChaosModel(
                duplicate_prob=config.duplicate_prob,
                reorder_prob=config.reorder_prob,
                reorder_max_delay=config.reorder_max_delay,
                ack_loss_prob=config.ack_loss_prob,
                seed=seeds.generator("chaos"),
            )
            if transport is not None:
                self.reliable = ReliableTransport(
                    transport,
                    retry=self.retry,
                    chaos=self.chaos,
                    alive=lambda g: not rankers[g].crashed,
                    seed=seeds.generator("retry-jitter"),
                )
                self.transport = self.reliable
        self.pause_injector: Optional[NodePauseInjector] = None
        self.crash_injector: Optional[NodeCrashInjector] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        self.checkpoint_store = CheckpointStore()
        self.checkpointer: Optional[Checkpointer] = None
        self.recovery: Optional[RecoveryManager] = None

    def install(self) -> None:
        """Schedule the injectors and build detection/recovery.

        Must run while ``sim.now == 0`` and before anything else is
        scheduled: same-time events fire in scheduling order, and both
        engines rely on the injectors holding the earliest sequence
        numbers.
        """
        cfg, sim, rankers, seeds = self.config, self.sim, self.rankers, self._seeds
        if cfg.pause_faults > 0:
            self.pause_injector = NodePauseInjector(
                n_faults=cfg.pause_faults,
                horizon=cfg.pause_horizon,
                mean_outage=cfg.pause_mean_outage,
                seed=seeds.generator("pause-injector"),
            )
            self.pause_injector.install(sim, rankers)
        if cfg.crash_prob > 0.0:
            self.crash_injector = NodeCrashInjector(
                crash_prob=cfg.crash_prob,
                after=cfg.crash_after,
                horizon=cfg.crash_horizon,
                seed=seeds.generator("crash-injector"),
            )
            self.crash_injector.install(sim, rankers)
        if cfg.heartbeat_interval > 0.0:
            self.heartbeat = HeartbeatMonitor(
                sim,
                rankers,
                interval=cfg.heartbeat_interval,
                miss_threshold=cfg.heartbeat_miss_threshold,
            )
        if cfg.checkpoint_interval > 0.0:
            self.checkpointer = Checkpointer(
                sim, rankers, self.checkpoint_store, interval=cfg.checkpoint_interval
            )
        if cfg.recovery:
            self.recovery = RecoveryManager(
                sim, rankers, self.checkpoint_store, self._make_replacement
            )
            assert self.heartbeat is not None  # enforced by the config
            self.heartbeat.add_death_callback(self.recovery.on_death)

    def start(self) -> None:
        """Begin the heartbeat sweeps and the checkpoint cadence (the
        event engine at its first sample, the hybrid at construction;
        both while the simulator is at 0)."""
        if self.heartbeat is not None:
            self.heartbeat.start()
        if self.checkpointer is not None:
            self.checkpointer.start()

    def counters(self, now: float) -> Dict[str, int]:
        """The nine fault/ARQ :class:`RunResult` counters at ``now``."""
        rel = self.reliable
        return {
            "retransmits": rel.retransmits if rel is not None else 0,
            "gave_up": rel.gave_up if rel is not None else 0,
            "dup_drops": rel.dup_drops if rel is not None else 0,
            "dead_drops": rel.dead_drops if rel is not None else 0,
            "acks_lost": rel.acks_lost if rel is not None else 0,
            # Recovered groups hold a live replacement, so count fired
            # injector crashes rather than currently-crashed slots.
            "crashed_groups": (
                self.crash_injector.fired(now)
                if self.crash_injector is not None
                else sum(1 for rk in self.rankers if rk.crashed)
            ),
            "deaths_detected": (
                self.heartbeat.deaths_detected if self.heartbeat is not None else 0
            ),
            "takeovers": (
                self.recovery.takeover_count if self.recovery is not None else 0
            ),
            "checkpoint_saves": self.checkpoint_store.saves,
        }
