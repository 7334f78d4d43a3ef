"""The one ranker state, and the bulk-synchronous engines that run on it.

A ranker of the paper (§4.2, Algorithms 3–4) holds its group's rank
vector, the newest afferent vector per source and a few counters, and
loops: refresh X, compute R, emit Y.  :class:`SynchronousEngine` holds
all K rankers' state as flat arrays — the *flat state* — and every
score-exchanging engine runs on it:

* ``_r`` — the rank vector, group-major (group ``g`` owns
  ``_r[_slices[g]]``);
* ``_recv`` / ``_recv_gen`` / ``_recv_rank`` — the *flat receiver
  memory*: what each receiver holds of each pair, laid out like the
  compressed ``Y`` vector, with the generation it carried (-1: nothing
  yet, elements ``+0.0``) and the pair's first-arrival stamp;
* ``_outer`` / ``_last_delta`` / ``_inner_sweeps`` / ``_stale`` — the
  per-group counters.

Three steps change it, each written once: the *group step*
(:meth:`SynchronousEngine._step_groups`, over
:func:`repro.core.dpr.group_step`), the *emit step*
(:meth:`SynchronousEngine._build_sends`: threshold suppression or one
wire-codec call per source) and the *receive rule*
(:meth:`SynchronousEngine._accept`: stale generations counted, first
arrivals stamped).  A ranker entry of the fault plane sees its group's
share through one checkpoint format
(:class:`repro.core.ranker.RankerState`).  The engines differ only in
who steps when and how a send travels:

* **flat** (this module) — every group steps every round; the round
  ledger charges the sends;
* **hybrid** (:mod:`repro.core.hybrid`) — the due, live groups step;
  the ledger, an ARQ replay or the fault plane's real transport
  charges;
* **event** (:class:`repro.core.ranker.DistributedRun`) — one ranker
  steps per simulated wake, and its sends travel the real transport as
  :class:`~repro.net.message.ScoreUpdate` messages.

A flat round
------------
When the *schedule* is synchronous — every ranker ticking at the same
fixed period — the event engine's per-message machinery computes
exactly one bulk-synchronous round per tick, and the whole round
collapses into sparse linear algebra:

* **compute** — the K in-group operators ``A_G`` are one
  block-diagonal CSR (built that way, straight from the edge list, by
  :func:`~repro.linalg.operators.group_blocks`), so a DPR2 outer loop
  over the entire system is *one* SpMV over the concatenated rank
  vector (plus one fused add/delta pass); DPR1 runs the per-group
  warm-started Jacobi solves;
* **communicate** — the cut links form one whole-system *cut matrix*
  (same builder), compressed to its structurally nonzero rows, so
  every efferent vector ``Y`` of the round is one more SpMV over
  exactly the cross-link elements; what survives the round lands in the
  receiver memory by one masked copy, and every afferent sum of the
  next round is a third SpMV ``X = F·recv`` against a 0/1 *afferent
  matrix* whose per-row storage order replays the observed
  first-arrival order — lossless or lossy, coded or not;
* **account** — instead of materializing ScoreUpdate objects, the
  engine names a round's sends by position in its pair table and
  charges them as arrays.  Direct transmission is closed form
  (:func:`~repro.net.transport.charge_direct_round`, formulas 4.2/4.4
  per pair): integer sums and scatters into the run's
  :class:`~repro.net.bandwidth.TrafficAccountant` and a stable sort of
  the arrival times — no simulator event, ``ScoreUpdate`` or
  ``record_*`` call per frame, whatever the round ships.  Indirect
  packages recombine at every hop, so those rounds are routed as
  empty-payload sends through the real transport on a scratch
  simulator (cost proportional to K², independent of page count), once
  per run for the uncoded full pair set.  Either way the charges and
  the delivery order are exactly the real transport's.

One loop, one round
-------------------
Every engine — this one, the Monte-Carlo engine below, the hybrid
engine and the event engine — is a :class:`RoundEngine`: it supplies
``_round`` and its current ranks, and inherits the one
tick/sample/stop loop (:meth:`RoundEngine.run`) over the one sample
body (:class:`~repro.core.convergence.Sampler`).  The event engine is a
schedule over that loop: its tick is the sample interval, its round is
empty, and its wakes, deliveries and fault processes run inside its
simulator between samples.  A score-exchanging round is the paper's
outer loop applied to the groups that step
(:meth:`SynchronousEngine._round`):

1. **refresh** — ``X = F·recv`` over whatever has landed
   (:meth:`SynchronousEngine._refresh`);
2. **compute** — the stepping groups' update of ``R``
   (:meth:`SynchronousEngine._compute`): the whole-system dpr2 sweep
   when every group steps, else the group step;
3. **emit** — ``Y`` by the cut SpMV, then the emit step lists the
   round's sends in emission order — under a wire codec with **one
   codec call per source**: a source's efferent segments sit
   contiguously in ``Y``, so its whole emission (every destination's
   suppress / quantize / exact-flush verdict and frame size) is one
   vectorized pass of :meth:`~repro.net.adaptive.AdaptiveCodec.encode`
   over that span — and an *accounting backend* charges and routes
   them: here the round ledger above;
4. **land** — the arrivals, in delivery order, go through the receive
   rule and the fresh pairs' segments are copied
   (:meth:`SynchronousEngine._land`).

An event wake is the same four steps for one group: its rows of ``F``,
the group step, its span of cut rows, its emission.

Bit-identity
------------
Under the synchronous schedule the flat engine is not approximately
equivalent to the event engine — it is **bit-identical**, which the
equivalence tests assert.  Both run the same group step on the same
slices, so what has to agree is the arithmetic of the whole-system
kernels and the order things happen in:

* block-diagonal SpMV: each output row's dot product runs over the
  same stored values in the same order as the per-block SpMV, so IEEE
  non-associativity never enters; the whole cut SpMV likewise
  reproduces each source's span of cut rows row for row;
* afferent sums: ``F``'s rows store their entries in first-arrival
  (stamp) order, and scipy's CSR kernel accumulates each output row
  over its stored entries *in storage order*.  A pair is stamped when
  its first frame lands, in delivery order — the event simulator's
  own there, and here the order the accounting step reports: every
  send of a round is scheduled at the tick, so ``(time, sequence)``
  order is a stable sort of the arrival times in emission order.  A
  pair whose first frame ships — or survives the loss model — rounds
  after its neighbours' keeps that later place; ``F`` is rebuilt only
  after a round that saw a first arrival;
* loss draws: the Bernoulli stream is consumed in (source group
  ascending, destination ascending) order, exactly the order rankers
  tick and emit in a synchronous event round.

The compressed memory is also bit-identical to the receiver §4.2
describes — per destination the newest *dense* vector per source,
re-summed in first-arrival order (the reference the tests keep beside
the engines): dropping the cut matrix's structurally *empty* rows is
exact because every score is nonnegative, so the dense receiver's adds
of those always-``+0.0`` elements (``x + 0.0 == x`` bitwise for
``x ≥ +0.0``) never change a single bit of any afferent sum, and a pair
that has not arrived holds only ``+0.0``, which a nonnegative sum
cannot see.

Use ``DistributedConfig(engine="flat")`` (CLI ``--engine flat``) to
select the flat engine end to end; results come back as the same
:class:`~repro.core.coordinator.RunResult` via the shared
:func:`~repro.core.coordinator.assemble_run_result` reporting path.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.convergence import Sampler
from repro.core.coordinator import (
    DistributedConfig,
    RunResult,
    RunSetup,
    assemble_run_result,
    config_transport,
)
from repro.core.dpr import group_step
from repro.graph.partition import Partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import JacobiWorkspace, csr_matvec_into
from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import NoLoss
from repro.net.codec import token_frame_bytes
from repro.net.message import ScoreUpdate
from repro.net.simulator import Simulator
from repro.net.transport import charge_direct_round
from repro.utils.memory import trim_heap

__all__ = ["MonteCarloEngine", "RoundEngine", "SynchronousEngine"]

#: Shared zero-length payload for the indirect replay's ScoreUpdates —
#: the transports only read routing metadata and ``n_link_records``.
_EMPTY = np.empty(0, dtype=np.float64)

#: A round that ships nothing.
_NO_SENDS = np.zeros(0, dtype=np.int64)


def _replay_transport_round(
    config: DistributedConfig,
    overlay,
    accountant: TrafficAccountant,
    src: np.ndarray,
    dst: np.ndarray,
    records: np.ndarray,
    wire_bytes: np.ndarray,
) -> np.ndarray:
    """Charge one round's surviving sends to ``accountant``.

    The sends are int64 arrays in emission order (sources ascending,
    destinations ascending within a source — the order rankers tick
    and emit in a synchronous round), one entry per communicating pair.
    ``wire_bytes`` is an encoded frame's calibrated wire size (-1 for
    an uncoded send): the codec's bytes are charged as data while the
    paper-model counter keeps the flat 100 B/record charge (see
    :mod:`repro.net.bandwidth`).  Returns the delivery order as
    positions into the arrays, in upcall sequence.

    Direct transmission is closed form; indirect packages recombine at
    every hop, so those sends are routed as empty-payload updates (byte
    accounting only reads ``n_link_records``) through the real
    transport on a scratch simulator — O(sends) either way, regardless
    of page count.  Shared by the score engines (fixed record counts,
    per-round frame sizes under a codec) and the Monte-Carlo engine
    (walk-token counts, a different number every round).
    """
    if config.transport == "direct":
        return charge_direct_round(
            overlay, accountant, src, dst, records, wire_bytes, config.hop_delay
        )
    sim = Simulator()
    transport = config_transport(config, sim, overlay, accountant, NoLoss())
    pairs = list(zip(src.tolist(), dst.tolist()))
    position = {pair: i for i, pair in enumerate(pairs)}
    order: List[int] = []
    transport.attach(
        lambda h, update: order.append(position[(update.src_group, h)])
    )
    updates = [
        ScoreUpdate(
            src_group=g,
            dst_group=h,
            values=_EMPTY,
            n_link_records=n,
            generation=0,
            wire_bytes=w,
        )
        for (g, h), n, w in zip(pairs, records.tolist(), wire_bytes.tolist())
    ]
    for g, batch in groupby(updates, key=attrgetter("src_group")):
        transport.send_updates(g, list(batch))
    sim.run()
    return np.array(order, dtype=np.int64)


def _positions_by(keys: np.ndarray, k: int) -> List[np.ndarray]:
    """For each value ``0 … k-1``, the positions of ``keys`` holding it,
    ascending."""
    bounds = np.cumsum(np.bincount(keys, minlength=k))[:-1]
    return np.split(np.argsort(keys, kind="stable"), bounds)


def paper_round_estimate(
    config: DistributedConfig, overlay, w: float, pairs: Sequence[Tuple[int, int]]
) -> Dict[str, float]:
    """Per-round traffic predicted by the paper's §4.4 formulas.

    Evaluates :mod:`repro.analysis.cost_model` formulas 4.1–4.4 with
    ``w`` link records crossing the cut per round, h as the mean
    overlay hop count over the communicating ``pairs``, g as the
    overlay's mean neighbor count, and N as the ranker count.  The
    formulas assume all N² pairs communicate, so they are an upper
    envelope of the measured totals on sparse cut graphs.
    """
    from repro.analysis.cost_model import (
        direct_data_bytes,
        direct_messages,
        indirect_data_bytes,
        indirect_messages,
    )

    k = config.n_groups
    hop_counts = [overlay.hops(g, h) for g, h in pairs]
    h_mean = float(np.mean(hop_counts)) if hop_counts else 0.0
    if config.transport == "indirect":
        return {
            "data_messages": indirect_messages(k, overlay.mean_neighbor_count()),
            "data_bytes": indirect_data_bytes(w, h_mean),
        }
    return {
        "data_messages": direct_messages(k, h_mean),
        "data_bytes": direct_data_bytes(w, h_mean, k),
    }


class RoundEngine(RunSetup):
    """The one tick/sample/stop loop (:meth:`run`), for every engine.

    Subclasses supply the compute kernel — :meth:`_round` and
    :meth:`_ranks` — and maintain the three per-group vectors the loop
    reads: ``_outer`` (outer iterations), ``_last_delta`` (L1 change of
    the last step; the quiescence signal) and ``_inner_sweeps`` (the
    work counter reported as ``RunResult.inner_sweeps``).  An engine
    with simulated processes of its own — the hybrid's fault plane, the
    event engine's whole schedule — runs them in :meth:`_sync_to`.
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
        super().__init__(
            graph,
            config,
            partition=partition,
            reference=reference,
            group_system=group_system,
        )
        k = config.n_groups
        #: Updates suppressed by the loss model (same meaning as the
        #: transports' counter of the same name).
        self.dropped_updates = 0
        self._outer = np.zeros(k, dtype=np.int64)
        self._last_delta = np.full(k, np.inf, dtype=np.float64)
        self._inner_sweeps = np.zeros(k, dtype=np.int64)

    # -- what a subclass supplies --------------------------------------
    @property
    def _tick(self) -> float:
        """The loop's tick: the synchronous period, one round each."""
        return self.period

    def _round(self, t: float) -> None:
        """Execute the round of the tick at simulated time ``t``."""
        raise NotImplementedError

    def _ranks(self, out: np.ndarray) -> np.ndarray:
        """Current global rank vector in original page order."""
        raise NotImplementedError

    def _exhausted(self) -> bool:
        """True when further rounds cannot change the ranks."""
        return False

    def _sync_to(self, t: float) -> None:
        """Bring engine-side simulated processes up to time ``t`` (a
        sample's time, or ``max_time`` when the run ends there)."""

    def _dropped_total(self) -> int:
        """Loss-model drops to report (transports may hold the counter)."""
        return self.dropped_updates

    def _extra_result_fields(self, now: float) -> Dict:
        """Engine-specific RunResult fields (fidelity, fault counters)."""
        return {}

    def _quiescent_now(self, quiescence_delta: float) -> bool:
        """One sample's quiescence verdict: every group has stepped at
        least once and its last step delta is at or below the threshold
        (streak logic is the sampler's)."""
        return bool(
            (self._outer > 0).all()
            and (self._last_delta <= quiescence_delta).all()
        )

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_time: float = 1000.0,
        target_relative_error: Optional[float] = None,
        quiescence_delta: Optional[float] = None,
        quiescence_samples: int = 3,
    ) -> RunResult:
        """Tick, sample and stop; gather a RunResult.

        Tick ``m`` is at simulated time ``m × tick``, accumulated as
        ``t + tick`` (the float sequence of fixed waits), and a sample
        lands on every ``m``-th tick where ``sample_interval = m ×
        tick`` (config validation guarantees the whole-multiple ratio;
        the sample clock accumulates ``sample_interval`` on its own and
        must agree with the tick clock bit for bit).  A sample at ``t``
        first brings the engine's simulated processes to ``t``
        (:meth:`_sync_to`), then records one trace row and applies the
        stop rules: the target relative error; quiescence (every group
        has stepped and its last step delta is at or below
        ``quiescence_delta`` for ``quiescence_samples`` consecutive
        samples); or exhaustion, for an engine whose work can run out
        (the Monte-Carlo estimator once every token has terminated).  A
        sample that trips one ends the run where it stands: the tick's
        round (:meth:`_round`) is not computed and nothing else runs.
        Otherwise the run ends when the next tick would pass
        ``max_time``: the engine's processes are drained to
        ``max_time``, the run's reported time.
        """
        cfg = self.config
        sampler = Sampler(
            self.reference,
            self.accountant,
            target_relative_error=target_relative_error,
            quiescence_delta=quiescence_delta,
            quiescence_samples=quiescence_samples,
        )

        def sample(t: float) -> bool:
            self._sync_to(t)
            sampler.sample(
                t, self._ranks(sampler.buffer), self._outer, self._quiescent_now
            )
            return sampler.converged or sampler.quiescent or self._exhausted()

        tick = self._tick
        interval = float(cfg.sample_interval)
        every = int(round(interval / tick))

        stop = sample(0.0)
        t = 0.0  # tick clock: accumulates the tick like fixed waits
        t_s = 0.0  # sample clock: accumulates the sample interval
        k = 0
        while not stop:
            t_next = t + tick
            if t_next > max_time:
                t = float(max_time)
                self._sync_to(t)
                break
            t = t_next
            k += 1
            if k % every == 0:
                t_s = t_s + interval
                if t_s != t:
                    raise ValueError(
                        f"sample clock drifted from the tick clock "
                        f"({t_s!r} vs {t!r}): sample_interval and the "
                        "period accumulate differently in float "
                        "arithmetic; pick exactly representable values"
                    )
                stop = sample(t_s)
                if stop:
                    break
            self._round(t)

        return assemble_run_result(
            # The sample buffer is dead after the loop, so the final
            # assembly fills it and hands it to the result outright.
            ranks=self._ranks(sampler.buffer),
            reference=self.reference,
            trace=sampler.trace,
            converged=sampler.converged,
            time_to_target=sampler.target_time,
            outer_iterations=self._outer.copy(),
            inner_sweeps=self._inner_sweeps.copy(),
            accountant=self.accountant,
            now=t,
            dropped_updates=self._dropped_total(),
            quiescent=sampler.quiescent,
            quiescence_time=sampler.quiescence_time,
            config=cfg,
            codec_stats=self._codec_stats(),
            **self._extra_result_fields(t),
        )


class SynchronousEngine(RoundEngine):
    """The flat state (module docstring), and the flat engine: whole-
    system block-SpMV rounds for failure-free synchronous runs.

    Construction starts from :class:`~repro.core.coordinator.RunSetup`
    (the partition, overlay, and loss streams every engine draws from
    the same named seeds), then allocates the flat state around the
    builder's two global operators.  :meth:`run` executes a round per
    tick of the common period ``max((t1+t2)/2, MIN_MEAN_WAIT)`` until
    ``max_time``, a target error, or quiescence.

    Parameters
    ----------
    graph, config:
        The crawl and the experiment parameters.  The config must
        satisfy the ``engine="flat"`` restrictions (failure-free:
        no reliability layer, churn, or delta suppression).
    partition, reference:
        Optional precomputed partition / centralized solution, exactly
        as accepted by ``DistributedRun``.
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
        k = config.n_groups
        # The operators and the pair table are the builder's
        # (repro.linalg.operators): the block-diagonal in-group
        # operator, the whole-system cut operator compressed to its
        # structurally nonzero rows — a dense efferent segment's zero
        # rows are always exactly +0.0, and adding +0.0 to a
        # nonnegative score is a bitwise no-op (module docstring) — and,
        # per ordered (src, dst) pair in emission order (also the loss
        # draw order), the pair's span of the compressed Y vector and
        # its link-record count.  What follows only allocates state
        # around them.
        blocks = self.system.blocks
        sizes = [blocks.group_size(g) for g in range(k)]
        offsets = self._offsets = blocks.offsets
        self._slices = [slice(int(offsets[g]), int(offsets[g + 1])) for g in range(k)]
        n_total = int(offsets[-1])
        self._cut = blocks.cut
        n_nz = self._cut.shape[0]
        #: Destination-local row of every compressed Y element; a
        #: pair's nonzero-row indices and a source's codec index map
        #: are both slices of it.
        self._row_map = blocks.row_map
        #: The pairs as arrays, indexed by pair position — what a
        #: round's sends are named by and charged from.  Pair ``p``
        #: owns ``_y[_pair_start[p]:_pair_start[p + 1]]``.
        self._pair_src = blocks.pair_src
        self._pair_dst = blocks.pair_dst
        self._pair_start = start = blocks.pair_start
        self._pair_records = blocks.pair_records
        #: Per source, the positions of its pairs (contiguous,
        #: destinations ascending — the ranker emission order).
        first = blocks.pair_first.tolist()
        self._src_pairs = [
            np.arange(first[g], first[g + 1], dtype=np.int64) for g in range(k)
        ]
        #: Per source, its emission as the wire codec sees it: the
        #: source's contiguous span of the compressed Y vector, its
        #: destinations, and the pairs' starts within the span (``None``
        #: for a source that sends nothing).
        self._emissions: List[
            Optional[Tuple[slice, Tuple[int, ...], np.ndarray]]
        ] = [
            (
                slice(int(start[lo]), int(start[hi])),
                tuple(self._pair_dst[lo:hi].tolist()),
                start[lo:hi] - start[lo],
            )
            if hi > lo
            else None
            for lo, hi in zip(first[:-1], first[1:])
        ]
        # Mutable round state.
        self._r = np.zeros(n_total, dtype=np.float64)
        # dpr2's sweep ping-pong buffers — allocated on first dpr2
        # round so dpr1 runs never carry the two extra n-vectors.
        self._ping: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._x = np.zeros(n_total, dtype=np.float64)
        # Whole-system f = βE + X is only materialized by dpr2's global
        # sweep; dpr1 assembles each group's f into one shared
        # max-group-size buffer right before its solve (same
        # elementwise add over the same slices, so same bits).
        self._f: Optional[np.ndarray] = None
        self._fbuf = np.empty(max(sizes) if sizes else 0, dtype=np.float64)
        self._y = np.zeros(n_nz, dtype=np.float64)
        # βE segment by segment straight from e_full — same products,
        # same bits as concatenating ``system.beta_e``, without forcing
        # that per-group list into existence.
        self._beta_e = np.empty(n_total, dtype=np.float64)
        for g in range(k):
            np.multiply(
                self.system.beta,
                self.system.e_full[blocks.pages[g]],
                out=self._beta_e[self._slices[g]],
            )
        #: What a frame shipped this round delivers of each pair, laid
        #: out like ``_y``: Y itself uncoded, the sources'
        #: reconstruction mirrors under a wire codec.
        self._held = (
            self._y if self._codec is None else np.zeros(n_nz, dtype=np.float64)
        )
        #: The flat receiver memory (module docstring): what each
        #: receiver holds of each pair, laid out like ``_y``, with the
        #: generation it carried (-1: nothing yet, elements +0.0), the
        #: pair's first-arrival stamp, and the stale arrivals rejected
        #: per destination.  F (``X = F·recv``) is built on first use,
        #: whole (a round) or one destination's rows (an event wake).
        self._recv = np.zeros(n_nz, dtype=np.float64)
        self._recv_gen = np.full(self._pair_src.size, -1, dtype=np.int64)
        self._recv_rank = np.zeros_like(self._recv_gen)
        self._arrivals = 0
        self._recv_matrix: Optional[sp.csr_matrix] = None
        self._aff_ops: List[Optional[sp.csr_matrix]] = [None] * k
        self._pair_len = np.diff(start)
        self._stale = np.zeros(k, dtype=np.int64)
        #: Transport deliveries not yet landed, in delivery order
        #: (:meth:`_on_deliver`).
        self._inbox: List[ScoreUpdate] = []
        #: Last segment sent per pair position (threshold suppression only).
        self._last_sent: Dict[int, np.ndarray] = {}
        # Per-group solves run sequentially and copy their result out
        # before the next begins, so all K workspaces can be views of
        # one max-group-size allocation (3 vectors total, not 3·n).
        shared_ws = JacobiWorkspace(max(sizes) if sizes else 0)
        self._workspaces = [shared_ws.sliced(sizes[g]) for g in range(k)]
        #: Indirect transmission only: delivery order and traffic of the
        #: uncoded full pair set, whose simulator replay repeats
        #: identically every round it ships.
        self._calibration: Optional[Tuple[np.ndarray, TrafficAccountant]] = None

        # The grouped-operator build churned through chunk temporaries
        # whose freed pages glibc retains; hand them back so the run's
        # steady-state growth starts from the live set and the process
        # high-water stays at the build peak (see repro.utils.memory).
        trim_heap()

    @cached_property
    def _pairs(self) -> List[Tuple[int, int, slice, np.ndarray, int]]:
        """The pair table row by row — ``(src, dst, slice of the
        compressed Y vector, destination-local rows, link records)`` —
        for the paths that are per-pair Python anyway: threshold
        suppression and the real transport's messages.  Rounds on the
        array paths never build it."""
        start = self._pair_start.tolist()
        return [
            (g, h, slice(a, b), self._row_map[a:b], records)
            for g, h, a, b, records in zip(
                self._pair_src.tolist(),
                self._pair_dst.tolist(),
                start[:-1],
                start[1:],
                self._pair_records.tolist(),
            )
        ]

    @cached_property
    def _aff_pairs(self) -> List[np.ndarray]:
        """Per destination, the positions of its afferent pairs
        (sources ascending)."""
        return _positions_by(self._pair_dst, self.n_groups)

    @cached_property
    def _aff_elems(self) -> List[np.ndarray]:
        """Per destination, its elements of ``_recv`` — what a
        checkpoint gathers and a blank replacement zeroes."""
        return _positions_by(np.repeat(self._pair_dst, self._pair_len), self.n_groups)

    # ------------------------------------------------------------------
    def group_ranks(self) -> List[np.ndarray]:
        """Current per-group local rank vectors (views, group order)."""
        return [self._r[self._slices[g]] for g in range(self.n_groups)]

    def assemble_ranks(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Current global rank vector in original page order."""
        return self.system.assemble(self.group_ranks(), out=out)

    _ranks = assemble_ranks

    def calibrated_round_traffic(self):
        """Exact traffic of one lossless uncoded round as a snapshot at t=0.

        This is the per-round quantity the engine charges its main
        accountant every such round — computed from the pair table by
        :func:`_replay_transport_round`, never by materializing real
        score updates.
        """
        acc = TrafficAccountant(self.n_groups)
        _replay_transport_round(
            self.config,
            self.overlay,
            acc,
            self._pair_src,
            self._pair_dst,
            self._pair_records,
            np.full(self._pair_src.size, -1, dtype=np.int64),
        )
        return acc.snapshot(0.0)

    def paper_round_estimate(self) -> Dict[str, float]:
        """Per-round traffic predicted by the paper's §4.4 formulas.

        :func:`paper_round_estimate` with this system's actual totals —
        W as the total cross-group link records and the pairs that
        actually exchange updates — giving the closed-form counterpart
        to :meth:`calibrated_round_traffic`.
        """
        return paper_round_estimate(
            self.config,
            self.overlay,
            float(self._pair_records.sum()),
            list(zip(self._pair_src.tolist(), self._pair_dst.tolist())),
        )

    # ------------------------------------------------------------------
    def _charge(self, idx: np.ndarray, wire_bytes: np.ndarray) -> np.ndarray:
        """Charge the sends of pairs ``idx`` to the main accountant;
        return the delivery order as positions into ``idx``.

        One round is worth remembering: over the indirect transport
        the uncoded full pair set costs a simulator replay and repeats
        identically, so it is replayed once into a scratch accountant.
        """
        cfg = self.config
        sends = (
            self._pair_src[idx],
            self._pair_dst[idx],
            self._pair_records[idx],
            wire_bytes,
        )
        repeats = (
            cfg.transport == "indirect"
            and self._codec is None
            and idx.size == self._pair_src.size
        )
        if not repeats:
            return _replay_transport_round(cfg, self.overlay, self.accountant, *sends)
        if self._calibration is None:
            acc = TrafficAccountant(self.n_groups)
            order = _replay_transport_round(cfg, self.overlay, acc, *sends)
            self._calibration = (order, acc)
        order, acc = self._calibration
        self.accountant.merge(acc)
        return order

    def _build_afferent(
        self, order: np.ndarray, rows: Optional[slice] = None
    ) -> sp.csr_matrix:
        """Assemble the 0/1 afferent matrix F with X = F·recv — whole,
        or only the group-major ``rows`` of one destination.

        Row ``offsets[dst] + i`` holds one unit entry per source whose
        efferent segment touches destination-local element ``i``, with
        the entries *stored in the first-arrival order* ``order`` lists
        the pair positions in (for ``rows``: the destination's afferent
        pairs).  scipy's CSR matvec kernel accumulates each row
        sequentially over its stored entries, so F reproduces a
        receiver's per-source vector-add sequence scalar for scalar.

        List the elements of Y pair by pair in arrival order, each with
        the row it adds into, and transpose: the CSC → CSR conversion is
        a stable counting sort by row, so every row keeps its elements
        in arrival order.
        """
        rows = slice(0, self._x.size) if rows is None else rows
        n_rows, n_nz = rows.stop - rows.start, self._y.size
        idx_dtype = np.int32 if n_nz < 2**31 else np.int64
        start = self._pair_start
        lens = self._pair_len[order]
        total = int(lens.sum())
        elems = np.arange(total, dtype=idx_dtype) + np.repeat(
            start[order] - (np.cumsum(lens) - lens), lens
        ).astype(idx_dtype)
        local = self._row_map[elems] + np.repeat(
            self._offsets[self._pair_dst[order]] - rows.start, lens
        )
        by_row = sp.csc_matrix(
            (elems, local, np.arange(total + 1, dtype=idx_dtype)),
            shape=(n_rows, total),
        ).tocsr()
        return sp.csr_matrix(
            (np.ones(total, dtype=np.float64), by_row.data, by_row.indptr),
            shape=(n_rows, n_nz),
        )

    def _build_sends(self, groups: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """This round's sends of the stepping ``groups``, emission order.

        Returns ``(idx, wire_bytes)``: the pair positions of the
        pairs that ship — sources ascending and destinations
        ascending within a source, the order rankers tick and emit in a
        synchronous round, and hence the order the loss stream is
        consumed in — and each one's encoded frame size (-1 uncoded).
        What a shipped pair delivers is its slice of :attr:`_held`.

        Under a wire codec each source is **one** codec call: its
        contiguous span of the compressed Y vector, the pair starts
        within it and the span's nonzero-row map (so a frame's indices
        are destination pages — see :meth:`AdaptiveCodec.encode`) go
        in, and the per-destination verdicts come back.  A pair the
        budget lets the codec suppress ships nothing; the source's
        reconstruction mirror — every receiver's exact post-frame
        state — is copied into its span of ``_held``.  At ε_comm = 0 the reconstruction equals the true
        segment bit for bit.

        Without a codec ``_held`` is Y itself, and threshold
        suppression filters (config validation makes it and the codec
        mutually exclusive): a pair whose segment moved at most
        ``send_threshold`` in L1 since it was last sent ships nothing.

        Either way a pair's slice of ``_held`` stays valid until the
        source's next emission; a backend that keeps it past the round
        copies it.
        """
        tol = self.config.send_threshold
        idx_parts: List[np.ndarray] = []
        wire_parts: List[np.ndarray] = []
        for g in groups:
            positions = self._src_pairs[g]
            if positions.size == 0:
                continue
            if self._codec is not None:
                span, dsts, starts = self._emissions[g]
                out = self._codec.encode(
                    g, dsts, self._y[span], starts, self._row_map[span]
                )
                np.copyto(self._held[span], out.values)
                idx_parts.append(positions[out.shipped])
                wire_parts.append(out.frame_bytes[out.shipped])
                continue
            if tol > 0.0:
                moved = []
                for p in positions.tolist():
                    values = self._y[self._pairs[p][2]]
                    prev = self._last_sent.get(p)
                    if (
                        prev is not None
                        and float(np.abs(values - prev).sum()) <= tol
                    ):
                        continue
                    self._last_sent[p] = values.copy()
                    moved.append(p)
                positions = np.array(moved, dtype=np.int64)
            idx_parts.append(positions)
        idx = np.concatenate(idx_parts) if idx_parts else _NO_SENDS
        if self._codec is None:
            return idx, np.full(idx.size, -1, dtype=np.int64)
        return idx, np.concatenate(wire_parts) if wire_parts else _NO_SENDS

    def _emit(self, sends: Tuple[np.ndarray, np.ndarray], t: float) -> None:
        """Account the round's ``sends`` and deliver what survives.

        The round-ledger accounting backend: apply loss, charge the
        survivors exactly as the real transport would
        (:meth:`_charge`), and land them in the delivery order it
        reports (:meth:`_land`).
        """
        idx, wire_bytes = sends
        if not isinstance(self._loss, NoLoss):
            # One Bernoulli draw per send in emission order — the same
            # stream consumption as the event engine's transports.
            keep = self._loss.delivered_batch(idx.size)
            self.dropped_updates += int(idx.size - np.count_nonzero(keep))
            idx, wire_bytes = idx[keep], wire_bytes[keep]
        self._land(idx[self._charge(idx, wire_bytes)])

    def _accept(self, pairs: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """The receive rule, for arrivals of the distinct ``pairs``
        (delivery order) stamped with generations ``gens``.

        An arrival whose generation is at or below the one its pair
        holds is stale and counted against its destination (a sender's
        generation is its outer count at emission, so only a duplicate,
        a reordered frame or a sender rolled back by a takeover presents
        one).  A pair's first fresh arrival takes the last place in its
        destination's summation order for good (F is rebuilt before its
        next use).  Records the fresh pairs' generations and returns
        those pairs; the caller copies their payloads into ``_recv``.
        """
        fresh = gens > self._recv_gen[pairs]
        if not fresh.all():
            np.add.at(self._stale, self._pair_dst[pairs[~fresh]], 1)
        pairs = pairs[fresh]
        first = pairs[self._recv_gen[pairs] < 0]
        if first.size:
            self._recv_rank[first] = self._arrivals + np.arange(first.size)
            self._arrivals += first.size
            self._recv_matrix = None
            for h in self._pair_dst[first].tolist():
                self._aff_ops[h] = None
        self._recv_gen[pairs] = gens[fresh]
        return pairs

    def _land(self, arrived: np.ndarray) -> None:
        """Deliver a round's pairs ``arrived`` (delivery order) into the
        receiver memory: each carries its source's current outer count
        and its slice of ``_held``; the fresh ones are copied in by one
        masked copy."""
        fresh = self._accept(arrived, self._outer[self._pair_src[arrived]])
        mask = np.zeros(self._pair_src.size, dtype=bool)
        mask[fresh] = True
        np.copyto(self._recv, self._held, where=np.repeat(mask, self._pair_len))

    def _on_deliver(self, dst: int, update: ScoreUpdate) -> None:
        """Transport upcall: queue the update unless its group is dead
        (a crashed ranker's inbox is dark).  Queued deliveries land, in
        delivery order, before anything next reads the receiver memory
        (:meth:`_land_inbox`)."""
        if not self.rankers[dst].crashed:
            self._inbox.append(update)

    def _land_inbox(self) -> None:
        """Land the queued transport deliveries through the receive
        rule; a fresh update's payload (the values it carried, which may
        be older than ``_held``) becomes its pair's span of ``_recv``.

        The rule takes distinct pairs, so the queue goes in layers:
        every pair's first delivery in delivery order, then every
        pair's second, and so on.  That is the per-delivery order for
        each pair, and first-arrival stamps are all given in the first
        layer, in delivery order — the same outcome as landing one
        delivery at a time, with one rule call per layer.
        """
        if not self._inbox:
            return
        position = self.system.blocks.pair_position
        layers: List[Dict[int, ScoreUpdate]] = []
        count: Dict[int, int] = {}
        for update in self._inbox:
            p = position[(update.src_group, update.dst_group)]
            k = count.get(p, 0)
            count[p] = k + 1
            if k == len(layers):
                layers.append({})
            layers[k][p] = update
        self._inbox = []
        for layer in layers:
            pairs = np.fromiter(layer, np.int64, len(layer))
            gens = np.fromiter((u.generation for u in layer.values()), np.int64, len(layer))
            for p in self._accept(pairs, gens).tolist():
                self._recv[self._pairs[p][2]] = layer[p].values

    def _send(self, transport, sends: Tuple[np.ndarray, np.ndarray], t: float) -> None:
        """The message backend: hand ``sends`` to a real ``transport``,
        one :class:`~repro.net.message.ScoreUpdate` per shipped pair and
        one ``send_updates`` call per source.  Payloads are copied: the
        Y buffer and the codec mirror are rewritten at the source's next
        emission, and an ARQ layer must retransmit the *original*
        payload.  They land through :meth:`_on_deliver` when delivered."""
        idx, wire_bytes = sends
        shipped = [
            (*self._pairs[p], wire)
            for p, wire in zip(idx.tolist(), wire_bytes.tolist())
        ]
        for g, batch in groupby(shipped, key=lambda send: send[0]):
            gen = int(self._outer[g])
            transport.send_updates(
                g,
                [
                    ScoreUpdate(
                        src_group=g,
                        dst_group=h,
                        values=self._held[csl].copy(),
                        n_link_records=records,
                        generation=gen,
                        sent_at=t,
                        wire_bytes=wire,
                    )
                    for _, h, csl, _, records, wire in batch
                ],
            )

    def _blank(self, g: int) -> None:
        """Reset group ``g`` to a fresh ranker's state for a takeover:
        zero ranks, empty afferent memory, zeroed counters, nothing
        sent.  The recovery manager restores the latest checkpoint on
        top, if one exists."""
        self._land_inbox()
        self._r[self._slices[g]] = 0.0
        self._recv[self._aff_elems[g]] = 0.0
        self._recv_gen[self._aff_pairs[g]] = -1
        self._outer[g] = 0
        self._inner_sweeps[g] = 0
        self._stale[g] = 0
        self._last_delta[g] = np.inf
        for p in self._src_pairs[g].tolist():
            self._last_sent.pop(p, None)

    def _refresh(self) -> None:
        """``X = F·recv`` for every destination in one SpMV.

        F's rows store their entries in first-arrival (stamp) order, so
        the sums are a receiver's re-summation scalar for scalar
        (module docstring, "afferent sums"); a pair that has not
        arrived holds only +0.0, which a nonnegative sum cannot see.
        """
        if self._recv_matrix is None:
            if not self._arrivals:
                return
            self._recv_matrix = self._build_afferent(
                np.argsort(self._recv_rank, kind="stable")
            )
        csr_matvec_into(self._recv_matrix, self._recv, self._x)

    def _step_groups(self, groups: Sequence[int]) -> None:
        """The group step: one outer loop for each of ``groups``, in
        order — :func:`~repro.core.dpr.group_step` over the group's
        slices of the flat state, with ``f = βE + X``."""
        cfg = self.config
        for g in groups:
            self._outer[g] += 1
            sl = self._slices[g]
            if sl.stop == sl.start:
                self._last_delta[g] = 0.0
                continue
            # Group g's f = βE + X assembled into the shared buffer:
            # the identical per-slice add a whole-system f performs,
            # one group at a time.
            f_g = self._fbuf[: sl.stop - sl.start]
            np.add(self._beta_e[sl], self._x[sl], out=f_g)
            self._last_delta[g], sweeps = group_step(
                self.system.diag(g), self._r[sl], f_g, self._workspaces[g],
                mode=cfg.algorithm, inner_solver=cfg.inner_solver,
                local_tol=cfg.local_tol, max_inner=cfg.max_inner,
            )
            self._inner_sweeps[g] += sweeps

    def _stepping_groups(self) -> Sequence[int]:
        """The groups that step this round, ascending: all of them."""
        return range(self.config.n_groups)

    def _compute(self, groups: Sequence[int]) -> None:
        """One outer loop for each of ``groups``."""
        cfg = self.config
        if cfg.algorithm == "dpr1" or len(groups) < cfg.n_groups:
            self._step_groups(groups)
            return
        # dpr2 with every group stepping is one whole-system sweep.
        # f = βE + X over the whole system (same elementwise add the
        # group step performs per group, so the same bits).
        if self._f is None:
            self._f = np.empty_like(self._r)
        np.add(self._beta_e, self._x, out=self._f)
        # R ← A·R + f, fused with the per-group ‖ΔR‖₁ reductions over
        # contiguous slices.
        if self._ping is None:
            self._ping = np.zeros_like(self._r)
            self._scratch = np.zeros_like(self._r)
        csr_matvec_into(self.system.blocks.block_diagonal(), self._r, self._ping)
        np.add(self._ping, self._f, out=self._ping)
        np.subtract(self._ping, self._r, out=self._scratch)
        np.abs(self._scratch, out=self._scratch)
        for g in range(cfg.n_groups):
            sl = self._slices[g]
            if sl.stop == sl.start:
                self._last_delta[g] = 0.0
                continue
            self._last_delta[g] = float(self._scratch[sl].sum())
            self._inner_sweeps[g] += 1
        self._r, self._ping = self._ping, self._r
        self._outer += 1

    def _round(self, t: float) -> None:
        """One bulk-synchronous round — the paper's outer loop for the
        groups that step: refresh X from what has landed by ``t``,
        compute, emit Y, communicate."""
        self._sync_to(t)
        self._refresh()
        stepping = self._stepping_groups()
        self._compute(stepping)
        csr_matvec_into(self._cut, self._r, self._y)
        self._emit(self._build_sends(stepping), t)


class MonteCarloEngine(RoundEngine):
    """Distributed random-walk ranking over the partitioned system.

    Construction mirrors :class:`SynchronousEngine` (same partition
    and overlay from the same named seeds, same ``RunResult`` via
    :func:`~repro.core.coordinator.assemble_run_result`), but the
    computation is the Monte-Carlo estimator of
    :mod:`repro.linalg.montecarlo` instead of Jacobi iteration: each
    bulk-synchronous round advances every alive walk token one step,
    and tokens whose step crosses the partition cut become that
    round's messages — binned per ordered (source, destination) group
    pair and charged exactly as the real transport stack would by
    :func:`_replay_transport_round`, one link record per forwarded
    token.  Per-round traffic therefore *decays* with the alive-token
    population (geometric in the round number) instead of staying
    constant like DPR1/DPR2's cut vectors.

    The engine never builds the grouped operator: walks read the raw
    CSR, so construction is O(n) and the per-round cost is O(alive
    tokens) — the whole run touches ~``n·walks_per_page/(1−α)`` token
    steps.  Accuracy is statistical, not iterative: the final estimate
    carries the documented tolerance
    :func:`~repro.linalg.montecarlo.mc_error_tolerance` rather than a
    convergence guarantee, and the run naturally completes when every
    token has terminated (the estimate can no longer change).

    Parameters
    ----------
    graph, config:
        The crawl and experiment parameters; the config must satisfy
        the ``engine="mc"`` restrictions (synchronous schedule,
        failure-free, lossless, scalar ``e``).
    partition, reference:
        Optional precomputed partition / centralized solution.  The
        default reference is :func:`~repro.core.pagerank.pagerank_open`
        on the same graph — the fixed point the estimator is unbiased
        for under ``dangling_mode="absorb"``.
    """
    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        from repro.linalg.montecarlo import RandomWalkState

        super().__init__(
            graph,
            config,
            partition=partition,
            reference=reference,
            group_system=False,
        )
        self.state = RandomWalkState(
            graph,
            alpha=config.alpha,
            walks_per_page=config.walks_per_page,
            walk_mode=config.walk_mode,
            dangling=config.dangling_mode,
            start_weight=1.0 if config.e is None else float(config.e),
            rng=self._seeds.generator("walks"),
        )
        self._group_of = self.partition.group_of
        # The loop's per-group vectors, in mc terms: ``_inner_sweeps``
        # counts token steps executed per group (the analogue of the
        # Jacobi engines' inner-sweep work counter) and ``_last_delta``
        # is the L1 growth of the estimate in the last round (the
        # estimate is monotone, so growth == |change|) — driving the
        # same quiescence test the other engines run.
        # §4.4 bridge inputs, accumulated over the run: total crossing
        # link records and the set of communicating pairs.
        self._crossing_records = 0
        self._pairs_seen: set = set()
        #: Wire codec: walk tokens carry page ids, not scores, so the
        #: "delta" codec degenerates to exact varint token frames
        #: (sorted global target ids, gap-coded) — nothing to quantize
        #: and no error budget to spend (config validation rejects
        #: delta-q16 and ε_comm > 0 for this engine).
        self._codec_on = config.codec != "none"
        self._codec_frames = 0
        self._codec_entries = 0

    # ------------------------------------------------------------------
    def paper_round_estimate(self) -> Dict[str, float]:
        """Per-round traffic predicted by the paper's §4.4 formulas.

        The mc counterpart of
        :meth:`SynchronousEngine.paper_round_estimate`: W is the *mean*
        walk records crossing the cut per executed round (walk traffic
        decays, so only the mean is well-defined per round), and h is
        the overlay mean hop count over the pairs that actually carried
        tokens.  Call after :meth:`run`; before any round both terms
        are zero.
        """
        return paper_round_estimate(
            self.config,
            self.overlay,
            self._crossing_records / max(int(self._outer.max()), 1),
            sorted(self._pairs_seen),
        )

    # ------------------------------------------------------------------
    def _ranks(self, out: np.ndarray) -> np.ndarray:
        return self.state.estimate(out=out)

    def _exhausted(self) -> bool:
        # Once every token has terminated the estimate is final.
        return self.state.alive == 0

    def _round(self, t: float) -> None:
        """One bulk-synchronous round: step all tokens, ship crossers."""
        k = self.config.n_groups
        pos = self.state.pos
        if pos.size:
            self._inner_sweeps += np.bincount(self._group_of[pos], minlength=k)
        src, dst, counted = self.state.step()
        # Per-group estimate growth (quiescence signal): exactly the
        # mass credited this round, in rank units.
        if counted.size:
            self._last_delta = (
                np.bincount(self._group_of[counted], minlength=k).astype(
                    np.float64
                )
                * self.state.estimate_factor
            )
        else:
            self._last_delta = np.zeros(k, dtype=np.float64)
        # Cut-crossing tokens become this round's messages: bin them
        # per ordered (src, dst) group pair — bincount over src·K+dst
        # yields (source ascending, destination ascending), the same
        # emission order the other engines use — and charge them as
        # the real transport would, one link record per forwarded token.
        if src.size:
            gs = self._group_of[src]
            gd = self._group_of[dst]
            cross = gs != gd
            if cross.any():
                codes = gs[cross].astype(np.int64) * k + gd[cross]
                counts = np.bincount(codes, minlength=k * k)
                present = np.flatnonzero(counts)
                if self._codec_on:
                    # Gap-coded token frames: group the crossing
                    # targets per ordered pair, sort each pair's global
                    # page ids, and charge the exact varint frame size
                    # instead of 100 B per forwarded token.
                    targets = dst[cross][np.argsort(codes, kind="stable")]
                    bounds = np.cumsum(counts[present]).tolist()
                    wire_bytes = np.array(
                        [
                            token_frame_bytes(np.sort(targets[lo:hi]))
                            for lo, hi in zip([0] + bounds, bounds)
                        ],
                        dtype=np.int64,
                    )
                    self._codec_entries += int(targets.size)
                    self._codec_frames += int(present.size)
                else:
                    wire_bytes = np.full(present.size, -1, dtype=np.int64)
                pair_src, pair_dst = present // k, present % k
                _replay_transport_round(
                    self.config,
                    self.overlay,
                    self.accountant,
                    pair_src,
                    pair_dst,
                    counts[present],
                    wire_bytes,
                )
                self._crossing_records += int(counts.sum())
                self._pairs_seen.update(zip(pair_src.tolist(), pair_dst.tolist()))
        self._outer += 1

    def _codec_stats(self) -> Optional[Dict]:
        if not self._codec_on:
            return None
        # Token frames are exact, so the certificate is trivially 0.
        return {
            "codec": self.config.codec,
            "epsilon": 0.0,
            "pairs": len(self._pairs_seen),
            "frames": self._codec_frames,
            "suppressed_frames": 0,
            "exact_flushes": self._codec_frames,
            "entries_sent": self._codec_entries,
            "resyncs": 0,
            "residual_mass": 0.0,
            "certified_bound": 0.0,
        }
