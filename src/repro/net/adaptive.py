"""Adaptive codec sessions with a certified error budget.

One :class:`AdaptiveCodec` instance serves a whole run.  For every
ordered (src-group, dst-group) pair it keeps the sender-side
**reconstruction mirror** ``recon`` — the exact float64 vector the
receiver holds after replaying every frame shipped so far (frames are
exact-replay by construction, see :mod:`repro.net.codec`) — plus the
outstanding **residual** ``‖true − recon‖₁``: the efferent mass the
receiver has not seen.

The unit of work is **one source's emission**: the efferent vectors of
all its destinations, concatenated, with the pair boundaries
(:meth:`AdaptiveCodec.encode`).  The source's pairs share one flat
mirror and every step below runs once over it, segmented by pair — an
emission costs one call per source, not one per pair, in every engine.

Encoding the true efferent vector ``v`` of each pair:

1. ``delta = v − recon``; candidate entries are those with
   ``|delta| > θ`` where ``θ = ε_pair / (2·len(v))`` (with a zero
   budget every changed entry is a candidate).  ``v`` is the pair's
   *compressed* segment — one entry per destination page the pair has
   a cut link into — so ``len(v)`` is the pair's compressed length,
   the same number in every engine.
2. Candidates are quantized at the codec's width (float32 for
   ``delta``, float16 for ``delta-q16``) and the *post-frame* residual
   is computed: withheld mass plus quantization error.
3. **Budget check** — the per-pair budget is
   ``ε_pair = ε_comm / n_pairs``:

   * residual ≤ ε_pair → ship the quantized frame, advance ``recon``
     by the exact float64 upcast of what was shipped.
   * residual > ε_pair → **exact flush**: ship every index where
     ``recon ≠ v`` as float64 deltas; ``recon`` becomes ``v`` and the
     pair's residual drops to 0.
   * no candidates and residual ≤ ε_pair → suppress the frame
     entirely (zero bytes on the wire).

The invariant after every encode is therefore
``residual(pair) ≤ ε_pair``, so the total efferent perturbation the
codec ever injects is ``Σ_pairs residual ≤ ε_comm`` at all times —
the certificate :meth:`AdaptiveCodec.certified_bound` turns into a
rank-error bound via the contraction argument in DESIGN.md §15
(``‖R − R̃‖₁ ≤ ε_comm / (1 − α)``).

With the default ``ε_comm = 0`` every frame that ships is an exact
flush and unchanged vectors are suppressed for free: the codec is
**lossless** (delivered values bit-identical to an uncompressed run)
while still replacing the paper's 100 B/record charge with
~10 B/changed-entry frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.codec import (
    CODEC_DELTA,
    CODEC_DELTA_Q16,
    EXACT_VALUE_BYTES,
    VALUE_BYTES,
    VALUE_DTYPE,
    frames_wire_bytes,
)

__all__ = ["AdaptiveCodec", "EncodedEmission"]


@dataclass
class EncodedEmission:
    """One encoded source emission: per destination, what ships and
    what it costs.

    ``values`` is the source's flat reconstruction mirror — pair ``j``'s
    slice of it is that receiver's post-frame state — and is a *view*
    of the codec's state, valid until the source's next encode; copy a
    slice before handing it to anything with a longer lifetime
    (in-flight messages, held state).  The per-destination arrays are
    indexed like the emission's ``dsts``; a suppressed destination has
    ``shipped`` False and zero ``frame_bytes`` / ``entries``.
    """

    values: np.ndarray
    shipped: np.ndarray
    frame_bytes: np.ndarray
    entries: np.ndarray
    exact: np.ndarray
    #: Total wire bytes of the emission's shipped frames.
    wire_bytes: int


class _Session:
    """Mirror and residuals of one source emission layout."""

    __slots__ = (
        "dsts", "starts", "bounds", "pair_of", "theta", "recon", "residual",
        "_local",
    )

    def __init__(
        self, dsts: Tuple[int, ...], starts: np.ndarray, size: int, budget: float
    ):
        self.dsts = dsts
        #: Pair ``j`` owns mirror elements ``bounds[j]:bounds[j + 1]``.
        self.bounds = np.append(np.asarray(starts, dtype=np.int64), size)
        self.starts = self.bounds[:-1]
        lengths = np.diff(self.bounds)
        if (
            np.ndim(starts) != 1
            or self.starts.size != len(dsts)
            or len(dsts) == 0
            or self.starts[0] != 0
            # np.add.reduceat reads an empty segment as its next
            # element, not 0: zero-length pairs are not representable.
            or lengths.min() <= 0
        ):
            raise ValueError(
                "an emission needs one start per destination, beginning "
                "at 0 and strictly ascending within the values "
                "(no zero-length pairs)"
            )
        #: Pair position of every mirror element.
        self.pair_of = np.repeat(np.arange(len(dsts)), lengths)
        #: Per-element candidate threshold θ = ε_pair / (2·len(pair)).
        self.theta = (
            np.repeat(budget / (2.0 * lengths), lengths) if budget > 0.0 else None
        )
        self.recon = np.zeros(size, dtype=np.float64)
        self.residual = np.zeros(len(dsts), dtype=np.float64)
        self._local: Optional[np.ndarray] = None

    def local_index(self) -> np.ndarray:
        """Wire index of every element when no index map translates it:
        its position within its own pair's vector."""
        if self._local is None:
            self._local = (
                np.arange(self.recon.size) - self.starts[self.pair_of]
            )
        return self._local


class AdaptiveCodec:
    """Delta codec sessions under one shared error budget.

    Parameters
    ----------
    codec:
        ``"delta"`` (float32 quantized deltas) or ``"delta-q16"``
        (float16).  ``"none"`` never constructs a codec — callers skip
        the layer entirely.
    epsilon:
        The run's total error budget ε_comm in efferent L1 mass.  0
        (default) means lossless: every shipped frame is an exact
        float64 flush.
    n_pairs:
        Number of communicating pairs; the per-pair budget is
        ``ε_pair = epsilon / n_pairs``.

    An entry is a candidate when its change exceeds
    ``θ = ε_pair / (2·len)``, ``len`` being the pair's compressed
    length: the entries of its segment — one per destination page the
    pair has a cut link into — as every engine passes it.
    """

    def __init__(self, codec: str, *, epsilon: float = 0.0, n_pairs: int = 1):
        if codec not in (CODEC_DELTA, CODEC_DELTA_Q16):
            raise ValueError(
                f"unknown delta codec {codec!r} (expected 'delta' or 'delta-q16')"
            )
        if epsilon < 0.0:
            raise ValueError("comm epsilon must be >= 0")
        self.codec = codec
        self.epsilon = float(epsilon)
        self.n_pairs = max(1, int(n_pairs))
        self.pair_budget = self.epsilon / self.n_pairs
        self.value_bytes = VALUE_BYTES[codec]
        self._dtype = VALUE_DTYPE[codec]
        #: Every pair's session and its position in it, in first-encode
        #: order.
        self._pairs: Dict[Tuple[int, int], Tuple[_Session, int]] = {}
        self._sessions: List[_Session] = []
        #: Frames shipped (quantized + exact flushes).
        self.frames = 0
        #: Emissions suppressed entirely (zero wire bytes).
        self.suppressed_frames = 0
        #: Frames escalated to an exact float64 flush.
        self.exact_flushes = 0
        #: Total entries shipped across all frames.
        self.entries_sent = 0
        #: Pair sessions reset (receiver resync after takeover).
        self.resyncs = 0

    # ------------------------------------------------------------------
    def _session(
        self, src: int, dsts: Sequence[int], size: int, starts: np.ndarray
    ) -> _Session:
        """The session of this emission layout, created on first use."""
        dsts = tuple(dsts)
        known = self._pairs.get((src, dsts[0])) if dsts else None
        if known is None:
            if any((src, dst) in self._pairs for dst in dsts):
                raise ValueError(
                    f"source {src} emitted {dsts} but some of those pairs "
                    "already belong to another emission layout"
                )
            session = _Session(dsts, starts, size, self.pair_budget)
            self._sessions.append(session)
            for j, dst in enumerate(dsts):
                self._pairs[(src, dst)] = (session, j)
            return session
        session = known[0]
        if session.dsts != dsts or not np.array_equal(session.starts, starts):
            raise ValueError(
                f"source {src} emission layout changed "
                f"({session.dsts} -> {dsts}, or its pair boundaries)"
            )
        if session.recon.size != size:
            raise ValueError(
                f"source {src} -> {dsts} efferent length changed "
                f"({session.recon.size} -> {size})"
            )
        return session

    def encode(
        self,
        src: int,
        dsts: Sequence[int],
        values: np.ndarray,
        starts: np.ndarray,
        index_map: Optional[np.ndarray] = None,
    ) -> EncodedEmission:
        """Encode one source's emission to all of ``dsts`` in one pass.

        ``values`` concatenates the efferent vectors of ``dsts`` in
        order; pair ``j`` owns ``values[starts[j]:starts[j + 1]]`` (the
        last runs to the end).  A source always emits with the same
        layout.

        ``index_map`` translates positions in ``values`` to the wire's
        destination-local index space before gap coding (default: the
        position within the pair's own vector).  The engines pass their
        compressed segments with the nonzero-row map, so a frame's
        indices — and its bytes — are those of the destination's pages.
        """
        vec = np.asarray(values, dtype=np.float64)
        s = self._session(src, dsts, vec.size, starts)
        budget = self.pair_budget
        delta = vec - s.recon
        # ``ship`` marks the entries that go on the wire, ``flush`` the
        # pairs that send theirs as an exact float64 flush.
        if budget > 0.0:
            absd = np.abs(delta)
            ship = absd > s.theta
            cand = np.flatnonzero(ship)
            quant = delta[cand].astype(self._dtype).astype(np.float64)
            # Post-frame residual = withheld mass + quantization error,
            # computed *before* committing so an over-budget frame
            # escalates to a single exact flush instead of two frames.
            absd[cand] = 0.0
            residual = np.add.reduceat(absd, s.starts)
            residual += np.bincount(
                s.pair_of[cand],
                weights=np.abs(delta[cand] - quant),
                minlength=residual.size,
            )
            flush = residual > budget
            if flush.any():
                flushed = flush[s.pair_of]
                ship = np.where(flushed, delta != 0.0, ship)
                np.copyto(s.recon, vec, where=flushed)
                residual[flush] = 0.0
                keep = ~flushed[cand]
                cand, quant = cand[keep], quant[keep]
            s.recon[cand] += quant
            s.residual = residual
        else:
            # Lossless mode: every changed entry ships, exactly.
            ship = delta != 0.0
        wire = np.flatnonzero(ship)
        entries = np.bincount(s.pair_of[wire], minlength=len(s.dsts))
        shipped = entries > 0
        if wire.size == 0:
            # A converged source: every destination suppressed.
            self.suppressed_frames += shipped.size
            return EncodedEmission(
                values=s.recon,
                shipped=shipped,
                frame_bytes=entries,
                entries=entries,
                exact=shipped,
                wire_bytes=0,
            )
        if budget == 0.0:
            flush = shipped
            np.copyto(s.recon, vec, where=flush[s.pair_of])
        local = s.local_index() if index_map is None else index_map
        frame_bytes = frames_wire_bytes(
            local[wire],
            np.cumsum(entries) - entries,
            np.where(flush, EXACT_VALUE_BYTES, self.value_bytes),
        )
        frame_bytes[~shipped] = 0
        n_shipped = int(np.count_nonzero(shipped))
        self.frames += n_shipped
        self.suppressed_frames += shipped.size - n_shipped
        self.exact_flushes += int(np.count_nonzero(flush))
        self.entries_sent += int(wire.size)
        return EncodedEmission(
            values=s.recon,
            shipped=shipped,
            frame_bytes=frame_bytes,
            entries=entries,
            exact=flush,
            wire_bytes=int(frame_bytes.sum()),
        )

    # ------------------------------------------------------------------
    def recon(self, src: int, dst: int) -> np.ndarray:
        """The receiver's current reconstruction for a pair (a view)."""
        session, j = self._pairs[(src, dst)]
        return session.recon[session.bounds[j] : session.bounds[j + 1]]

    def reset_pair(self, src: int, dst: int) -> None:
        """Reset a pair session (receiver lost state; next frame resyncs).

        The next encode for the pair starts from an all-zero mirror, so
        it ships a full exact-replayable frame — the resync handshake a
        takeover or rejoin would perform on a real wire.
        """
        known = self._pairs.get((src, dst))
        if known is not None:
            session, j = known
            session.recon[session.bounds[j] : session.bounds[j + 1]] = 0.0
            session.residual[j] = 0.0
            self.resyncs += 1

    def residual_mass(self) -> float:
        """Outstanding suppressed mass Σ_pairs ‖true − recon‖₁."""
        return float(
            sum(chain.from_iterable(s.residual.tolist() for s in self._sessions))
        )

    def certified_bound(self, alpha: float) -> float:
        """Certified L1 rank-deviation bound ε_comm / (1 − α).

        Valid at every instant of the run: the encode invariant keeps
        each pair's residual at or below its budget share, so the total
        efferent perturbation never exceeds ε_comm, and the open-system
        iteration contracts perturbations by α per exchange (DESIGN.md
        §15).  With ε_comm = 0 the bound is exactly 0 — the lossless
        contract.
        """
        if alpha >= 1.0:
            raise ValueError("alpha must be < 1 for the contraction bound")
        return self.epsilon / (1.0 - alpha)

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for RunResult / reports."""
        return {
            "codec": self.codec,
            "epsilon": self.epsilon,
            "pairs": len(self._pairs),
            "frames": self.frames,
            "suppressed_frames": self.suppressed_frames,
            "exact_flushes": self.exact_flushes,
            "entries_sent": self.entries_sent,
            "resyncs": self.resyncs,
            "residual_mass": self.residual_mass(),
        }
