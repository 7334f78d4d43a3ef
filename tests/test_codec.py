"""Unit + property tests for the wire-codec layer.

Three strata:

* pure wire format (:mod:`repro.net.codec`): varint/frame/token
  roundtrips and the pin ``frame_wire_bytes == len(encode_frame)`` so
  the engines' fast size model can never drift from the real encoder;
* codec sessions (:mod:`repro.net.adaptive`): the per-pair residual
  invariant that makes the ε_comm certificate sound, lossless mode,
  exact-flush escalation, and the ``index_map`` byte identity the flat
  engine relies on;
* configuration: the codec × engine table and the cross-engine
  requirements (guaranteed delivery, no crash faults, no ad-hoc
  suppression), plus small end-to-end engine agreement runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.core.capabilities import CODEC_ENGINES, codecs_supported
from repro.graph import google_contest_like
from repro.net.adaptive import AdaptiveCodec
from repro.net.codec import (
    FRAME_HEADER_BYTES,
    decode_frame,
    decode_token_frame,
    decode_uvarint,
    encode_frame,
    encode_token_frame,
    encode_uvarint,
    frame_wire_bytes,
    frames_wire_bytes,
    index_gaps,
    token_frame_bytes,
    uvarint_sizes,
)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        data = encode_uvarint(value)
        decoded, pos = decode_uvarint(data, 0)
        assert decoded == value
        assert pos == len(data)

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1)))
    def test_sizes_match_encoder(self, values):
        arr = np.asarray(values, dtype=np.int64)
        sizes = uvarint_sizes(arr)
        assert list(sizes) == [len(encode_uvarint(int(v))) for v in values]

    def test_boundaries(self):
        for v, n in [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3)]:
            assert len(encode_uvarint(v)) == n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)


def ascending_indices():
    return st.lists(
        st.integers(min_value=0, max_value=100_000),
        unique=True,
        max_size=60,
    ).map(sorted)


class TestDeltaFrames:
    @settings(max_examples=60, deadline=None)
    @given(
        ascending_indices(),
        st.sampled_from([2, 4]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_roundtrip_and_size_pin(self, indices, width, exact, rng):
        idx = np.asarray(indices, dtype=np.int64)
        # Quantization-stable deltas, as the adaptive layer guarantees.
        dtype = {2: np.float16, 4: np.float32}[width]
        raw = np.asarray([rng.uniform(-1, 1) for _ in indices])
        deltas = (
            raw.astype(np.float64)
            if exact
            else raw.astype(dtype).astype(np.float64)
        )
        frame = encode_frame(idx, deltas, value_bytes=width, exact=exact)
        assert len(frame) == frame_wire_bytes(
            idx, value_bytes=width, exact=exact
        )
        out_idx, out_deltas, out_exact = decode_frame(frame)
        assert out_exact == exact
        np.testing.assert_array_equal(out_idx, idx)
        np.testing.assert_array_equal(out_deltas, deltas)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(ascending_indices(), st.sampled_from([2, 4, 8])),
            min_size=1,
            max_size=6,
        )
    )
    def test_segmented_sizes_match_encoder(self, frames):
        """Many frames sized in one pass (empty ones included) cost,
        frame for frame, what the real encoder emits for each alone."""
        counts = [len(indices) for indices, _ in frames]
        sizes = frames_wire_bytes(
            np.asarray(sum((i for i, _ in frames), []), dtype=np.int64),
            np.cumsum([0] + counts[:-1]),
            np.asarray([width for _, width in frames]),
        )
        assert sizes.tolist() == [
            len(
                encode_frame(
                    np.asarray(indices, dtype=np.int64),
                    np.zeros(len(indices)),
                    value_bytes=width,
                    exact=width == 8,
                )
            )
            for indices, width in frames
        ]

    def test_segmented_ascending_check_is_per_frame(self):
        # A new frame may restart below the previous frame's last index…
        sizes = frames_wire_bytes(np.array([5, 9, 0, 300]), np.array([0, 2]), 4)
        assert sizes.tolist() == [
            frame_wire_bytes(np.array([5, 9]), value_bytes=4),
            frame_wire_bytes(np.array([0, 300]), value_bytes=4),
        ]
        # …but not within itself, and starts must tile the index list.
        with pytest.raises(ValueError):
            frames_wire_bytes(np.array([5, 9, 7, 7]), np.array([0, 2]), 4)
        with pytest.raises(ValueError):
            frames_wire_bytes(np.array([1, 2]), np.array([1]), 4)
        with pytest.raises(ValueError):
            frames_wire_bytes(np.array([1, 2]), np.array([0, 3]), 4)

    def test_empty_frame_is_header_only(self):
        empty = np.array([], dtype=np.int64)
        assert frame_wire_bytes(empty, value_bytes=4) == FRAME_HEADER_BYTES

    def test_consecutive_indices_cost_one_byte_each(self):
        idx = np.arange(10, dtype=np.int64)
        assert list(index_gaps(idx)[1:]) == [0] * 9
        assert (
            frame_wire_bytes(idx, value_bytes=4)
            == FRAME_HEADER_BYTES + 10 + 10 * 4
        )

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            index_gaps(np.array([3, 1]))
        with pytest.raises(ValueError):
            index_gaps(np.array([2, 2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            encode_frame(np.array([1, 2]), np.array([0.5]), value_bytes=4)


class TestTokenFrames:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=100_000), max_size=80)
    )
    def test_roundtrip_and_size_pin(self, ids):
        arr = np.sort(np.asarray(ids, dtype=np.int64))
        frame = encode_token_frame(arr)
        assert len(frame) == token_frame_bytes(arr)
        np.testing.assert_array_equal(decode_token_frame(frame), arr)

    def test_duplicates_cost_one_byte(self):
        base = np.array([7, 7], dtype=np.int64)
        assert (
            token_frame_bytes(base)
            == FRAME_HEADER_BYTES + len(encode_uvarint(7)) + 1
        )

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            token_frame_bytes(np.array([5, 3]))
        with pytest.raises(ValueError):
            encode_token_frame(np.array([5, 3]))


def vector_sequences():
    """Short sequences of same-length efferent vectors for one pair."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=10.0, allow_nan=False
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=6,
        )
    )


@st.composite
def emission_sequences(draw):
    """A source's emission layout (1-6 destinations, segments of 1-8
    entries, with or without index maps), a few successive emissions
    over it — entries are kept, nudged or redrawn step to step so
    suppressed, quantized and exact-flush frames all occur — and where
    to inject one ``reset_pair`` (step, destination)."""
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6)
    )
    index_maps = None
    if draw(st.booleans()):
        index_maps = [
            np.cumsum(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=300),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
            - 1
            for n in lengths
        ]
    total = sum(lengths)
    score = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    steps = [draw(st.lists(score, min_size=total, max_size=total))]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        moves = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["keep", "nudge", "redraw"]),
                    st.floats(min_value=0.0, max_value=1e-4),
                    score,
                ),
                min_size=total,
                max_size=total,
            )
        )
        steps.append(
            [
                {"keep": prev, "nudge": prev + nudge, "redraw": fresh}[move]
                for prev, (move, nudge, fresh) in zip(steps[-1], moves)
            ]
        )
    reset_at = (
        draw(st.integers(min_value=0, max_value=len(steps))),
        draw(st.integers(min_value=0, max_value=5)),
    )
    return lengths, index_maps, steps, reset_at


def encode_one(codec, src, dst, values, index_map=None):
    """A one-destination emission; ``None`` when the codec suppressed it."""
    out = codec.encode(src, (dst,), values, np.zeros(1, dtype=np.int64), index_map)
    return out if out.shipped[0] else None


class TestAdaptiveCodec:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            AdaptiveCodec("none")
        with pytest.raises(ValueError):
            AdaptiveCodec("delta", epsilon=-1.0)

    def test_lossless_mode_ships_exact_or_suppresses(self):
        codec = AdaptiveCodec("delta", epsilon=0.0, n_pairs=4)
        v = np.array([0.5, 0.0, 0.25])
        frame = encode_one(codec, 0, 1, v)
        assert frame.exact[0]
        np.testing.assert_array_equal(codec.recon(0, 1), v)
        # Unchanged vector -> free suppression, residual stays 0.
        assert encode_one(codec, 0, 1, v) is None
        assert codec.residual_mass() == 0.0
        assert codec.stats()["suppressed_frames"] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        vector_sequences(),
        st.sampled_from(["delta", "delta-q16"]),
        st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
    )
    def test_residual_invariant(self, vectors, name, epsilon):
        """After every encode, the pair residual is within its budget
        and the mirror tracks the true vector to that tolerance —
        the soundness of the ε_comm certificate."""
        codec = AdaptiveCodec(name, epsilon=epsilon, n_pairs=2)
        for vec in vectors:
            v = np.asarray(vec)
            encode_one(codec, 3, 1, v)
            gap = float(np.abs(v - codec.recon(3, 1)).sum())
            assert gap <= codec.pair_budget + 1e-12
            assert codec.residual_mass() <= codec.epsilon + 1e-12

    def test_escalates_to_exact_flush_when_over_budget(self):
        codec = AdaptiveCodec("delta-q16", epsilon=1e-6, n_pairs=1)
        v = np.array([1 / 3, 2 / 3, 0.123])  # not float16-representable
        frame = encode_one(codec, 0, 1, v)
        # float16 quantization error on these values dwarfs the
        # budget, so the very first frame must be an exact flush.
        assert frame.exact[0]
        assert codec.exact_flushes == 1
        np.testing.assert_array_equal(codec.recon(0, 1), v)

    def test_index_map_changes_bytes_not_state(self):
        """A compressed segment + index map must cost exactly what the
        equivalent dense vector costs — a frame's indices are the
        destination's pages — without altering the codec's delivered
        values."""
        dense = np.zeros(50)
        rows = np.array([4, 17, 41], dtype=np.int64)
        seg = np.array([0.5, 1.5, 2.5])
        dense[rows] = seg

        a = AdaptiveCodec("delta", epsilon=0.0, n_pairs=1)
        b = AdaptiveCodec("delta", epsilon=0.0, n_pairs=1)
        f_dense = encode_one(a, 0, 1, dense)
        f_seg = encode_one(b, 0, 1, seg, index_map=rows)
        assert f_dense.wire_bytes == f_seg.wire_bytes
        assert f_dense.entries[0] == f_seg.entries[0]
        np.testing.assert_array_equal(b.recon(0, 1), seg)
        np.testing.assert_array_equal(a.recon(0, 1), dense)

    def test_reset_pair_resyncs(self):
        codec = AdaptiveCodec("delta", epsilon=0.0, n_pairs=1)
        v = np.array([1.0, 2.0])
        encode_one(codec, 0, 1, v)
        codec.reset_pair(0, 1)
        assert codec.resyncs == 1
        frame = encode_one(codec, 0, 1, v)  # full resync frame
        assert frame.entries[0] == 2
        # Resetting an unknown pair is a no-op.
        codec.reset_pair(9, 9)
        assert codec.resyncs == 1

    def test_length_change_rejected(self):
        codec = AdaptiveCodec("delta", epsilon=0.0, n_pairs=1)
        encode_one(codec, 0, 1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            encode_one(codec, 0, 1, np.array([1.0]))

    def test_emission_layout_is_validated(self):
        codec = AdaptiveCodec("delta", epsilon=0.0, n_pairs=2)
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="zero-length"):
            codec.encode(0, (1, 2), v, np.array([0, 3]))
        with pytest.raises(ValueError, match="zero-length"):
            codec.encode(0, (1, 2), v, np.array([0, 0]))
        with pytest.raises(ValueError, match="one start per destination"):
            codec.encode(0, (1, 2), v, np.array([0]))
        with pytest.raises(ValueError):
            codec.encode(0, (), v, np.array([], dtype=np.int64))
        out = codec.encode(0, (1, 2), v, np.array([0, 1]))
        assert out.shipped.tolist() == [True, True]
        assert out.wire_bytes == int(out.frame_bytes.sum())
        # A source always emits with the layout it started with.
        with pytest.raises(ValueError, match="layout changed"):
            codec.encode(0, (1, 2), v, np.array([0, 2]))
        with pytest.raises(ValueError, match="layout changed"):
            codec.encode(0, (1, 3), v, np.array([0, 1]))
        with pytest.raises(ValueError, match="layout changed"):
            encode_one(codec, 0, 2, v[1:])
        with pytest.raises(ValueError, match="another emission layout"):
            codec.encode(0, (5, 2), v, np.array([0, 1]))

    @settings(max_examples=120, deadline=None)
    @given(
        emission_sequences(),
        st.sampled_from(["delta", "delta-q16"]),
        st.sampled_from([0.0, 1e-6, 1e-3]),
    )
    def test_emission_equals_independent_pair_sessions(
        self, sequence, name, epsilon
    ):
        """One multi-destination emission and the same vectors encoded
        as independent one-destination sessions agree exactly on every
        verdict, byte count, mirror bit and counter — the batched pass
        has no behaviour of its own."""
        lengths, index_maps, steps, reset_at = sequence
        dsts = tuple(range(10, 10 + len(lengths)))
        starts = np.cumsum([0] + lengths[:-1])
        bounds = np.cumsum([0] + lengths)
        flat_map = None if index_maps is None else np.concatenate(index_maps)
        batched = AdaptiveCodec(name, epsilon=epsilon, n_pairs=len(dsts))
        single = AdaptiveCodec(name, epsilon=epsilon, n_pairs=len(dsts))
        for t, values in enumerate(steps):
            if t == reset_at[0]:
                victim = dsts[reset_at[1] % len(dsts)]
                batched.reset_pair(7, victim)
                single.reset_pair(7, victim)
            vec = np.asarray(values)
            out = batched.encode(7, dsts, vec, starts, flat_map)
            frames = [
                encode_one(
                    single,
                    7,
                    dst,
                    vec[bounds[j] : bounds[j + 1]],
                    None if index_maps is None else index_maps[j],
                )
                for j, dst in enumerate(dsts)
            ]
            assert out.shipped.tolist() == [f is not None for f in frames]
            assert out.frame_bytes.tolist() == [
                0 if f is None else f.wire_bytes for f in frames
            ]
            assert out.entries.tolist() == [
                0 if f is None else f.entries[0] for f in frames
            ]
            assert out.exact.tolist() == [
                f is not None and f.exact[0] for f in frames
            ]
            assert out.wire_bytes == sum(
                f.wire_bytes for f in frames if f is not None
            )
            for j, dst in enumerate(dsts):
                mirror = batched.recon(7, dst)
                assert mirror.tobytes() == single.recon(7, dst).tobytes()
                assert np.shares_memory(mirror, out.values)
            assert batched.residual_mass() == single.residual_mass()
            assert batched.stats() == single.stats()

    def test_certified_bound(self):
        codec = AdaptiveCodec("delta", epsilon=0.5, n_pairs=5)
        assert codec.certified_bound(0.85) == pytest.approx(0.5 / 0.15)
        assert AdaptiveCodec("delta").certified_bound(0.85) == 0.0
        with pytest.raises(ValueError):
            codec.certified_bound(1.0)


class TestCodecConfig:
    def test_table_matches_helper(self):
        for engine in ("event", "flat", "hybrid", "mc"):
            assert codecs_supported(engine) == [
                c for c, e in CODEC_ENGINES.items() if engine in e
            ]

    @pytest.mark.parametrize("codec", ["delta", "delta-q16"])
    @pytest.mark.parametrize("engine", ["event", "flat", "hybrid"])
    def test_score_engines_accept_delta_codecs(self, codec, engine):
        DistributedConfig(engine=engine, codec=codec)

    def test_mc_rejects_quantized_codec(self):
        with pytest.raises(ValueError, match="codec"):
            DistributedConfig(
                engine="mc", schedule="sync", codec="delta-q16"
            )
        # Token frames are fine under the lossless delta codec.
        DistributedConfig(engine="mc", schedule="sync", codec="delta")

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            DistributedConfig(codec="gzip")

    def test_epsilon_requires_codec(self):
        with pytest.raises(ValueError, match="comm_epsilon"):
            DistributedConfig(comm_epsilon=1e-4)

    def test_codec_requires_guaranteed_delivery(self):
        with pytest.raises(ValueError, match="delivery"):
            DistributedConfig(codec="delta", delivery_prob=0.9)

    def test_codec_excludes_send_threshold(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            DistributedConfig(codec="delta", send_threshold=1e-6)

    def test_codec_excludes_crash_faults(self):
        with pytest.raises(ValueError, match="crash"):
            DistributedConfig(codec="delta", crash_prob=0.01)

    def test_mc_epsilon_must_stay_zero(self):
        with pytest.raises(ValueError, match="exact"):
            DistributedConfig(
                engine="mc",
                schedule="sync",
                codec="delta",
                comm_epsilon=1e-4,
            )


@pytest.fixture(scope="module")
def small_world():
    graph = google_contest_like(500, 25, seed=11)
    return graph


def _small_run(graph, engine, codec, epsilon, n_groups=4, **kw):
    return run_distributed_pagerank(
        graph,
        n_groups=n_groups,
        engine=engine,
        algorithm="dpr2",
        partition_strategy="site",
        transport="direct",
        overlay="pastry",
        schedule="sync",
        t1=5.0,
        t2=5.0,
        sample_interval=5.0,
        seed=7,
        codec=codec,
        comm_epsilon=epsilon,
        max_time=152.5,  # 30 rounds
        **kw,
    )


class TestEndToEnd:
    def test_none_codec_paper_equals_data(self, small_world):
        res = _small_run(small_world, "flat", "none", 0.0)
        assert res.traffic.data_bytes == res.traffic.paper_data_bytes
        assert res.codec_stats is None

    def test_event_flat_agree_under_lossless_delta(self, small_world):
        base = _small_run(small_world, "flat", "none", 0.0)
        flat = _small_run(small_world, "flat", "delta", 0.0)
        event = _small_run(small_world, "event", "delta", 0.0)
        # Lossless: both coded engines match the uncoded ranks bit for
        # bit, and agree with each other on every traffic counter.
        assert flat.ranks.tobytes() == base.ranks.tobytes()
        assert event.ranks.tobytes() == base.ranks.tobytes()
        assert event.traffic.data_bytes == flat.traffic.data_bytes
        assert event.traffic.paper_data_bytes == flat.traffic.paper_data_bytes
        assert event.traffic.data_messages == flat.traffic.data_messages
        for key in ("frames", "suppressed_frames", "entries_sent"):
            assert event.codec_stats[key] == flat.codec_stats[key]
        # And the wire actually got cheaper.
        assert flat.traffic.data_bytes < base.traffic.data_bytes

    def test_budgeted_q16_honours_certificate(self, small_world):
        base = _small_run(small_world, "flat", "none", 0.0)
        q16 = _small_run(small_world, "flat", "delta-q16", 1e-4)
        deviation = float(np.abs(q16.ranks - base.ranks).sum())
        assert deviation <= q16.codec_stats["certified_bound"]
        assert q16.codec_stats["residual_mass"] <= 1e-4 + 1e-12
        assert q16.traffic.data_bytes < base.traffic.data_bytes

    def test_mc_token_frames_preserve_ranks(self, small_world):
        kw = dict(walks_per_page=8)
        base = _small_run(small_world, "mc", "none", 0.0, **kw)
        coded = _small_run(small_world, "mc", "delta", 0.0, **kw)
        assert coded.ranks.tobytes() == base.ranks.tobytes()
        assert coded.traffic.data_bytes < base.traffic.data_bytes
        assert coded.codec_stats["certified_bound"] == 0.0


#: Counters of the 2 000-page / K=8 flat run below, recorded from the
#: per-pair encoder this batched codec replaced (commit 7cfdb2d).
_PINNED = {
    ("delta", 0.0): dict(
        frames=1650, suppressed_frames=0, exact_flushes=1650,
        entries_sent=30933, data_bytes=319735, paper_data_bytes=3627000,
        lookup_bytes=82500, data_messages=1650,
    ),
    ("delta-q16", 1e-4): dict(
        frames=1028, suppressed_frames=622, exact_flushes=162,
        entries_sent=16244, data_bytes=99696, paper_data_bytes=2908860,
        lookup_bytes=51400, data_messages=1028,
    ),
}


def _counters(res):
    keys = ("frames", "suppressed_frames", "exact_flushes", "entries_sent")
    return {
        **{key: res.codec_stats[key] for key in keys},
        "data_bytes": res.traffic.data_bytes,
        "paper_data_bytes": res.traffic.paper_data_bytes,
        "lookup_bytes": res.traffic.lookup_bytes,
        "data_messages": res.traffic.data_messages,
    }


class TestPinnedEngineCounters:
    """The per-source codec pass reproduces the per-pair encoder's
    verdicts and bytes on a whole engine run, flat and hybrid."""

    @pytest.fixture(scope="class")
    def graph(self):
        return google_contest_like(2000, 60, seed=3)

    @pytest.mark.parametrize("codec,epsilon", list(_PINNED))
    def test_flat_and_hybrid_reproduce_pinned_counters(
        self, graph, codec, epsilon
    ):
        flat = _small_run(graph, "flat", codec, epsilon, n_groups=8)
        assert _counters(flat) == _PINNED[(codec, epsilon)]
        # Sync and fault-free: the hybrid engine promises exactness.
        hybrid = _small_run(graph, "hybrid", codec, epsilon, n_groups=8)
        assert hybrid.fidelity == "exact"
        assert _counters(hybrid) == _counters(flat)
        assert hybrid.ranks.tobytes() == flat.ranks.tobytes()
