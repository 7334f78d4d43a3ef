"""Wire frames for cross-group score updates: delta + varint coding.

The paper's §4.4 byte model charges a flat
:data:`~repro.net.message.LINK_RECORD_BYTES` (100 B) per crossing link
record.  This module defines the *calibrated* alternative: a compact
frame that carries only the efferent-vector entries that changed since
the receiver's last reconstruction, as

``frame = header | varint-packed index gaps | packed value deltas``

* **Header** — :data:`FRAME_HEADER_BYTES` (5 B): one flags byte (bit 0
  marks an exact float64 flush, bits 1–7 store the value width in
  bytes) and a little-endian ``u32`` entry count.
* **Index gaps** — entry positions are destination-local indices into
  the pair's compressed efferent vector, strictly ascending; the frame
  stores ``idx[0], idx[i] - idx[i-1] - 1`` as LEB128 varints so runs of
  consecutive indices cost one byte each.
* **Values** — the per-entry deltas, packed little-endian at the
  codec's width: float32 (``delta``), float16 (``delta-q16``), or
  float64 for an exact flush.

Decoding is **exact replay**: :func:`decode_frame` returns the same
integer indices and the same float64-upcast deltas the sender applied
to its reconstruction mirror, so sender and receiver state stay
bit-identical no matter how many frames have flowed (see
:mod:`repro.net.adaptive` for the session layer that owns that
mirror).

The Monte-Carlo engine ships walk tokens, not score vectors; its
frames (:func:`encode_token_frame`) are varint gap lists over the
sorted global target page ids — exact by construction, no value
payload at all.

The hot paths never materialize frames: :func:`frames_wire_bytes`
(every frame of one source emission in a single pass;
:func:`frame_wire_bytes` is its one-frame case) and
:func:`token_frame_bytes` compute the exact encoded size with
vectorized varint-length arithmetic, and the engines charge those
bytes to the accountant while shipping numpy views in-process.  Tests
pin every per-frame size ``== len(encode_frame(...))`` so the fast
size model can never drift from the real encoder.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "CODECS",
    "CODEC_NONE",
    "CODEC_DELTA",
    "CODEC_DELTA_Q16",
    "FRAME_HEADER_BYTES",
    "EXACT_VALUE_BYTES",
    "VALUE_BYTES",
    "VALUE_DTYPE",
    "encode_uvarint",
    "decode_uvarint",
    "uvarint_sizes",
    "index_gaps",
    "frame_wire_bytes",
    "frames_wire_bytes",
    "encode_frame",
    "decode_frame",
    "token_frame_bytes",
    "encode_token_frame",
    "decode_token_frame",
]

#: Codec names accepted by ``DistributedConfig.codec`` / ``--codec``.
CODEC_NONE = "none"
CODEC_DELTA = "delta"
CODEC_DELTA_Q16 = "delta-q16"
CODECS = (CODEC_NONE, CODEC_DELTA, CODEC_DELTA_Q16)

#: Fixed frame header: flags byte + little-endian u32 entry count.
FRAME_HEADER_BYTES = 5
#: Value width of an exact (float64) flush entry.
EXACT_VALUE_BYTES = 8
#: Quantized value width per codec.
VALUE_BYTES = {CODEC_DELTA: 4, CODEC_DELTA_Q16: 2}
#: Quantization dtype per codec (upcast back to float64 after rounding).
VALUE_DTYPE = {CODEC_DELTA: np.float32, CODEC_DELTA_Q16: np.float16}

_FLAG_EXACT = 0x01
_WIDTH_DTYPE = {2: "<f2", 4: "<f4", 8: "<f8"}
#: Frame starts of a single-frame index list.
_ONE_FRAME = np.zeros(1, dtype=np.int64)


def encode_uvarint(value: int) -> bytes:
    """LEB128-encode one unsigned integer."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint at ``pos``; return ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def uvarint_sizes(values: np.ndarray) -> np.ndarray:
    """Vectorized LEB128 encoded length (bytes) per value."""
    v = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(v.shape, dtype=np.int64)
    limit = int(v.max()) if v.size else 0
    for shift in range(7, 64, 7):
        if limit < (1 << shift):
            break
        sizes += v >= np.uint64(1 << shift)
    return sizes


def index_gaps(
    indices: np.ndarray, heads: Optional[np.ndarray] = None
) -> np.ndarray:
    """Strictly-ascending indices → gap form ``idx[0], diff - 1``.

    ``indices`` may concatenate several frames: ``heads`` lists the
    position of every frame's first index, where the gap restarts at
    the absolute index, and the strictly-ascending check then holds per
    frame.  The default is one frame.
    """
    idx = np.asarray(indices, dtype=np.int64)
    gaps = np.empty(idx.shape, dtype=np.int64)
    if idx.size:
        gaps[0] = idx[0]
        np.subtract(idx[1:], idx[:-1], out=gaps[1:])
        gaps[1:] -= 1
        if heads is not None:
            gaps[heads] = idx[heads]
        if gaps.min() < 0:
            raise ValueError(
                "frame indices must be strictly ascending and >= 0"
            )
    return gaps


def frames_wire_bytes(
    indices: np.ndarray,
    starts: np.ndarray,
    value_bytes: Union[int, np.ndarray],
) -> np.ndarray:
    """Exact encoded size of many delta frames in one pass.

    ``indices`` concatenates the frames' index lists; frame ``i`` owns
    ``indices[starts[i]:starts[i + 1]]`` (the last runs to the end), so
    ``starts`` begins at 0, never decreases, and a repeated start is an
    empty, header-only frame.  ``value_bytes`` is the per-entry value
    width, one per frame or a scalar (:data:`EXACT_VALUE_BYTES` for an
    exact flush).  All arithmetic is integer, so every size equals
    ``len(encode_frame(...))`` of that frame alone.
    """
    idx = np.asarray(indices, dtype=np.int64)
    bounds = np.append(np.asarray(starts, dtype=np.int64), idx.size)
    counts = np.diff(bounds)
    if counts.size == 0 or bounds[0] != 0 or counts.min() < 0:
        raise ValueError(
            "frame starts must begin at 0 and be non-decreasing "
            "within the index list"
        )
    # Varint bytes per frame as a difference of running totals: exact,
    # and an empty frame reads 0 (np.add.reduceat would not).
    varint = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(
        uvarint_sizes(index_gaps(idx, bounds[:-1][counts > 0])),
        out=varint[1:],
    )
    return (
        FRAME_HEADER_BYTES
        + (varint[bounds[1:]] - varint[bounds[:-1]])
        + counts * np.asarray(value_bytes, dtype=np.int64)
    )


def frame_wire_bytes(
    indices: np.ndarray, *, value_bytes: int, exact: bool = False
) -> int:
    """Exact encoded size of a delta frame, without materializing it."""
    width = EXACT_VALUE_BYTES if exact else value_bytes
    return int(frames_wire_bytes(indices, _ONE_FRAME, width)[0])


def encode_frame(
    indices: np.ndarray,
    deltas: np.ndarray,
    *,
    value_bytes: int,
    exact: bool = False,
) -> bytes:
    """Materialize one delta frame (tests and wire-format consumers).

    ``deltas`` are the float64 values the sender applied to its
    reconstruction mirror — already quantization-stable, i.e.
    ``float64(width(delta)) == delta`` (the adaptive layer quantizes
    before updating its mirror, so this holds by construction).
    """
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(deltas, dtype=np.float64)
    if idx.shape != vals.shape:
        raise ValueError("indices and deltas must have matching shapes")
    width = EXACT_VALUE_BYTES if exact else value_bytes
    buf = bytearray()
    buf.append((_FLAG_EXACT if exact else 0) | (width << 1))
    buf += struct.pack("<I", idx.size)
    for gap in index_gaps(idx):
        buf += encode_uvarint(int(gap))
    buf += np.ascontiguousarray(vals).astype(_WIDTH_DTYPE[width]).tobytes()
    return bytes(buf)


def decode_frame(data: bytes) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Exact-replay decode: ``(indices, float64 deltas, exact_flag)``.

    Applying ``state[indices] += deltas`` reproduces the sender's
    reconstruction mirror bit for bit.
    """
    flags = data[0]
    exact = bool(flags & _FLAG_EXACT)
    width = flags >> 1
    (n,) = struct.unpack_from("<I", data, 1)
    pos = FRAME_HEADER_BYTES
    gaps = np.empty(n, dtype=np.int64)
    for i in range(n):
        gaps[i], pos = decode_uvarint(data, pos)
    indices = np.cumsum(gaps + 1) - 1 if n else gaps
    vals = np.frombuffer(data, dtype=_WIDTH_DTYPE[width], count=n, offset=pos)
    return indices, vals.astype(np.float64), exact


def token_frame_bytes(sorted_ids: np.ndarray) -> int:
    """Exact encoded size of a Monte-Carlo walk-token frame.

    ``sorted_ids`` are the global target page ids of the tokens a pair
    forwards this round, ascending (duplicates allowed — a repeated id
    encodes as a zero gap, one byte).
    """
    ids = np.asarray(sorted_ids, dtype=np.int64)
    if ids.size == 0:
        return FRAME_HEADER_BYTES
    gaps = np.empty_like(ids)
    gaps[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=gaps[1:])
    if gaps.min() < 0:
        raise ValueError("token ids must be sorted ascending and >= 0")
    return FRAME_HEADER_BYTES + int(uvarint_sizes(gaps).sum())


def encode_token_frame(sorted_ids: np.ndarray) -> bytes:
    """Materialize one walk-token frame (varint gaps, no values)."""
    ids = np.asarray(sorted_ids, dtype=np.int64)
    buf = bytearray()
    buf.append(0)
    buf += struct.pack("<I", ids.size)
    prev = 0
    for i, pid in enumerate(ids):
        gap = int(pid) - (prev if i else 0)
        if gap < 0:
            raise ValueError("token ids must be sorted ascending and >= 0")
        buf += encode_uvarint(gap)
        prev = int(pid)
    return bytes(buf)


def decode_token_frame(data: bytes) -> np.ndarray:
    """Decode a walk-token frame back to its sorted global page ids."""
    (n,) = struct.unpack_from("<I", data, 1)
    pos = FRAME_HEADER_BYTES
    ids = np.empty(n, dtype=np.int64)
    prev = 0
    for i in range(n):
        gap, pos = decode_uvarint(data, pos)
        prev = prev + gap if i else gap
        ids[i] = prev
    return ids
