"""Asynchronous network simulation substrate.

The paper evaluates its algorithms with a simulator ("We run a
simulator to verify the discussion", §5): page rankers wake at random
exponential intervals, exchange rank vectors, and messages may be lost.
This package provides that simulator:

* :mod:`~repro.net.simulator` — a deterministic discrete-event core
  (time-ordered heap with stable tie-breaking, so identical seeds give
  identical runs).
* :mod:`~repro.net.message` — the typed payloads: score updates (the
  paper's ``<url_from, url_to, score>`` records in vectorized form),
  DHT lookups, and multi-payload packages for indirect transmission.
* :mod:`~repro.net.transport` — **direct transmission** (lookup + end
  to end send, §4.4 Fig 3) and **indirect transmission** (hop-by-hop
  forwarding with per-neighbor pack/recombine, §4.4 Figs 4–5).
* :mod:`~repro.net.bandwidth` — message/byte accounting used to verify
  formulas 4.1–4.4 (calibrated and paper-model counters in parallel).
* :mod:`~repro.net.codec` / :mod:`~repro.net.adaptive` — delta-coded,
  error-budgeted wire compression of cross-group score updates
  (varint-packed frames, per-pair reconstruction mirrors, certified
  ε_comm accounting).
* :mod:`~repro.net.failures` — Bernoulli message loss (the paper's
  ``p``), node pause/resume churn, permanent crash injection, and
  the chaos model (duplication / reordering / ACK loss).
* :mod:`~repro.net.reliable` — ACK/retry/dedup reliability layer over
  either transport (at-least-once delivery, idempotent receive).
* :mod:`~repro.net.heartbeat` — heartbeat-based failure detection
  feeding the recovery layer.
* :mod:`~repro.net.latency` — fixed/uniform per-hop latency models.
"""

from repro.net.simulator import Simulator, EventHandle
from repro.net.message import (
    ScoreUpdate,
    Ack,
    Package,
    LookupCost,
    LINK_RECORD_BYTES,
    LOOKUP_MESSAGE_BYTES,
    ACK_MESSAGE_BYTES,
)
from repro.net.bandwidth import TrafficAccountant, TrafficSnapshot
from repro.net.codec import (
    CODECS,
    FRAME_HEADER_BYTES,
    decode_frame,
    encode_frame,
    frame_wire_bytes,
    token_frame_bytes,
)
from repro.net.adaptive import AdaptiveCodec, EncodedEmission
from repro.net.failures import (
    BernoulliLoss,
    ChaosModel,
    NoLoss,
    NodeCrashInjector,
    NodePauseInjector,
)
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.latency import FixedLatency, UniformLatency, LatencyModel
from repro.net.transport import Transport, DirectTransport, IndirectTransport, build_transport
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.gossip import PushSumProtocol
from repro.net.tracing import MessageRecord, MessageTrace, install_tracing

__all__ = [
    "Simulator",
    "EventHandle",
    "ScoreUpdate",
    "Ack",
    "Package",
    "LookupCost",
    "LINK_RECORD_BYTES",
    "LOOKUP_MESSAGE_BYTES",
    "ACK_MESSAGE_BYTES",
    "TrafficAccountant",
    "TrafficSnapshot",
    "CODECS",
    "FRAME_HEADER_BYTES",
    "decode_frame",
    "encode_frame",
    "frame_wire_bytes",
    "token_frame_bytes",
    "AdaptiveCodec",
    "EncodedEmission",
    "BernoulliLoss",
    "ChaosModel",
    "NoLoss",
    "NodeCrashInjector",
    "NodePauseInjector",
    "HeartbeatMonitor",
    "FixedLatency",
    "UniformLatency",
    "LatencyModel",
    "Transport",
    "DirectTransport",
    "IndirectTransport",
    "build_transport",
    "ReliableTransport",
    "RetryPolicy",
    "PushSumProtocol",
    "MessageRecord",
    "MessageTrace",
    "install_tracing",
]
