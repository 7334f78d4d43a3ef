"""Event-engine regression digests.

The event engine (:class:`~repro.core.coordinator.DistributedRun`) is
pinned here by sha256 digests of everything a run reports — the rank
bytes, every trace column and every other :class:`RunResult` field —
over a fixed matrix of configs that between them reach each event-engine
path: loss over the indirect transport, both algorithms, the
synchronous schedule, threshold suppression, the lossless wire codec,
the reliable transport under chaos, pauses, crash + heartbeat +
checkpoint + takeover, and a warm start.

The digests were recorded at commit ``9d513fe`` (before the event
engine's rankers moved onto the round engines' flat receiver memory).
The last three cases stop the run on a sample (the target error, then
quiescence) or put wakes, direct deliveries and heartbeats on sample
times on both sides of the sample, with a ``max_time`` off the sample
grid; their digests were recorded at commit ``813d55b``, before the
event engine ran on the round engines' tick/sample/stop loop.

A change that moves any of them changes what the event engine
computes, charges or counts; re-record them only for a change that
means to.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, DistributedRun, RunResult
from repro.graph import google_contest_like
from tests.test_engine_equivalence import assert_traffic_conserved

MAX_TIME = 40.0
BASE = dict(n_groups=6, seed=4, t1=1.0, t2=5.0, transport="indirect")

CASES = {
    "async-lossy-indirect-dpr1": dict(algorithm="dpr1", delivery_prob=0.7),
    "direct-dpr2": dict(algorithm="dpr2", transport="direct"),
    "sync": dict(algorithm="dpr2", schedule="sync", t1=2.0, t2=2.0, sample_interval=2.0),
    "send-threshold": dict(algorithm="dpr2", send_threshold=1e-4),
    "codec-delta": dict(algorithm="dpr1", codec="delta"),
    "reliable-chaos": dict(
        algorithm="dpr2", reliable=True, delivery_prob=0.8, retry_timeout=2.0,
        duplicate_prob=0.2, reorder_prob=0.3, reorder_max_delay=1.5, ack_loss_prob=0.2,
    ),
    "pause": dict(algorithm="dpr1", pause_faults=4, pause_horizon=20.0, pause_mean_outage=5.0),
    "crash-recovery": dict(
        algorithm="dpr2", transport="direct", crash_prob=0.5, crash_after=6.0,
        crash_horizon=10.0, heartbeat_interval=1.0, heartbeat_miss_threshold=2,
        checkpoint_interval=2.5, recovery=True,
    ),
    "warm-start": dict(algorithm="dpr1", delivery_prob=0.9),
    "stop-target": dict(algorithm="dpr1", delivery_prob=0.7),
    "stop-quiescence": dict(algorithm="dpr1"),
    "sync-subperiod-faults": dict(
        algorithm="dpr2", schedule="sync", t1=2.0, t2=2.0, sample_interval=1.0,
        transport="direct", crash_prob=0.5, crash_after=6.0, crash_horizon=10.0,
        heartbeat_interval=2.0, heartbeat_miss_threshold=2, checkpoint_interval=4.0,
        recovery=True,
    ),
}

#: ``run()`` arguments other than ``max_time=MAX_TIME``, and the stop
#: each case expects.
RUNS = {
    "stop-target": dict(target_relative_error=1e-3),
    "stop-quiescence": dict(quiescence_delta=1e-3),
    "sync-subperiod-faults": dict(max_time=40.5),
}
STOPS = {"stop-target": "converged", "stop-quiescence": "quiescent"}

#: (ranks, trace, counters) sha256 prefixes per case.
DIGESTS = {
    "async-lossy-indirect-dpr1": ("92e369aab74ab1d9", "f11892a25dfbeb9d", "63c9114057097c28"),
    "codec-delta": ("ab4e6e417c5df38b", "2ee7784a52b7f82e", "8b4fd64785eea8ac"),
    "crash-recovery": ("9de0ceba24b8dae4", "cacd1a6fc2dd7cba", "dbe982995c5290d1"),
    "direct-dpr2": ("f8cfdda7871c03bb", "9f35b0027070f9e4", "f47439ec9be514b8"),
    "pause": ("10cfb93556bf9396", "93a23a9b2c553b04", "735254e8248d5d47"),
    "reliable-chaos": ("d369d2b1cf932869", "d7f855cf718da2a8", "4daf98cffa0835c5"),
    "send-threshold": ("1eb4439092d8a9c6", "b071c1e2c80c3505", "46bd68253655bad1"),
    "stop-quiescence": ("0eb88097f84e6181", "3910b16ea725e9e1", "0b0efef370d330ba"),
    "stop-target": ("72a6dc0466be4c83", "96b53c6613d16383", "a82cc395db67b9b5"),
    "sync": ("1ba6adcfa45d887d", "1581d6b6d0d2f576", "d43caa324daa424e"),
    "sync-subperiod-faults": ("32a740e4c21db9a0", "8b09551da736621b", "926ca4149da951dd"),
    "warm-start": ("24e6bf95ff10a4a2", "c20a2c9e014f2ce7", "4048e5d13baf3e2a"),
}


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(500, 12, seed=3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _canonical(value):
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tolist())
    if isinstance(value, dict):
        return sorted((k, _canonical(v)) for k, v in value.items())
    if hasattr(value, "__dataclass_fields__"):
        return _canonical(vars(value))
    return value


def digests(res: RunResult):
    trace = b"".join(col.tobytes() for col in res.trace.as_arrays().values())
    counters = {
        f.name: _canonical(getattr(res, f.name))
        for f in fields(res)
        if f.name not in ("ranks", "reference", "trace", "config")
    }
    return (
        _sha(res.ranks.tobytes()),
        _sha(trace),
        _sha(repr(sorted(counters.items())).encode()),
    )


def run_case(graph, name):
    run = DistributedRun(graph, DistributedConfig(**{**BASE, **CASES[name]}))
    if name == "warm-start":
        # A vector off the fixed point, so the run still has work to do.
        run.warm_start(0.9 * run.reference)
    res = run.run(**{"max_time": MAX_TIME, **RUNS.get(name, {})})
    assert_traffic_conserved(run.accountant)
    return res


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_engine_digest(graph, name):
    res = run_case(graph, name)
    assert res.max_outer_iterations > 0
    if name in STOPS:
        assert getattr(res, STOPS[name])
        assert res.trace.times[-1] < MAX_TIME
    assert digests(res) == DIGESTS[name]
