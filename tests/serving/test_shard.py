"""Process-isolated sharded serving on one shared-memory snapshot.

The contracts under test, in escalating order of violence:

* **bit-transparency** -- N worker processes rebuilding their plans over
  zero-copy snapshot views answer bitwise identically to solo inference
  in the parent;
* **kill-grade isolation** -- a SIGKILLed worker (external or injected)
  NEVER terminates the service: its in-flight batch is requeued and a
  replacement respawns against the same published snapshot;
* **typed degradation** -- exhausted restart budgets degrade the service
  (:class:`DegradedService` in stats) instead of dropping requests, and
  a fully-dead service fails further submits with a typed terminal.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.serving import (
    DegradedService,
    RestartPolicy,
    ServiceConfig,
    SupervisorExhaustedError,
    build_encoder_service,
)
from repro.serving.loadtest import run_chaos_loadtest

#: Millisecond-scale restart cycles; generous hang timeout so only the
#: faults we inject (not scheduler noise) drive supervision decisions.
_FAST_POLICY = dict(backoff_initial_ms=2.0, backoff_max_ms=10.0,
                    heartbeat_interval_s=0.01, hang_timeout_s=20.0,
                    stall_timeout_s=5.0, seed=0)


def _sharded(num_workers=2, fault_spec=None, *, max_restarts=8,
             cache_size=0, max_batch_size=4, **policy_overrides):
    policy = RestartPolicy(**dict(_FAST_POLICY, max_restarts=max_restarts,
                                  **policy_overrides))
    config = ServiceConfig(max_batch_size=max_batch_size, max_wait_ms=0.5,
                           cache_size=cache_size)
    return build_encoder_service(config=config, policy=policy,
                                 workers=num_workers,
                                 fault_spec=fault_spec)


def _wait_live(service, count, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if service.snapshot()["live_workers"] >= count:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"never reached {count} live workers: {service.snapshot()}")


def _wait_events(service, *names, timeout=20.0):
    """Poll until every named event is recorded; returns the snapshot.

    The supervisor records a failure's events in steps (``worker_stall``
    or ``worker_kill`` first, ``restart`` only after the dead worker is
    reaped), so a test must not assert on the first one alone.
    """
    deadline = time.perf_counter() + timeout
    while True:
        snap = service.snapshot()
        events = snap["events"]
        if all(events.get(name, 0) >= 1 for name in names) \
                or time.perf_counter() >= deadline:
            return snap
        time.sleep(0.02)


def _requests(n, offset=0):
    return [list(range(2 + (i + offset) % 7, 10 + (i + offset) % 5))
            for i in range(n)]


def test_round_trip_bitwise_identical_to_solo():
    with _sharded(num_workers=2) as service:
        requests = _requests(12)
        served = service.infer_many(requests, timeout=90.0)
        for tokens, hidden in zip(requests, served):
            solo = service.model.encode_ragged([tokens])[0]
            assert np.array_equal(hidden, solo), \
                "sharded response diverged bitwise from solo inference"
        snap = service.snapshot()
        assert snap["sharded"] is True
        assert snap["workers"] == 2
        assert snap["restarts"] == 0


def test_external_sigkill_never_terminates_service():
    with _sharded(num_workers=2) as service:
        _wait_live(service, 2)
        victim = service._slots[0].executor.process
        os.kill(victim.pid, signal.SIGKILL)
        # the service must absorb the kill: requeue, respawn, keep serving
        requests = _requests(16)
        served = service.infer_many(requests, timeout=90.0)
        assert len(served) == len(requests)
        for tokens, hidden in zip(requests, served):
            assert np.array_equal(hidden,
                                  service.model.encode_ragged([tokens])[0])
        snap = _wait_events(service, "worker_kill", "restart")
        assert snap["terminal"] is None
        assert snap["degraded"] is None
        events = snap["events"]
        assert events.get("worker_kill", 0) >= 1, events
        assert events.get("restart", 0) >= 1, events
        _wait_live(service, 2)  # the replacement came back


def test_injected_kill_chaos_serves_everything():
    # Kill positions are deterministic per (seed, shard, generation), but
    # *which call index a worker reaches* depends on batch coalescing --
    # so drive rounds until the schedule actually fires instead of
    # assuming a fixed request count reaches a kill.
    spec = dict(seed=7, num_calls=960, kill_rate=0.25, skip_first=1)
    with _sharded(num_workers=2, fault_spec=spec,
                  max_restarts=16) as service:
        for round_idx in range(8):
            requests = _requests(24, offset=round_idx)
            served = service.infer_many(requests, timeout=120.0)
            assert len(served) == len(requests)
            for tokens, hidden in zip(requests, served):
                assert np.array_equal(
                    hidden, service.model.encode_ragged([tokens])[0])
            if service.snapshot()["events"].get("worker_kill", 0) >= 1:
                break
        snap = service.snapshot()
        assert snap["terminal"] is None
        assert snap["events"].get("worker_kill", 0) >= 1
        assert snap["restarts"] >= 1
        # respawns reuse the snapshot: exactly one publish happened
        assert snap["snapshot"]["version"] == 1


def test_stalled_worker_is_replaced():
    spec = dict(seed=11, num_calls=96, stall_rate=0.5, skip_first=1)
    with _sharded(num_workers=2, fault_spec=spec,
                  stall_timeout_s=0.15) as service:
        requests = _requests(16)
        served = service.infer_many(requests, timeout=120.0)
        assert len(served) == len(requests)
        # a stalled worker answers its batch (only its heartbeat died), so
        # detection lands ~stall_timeout_s after it goes idle: poll for it
        snap = _wait_events(service, "worker_stall", "restart")
        assert snap["events"].get("worker_stall", 0) >= 1, snap["events"]
        assert snap["events"].get("restart", 0) >= 1, snap["events"]
        assert snap["terminal"] is None


def test_corrupt_snapshot_is_refused_typed_then_degrades():
    # every forward drills corruption verification -> every respawn dies
    # typed; budgets exhaust; the service degrades, then goes terminal
    spec = dict(seed=5, num_calls=256, corrupt_rate=1.0, skip_first=0)
    with _sharded(num_workers=2, fault_spec=spec, max_restarts=1) as service:
        requests = _requests(8)
        outcomes = {"ok": 0, "typed": 0}
        pending = [service.submit(tokens) for tokens in requests]
        for request in pending:
            try:
                request.result(timeout=120.0)
                outcomes["ok"] += 1
            except Exception:
                outcomes["typed"] += 1
        assert sum(outcomes.values()) == len(requests)  # zero drops
        snap = service.snapshot()
        assert snap["events"].get("snapshot_corrupt", 0) >= 1
        degraded = service.degraded()
        assert isinstance(degraded, DegradedService)
        assert degraded.live_workers == 0
        assert degraded.dead_shards == (0, 1)
        assert snap["degraded"] == degraded.as_dict()
        with pytest.raises(SupervisorExhaustedError):
            service.submit([2, 3, 4])


def test_degradation_keeps_serving_on_surviving_shard():
    # shard 0's schedule is poisoned via its per-shard seed; with only
    # kill faults and budget 1 it degrades while shard 1 keeps serving
    spec = dict(seed=13, num_calls=256, kill_rate=0.9, skip_first=0)
    with _sharded(num_workers=2, fault_spec=spec, max_restarts=2) as service:
        requests = _requests(20)
        resolved = 0
        pending = [service.submit(tokens) for tokens in requests]
        for request in pending:
            try:
                request.result(timeout=120.0)
                resolved += 1
            except Exception:
                resolved += 1
        assert resolved == len(requests)
        snap = service.snapshot()
        # with kill_rate .9 both budgets exhaust quickly -> degraded set
        if snap["degraded"] is not None:
            assert snap["events"].get("shard_degraded", 0) >= 1


def test_wait_ready_settles_boot_transient():
    with _sharded(num_workers=2) as service:
        live = service.wait_ready(timeout=60.0)
        assert live == 2
        assert service.snapshot()["live_workers"] == 2


def test_admission_estimate_shares_queue_over_live_workers():
    """Two live shards drain the queue twice as fast as one: the
    admission estimate must not shed deadlines the service can meet."""
    with _sharded(num_workers=2, max_batch_size=4) as service:
        assert service.wait_ready(timeout=60.0) == 2
        service.batcher.depth = lambda: 12  # three full batches queued
        for _ in range(3):
            service.stats.record_batch(4, forward_seconds=0.010)
        # (3 batches ahead + its own) over 2 workers, plus one window.
        expected = 4 / 2 * 0.010 + 0.5e-3
        assert service.estimated_wait_seconds() == pytest.approx(expected)


def test_stats_gauges_surface_shard_health():
    with _sharded(num_workers=2) as service:
        _wait_live(service, 2)
        gauges = service.stats.snapshot()["gauges"]
        assert gauges["live_workers"] == 2
        assert gauges["degraded"] is False
        assert gauges["snapshot_version"] == 1
        assert gauges["snapshot_checksum"].startswith("0x")
        snap = service.snapshot()
        assert snap["snapshot"]["arrays"] > 0
        assert snap["snapshot"]["checksum"] == gauges["snapshot_checksum"]
        assert snap["restarts_by_shard"] == [0, 0]


def test_stop_preserves_final_accounting_and_restart_works():
    spec = dict(seed=3, num_calls=64, kill_rate=0.5, skip_first=1)
    service = _sharded(num_workers=2, fault_spec=spec)
    with service:
        service.infer_many(_requests(12), timeout=120.0)
        live = service.snapshot()
    post = service.snapshot()
    # the run's accounting survives stop() (run_daemon snapshots after)
    assert post["restarts"] == live["restarts"]
    assert post["restarts_by_shard"] == live["restarts_by_shard"]
    assert post["snapshot"]["checksum"] == live["snapshot"]["checksum"]
    assert post["live_workers"] == 0
    # and the service is restartable: a fresh snapshot publish, clean serve
    with service:
        served = service.infer_many(_requests(4, offset=3), timeout=90.0)
        assert len(served) == 4


def test_sharded_chaos_loadtest_zero_drop_and_bitwise():
    payload = run_chaos_loadtest(
        num_requests=32, workers=2, batch_size=4, max_wait_ms=0.5,
        crash_rate=0.0, hang_rate=0.0, error_rate=0.0, kill_rate=0.15,
        hang_timeout_s=10.0, max_restarts=16, seed=2, timeout=180.0)
    assert payload["zero_drop"], payload["outcomes"]
    assert payload["bitwise_identical_to_solo"]
    assert payload["bitwise_checked"] > 0
    assert payload["faults"]["seed"] == 2  # replay seed travels with it
    assert payload["terminal"] is None


def test_degraded_service_dataclass_round_trips():
    degraded = DegradedService(live_workers=1, dead_shards=(0,),
                               restarts_by_shard=(3, 1))
    assert degraded.as_dict() == {"live_workers": 1, "dead_shards": (0,),
                                  "restarts_by_shard": (3, 1)}
