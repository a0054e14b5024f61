"""Supervision: crash/hang restarts with requeue, bounded budgets, backoff.

Fault injection comes from :mod:`repro.serving.faults`, never from ad-hoc
monkeypatches, so the tests exercise the same layer ``loadtest --chaos``
measures.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    RestartPolicy,
    ServiceConfig,
    ServiceClosedError,
    SupervisedService,
    SupervisorExhaustedError,
    build_encoder_model,
    build_encoder_service,
)
from repro.serving.faults import Fault, FaultSchedule, FaultyModel
from repro.serving.loadtest import synthetic_requests

#: Tight timings so a restart cycle costs milliseconds, not seconds.
_FAST_POLICY = dict(backoff_initial_ms=1.0, backoff_max_ms=5.0,
                    heartbeat_interval_s=0.005, hang_timeout_s=0.08)


@pytest.fixture(scope="module")
def encoder_model():
    return build_encoder_model()


#: Run a test on the worker thread (``workers=0``) and on one shard
#: process (``workers=1``).
_EXECUTORS = pytest.mark.parametrize("workers", [0, 1],
                                     ids=["thread", "process"])

#: A plain model error at forward call 1: the first worker of slot 0
#: draws its schedule from the spec's own seed, on either executor.
_ERROR_AT_CALL_1 = dict(seed=0, num_calls=2, error_rate=1.0, skip_first=1)


def _supervised(model, schedule=None, *, workers=0, fault_spec=None,
                max_restarts=8, hang_timeout_s=None, config=None,
                **policy_overrides) -> SupervisedService:
    policy_kwargs = dict(_FAST_POLICY, max_restarts=max_restarts,
                         **policy_overrides)
    if hang_timeout_s is None and workers:
        # A shard's first forward compiles its plan: no tight hang bound.
        hang_timeout_s = 20.0
    if hang_timeout_s is not None:
        policy_kwargs["hang_timeout_s"] = hang_timeout_s
    config = config or ServiceConfig(max_batch_size=4, max_wait_ms=1.0,
                                     cache_size=0)
    if workers:
        return build_encoder_service(config=config,
                                     policy=RestartPolicy(**policy_kwargs),
                                     workers=workers, fault_spec=fault_spec)
    if schedule is not None:
        model = FaultyModel(model, schedule)
    return SupervisedService(model, config, RestartPolicy(**policy_kwargs),
                             fault_spec=fault_spec)


# --------------------------------------------------------------------------- #
# crash -> restart + requeue
# --------------------------------------------------------------------------- #
def test_crash_restarts_worker_and_requeues_inflight(encoder_model):
    """A worker-fatal crash must not drop the batch: the supervisor
    requeues it onto a fresh worker and the answers stay bitwise equal
    to solo inference."""
    requests = synthetic_requests(8, seed=31)
    # Call 1 crashes the second batch; call 2 crashes its *retry* -- the
    # requeued batch must survive repeated worker deaths.
    schedule = FaultSchedule([Fault(1, "crash"), Fault(2, "crash")])
    with _supervised(encoder_model, schedule) as service:
        results = service.infer_many(requests, timeout=30.0)
        snap = service.snapshot()
    assert snap["restarts"] == 2
    assert snap["events"]["worker_crash"] == 2
    assert snap["events"]["requeued"] >= 1
    assert snap["terminal"] is None
    for tokens, got in zip(requests, results):
        solo = encoder_model.encode_ragged([list(tokens)])[0]
        assert np.array_equal(got, solo)


def test_restart_with_requeue_under_concurrent_submits(encoder_model):
    """Submitters racing a crashing worker: every request resolves to a
    result (no typed shed paths are configured), none is dropped."""
    schedule = FaultSchedule.from_seed(11, num_calls=64, crash_rate=0.25,
                                       skip_first=1)
    results = {}
    errors = {}

    def client(start: int, service) -> None:
        for i in range(start, start + 8):
            tokens = (1 + (i % 7), 2 + (i % 5), 3 + (i % 3))
            try:
                results[i] = service.infer(tokens, timeout=30.0)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors[i] = exc

    with _supervised(encoder_model, schedule, max_restarts=64) as service:
        threads = [threading.Thread(target=client, args=(base, service))
                   for base in range(0, 32, 8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        snap = service.snapshot()
    assert not errors, f"requests dropped under crashes: {errors}"
    assert len(results) == 32
    assert snap["events"].get("worker_crash", 0) >= 1
    for i, got in results.items():
        tokens = (1 + (i % 7), 2 + (i % 5), 3 + (i % 3))
        solo = encoder_model.encode_ragged([list(tokens)])[0]
        assert np.array_equal(got, solo)


# --------------------------------------------------------------------------- #
# hang -> abandon + restart
# --------------------------------------------------------------------------- #
def test_hang_is_declared_and_request_still_answered(encoder_model):
    schedule = FaultSchedule([Fault(1, "hang", seconds=0.5)])
    with _supervised(encoder_model, schedule,
                     hang_timeout_s=0.05) as service:
        warm = service.infer((1, 2, 3), timeout=30.0)
        hung = service.infer((4, 5, 6), timeout=30.0)
        snap = service.snapshot()
    assert snap["events"]["worker_hang"] == 1
    assert snap["restarts"] == 1
    assert np.array_equal(warm,
                          encoder_model.encode_ragged([[1, 2, 3]])[0])
    # First-wins completion: whether the abandoned worker or its
    # replacement answered, the bits are the solo bits.
    assert np.array_equal(hung,
                          encoder_model.encode_ragged([[4, 5, 6]])[0])


# --------------------------------------------------------------------------- #
# bounded restarts -> typed terminal failure
# --------------------------------------------------------------------------- #
def test_restart_budget_exhaustion_fails_typed(encoder_model):
    # Crash on every non-warmup forward: budget of 2 restarts is spent on
    # calls 1 and 2, call 3's crash is terminal.
    schedule = FaultSchedule([Fault(i, "crash") for i in range(1, 32)])
    with _supervised(encoder_model, schedule, max_restarts=2) as service:
        service.infer((9, 9), timeout=30.0)  # warmup rides call 0
        doomed = service.submit((1, 2, 3))
        with pytest.raises(SupervisorExhaustedError):
            doomed.result(30.0)
        # Intake is closed with the same typed error, not a hang.
        with pytest.raises(SupervisorExhaustedError):
            service.submit((4, 5))
        snap = service.snapshot()
    assert snap["terminal"] == "SupervisorExhaustedError"
    assert snap["restarts"] == 2
    assert snap["events"]["terminal"] == 1


@_EXECUTORS
def test_plain_model_error_consumes_no_restart(encoder_model, workers):
    """PR 3 isolation semantics survive supervision: an ordinary model
    exception fails its batch typed but is not a worker failure."""
    with _supervised(encoder_model, workers=workers,
                     fault_spec=_ERROR_AT_CALL_1) as service:
        service.infer((1, 2), timeout=30.0)
        with pytest.raises(RuntimeError, match="injected model error"):
            service.infer((3, 4), timeout=30.0)
        again = service.infer((5, 6), timeout=30.0)
        snap = service.snapshot()
    assert snap["restarts"] == 0
    assert np.array_equal(again, encoder_model.encode_ragged([[5, 6]])[0])


# --------------------------------------------------------------------------- #
# lifecycle + policy
# --------------------------------------------------------------------------- #
@_EXECUTORS
def test_supervised_stop_fails_backlog_typed(encoder_model, workers):
    service = _supervised(encoder_model, workers=workers)
    service.start()
    pending = service.submit((2, 4, 6))
    service.stop()
    try:
        result = pending.result(0.5)
    except ServiceClosedError:
        pass
    else:
        assert result.shape[0] == 3
    with pytest.raises(ServiceClosedError):
        service.submit((1, 2))


#: A 1 s hang at forward call 1 -- well inside the hang deadline the
#: tests give it, so it models a slow forward.
_SLOW_AT_CALL_1 = dict(seed=0, num_calls=2, hang_rate=1.0, hang_seconds=1.0,
                       skip_first=1)


@_EXECUTORS
def test_stop_answers_the_batch_in_flight(encoder_model, workers):
    """stop() lands mid-forward: that batch is finished and answered, not
    failed -- the graceful drain loses no answer the worker computes."""
    service = _supervised(encoder_model, workers=workers,
                          hang_timeout_s=20.0, fault_spec=_SLOW_AT_CALL_1)
    with service:
        service.infer((1, 2), timeout=60.0)
        pending = service.submit((2, 4, 6))
        time.sleep(0.3)  # dispatched; the forward sleeps until ~1 s
        service.stop()
        result = pending.result(0.0)
    assert np.array_equal(result, encoder_model.encode_ragged([[2, 4, 6]])[0])


def test_snapshot_keys_match_across_executors(encoder_model):
    """The daemon ``stats`` op and perfbench read one key set, whichever
    executor serves."""
    snaps = {}
    for workers in (0, 1):
        with _supervised(encoder_model, workers=workers) as service:
            service.infer((1, 2, 3), timeout=60.0)
            snaps[workers] = service.snapshot()
    assert set(snaps[0]) == set(snaps[1])
    for key in ("supervised", "restarts", "max_restarts", "terminal",
                "workers", "live_workers", "degraded", "sharded"):
        assert key in snaps[0], key
    assert snaps[0]["sharded"] is False and snaps[1]["sharded"] is True
    assert snaps[0]["supervised"] is True and snaps[1]["supervised"] is True


def test_fault_spec_is_validated_when_the_service_is_built(encoder_model):
    """Process-grade kinds need shard processes; a bad rate fails at
    construction, not at start()."""
    with pytest.raises(ValueError, match="kill_rate"):
        SupervisedService(encoder_model, fault_spec=dict(
            seed=0, num_calls=4, kill_rate=0.5))
    with pytest.raises(ValueError, match="stall_rate"):
        build_encoder_service(workers=0, fault_spec=dict(
            seed=0, num_calls=4, stall_rate=0.1))
    with pytest.raises(ValueError, match="crash_rate"):
        SupervisedService(encoder_model, fault_spec=dict(
            seed=0, num_calls=4, crash_rate=1.5))


def test_backoff_is_seeded_bounded_and_exponential():
    policy = RestartPolicy(backoff_initial_ms=10.0, backoff_multiplier=2.0,
                           backoff_max_ms=35.0, jitter_fraction=0.1, seed=5)
    first = [policy.backoff_seconds(i, random.Random(5))
             for i in range(1, 5)]
    second = [policy.backoff_seconds(i, random.Random(5))
              for i in range(1, 5)]
    assert first == second, "same seed must give the same backoff"
    for index, delay in enumerate(first, start=1):
        base = min(10.0 * 2.0 ** (index - 1), 35.0) / 1e3
        assert base * 0.9 <= delay <= base * 1.1
    # The cap binds from restart 3 on (40 ms would exceed 35 ms).
    assert first[3] <= 35.0 * 1.1 / 1e3
    with pytest.raises(ValueError):
        policy.backoff_seconds(0, random.Random(0))


def test_restart_policy_validation():
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RestartPolicy(jitter_fraction=1.5)
    with pytest.raises(ValueError):
        RestartPolicy(hang_timeout_s=0.0)


def test_chaos_run_is_reproducible_by_seed(encoder_model):
    """Same seed -> same faults fired and same outcomes, end to end.

    One request per batch makes the forward-call sequence independent of
    arrival timing, so the faults that fire are a function of the seed.
    """
    from repro.serving.loadtest import run_chaos_loadtest

    kwargs = dict(num_requests=24, batch_size=1, crash_rate=0.15,
                  hang_rate=0.0, error_rate=0.05, seed=9, max_restarts=32)
    first = run_chaos_loadtest(**kwargs)
    second = run_chaos_loadtest(**kwargs)
    assert first["zero_drop"] and second["zero_drop"]
    assert first["events"].get("worker_crash", 0) > 0
    assert first["outcomes"]["injected_error"] > 0
    assert first["events"] == second["events"]
    assert first["outcomes"] == second["outcomes"]
    assert first["restarts"] == second["restarts"]


@_EXECUTORS
def test_chaos_loadtest_zero_drop_and_bitwise(workers):
    """One fault spec, either executor: crashes, hangs and model errors
    all fire, every request resolves typed and the served bits are the
    solo bits."""
    from repro.serving.loadtest import run_chaos_loadtest

    payload = run_chaos_loadtest(
        num_requests=48, batch_size=4, workers=workers, crash_rate=0.15,
        hang_rate=0.15, error_rate=0.1, hang_seconds=0.3,
        hang_timeout_s=0.1, max_restarts=32, seed=7)
    assert payload["zero_drop"], payload["outcomes"]
    assert payload["bitwise_identical_to_solo"]
    assert payload["bitwise_checked"] > 0
    assert payload["events"].get("worker_crash", 0) >= 1, payload["events"]
    assert payload["events"].get("worker_hang", 0) >= 1, payload["events"]
    assert payload["outcomes"]["injected_error"] >= 1, payload["outcomes"]
    assert payload["terminal"] is None
