"""Synthetic open-loop load generator for the inference service.

One knob matters for the headline: ``batch_size``.  The same open-loop
client (submit the whole request set up front, wait for everything) is run
against a service configured with ``max_batch_size=1`` (sequential
single-request serving -- the worker computes one request per forward) and
``max_batch_size=N`` (dynamic batching); the throughput ratio is the
serving layer's win.  Both the ``loadtest`` CLI command and
``benchmarks/bench_serving.py`` drive this module, so the demonstrated and
the recorded numbers come from the same harness.

The default workload models the short-query regime serving optimizes for
(classification/QA-style requests of 8-16 tokens); request sets are unique
by default and the response cache is disabled so the measured win is pure
batching, not memoization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.service import InferenceService, ServiceConfig, \
    build_encoder_model, build_encoder_service

#: Default synthetic workload: short-query lengths (inclusive bounds).
DEFAULT_MIN_TOKENS = 8
DEFAULT_MAX_TOKENS = 16


@dataclass(frozen=True)
class LoadtestResult:
    """One measured serving configuration.

    Latency is reported end-to-end (``p50_ms``/``p99_ms``) and split into
    its stages: queue wait (submit until the batch forward started, i.e.
    queueing + coalescing) and model forward (per-batch encoder time), so
    engine-level speedups and batching-policy effects are separately
    visible.
    """

    batch_size: int
    max_wait_ms: float
    requests: int
    elapsed_seconds: float
    requests_per_second: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    queue_wait_p50_ms: Optional[float]
    queue_wait_p99_ms: Optional[float]
    forward_p50_ms: Optional[float]
    forward_p99_ms: Optional[float]
    mean_batch_size: Optional[float]
    cache_hit_rate: float
    engine: str

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def synthetic_requests(
    num_requests: int,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    vocab_size: int = 32,
    seed: int = 0,
    duplicate_fraction: float = 0.0,
) -> List[Tuple[int, ...]]:
    """Generate a deterministic synthetic request set.

    ``duplicate_fraction`` > 0 resubmits earlier requests (uniformly) for
    that fraction of the set, to exercise the response cache and in-batch
    deduplication; the default of 0 keeps every request unique.
    """
    if not 1 <= min_tokens <= max_tokens:
        raise ValueError("need 1 <= min_tokens <= max_tokens")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    requests: List[Tuple[int, ...]] = []
    for i in range(num_requests):
        if requests and rng.random() < duplicate_fraction:
            requests.append(requests[int(rng.integers(len(requests)))])
            continue
        length = int(rng.integers(min_tokens, max_tokens + 1))
        # Token 0 is the pad id; keep synthetic tokens clear of it.
        requests.append(tuple(
            int(t) for t in rng.integers(1, vocab_size, size=length)))
    return requests


def run_loadtest(
    requests: Sequence[Tuple[int, ...]],
    batch_size: int,
    max_wait_ms: float = 2.0,
    cache_size: int = 0,
    service: Optional[InferenceService] = None,
    model_name: str = "tiny-base",
    kernel: str = "auto",
    engine: str = "plan",
    block_kv: Optional[int] = None,
    seed: int = 0,
    timeout: float = 300.0,
) -> LoadtestResult:
    """Open-loop run: submit every request up front, wait for all results.

    Builds a fresh encoder service unless ``service`` is supplied (the
    caller then owns its lifecycle and the batching knobs are read from
    it).  ``engine`` selects the encoder forward implementation
    (``"plan"`` -- the graph-free fast path -- or ``"graph"``); a non-None
    ``block_kv`` serves requests through the chunked O(block)-memory
    attention path.  Returns the measured :class:`LoadtestResult`.
    """
    if not requests:
        raise ValueError("run_loadtest needs a non-empty request set")
    own_service = service is None
    if own_service:
        config = ServiceConfig(max_batch_size=batch_size,
                               max_wait_ms=max_wait_ms,
                               max_queue_depth=len(requests) + 1,
                               cache_size=cache_size,
                               engine=engine,
                               block_kv=block_kv)
        service = build_encoder_service(model_name=model_name, kernel=kernel,
                                        seed=seed, config=config)
    else:
        batch_size = service.config.max_batch_size
        max_wait_ms = service.config.max_wait_ms
    try:
        if own_service:
            service.start()
        # Warm the kernel LUTs outside the timed window.
        service.infer(requests[0], timeout=timeout)
        service.cache.clear()
        service.stats.start()
        start = time.perf_counter()
        pending = [service.submit(tokens) for tokens in requests]
        for request in pending:
            request.result(timeout)
        elapsed = max(time.perf_counter() - start, 1e-9)
        snap = service.snapshot()
    finally:
        if own_service:
            service.stop()
    return LoadtestResult(
        batch_size=batch_size,
        max_wait_ms=max_wait_ms,
        requests=len(requests),
        elapsed_seconds=round(elapsed, 4),
        requests_per_second=round(len(requests) / elapsed, 1),
        p50_ms=snap["p50_ms"],
        p99_ms=snap["p99_ms"],
        queue_wait_p50_ms=snap["queue_wait_p50_ms"],
        queue_wait_p99_ms=snap["queue_wait_p99_ms"],
        forward_p50_ms=snap["forward_p50_ms"],
        forward_p99_ms=snap["forward_p99_ms"],
        mean_batch_size=snap["mean_batch_size"],
        cache_hit_rate=snap["cache"]["hit_rate"],
        engine=snap["engine"],
    )


def batched_vs_sequential(
    num_requests: int = 512,
    batch_size: int = 32,
    max_wait_ms: float = 2.0,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    model_name: str = "tiny-base",
    kernel: str = "auto",
    engine: str = "plan",
    block_kv: Optional[int] = None,
    seed: int = 0,
    duplicate_fraction: float = 0.0,
    cache_size: int = 0,
) -> dict:
    """The acceptance comparison: one workload, two batching configs.

    Returns a payload with the sequential (``max_batch_size=1``) and
    batched results plus their throughput ratio.
    """
    requests = synthetic_requests(num_requests, min_tokens, max_tokens,
                                  seed=seed,
                                  duplicate_fraction=duplicate_fraction)
    sequential = run_loadtest(requests, batch_size=1, max_wait_ms=0.0,
                              cache_size=cache_size, model_name=model_name,
                              kernel=kernel, engine=engine,
                              block_kv=block_kv, seed=seed)
    batched = run_loadtest(requests, batch_size=batch_size,
                           max_wait_ms=max_wait_ms, cache_size=cache_size,
                           model_name=model_name, kernel=kernel,
                           engine=engine, block_kv=block_kv, seed=seed)
    ratio = (batched.requests_per_second
             / max(sequential.requests_per_second, 1e-9))
    return {
        "workload": {
            "requests": num_requests,
            "min_tokens": min_tokens,
            "max_tokens": max_tokens,
            "duplicate_fraction": duplicate_fraction,
            "model": model_name,
            "kernel": kernel,
            "engine": engine,
            "block_kv": block_kv,
            "seed": seed,
        },
        "sequential": sequential.as_dict(),
        "batched": batched.as_dict(),
        "speedup_batched_vs_sequential": round(ratio, 2),
    }


# --------------------------------------------------------------------------- #
# chaos mode: the supervision guarantees, measured
# --------------------------------------------------------------------------- #
def _drive_open_loop(service, requests, deadline_ms, with_deadline,
                     timeout: float):
    """Submit every request, wait for every outcome, classify each one.

    The zero-drop bookkeeping shared by the thread-supervised and the
    sharded chaos loadtests: every submitted request must resolve to a
    result or a *typed* error; anything untyped is ``lost`` and a
    never-resolving wait is ``hung``.
    """
    from repro.serving.batcher import (
        DeadlineExceededError,
        OverloadedError,
        QueueFullError,
    )
    from repro.serving.faults import InjectedModelError
    from repro.serving.supervisor import SupervisorExhaustedError

    outcomes = {"ok": 0, "deadline_exceeded": 0, "overloaded": 0,
                "queue_full": 0, "injected_error": 0, "terminal": 0,
                "lost": 0, "hung": 0}
    results: List[Optional[np.ndarray]] = [None] * len(requests)
    pending = []
    for index, tokens in enumerate(requests):
        try:
            request = service.submit(
                tokens,
                deadline_ms=deadline_ms
                if deadline_ms is not None and with_deadline[index]
                else None)
        except OverloadedError:
            outcomes["overloaded"] += 1
            pending.append(None)
            continue
        except QueueFullError:
            outcomes["queue_full"] += 1
            pending.append(None)
            continue
        except SupervisorExhaustedError:
            outcomes["terminal"] += 1
            pending.append(None)
            continue
        pending.append(request)
    for index, request in enumerate(pending):
        if request is None:
            continue
        try:
            results[index] = request.result(timeout)
            outcomes["ok"] += 1
        except DeadlineExceededError:
            outcomes["deadline_exceeded"] += 1
        except InjectedModelError:
            outcomes["injected_error"] += 1
        except SupervisorExhaustedError:
            outcomes["terminal"] += 1
        except TimeoutError:
            outcomes["hung"] += 1
        except Exception:  # noqa: BLE001 - anything untyped is a drop
            outcomes["lost"] += 1
    return outcomes, results


def _bitwise_against_solo(model, requests, results,
                          bitwise_sample: int) -> Tuple[bool, int]:
    """Spot-check served responses bitwise against solo inference on a
    clean (fault-free) model."""
    checked = 0
    for index, hidden in enumerate(results):
        if hidden is None or checked >= bitwise_sample:
            continue
        solo = model.encode_ragged([list(requests[index])])[0]
        if not np.array_equal(hidden, solo):
            return False, checked
        checked += 1
    return True, checked


def run_chaos_loadtest(
    num_requests: int = 192,
    batch_size: int = 8,
    max_wait_ms: float = 1.0,
    crash_rate: float = 0.08,
    hang_rate: float = 0.04,
    error_rate: float = 0.02,
    hang_seconds: float = 0.4,
    hang_timeout_s: float = 0.15,
    max_restarts: int = 64,
    deadline_ms: Optional[float] = None,
    deadline_fraction: float = 0.25,
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
    timeout: float = 120.0,
    bitwise_sample: int = 8,
) -> dict:
    """Open-loop load against a fault-injected, supervised service.

    Every submitted request must resolve -- to a result or to a *typed*
    error (``DeadlineExceededError`` / ``OverloadedError`` /
    ``QueueFullError`` / terminal ``SupervisorExhaustedError``).  A
    request that never resolves within ``timeout`` counts as **hung**, a
    request resolving to an untyped error counts as **lost**; the
    zero-drop guarantee is ``hung == lost == 0``, asserted by callers
    (``loadtest --chaos``, ``bench_serving``, CI).  Responses served
    across a worker restart are additionally checked **bitwise** against
    solo inference on a clean (fault-free) model.

    Faults follow a seeded :class:`~repro.serving.faults.FaultSchedule`
    over the expected number of forward calls; restart jitter shares the
    seed -- the whole run is reproducible from its arguments.
    ``deadline_fraction`` of requests carry ``deadline_ms`` deadlines
    (default: 8x the healthy forward estimate is supplied by the caller
    or the deadline path is skipped when ``deadline_ms`` is None).
    """
    from repro.serving.faults import FaultSchedule, FaultyModel
    from repro.serving.supervisor import RestartPolicy, SupervisedService

    requests = synthetic_requests(num_requests, seed=seed)
    # Upper bound on forward calls: one per request (sequential worst
    # case) plus retries from restarts; faults re-draw against this many
    # call slots so crashes keep firing deep into the run.
    expected_calls = 2 * num_requests + 16
    schedule = FaultSchedule.from_seed(
        seed, expected_calls, crash_rate=crash_rate, hang_rate=hang_rate,
        error_rate=error_rate, hang_seconds=hang_seconds, skip_first=2)
    model = build_encoder_model(model_name=model_name, kernel=kernel,
                                seed=seed)
    faulty = FaultyModel(model, schedule)
    policy = RestartPolicy(max_restarts=max_restarts,
                           backoff_initial_ms=5.0, backoff_max_ms=50.0,
                           hang_timeout_s=hang_timeout_s,
                           heartbeat_interval_s=0.02, seed=seed)
    config = ServiceConfig(max_batch_size=batch_size,
                           max_wait_ms=max_wait_ms,
                           max_queue_depth=num_requests + 1,
                           cache_size=0)
    service = SupervisedService(faulty, config, policy)

    rng = np.random.default_rng(seed + 1)
    with_deadline = (deadline_ms is not None
                     and (rng.random(num_requests) < deadline_fraction))
    start = time.perf_counter()
    with service:
        outcomes, results = _drive_open_loop(
            service, requests, deadline_ms, with_deadline, timeout)
        elapsed = max(time.perf_counter() - start, 1e-9)
        snap = service.snapshot()

    # Bitwise check: served responses (including any that crossed a
    # restart) must equal solo inference on the clean model.
    bitwise_identical, checked = _bitwise_against_solo(
        model, requests, results, bitwise_sample)

    resolved = sum(outcomes.values())
    return {
        "workload": {
            "requests": num_requests,
            "batch_size": batch_size,
            "max_wait_ms": max_wait_ms,
            "model": model_name,
            "kernel": kernel,
            "seed": seed,
            "deadline_ms": deadline_ms,
            "deadline_fraction": deadline_fraction if deadline_ms is not None
            else 0.0,
        },
        "faults": {
            **schedule.summary(),
            "injected": len(faulty.injected),
            "forward_calls": faulty.calls,
        },
        "policy": {
            "max_restarts": max_restarts,
            "hang_timeout_s": hang_timeout_s,
        },
        "outcomes": outcomes,
        "resolved": resolved,
        "unresolved": num_requests - resolved,
        "restarts": snap["restarts"],
        "events": snap["events"],
        "terminal": snap["terminal"],
        "elapsed_seconds": round(elapsed, 4),
        "p50_ms": snap["p50_ms"],
        "p99_ms": snap["p99_ms"],
        "bitwise_identical_to_solo": bitwise_identical,
        "bitwise_checked": checked,
        "zero_drop": (outcomes["lost"] == 0 and outcomes["hung"] == 0
                      and resolved == num_requests),
    }


def run_sharded_chaos_loadtest(
    num_requests: int = 128,
    num_workers: int = 2,
    batch_size: int = 8,
    max_wait_ms: float = 1.0,
    kill_rate: float = 0.06,
    stall_rate: float = 0.03,
    corrupt_rate: float = 0.03,
    error_rate: float = 0.02,
    hang_timeout_s: float = 10.0,
    stall_timeout_s: float = 0.3,
    max_restarts: int = 32,
    deadline_ms: Optional[float] = None,
    deadline_fraction: float = 0.25,
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
    timeout: float = 240.0,
    bitwise_sample: int = 8,
    mp_context: str = "fork",
) -> dict:
    """Open-loop load against a fault-injected **sharded** service.

    The process-grade chaos: workers SIGKILL themselves mid-batch
    (``kill``), silence their heartbeats (``stall``) and refuse
    byte-flipped snapshot views (``corrupt``), plus ordinary per-batch
    model errors (``error``).  The guarantees measured are the same as
    :func:`run_chaos_loadtest` -- every request resolves typed
    (``zero_drop``) and served responses are bitwise identical to solo
    inference on a clean in-process model -- now across process
    boundaries, shared-memory snapshot rebinds and SIGKILL-grade worker
    replacement.  Reproducible from the recorded ``seed``: each spawn's
    fault schedule is derived from it per shard and generation.
    """
    from repro.serving.shard import build_sharded_service
    from repro.serving.supervisor import RestartPolicy

    requests = synthetic_requests(num_requests, seed=seed)
    fault_spec = {
        "seed": seed,
        "num_calls": 2 * num_requests + 16,
        "kill_rate": kill_rate,
        "stall_rate": stall_rate,
        "corrupt_rate": corrupt_rate,
        "error_rate": error_rate,
        "skip_first": 2,
    }
    policy = RestartPolicy(max_restarts=max_restarts,
                           backoff_initial_ms=5.0, backoff_max_ms=50.0,
                           hang_timeout_s=hang_timeout_s,
                           stall_timeout_s=stall_timeout_s,
                           heartbeat_interval_s=0.02, seed=seed)
    config = ServiceConfig(max_batch_size=batch_size,
                           max_wait_ms=max_wait_ms,
                           max_queue_depth=num_requests + 1,
                           cache_size=0)
    service = build_sharded_service(
        model_name=model_name, kernel=kernel, seed=seed, config=config,
        policy=policy, num_workers=num_workers, mp_context=mp_context,
        fault_spec=fault_spec)

    rng = np.random.default_rng(seed + 1)
    with_deadline = (deadline_ms is not None
                     and (rng.random(num_requests) < deadline_fraction))
    start = time.perf_counter()
    with service:
        outcomes, results = _drive_open_loop(
            service, requests, deadline_ms, with_deadline, timeout)
        elapsed = max(time.perf_counter() - start, 1e-9)
        snap = service.snapshot()

    # The parent model never saw a fault (faults fire inside workers):
    # it is the clean solo reference.
    bitwise_identical, checked = _bitwise_against_solo(
        service.model, requests, results, bitwise_sample)

    resolved = sum(outcomes.values())
    return {
        "workload": {
            "requests": num_requests,
            "workers": num_workers,
            "batch_size": batch_size,
            "max_wait_ms": max_wait_ms,
            "model": model_name,
            "kernel": kernel,
            "seed": seed,
            "mp_context": mp_context,
            "deadline_ms": deadline_ms,
            "deadline_fraction": deadline_fraction if deadline_ms is not None
            else 0.0,
        },
        "faults": dict(fault_spec),
        "policy": {
            "max_restarts": max_restarts,
            "hang_timeout_s": hang_timeout_s,
            "stall_timeout_s": stall_timeout_s,
        },
        "outcomes": outcomes,
        "resolved": resolved,
        "unresolved": num_requests - resolved,
        "restarts": snap["restarts"],
        "restarts_by_shard": snap["restarts_by_shard"],
        "live_workers": snap["live_workers"],
        "degraded": snap["degraded"],
        "events": snap["events"],
        "terminal": snap["terminal"],
        "snapshot": snap.get("snapshot"),
        "elapsed_seconds": round(elapsed, 4),
        "p50_ms": snap["p50_ms"],
        "p99_ms": snap["p99_ms"],
        "bitwise_identical_to_solo": bitwise_identical,
        "bitwise_checked": checked,
        "zero_drop": (outcomes["lost"] == 0 and outcomes["hung"] == 0
                      and resolved == num_requests),
    }
