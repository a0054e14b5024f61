"""InferenceService end-to-end: bit-transparency, caching, dedup, failure
isolation.

The first test is the serving layer's acceptance contract: a request's
response is **bitwise identical** whether it rode alone through a
sequential service, inside a coalesced batch, or out of the response
cache.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    DeadlineExceededError,
    InferenceService,
    OverloadedError,
    QueueFullError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceConfig,
    build_encoder_service,
)
from repro.serving.loadtest import synthetic_requests


@pytest.fixture(scope="module")
def encoder_service_model():
    """One shared encoder model (construction is the expensive part)."""
    return build_encoder_service().model


def _service(model, **overrides) -> InferenceService:
    defaults = dict(max_batch_size=8, max_wait_ms=5.0, max_queue_depth=256,
                    cache_size=64)
    defaults.update(overrides)
    return InferenceService(model, ServiceConfig(**defaults))


# --------------------------------------------------------------------------- #
# bit-transparency (the acceptance criterion)
# --------------------------------------------------------------------------- #
def test_batched_responses_bitwise_identical_to_single_request(
        encoder_service_model):
    """Batched == sequential == cached, bit for bit."""
    requests = synthetic_requests(24, min_tokens=3, max_tokens=20, seed=3)

    # Sequential single-request serving: every request rides alone.
    with _service(encoder_service_model, max_batch_size=1, max_wait_ms=0.0,
                  cache_size=0) as sequential:
        alone = [sequential.infer(tokens) for tokens in requests]

    # Dynamic batching: the whole burst coalesces into packed batches.
    with _service(encoder_service_model, max_batch_size=24,
                  cache_size=64) as batched:
        coalesced = batched.infer_many(requests)
        # And once more out of the response cache.
        cached = batched.infer_many(requests)
        assert batched.cache.hits >= len(requests)

    for solo, in_batch, from_cache in zip(alone, coalesced, cached):
        assert np.array_equal(solo, in_batch)
        assert np.array_equal(solo, from_cache)


def test_service_defaults_to_the_plan_engine(encoder_service_model):
    """The service runs the graph-free plan engine by default, and its
    responses stay bitwise identical to the graph engine's solo path."""
    assert ServiceConfig().engine == "plan"
    requests = synthetic_requests(8, min_tokens=3, max_tokens=12, seed=13)
    with _service(encoder_service_model, cache_size=0) as service:
        assert service.config.engine == "plan"
        assert service._engine_kwargs == {"engine": "plan",
                                          "fuse_qkv": False}
        served = service.infer_many(requests)
        assert service.snapshot()["engine"] == "plan"
    for tokens, got in zip(requests, served):
        graph_solo = encoder_service_model.encode_ragged(
            [list(tokens)], engine="graph")[0]
        assert np.array_equal(got, graph_solo)


def test_packed_batches_bitwise_identical_in_any_order(
        encoder_service_model):
    """The plan packs each batch by length (no pad rows): a burst served
    in two different orders -- one-token requests, repeated lengths and
    distinct lengths included -- answers every request with the bits of
    its solo graph-engine encoding."""
    requests = synthetic_requests(20, min_tokens=1, max_tokens=16, seed=21)
    requests += [(7,), (3,), (5, 6, 7), (1, 2, 3)]
    with _service(encoder_service_model, max_batch_size=24,
                  cache_size=0) as service:
        forward = service.infer_many(requests)
        backward = service.infer_many(requests[::-1])[::-1]
    for tokens, got, again in zip(requests, forward, backward):
        solo = encoder_service_model.encode_ragged(
            [list(tokens)], engine="graph")[0]
        assert np.array_equal(got, solo)
        assert np.array_equal(again, solo)


def test_block_kv_serving_bit_transparent_and_near_dense(
        encoder_service_model):
    """Chunked long-context serving: solo == batched bit for bit, and the
    served bits match the model's own chunked entry point; vs the dense
    service the responses follow the chunked tolerance contract."""
    requests = synthetic_requests(8, min_tokens=3, max_tokens=20, seed=5)
    with _service(encoder_service_model, cache_size=0,
                  block_kv=4) as chunked:
        assert chunked._engine_kwargs["block_kv"] == 4
        assert chunked.snapshot()["block_kv"] == 4
        batched = chunked.infer_many(requests)
    with _service(encoder_service_model, max_batch_size=1, max_wait_ms=0.0,
                  cache_size=0, block_kv=4) as solo_service:
        solo = [solo_service.infer(tokens) for tokens in requests]
    for tokens, in_batch, alone in zip(requests, batched, solo):
        assert np.array_equal(in_batch, alone)
        direct = encoder_service_model.encode_ragged(
            [list(tokens)], engine="plan", block_kv=4)[0]
        assert np.array_equal(in_batch, direct)
        dense = encoder_service_model.encode_ragged(
            [list(tokens)], engine="plan")[0]
        assert np.max(np.abs(in_batch - dense)) < 0.5


def test_graph_engine_still_selectable(encoder_service_model):
    tokens = (3, 1, 4, 1, 5)
    with _service(encoder_service_model, cache_size=0,
                  engine="graph") as service:
        graph_served = service.infer(tokens)
    with _service(encoder_service_model, cache_size=0) as service:
        plan_served = service.infer(tokens)
    assert np.array_equal(graph_served, plan_served)


def test_unknown_engine_rejected(encoder_service_model):
    with pytest.raises(ValueError, match="unknown inference engine"):
        _service(encoder_service_model, engine="jit")


def test_latency_split_reported(encoder_service_model):
    with _service(encoder_service_model, cache_size=0) as service:
        service.infer_many(synthetic_requests(6, seed=17))
        snap = service.snapshot()
    assert snap["queue_wait_p50_ms"] is not None
    assert snap["forward_p50_ms"] is not None
    # Queue wait + forward bound the end-to-end latency from below.
    assert snap["queue_wait_p50_ms"] >= 0.0
    assert snap["forward_p50_ms"] > 0.0


def test_responses_are_isolated_copies(encoder_service_model):
    with _service(encoder_service_model) as service:
        tokens = (5, 9, 3)
        first = service.infer(tokens)
        first[:] = -99.0
        second = service.infer(tokens)
        assert not np.array_equal(first, second)
        assert np.all(second != -99.0)


# --------------------------------------------------------------------------- #
# batching behavior
# --------------------------------------------------------------------------- #
def test_burst_is_coalesced_into_batches(encoder_service_model):
    requests = synthetic_requests(32, seed=5)
    with _service(encoder_service_model, max_batch_size=16,
                  max_wait_ms=20.0, cache_size=0) as service:
        service.infer_many(requests)
        snap = service.snapshot()
    assert snap["completed"] == 32
    assert snap["batches"] < 32, "a burst must not be served one by one"
    assert snap["mean_batch_size"] > 1.0
    assert snap["p50_ms"] is not None and snap["p99_ms"] is not None
    assert snap["requests_per_second"] is not None


def test_identical_concurrent_requests_deduplicated(encoder_service_model):
    tokens = (4, 8, 15, 16, 23)
    with _service(encoder_service_model, max_batch_size=16, max_wait_ms=50.0,
                  cache_size=0) as service:
        pending = [service.submit(tokens) for _ in range(10)]
        results = [p.result(30.0) for p in pending]
        snap = service.snapshot()
    for result in results[1:]:
        assert np.array_equal(results[0], result)
    # All ten rode batches, but each batch encoded the key once; with no
    # cache this still holds because dedup happens inside the batch.
    assert snap["completed"] == 10


def test_cache_hits_skip_the_queue(encoder_service_model):
    tokens = (7, 7, 7)
    with _service(encoder_service_model) as service:
        miss = service.submit(tokens)
        first = miss.result(30.0)
        hit = service.submit(tokens)
        assert hit.cached and hit.done()
        assert np.array_equal(hit.result(0.0), first)
        assert service.cache.hits == 1


# --------------------------------------------------------------------------- #
# validation, backpressure, lifecycle
# --------------------------------------------------------------------------- #
def test_invalid_requests_rejected(encoder_service_model):
    with _service(encoder_service_model) as service:
        with pytest.raises(ValueError, match="at least one token"):
            service.submit(())
        max_seq_len = encoder_service_model.config.max_seq_len
        with pytest.raises(ValueError, match="max_seq_len"):
            service.submit((1,) * (max_seq_len + 1))
        # Out-of-vocabulary ids are rejected at submit time: a negative id
        # would otherwise wrap through numpy indexing into the wrong
        # embedding row, and an overlarge one would fail the whole batch.
        with pytest.raises(ValueError, match="vocabulary"):
            service.submit((1, -1, 2))
        vocab = encoder_service_model.config.vocab_size
        with pytest.raises(ValueError, match="vocabulary"):
            service.submit((1, vocab, 2))


def test_queue_backpressure_surfaces_to_submitter(encoder_service_model):
    service = _service(encoder_service_model, max_queue_depth=4,
                       cache_size=0)
    # Not started: the worker never drains, so the bounded queue fills.
    service._worker = threading.Thread(target=lambda: None)  # mark running
    requests = synthetic_requests(16, seed=11)
    accepted = 0
    with pytest.raises(QueueFullError):
        for tokens in requests:
            service.submit(tokens)
            accepted += 1
    assert accepted == 4
    for request in service.batcher.drain():
        request.set_exception(ServiceClosedError("test cleanup"))


def test_submit_requires_running_service(encoder_service_model):
    service = _service(encoder_service_model)
    with pytest.raises(ServiceClosedError):
        service.submit((1, 2))
    with service:
        service.infer((1, 2))
    with pytest.raises(ServiceClosedError):
        service.submit((1, 2))


def test_worker_failure_fails_requests_but_not_service(encoder_service_model):
    class ExplodingModel:
        config = encoder_service_model.config

        def __init__(self, inner):
            self.inner = inner
            self.explode = False

        def eval(self):
            return self

        def encode_ragged(self, sequences, pad_id=0, **kwargs):
            if self.explode:
                raise RuntimeError("model exploded")
            return self.inner.encode_ragged(sequences, pad_id=pad_id,
                                            **kwargs)

    model = ExplodingModel(encoder_service_model)
    with InferenceService(model, ServiceConfig(max_batch_size=4,
                                               cache_size=0)) as service:
        baseline = service.infer((1, 2, 3))
        model.explode = True
        with pytest.raises(RuntimeError, match="model exploded"):
            service.infer((4, 5, 6))
        # The worker survived the failure and keeps serving.
        model.explode = False
        again = service.infer((1, 2, 3))
        assert np.array_equal(baseline, again)


def test_stop_fails_undrained_requests(encoder_service_model):
    service = _service(encoder_service_model, cache_size=0)
    service.start()
    service.stop()
    # Stopped: a stranded request (injected directly) is failed on stop.
    service.start()
    pending = service.submit((9, 9, 9))
    service.stop()
    # Either the worker completed it before exiting or stop() failed it.
    try:
        result = pending.result(0.5)
    except ServiceClosedError:
        pass
    else:
        assert result.shape == (3, encoder_service_model.config.hidden_dim)


def test_double_start_rejected(encoder_service_model):
    with _service(encoder_service_model) as service:
        with pytest.raises(RuntimeError, match="already started"):
            service.start()


def test_stop_races_concurrent_submitters_without_drops(
        encoder_service_model):
    """N threads submitting while stop() lands: every accepted request
    resolves promptly -- a result or a typed ServiceClosedError, never a
    hang or an untyped failure."""
    service = _service(encoder_service_model, max_batch_size=4,
                       max_wait_ms=1.0, cache_size=0)
    service.start()
    outcomes = []
    outcomes_lock = threading.Lock()
    stop_now = threading.Event()

    def submitter(worker_id: int) -> None:
        for i in range(40):
            tokens = (1 + worker_id, 1 + (i % 9), 3)
            try:
                request = service.submit(tokens)
            except ServiceClosedError:
                with outcomes_lock:
                    outcomes.append("rejected")
                continue
            try:
                request.result(10.0)
                label = "served"
            except ServiceClosedError:
                label = "closed"
            except TimeoutError:
                label = "hung"
            except Exception:  # noqa: BLE001 - anything else is a drop
                label = "dropped"
            with outcomes_lock:
                outcomes.append(label)
            if stop_now.is_set():
                return

    threads = [threading.Thread(target=submitter, args=(n,))
               for n in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let traffic build up, then yank the service
    stop_now.set()
    service.stop()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "a submitter is stuck"
    counts = {label: outcomes.count(label) for label in set(outcomes)}
    assert counts.get("hung", 0) == 0, counts
    assert counts.get("dropped", 0) == 0, counts
    assert counts.get("served", 0) >= 1, counts


# --------------------------------------------------------------------------- #
# deadlines, admission control, cancellation
# --------------------------------------------------------------------------- #
class _SlowModel:
    """Delegates to the encoder after a per-call delay (first N calls)."""

    def __init__(self, inner, delay_s: float, slow_calls: int = 1):
        self.inner = inner
        self.config = inner.config
        self.delay_s = delay_s
        self.slow_calls = slow_calls
        self.calls = 0

    def eval(self):
        return self

    def encode_ragged(self, sequences, pad_id=0, **kwargs):
        self.calls += 1
        if self.calls <= self.slow_calls:
            time.sleep(self.delay_s)
        return self.inner.encode_ragged(sequences, pad_id=pad_id)


def test_default_service_puts_no_hang_deadline_on_a_long_forward(
        encoder_service_model, monkeypatch):
    """A forward longer than the restart policy's hang timeout (a
    long-context request) is served, not declared hung, by a service
    built with the default policy."""
    from repro.serving import RestartPolicy, service as service_module

    model = _SlowModel(encoder_service_model,
                       delay_s=RestartPolicy().hang_timeout_s + 0.5)
    monkeypatch.setattr(service_module, "build_encoder_model",
                        lambda **kwargs: model)
    with build_encoder_service(
            config=ServiceConfig(max_batch_size=1, cache_size=0)) as service:
        got = service.infer((1, 2, 3), timeout=30.0)
        snap = service.snapshot()
    assert np.array_equal(
        got, encoder_service_model.encode_ragged([[1, 2, 3]])[0])
    assert snap["restarts"] == 0
    assert "worker_hang" not in snap["events"]


def test_deadline_expires_while_queued_not_computed(encoder_service_model):
    """A request whose deadline passes in the queue is shed typed at
    batch formation -- the model never sees it."""
    model = _SlowModel(encoder_service_model, delay_s=0.3)
    with InferenceService(model, ServiceConfig(
            max_batch_size=1, max_wait_ms=0.0, cache_size=0)) as service:
        blocker = service.submit((1, 2, 3))  # occupies the slow forward
        doomed = service.submit((4, 5, 6), deadline_ms=30.0)
        with pytest.raises(DeadlineExceededError):
            doomed.result(10.0)
        blocker.result(10.0)
        snap = service.snapshot()
    assert snap["events"]["deadline_expired"] == 1
    # One forward for the blocker; the expired request consumed none.
    assert model.calls == 1


def test_admission_control_sheds_unmeetable_deadlines(
        encoder_service_model):
    with _service(encoder_service_model, cache_size=0) as service:
        with pytest.raises(ValueError, match="deadline_ms"):
            service.submit((1, 2), deadline_ms=0.0)
        service.infer((1, 2, 3))  # prime the forward-time estimator
        assert service.estimated_wait_seconds() > 0.0
        with pytest.raises(OverloadedError):
            service.submit((4, 5, 6), deadline_ms=1e-6)
        # A generous deadline is admitted and served normally.
        request = service.submit((4, 5, 6), deadline_ms=30000.0)
        assert request.result(30.0) is not None
        snap = service.snapshot()
    assert snap["events"]["overloaded"] == 1


def test_cancel_before_formation_prevents_compute(encoder_service_model):
    model = _SlowModel(encoder_service_model, delay_s=0.3)
    with InferenceService(model, ServiceConfig(
            max_batch_size=1, max_wait_ms=0.0, cache_size=0)) as service:
        blocker = service.submit((1, 2, 3))
        abandoned = service.submit((4, 5, 6))
        assert abandoned.cancel() is True
        with pytest.raises(RequestCancelledError):
            abandoned.result(10.0)
        blocker.result(10.0)
        snap = service.snapshot()
    assert model.calls == 1, "a cancelled request must not reach the model"
    assert snap["events"]["skipped_cancelled"] == 1
