"""The dynamic-batching inference service.

:class:`InferenceService` glues the pieces together: callers submit token
sequences from any thread; a single worker thread pulls coalesced
micro-batches from the :class:`~repro.serving.batcher.MicroBatcher`, runs
them through the encoder's ragged-batch entry point
(:meth:`~repro.models.bert.BertEncoderModel.encode_ragged` -- packed
token rows, exact attention masking, one adaptive-Softermax forward per
batch) and
completes each request with its own slice of the result.

Correctness properties the test suite pins:

* **Bit-transparency** -- a response is bitwise identical whether the
  request rode alone, in a batch, or was served from cache.
* **Deduplication** -- identical concurrent requests are computed once per
  batch and each waiter gets its own copy.
* **Isolation** -- a worker failure fails the affected requests with the
  underlying exception; it does not wedge the service.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batcher import (
    MicroBatcher,
    OverloadedError,
    PendingRequest,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.serving.cache import LRUCache
from repro.serving.stats import LatencyStats

#: Worker poll interval: how often an idle worker re-checks for shutdown.
_IDLE_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the dynamic batcher, response cache and forward engine.

    ``engine`` selects the encoder forward implementation: ``"plan"`` (the
    default) runs the compiled graph-free fast path
    (:class:`repro.infer.InferencePlan`, bitwise identical to the graph
    path), ``"graph"`` the autograd Tensor path.  ``fuse_qkv`` opts the
    plan engine into the fused Q/K/V projection GEMM (mathematically
    identical, not bit-guaranteed -- leave off when bit-transparency with
    the graph path matters).  Models whose ``encode_ragged`` does not take
    an ``engine`` argument (test doubles) are called without one.

    ``block_kv`` opts into chunked O(block)-memory attention for
    long-context serving (see :func:`repro.nn.functional.
    chunked_masked_attention` for the tolerance contract); sequences no
    longer than ``block_kv`` still take the dense path bit-for-bit, and
    batching stays bit-transparent either way.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1024
    cache_size: int = 1024
    pad_id: int = 0
    engine: str = "plan"
    fuse_qkv: bool = False
    block_kv: Optional[int] = None


class InferenceService:
    """Dynamic-batching front end over a ragged-batch encoder.

    Parameters
    ----------
    model:
        Any object exposing ``encode_ragged(sequences, pad_id) -> list of
        per-sequence arrays`` and (optionally) ``eval()`` -- in practice a
        :class:`~repro.models.bert.BertEncoderModel`.  The model is
        switched to eval mode at construction: serving is inference, and
        the exact-masking path that makes batching bit-transparent requires
        it.
    config:
        Batching/caching knobs (:class:`ServiceConfig`).
    """

    def __init__(self, model, config: ServiceConfig = ServiceConfig()) -> None:
        if config.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if config.engine not in ("plan", "graph"):
            raise ValueError(
                f"unknown inference engine {config.engine!r}; choose "
                "'plan' or 'graph'")
        self.model = model
        self.config = config
        # Only forward the engine selection to models that understand it;
        # plain ``encode_ragged(sequences, pad_id)`` duck types keep
        # working (they implicitly serve their only engine).
        try:
            parameters = inspect.signature(model.encode_ragged).parameters
            accepts_engine = "engine" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values())
            if accepts_engine:
                self._engine_kwargs = {"engine": config.engine,
                                       "fuse_qkv": config.fuse_qkv}
                if config.block_kv is not None:
                    self._engine_kwargs["block_kv"] = config.block_kv
            else:
                self._engine_kwargs = {}
        except (TypeError, ValueError):
            self._engine_kwargs = {}
        if hasattr(model, "eval"):
            model.eval()
        self.stats = LatencyStats()
        self.batcher = self._make_batcher()
        self.cache = LRUCache(config.cache_size)
        self._worker: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # Worker-health bookkeeping read by the supervisor: the batch
        # currently inside the model forward (identity-compared so a
        # superseded worker can never clear a successor's entry), when it
        # entered, and the worker's last liveness beat.
        self._inflight: List[PendingRequest] = []
        self._inflight_since: Optional[float] = None
        self._inflight_lock = threading.Lock()
        self._last_beat = time.perf_counter()

    def _make_batcher(self) -> MicroBatcher:
        return MicroBatcher(max_batch_size=self.config.max_batch_size,
                            max_wait_ms=self.config.max_wait_ms,
                            max_queue_depth=self.config.max_queue_depth,
                            event_hook=self.stats.record_event)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceService":
        if self._worker is not None:
            raise RuntimeError("service already started")
        if self.batcher.closed:
            # Restart after stop(): the old batcher is closed and drained,
            # so a fresh one makes the service reusable.
            self.batcher = self._make_batcher()
        self._stopping.clear()
        self.stats.start()
        self._worker = threading.Thread(target=self._serve_loop,
                                        name="inference-service-worker",
                                        daemon=True)
        self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the worker and fail the backlog deterministically.

        The worker finishes the batch it is executing (if any) and exits;
        every queued-but-unserved request is then failed promptly with a
        typed :class:`ServiceClosedError` -- shutdown latency is one
        forward, not one forward per queued batch.  The batcher's submit
        lock guarantees no request can land after the drain: a racing
        submitter either enqueued before ``close()`` (the drain sees it)
        or observes the closed batcher and raises.
        """
        if self._worker is None:
            return
        self._stopping.set()
        self.batcher.close()
        self._worker.join()
        self._worker = None
        for request in self.batcher.drain():
            request.set_exception(
                ServiceClosedError("service stopped before this request "
                                   "was served"))

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def _accepting(self) -> bool:
        """Is the service running?  Subclasses whose workers are not a
        single thread (the sharded service) override this check."""
        return self._worker is not None

    def submit(self, tokens: Sequence[int],
               deadline_ms: Optional[float] = None) -> PendingRequest:
        """Enqueue one request; returns a waitable :class:`PendingRequest`.

        Cache hits complete immediately without touching the queue.  A full
        queue raises :class:`~repro.serving.batcher.QueueFullError` --
        backpressure, not silent buffering.

        ``deadline_ms`` bounds the request's end-to-end latency: if the
        estimated queue wait already exceeds it, admission control sheds
        the request with a typed
        :class:`~repro.serving.batcher.OverloadedError` instead of
        accepting work it cannot finish in time; if the deadline passes
        while the request is queued, it fails with
        :class:`~repro.serving.batcher.DeadlineExceededError` *before*
        consuming a model forward.
        """
        if not self._accepting():
            raise ServiceClosedError("service is not running")
        key = self._validate(tokens)
        deadline = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                raise ValueError("deadline_ms must be > 0")
            deadline = time.perf_counter() + deadline_ms / 1e3
        request = PendingRequest(key, deadline=deadline)
        cached = self.cache.get(key)
        if cached is not None:
            request.cached = True
            request.set_result(cached)
            self.stats.record(0.0, cached=True)
            return request
        if deadline_ms is not None:
            estimated = self.estimated_wait_seconds()
            if estimated > deadline_ms / 1e3:
                self.stats.record_event("overloaded")
                raise OverloadedError(
                    f"estimated wait {estimated * 1e3:.1f} ms exceeds the "
                    f"request deadline {deadline_ms:.1f} ms "
                    f"(queue depth {self.batcher.depth()})")
        self.batcher.submit(request)
        return request

    def estimated_wait_seconds(self) -> float:
        """Rough submit-to-forward-start wait at the current queue depth.

        Queue depth in batches ahead of a new arrival, times the median
        recent forward time, plus one coalescing window.  Returns 0.0
        before any forward has been measured (admit optimistically -- the
        first requests *are* the measurement).
        """
        forward_p50 = self.stats.forward_p50_seconds()
        if forward_p50 <= 0.0:
            return 0.0
        batches_ahead = (self.batcher.depth() // self.config.max_batch_size) + 1
        return batches_ahead * forward_p50 + self.config.max_wait_ms / 1e3

    def infer(self, tokens: Sequence[int],
              timeout: Optional[float] = 30.0) -> np.ndarray:
        """Synchronous submit + wait; returns the per-token hidden states.

        An abandoned wait cancels the request, so a caller that gave up
        never consumes a model forward for an answer nobody reads.
        """
        request = self.submit(tokens)
        try:
            return request.result(timeout)
        except TimeoutError:
            request.cancel()
            raise

    def infer_many(self, sequences: Iterable[Sequence[int]],
                   timeout: Optional[float] = 30.0) -> List[np.ndarray]:
        """Submit a burst of requests, then wait for all of them."""
        pending = [self.submit(tokens) for tokens in sequences]
        return [request.result(timeout) for request in pending]

    def snapshot(self) -> dict:
        """Service-level stats: latency percentiles, req/s, cache, queue."""
        snap = self.stats.snapshot()
        snap["cache"] = self.cache.stats()
        snap["queue_depth"] = self.batcher.depth()
        snap["max_batch_size"] = self.config.max_batch_size
        snap["max_wait_ms"] = self.config.max_wait_ms
        snap["engine"] = self.config.engine
        snap["block_kv"] = self.config.block_kv
        return snap

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _validate(self, tokens: Sequence[int]) -> Tuple[int, ...]:
        key = tuple(int(t) for t in tokens)
        if not key:
            raise ValueError("a request must contain at least one token")
        model_config = getattr(self.model, "config", None)
        max_seq_len = getattr(model_config, "max_seq_len", None)
        if max_seq_len is not None and len(key) > max_seq_len:
            raise ValueError(
                f"request length {len(key)} exceeds max_seq_len {max_seq_len}")
        # Reject out-of-vocabulary ids at submit time: a negative id would
        # silently wrap through numpy indexing into the wrong embedding row
        # (and poison the cache), and an overlarge one would blow up inside
        # the worker, failing every innocent request in the same batch.
        vocab_size = getattr(model_config, "vocab_size", None)
        if vocab_size is not None:
            bad = [t for t in key if not 0 <= t < vocab_size]
            if bad:
                raise ValueError(
                    f"token ids {bad[:4]} outside the model vocabulary "
                    f"[0, {vocab_size})")
        return key

    def _serve_loop(self) -> None:
        # Exits as soon as stop() is requested: the backlog is *failed*
        # (typed, prompt) by stop()'s drain rather than served -- shutdown
        # is bounded by one in-flight batch, not the queue depth.
        while not self._stopping.is_set():
            self._last_beat = time.perf_counter()
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if not batch:
                continue
            try:
                self._execute(batch)
            except WorkerCrashError as exc:
                # Unsupervised isolation: a worker-fatal error fails the
                # affected batch but the loop keeps serving.  A supervised
                # service overrides this loop and restarts instead.
                for request in batch:
                    request.set_exception(exc)

    def _form_batch(self, batch: List[PendingRequest]
                    ) -> Tuple[List[PendingRequest], List[Tuple[int, ...]]]:
        """Filter a raw batch down to live requests and their unique keys.

        The batcher filters cancelled/expired entries at formation, but a
        cancel can race the window between formation and forward.
        Identical concurrent requests ride the batch once: each distinct
        key is encoded a single time and every waiter gets its own copy
        (see :meth:`_complete_batch`).  Shared by the in-thread execute
        path and the sharded dispatch path (:mod:`repro.serving.shard`).
        """
        live = [request for request in batch if not request.done()]
        unique: "dict[Tuple[int, ...], int]" = {}
        for request in live:
            unique.setdefault(request.key, len(unique))
        return live, list(unique)

    def _complete_batch(self, live: List[PendingRequest],
                        keys: List[Tuple[int, ...]], outputs,
                        forward_start: float) -> None:
        """Record stats, populate the cache and answer every live waiter.

        ``outputs`` are the per-key hidden states in ``keys`` order.  Only
        the *winning* completer records latency -- a superseded worker (or
        shard) finishing late must not double-count.
        """
        forward_seconds = time.perf_counter() - forward_start
        self.stats.record_batch(len(live), forward_seconds=forward_seconds)
        for key, hidden in zip(keys, outputs):
            self.cache.put(key, hidden)
        by_key = dict(zip(keys, outputs))
        for request in live:
            if request.set_result(by_key[request.key].copy()):
                # Queue wait: submission until this batch's forward
                # started (queueing plus the coalescing window).
                self.stats.record(
                    time.perf_counter() - request.submitted_at,
                    queue_wait_seconds=forward_start
                    - request.submitted_at)

    def _execute(self, batch: List[PendingRequest]) -> None:
        live, keys = self._form_batch(batch)
        if not live:
            return
        with self._inflight_lock:
            self._inflight = live
            self._inflight_since = time.perf_counter()
        forward_start = time.perf_counter()
        try:
            try:
                outputs = self.model.encode_ragged(
                    [list(key) for key in keys], pad_id=self.config.pad_id,
                    **self._engine_kwargs)
            except WorkerCrashError:
                # Worker-fatal: leave the requests pending (the supervisor
                # requeues them onto a fresh worker) and let the loop
                # decide the worker's fate.
                raise
            except Exception as exc:  # noqa: BLE001 - forwarded to callers
                for request in live:
                    request.set_exception(exc)
                return
            self._complete_batch(live, keys, outputs, forward_start)
        finally:
            with self._inflight_lock:
                if self._inflight is live:
                    self._inflight = []
                    self._inflight_since = None


def build_encoder_model(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    kernel_options: Optional[dict] = None,
    seed: int = 0,
):
    """Construct the Softermax BERT encoder the serving stack runs.

    The encoder runs the bit-accurate Softermax attention (``"softermax"``
    variant) through the requested kernel -- ``"auto"`` resolves to the
    adaptive fused/blocked/parallel dispatcher, which is the configuration
    the serving benchmarks record.
    """
    from repro.models import BertConfig
    from repro.models.bert import BertEncoderModel

    if model_name == "tiny-large":
        model_config = BertConfig.tiny_large()
    elif model_name == "tiny-base":
        model_config = BertConfig.tiny_base()
    elif model_name == "tiny-long":
        model_config = BertConfig.tiny_long()
    else:
        raise ValueError(
            f"unknown serving model {model_name!r}; choose tiny-base, "
            "tiny-large or tiny-long (the published geometries are "
            "cost-model descriptors, not runnable NumPy models)")
    return BertEncoderModel(model_config, softmax_variant="softermax",
                            kernel=kernel, kernel_options=kernel_options,
                            seed=seed).eval()


def build_encoder_service(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    kernel_options: Optional[dict] = None,
    seed: int = 0,
    config: ServiceConfig = ServiceConfig(),
):
    """Construct an :class:`InferenceService` over a Softermax BERT encoder
    (see :func:`build_encoder_model` for the encoder configuration)."""
    model = build_encoder_model(model_name=model_name, kernel=kernel,
                                kernel_options=kernel_options, seed=seed)
    return InferenceService(model, config)
