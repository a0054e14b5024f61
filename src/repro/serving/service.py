"""The dynamic-batching inference service and its supervisor.

:class:`InferenceService` glues the pieces together: callers submit token
sequences from any thread; one supervision loop per executor slot pulls
coalesced micro-batches from the :class:`~repro.serving.batcher.
MicroBatcher`, dispatches each batch's unique keys to its executor, which
runs them through the encoder's ragged-batch entry point
(:meth:`~repro.models.bert.BertEncoderModel.encode_ragged` -- packed
token rows, exact attention masking, one Softermax forward per batch),
and completes each request with its own slice of the result.

Two executors implement the slot interface (``start``, ``await_ready``,
``send`` one batch's keys, ``poll`` for the reply, ``health``, ``kill``,
``close``):

* :class:`ThreadExecutor` (the default, one slot) runs forwards on a
  worker thread of this process;
* :class:`~repro.serving.shard.ShardExecutor` (``shards=ShardPool(N)``,
  N slots) runs them in worker processes over one shared-memory model
  snapshot.

Correctness properties the test suite pins:

* **Bit-transparency** -- a response is bitwise identical whether the
  request rode alone, in a batch, or was served from cache.
* **Deduplication** -- identical concurrent requests are computed once per
  batch and each waiter gets its own copy.
* **Zero silent drops** -- every admitted request resolves, to a result
  or to a typed error, whatever happens to the worker under it.

Failure semantics -- one supervision loop, both executors:

=================  ====================  =========  ========  ===============
failure            event                 requeued?  restart?  budget spent
=================  ====================  =========  ========  ===============
plain model error  (none)                no         no        (never charged)
crash              ``worker_crash``      yes        yes       degrade
hang               ``worker_hang``       yes        yes       degrade
stall              ``worker_stall``      yes        yes       degrade
kill               ``worker_kill``       yes        yes       degrade
corrupt snapshot   ``snapshot_corrupt``  yes        yes       degrade
=================  ====================  =========  ========  ===============

* **plain model error** -- any exception from ``encode_ragged`` other
  than a :class:`~repro.serving.batcher.WorkerCrashError`: it fails its
  own batch with that exception and the worker keeps serving.
* **crash** -- a ``WorkerCrashError`` escapes the forward (the worker
  thread exits; a process exits with a code that names no other row).
* **hang** -- a dispatched batch has no reply after
  ``policy.hang_timeout_s`` (or a process sends no ready message within
  60 s): a thread is abandoned, a process SIGKILLed.  A service built
  without an explicit ``policy`` puts no hang deadline on the in-thread
  executor: a long-context forward may run for minutes, and an abandoned
  thread would keep holding the model, so its replacement would hang too.
* **stall**, **kill**, **corrupt snapshot** -- process executor only: the
  heartbeat pipe is silent for ``policy.stall_timeout_s``; the process
  died by a signal; the process refused its snapshot view.
* **requeued** -- the in-flight batch goes back at the head of the line,
  so no admitted request is dropped.
* **restart?** -- the worker is replaced after a seeded backoff,
  charged to its slot's :class:`~repro.serving.supervisor.RestartBudget`
  (``policy.max_restarts`` per slot).
* **degrade** -- a failure with the slot's budget spent marks the slot
  dead (``shard_degraded`` event, :class:`DegradedService`
  in ``snapshot()``) while the other slots keep serving; when the last
  live slot degrades the service turns terminal (``terminal`` event):
  everything pending, and every later ``submit``, fails with
  :class:`~repro.serving.supervisor.SupervisorExhaustedError`.  The
  in-thread executor has one slot, so there exhaustion is terminal at
  once.

:meth:`InferenceService.stop` is the typed stop drain: a batch in flight
is finished and answered (or fails over as above), and every request
still queued fails with :class:`~repro.serving.batcher.ServiceClosedError`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict, dataclass
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
from repro.serving.faults import (
    PROCESS_FAULT_KINDS,
    FaultSchedule,
    FaultyModel,
)
from repro.serving.stats import LatencyStats
from repro.serving.supervisor import (
    RestartBudget,
    RestartPolicy,
    SupervisorExhaustedError,
    WorkerHungError,
)

#: How often an idle supervision loop re-checks health and shutdown.
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
    the graph path matters).

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


@dataclass(frozen=True)
class DegradedService:
    """Point-in-time description of a service with dead executor slots."""

    live_workers: int
    dead_shards: Tuple[int, ...]
    restarts_by_shard: Tuple[int, ...]

    def as_dict(self) -> dict:
        return asdict(self)


class ThreadExecutor:
    """The in-thread executor: forwards on a worker thread of this process.

    Each :meth:`start` opens a new generation -- a fresh worker thread with
    its own request and reply queues and, under a ``fault_spec``, its own
    :class:`~repro.serving.faults.FaultyModel` schedule.  A thread cannot
    be stopped mid-forward, so :meth:`kill` abandons it instead: it exits
    after its current forward, and a late reply lands in a queue nobody
    reads.

    It holds the model, not the service: a reference back to the service
    would make a cycle that keeps a stopped service's model (and its
    plan's pooled buffers) alive until the cyclic garbage collector runs.
    """

    def __init__(self, model, pad_id: int, engine_kwargs: dict,
                 fault_spec: Optional[dict] = None) -> None:
        self._model = model
        self._pad_id = pad_id
        self._engine_kwargs = engine_kwargs
        self._fault_spec = fault_spec
        self._generation = 0
        self._requests: Optional[queue.SimpleQueue] = None
        self._replies: Optional[queue.SimpleQueue] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._generation += 1
        model = self._model
        if self._fault_spec is not None:
            model = FaultyModel(model, FaultSchedule.for_spawn(
                self._fault_spec, 0, self._generation))
        self._requests = queue.SimpleQueue()
        self._replies = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, args=(model, self._requests, self._replies),
            name="inference-worker", daemon=True)
        self._thread.start()

    def await_ready(self, stopping: threading.Event):
        return None

    def send(self, keys: List[Tuple[int, ...]]):
        self._requests.put(keys)
        return None

    def poll(self, timeout: float):
        try:
            return self._replies.get(timeout=timeout)
        except queue.Empty:
            return None

    def health(self):
        # A worker thread has no liveness signal apart from its replies; a
        # silent one is caught by the dispatch's hang deadline.
        return None

    def kill(self) -> None:
        if self._requests is not None:
            self._requests.put(None)

    def close(self, timeout: float) -> None:
        thread = self._thread
        self.kill()
        if thread is not None:
            thread.join(timeout)

    def _run(self, model, requests: queue.SimpleQueue,
             replies: queue.SimpleQueue) -> None:
        while True:
            keys = requests.get()
            if keys is None:
                return
            try:
                # Looked up per call: tracers rebind ``encode_ragged``.
                outputs = model.encode_ragged(
                    [list(key) for key in keys], pad_id=self._pad_id,
                    **self._engine_kwargs)
            except WorkerCrashError as exc:
                replies.put(("worker_crash", exc))
                return
            except Exception as exc:  # noqa: BLE001 - forwarded to callers
                replies.put(("err", exc))
                continue
            replies.put(("ok", outputs))


class _Slot:
    """One executor, its restart budget and its health flags."""

    __slots__ = ("index", "executor", "budget", "ready", "dead")

    def __init__(self, index: int, executor, budget: RestartBudget) -> None:
        self.index = index
        self.executor = executor
        self.budget = budget
        self.ready = False
        self.dead = False


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
    policy:
        Restart budget and timeouts of the supervision loop
        (:class:`~repro.serving.supervisor.RestartPolicy`).  ``None``
        (default) means ``RestartPolicy()`` without a hang deadline on the
        in-thread executor; shard processes always have one.
    shards:
        ``None`` (default) runs forwards on one :class:`ThreadExecutor`;
        a :class:`~repro.serving.shard.ShardPool` runs them in its worker
        processes instead.  The model is then only published (its
        parameters) and used for submit-time validation.
    fault_spec:
        Seeded chaos (see :mod:`repro.serving.faults`): the keyword dict of
        :meth:`~repro.serving.faults.FaultSchedule.from_seed`, drawn anew
        for every worker either executor starts.  The process-grade kinds
        need ``shards``.
    """

    def __init__(self, model, config: ServiceConfig = ServiceConfig(),
                 policy: Optional[RestartPolicy] = None,
                 shards=None, fault_spec: Optional[dict] = None) -> None:
        if config.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if config.engine not in ("plan", "graph"):
            raise ValueError(
                f"unknown inference engine {config.engine!r}; choose "
                "'plan' or 'graph'")
        self.model = model
        self.config = config
        self.policy = RestartPolicy() if policy is None else policy
        self._pool = shards
        # Seconds a dispatched batch may run before its worker counts as
        # hung; None: no bound (see the module docstring's "hang" row).
        self._hang_timeout_s = (None if policy is None and shards is None
                                else self.policy.hang_timeout_s)
        self._engine_kwargs = {"engine": config.engine,
                               "fuse_qkv": config.fuse_qkv}
        if config.block_kv is not None:
            self._engine_kwargs["block_kv"] = config.block_kv
        if fault_spec is not None:
            if shards is None:
                for kind in PROCESS_FAULT_KINDS:
                    if fault_spec.get(f"{kind}_rate", 0.0):
                        raise ValueError(
                            f"{kind}_rate (--{kind}-rate) is a process-grade "
                            "fault; it needs shard processes (workers > 0, "
                            "--workers N)")
            # Draw once now: a bad key or rate fails here, not at start().
            FaultSchedule.for_spawn(fault_spec, 0, 1)
            fault_spec = dict(fault_spec)
        self.fault_spec = fault_spec
        if hasattr(model, "eval"):
            model.eval()
        self.stats = LatencyStats()
        self.batcher = self._make_batcher()
        self.cache = LRUCache(config.cache_size)
        # The slots' supervision threads while started; submit() admits
        # requests only while this is set.
        self._worker: Optional[List[threading.Thread]] = None
        self._slots: List[_Slot] = []
        self._stopping = threading.Event()
        self._terminal: Optional[SupervisorExhaustedError] = None
        # Guards the degrade/terminal transition, reached concurrently
        # from several slot threads; pure bookkeeping only.
        self._degrade_lock = threading.Lock()

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
        with self._degrade_lock:
            self._terminal = None
        self.stats.start()
        if self._pool is None:
            executors = [ThreadExecutor(self.model, self.config.pad_id,
                                        self._engine_kwargs, self.fault_spec)]
        else:
            executors = self._pool.open(self)
        self._slots = [
            _Slot(index, executor,
                  RestartBudget(self.policy, seed=self.policy.seed + index))
            for index, executor in enumerate(executors)]
        for slot in self._slots:
            slot.executor.start()
        self._worker = [
            threading.Thread(target=self._slot_loop, args=(slot,),
                             name=f"inference-supervisor-{slot.index}",
                             daemon=True)
            for slot in self._slots]
        for thread in self._worker:
            thread.start()
        self._set_health_gauges()
        return self

    def stop(self) -> None:
        """Stop the slots and fail the backlog with typed errors.

        A batch in flight is finished and answered; every request still
        queued fails promptly with :class:`ServiceClosedError` -- shutdown
        latency is one forward plus the worker teardown, not one forward
        per queued batch.  The batcher's submit lock guarantees no request
        can land after the drain.  Per-slot accounting (restarts,
        degradation) survives, so a post-shutdown ``snapshot()`` still
        reports the run.
        """
        threads = self._worker
        if threads is None:
            return
        self._stopping.set()
        self.batcher.close()
        for thread in threads:
            thread.join()
        self._worker = None
        for slot in self._slots:
            slot.ready = False
            # Bounded: a hung in-thread worker is left behind, not joined.
            slot.executor.close(self.policy.hang_timeout_s)
        for request in self.batcher.drain():
            request.set_exception(
                ServiceClosedError("service stopped before this request "
                                   "was served"))
        if self._pool is not None:
            self._pool.close()
        self._set_health_gauges()

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until every slot is live (or dead), up to ``timeout``.

        A convenience for front ends that want their first status line to
        reflect the steady state instead of the process boot transient
        (the in-thread executor settles at once); serving correctness
        never depends on it -- the batcher queues requests while workers
        boot.  Returns the live worker count.
        """
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            slots = list(self._slots)
            if slots and all(s.ready or s.dead for s in slots):
                break
            time.sleep(0.001)
        return self._live_workers()

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
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
        terminal = self._terminal
        if terminal is not None:
            raise terminal
        if self._worker is None:
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

        Queue depth in batches ahead of a new arrival, shared out over the
        live executors, times the median recent forward time, plus one
        coalescing window.  Returns 0.0 before any forward has been
        measured (admit optimistically -- the first requests *are* the
        measurement).
        """
        forward_p50 = self.stats.forward_p50_seconds()
        if forward_p50 <= 0.0:
            return 0.0
        batches_ahead = (self.batcher.depth() // self.config.max_batch_size) + 1
        executors = max(self._live_workers(), 1)
        return (batches_ahead / executors * forward_p50
                + self.config.max_wait_ms / 1e3)

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

    def degraded(self) -> Optional[DegradedService]:
        """The degradation state, or ``None`` while every slot lives."""
        slots = list(self._slots)
        dead = tuple(s.index for s in slots if s.dead)
        if not dead:
            return None
        return DegradedService(
            live_workers=len(slots) - len(dead), dead_shards=dead,
            restarts_by_shard=tuple(s.budget.restarts for s in slots))

    def snapshot(self) -> dict:
        """Service-level stats: latency percentiles, req/s, cache, queue,
        and the supervision state of every executor slot."""
        snap = self.stats.snapshot()
        snap["cache"] = self.cache.stats()
        snap["queue_depth"] = self.batcher.depth()
        snap["max_batch_size"] = self.config.max_batch_size
        snap["max_wait_ms"] = self.config.max_wait_ms
        snap["engine"] = self.config.engine
        snap["block_kv"] = self.config.block_kv
        slots = list(self._slots)
        workers = 1 if self._pool is None else self._pool.workers
        snap["supervised"] = True
        snap["sharded"] = self._pool is not None
        snap["workers"] = workers
        snap["live_workers"] = self._live_workers()
        snap["restarts"] = sum(s.budget.restarts for s in slots)
        snap["max_restarts"] = self.policy.max_restarts * workers
        snap["restarts_by_shard"] = [s.budget.restarts for s in slots]
        degraded = self.degraded()
        snap["degraded"] = None if degraded is None else degraded.as_dict()
        snap["terminal"] = (type(self._terminal).__name__
                            if self._terminal is not None else None)
        snap["snapshot"] = (None if self._pool is None
                            else self._pool.describe())
        return snap

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

    # ------------------------------------------------------------------ #
    # supervision: one loop per executor slot
    # ------------------------------------------------------------------ #
    def _live_workers(self) -> int:
        return sum(1 for s in self._slots if s.ready and not s.dead)

    def _slot_loop(self, slot: _Slot) -> None:
        # Exits once stop() is requested, after answering a batch in
        # flight: the backlog is *failed* (typed, prompt) by stop()'s drain
        # rather than served.
        while not self._stopping.is_set() and not slot.dead:
            if not slot.ready:
                failure = slot.executor.await_ready(self._stopping)
                if failure is not None:
                    self._handle_failure(slot, *failure, pending=[])
                else:
                    slot.ready = True
                    self._set_health_gauges()
                continue
            failure = slot.executor.health()
            if failure is not None:
                self._handle_failure(slot, *failure, pending=[])
                continue
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if self._stopping.is_set():
                self.batcher.requeue(batch)
                return
            live, keys = self._form_batch(batch)
            if live:
                self._dispatch(slot, live, keys)

    def _form_batch(self, batch: List[PendingRequest]
                    ) -> Tuple[List[PendingRequest], List[Tuple[int, ...]]]:
        """Filter a raw batch down to live requests and their unique keys.

        The batcher filters cancelled/expired entries at formation, but a
        cancel can race the window between formation and forward.
        Identical concurrent requests ride the batch once: each distinct
        key is encoded a single time and every waiter gets its own copy
        (see :meth:`_complete_batch`).
        """
        live = [request for request in batch if not request.done()]
        unique: "dict[Tuple[int, ...], int]" = {}
        for request in live:
            unique.setdefault(request.key, len(unique))
        return live, list(unique)

    def _dispatch(self, slot: _Slot, live: List[PendingRequest],
                  keys: List[Tuple[int, ...]]) -> None:
        """Run one batch on ``slot``'s executor against the hang deadline."""
        forward_start = time.perf_counter()
        hang_timeout = self._hang_timeout_s
        failure = slot.executor.send(keys)
        while failure is None:
            reply = slot.executor.poll(self.policy.heartbeat_interval_s)
            if reply is not None:
                kind, payload = reply
                if kind == "ok":
                    self._complete_batch(live, keys, payload, forward_start)
                    return
                if kind == "err":
                    for request in live:
                        request.set_exception(payload)
                    return
                failure = reply
            else:
                failure = slot.executor.health()
                if (failure is None and hang_timeout is not None
                        and time.perf_counter() - forward_start
                        > hang_timeout):
                    failure = "worker_hang", WorkerHungError(
                        f"worker hung > {hang_timeout:.2f}s inside a "
                        "dispatched batch")
        self._handle_failure(slot, *failure, pending=live)

    def _complete_batch(self, live: List[PendingRequest],
                        keys: List[Tuple[int, ...]], outputs,
                        forward_start: float) -> None:
        """Record stats, populate the cache and answer every live waiter.

        ``outputs`` are the per-key hidden states in ``keys`` order.
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

    def _handle_failure(self, slot: _Slot, event: str, exc: BaseException,
                        pending: List[PendingRequest]) -> None:
        self.stats.record_event(event)
        slot.ready = False
        slot.executor.kill()
        # Head of the line: these were admitted first; the other slots
        # can serve them while this one restarts.
        self.batcher.requeue(pending)
        if slot.budget.exhausted:
            self._degrade(slot, exc)
            return
        self.stats.record_event("restart")
        if self._stopping.wait(slot.budget.next_backoff()):
            return
        slot.executor.start()
        self._set_health_gauges()

    def _degrade(self, slot: _Slot, exc: BaseException) -> None:
        terminal: Optional[SupervisorExhaustedError] = None
        with self._degrade_lock:
            slot.dead = True
            if (self._terminal is None
                    and all(s.dead for s in self._slots)):
                terminal = SupervisorExhaustedError(
                    f"every worker exhausted its restart budget "
                    f"({len(self._slots)} x {self.policy.max_restarts} "
                    f"restarts): {exc}")
                terminal.__cause__ = exc
                self._terminal = terminal
        self.stats.record_event("shard_degraded")
        self._set_health_gauges()
        if terminal is None:
            return
        self.stats.record_event("terminal")
        # Stop intake and fail everything pending with the typed terminal
        # error -- zero silent drops.
        self.batcher.close()
        for request in self.batcher.drain():
            request.set_exception(terminal)

    def _set_health_gauges(self) -> None:
        self.stats.set_gauge("live_workers", self._live_workers())
        self.stats.set_gauge("degraded", any(s.dead for s in self._slots))
        bundle = None if self._pool is None else self._pool.describe()
        if bundle is not None:
            self.stats.set_gauge("snapshot_version", bundle["version"])
            self.stats.set_gauge("snapshot_checksum", bundle["checksum"])


def build_encoder_model(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
):
    """Construct the Softermax BERT encoder the serving stack runs.

    The encoder runs the bit-accurate Softermax attention (``"softermax"``
    variant) through the requested kernel -- ``"auto"`` names the native
    engine when built, else fused, which is the configuration the serving
    benchmarks record.
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
                            kernel=kernel, seed=seed).eval()


def build_encoder_service(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
    config: ServiceConfig = ServiceConfig(),
    policy: Optional[RestartPolicy] = None,
    workers: int = 0,
    mp_context: str = "fork",
    fault_spec: Optional[dict] = None,
) -> InferenceService:
    """Construct an :class:`InferenceService` over a Softermax BERT encoder
    (see :func:`build_encoder_model` for the encoder configuration).

    ``workers`` picks the executor: ``0`` runs forwards on one worker
    thread of this process; ``N > 0`` runs them in N shard processes (a
    :class:`~repro.serving.shard.ShardPool`), each rebuilt from the same
    ``model_name``/``kernel``/``seed`` and bound to one shared-memory
    snapshot of this model.  ``mp_context`` applies to shard processes
    only; ``fault_spec`` (seeded chaos) drives either executor, see
    :class:`InferenceService`.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    model = build_encoder_model(model_name=model_name, kernel=kernel,
                                seed=seed)
    shards = None
    if workers > 0:
        from repro.serving.shard import ShardPool

        shards = ShardPool(workers, model_name=model_name, kernel=kernel,
                           seed=seed, mp_context=mp_context)
    return InferenceService(model, config, policy, shards=shards,
                            fault_spec=fault_spec)
