"""Actor-style supervision for the inference worker.

:class:`SupervisedService` is the restart policy for the in-thread
worker: a monitor thread owns the inference worker, heartbeat-health-checks
it, and on **crash** (a
:class:`~repro.serving.batcher.WorkerCrashError` escaping the worker loop)
or **hang** (a batch stuck inside the model forward past
``hang_timeout_s``) replaces it -- requeueing the in-flight batch at the
head of the line so no admitted request is ever dropped.  Restarts are
bounded (``max_restarts``) with exponential backoff and seeded jitter;
when the budget is exhausted the supervisor fails everything pending with
a terminal :class:`SupervisorExhaustedError` and closes the service
(crash-looping forever is an outage pretending to be uptime).

Correctness across restarts rides two mechanisms:

* :class:`~repro.serving.batcher.PendingRequest` completion is
  first-wins, so a hung-then-recovered worker finishing its batch after
  the replacement already answered is harmless (both compute identical
  bits -- the model is deterministic -- but only one completion lands).
* Worker generations: each worker loop checks it is still the active
  generation before taking new work, so an abandoned worker can finish
  its current batch but never steal the successor's queue.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.serving.batcher import (
    PendingRequest,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.serving.service import (
    InferenceService,
    ServiceConfig,
    build_encoder_model,
)

#: Worker poll interval (mirrors the service's idle poll).
_IDLE_POLL_SECONDS = 0.05


class SupervisorExhaustedError(RuntimeError):
    """The restart budget is spent; the service is terminally failed."""


class WorkerHungError(WorkerCrashError):
    """The worker exceeded the hang timeout inside a model forward."""


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded-restart policy with exponential backoff and seeded jitter.

    ``max_restarts`` bounds worker replacements over the service lifetime
    (restart ``n`` backs off ``backoff_initial_ms * multiplier**(n-1)``
    milliseconds, capped at ``backoff_max_ms``, +/- ``jitter_fraction``).
    The jitter RNG is seeded (``seed``) so supervised runs are
    reproducible end to end -- fault schedules and restart timing alike.
    """

    max_restarts: int = 5
    backoff_initial_ms: float = 20.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 500.0
    jitter_fraction: float = 0.1
    hang_timeout_s: float = 2.0
    heartbeat_interval_s: float = 0.02
    seed: int = 0
    #: How long a process worker may go without a heartbeat while *idle*
    #: before the process supervisor declares it stalled (distinct from
    #: ``hang_timeout_s``, which bounds time inside a model forward).
    #: Unused by the in-thread supervisor, whose worker cannot stall
    #: silently -- its beats are plain attribute writes.
    stall_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_initial_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if (self.hang_timeout_s <= 0 or self.heartbeat_interval_s <= 0
                or self.stall_timeout_s <= 0):
            raise ValueError("timeouts must be > 0")

    def backoff_seconds(self, restart_index: int,
                        rng: random.Random) -> float:
        """Delay before restart number ``restart_index`` (1-based)."""
        if restart_index < 1:
            raise ValueError("restart_index is 1-based")
        base = min(
            self.backoff_initial_ms
            * self.backoff_multiplier ** (restart_index - 1),
            self.backoff_max_ms)
        jitter = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return base * jitter / 1e3


class RestartBudget:
    """Seeded bounded-restart accounting for one supervised worker.

    Counts replacements against ``policy.max_restarts`` and hands out the
    matching backoff delays.  Extracted from the thread supervisor so the
    process supervisor (:mod:`repro.serving.shard`) can keep one budget
    *per shard* -- pass ``seed`` to derive distinct-but-reproducible
    jitter streams (e.g. ``policy.seed + shard_index``).
    """

    def __init__(self, policy: RestartPolicy,
                 seed: Optional[int] = None) -> None:
        self.policy = policy
        self._rng = random.Random(policy.seed if seed is None else seed)
        self.restarts = 0

    @property
    def exhausted(self) -> bool:
        """True once the next failure must terminate, not restart."""
        return self.restarts >= self.policy.max_restarts

    def next_backoff(self) -> float:
        """Consume one restart; returns the pre-respawn delay in seconds."""
        self.restarts += 1
        return self.policy.backoff_seconds(self.restarts, self._rng)


class SupervisedService(InferenceService):
    """An :class:`InferenceService` whose worker lives under supervision.

    The public surface is unchanged (``submit``/``infer``/``stop``/
    context manager); what changes is the failure model:

    * a :class:`~repro.serving.batcher.WorkerCrashError` escaping the
      model restarts the worker and **requeues** the in-flight batch
      instead of failing it;
    * a hang (forward stuck past ``policy.hang_timeout_s``) abandons the
      stuck worker and restarts;
    * after ``policy.max_restarts`` replacements, everything pending
      fails with :class:`SupervisorExhaustedError` and the service closes.

    Plain model exceptions keep the PR 3 isolation semantics: the batch
    fails typed, the worker survives, no restart is consumed.
    """

    def __init__(self, model, config: ServiceConfig = ServiceConfig(),
                 policy: RestartPolicy = RestartPolicy()) -> None:
        super().__init__(model, config)
        self.policy = policy
        self._budget = RestartBudget(policy)
        self._monitor: Optional[threading.Thread] = None
        self._generation = 0
        self._terminal: Optional[BaseException] = None
        self._last_error: Optional[BaseException] = None
        # Crash report posted by a dying worker: (exception, its pending
        # batch).  The monitor consumes it under the lock.
        self._crash_lock = threading.Lock()
        self._crash: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SupervisedService":
        if self._worker is not None or self._monitor is not None:
            raise RuntimeError("service already started")
        if self.batcher.closed:
            self.batcher = self._make_batcher()
        self._stopping.clear()
        self._terminal = None
        self._last_error = None
        self._budget = RestartBudget(self.policy)
        with self._crash_lock:
            self._crash = None
        self.stats.start()
        self._spawn_worker()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="inference-supervisor",
                                         daemon=True)
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Stop monitor and worker; fail the backlog with typed errors.

        A hung worker cannot be joined -- it is abandoned (daemon thread,
        superseded generation) and its in-flight requests are failed here;
        if it later limps home, first-wins completion makes its answers
        no-ops.
        """
        if self._worker is None and self._monitor is None:
            return
        self._stopping.set()
        self.batcher.close()
        if self._monitor is not None:
            self._monitor.join()
            self._monitor = None
        worker = self._worker
        self._worker = None
        # Orphan any straggler before failing its requests: a live worker
        # re-checks the generation before touching new work.
        self._generation += 1
        if worker is not None:
            worker.join(timeout=self.policy.hang_timeout_s + 1.0)
        with self._inflight_lock:
            stranded = [r for r in self._inflight if not r.done()]
        for request in stranded + self.batcher.drain():
            request.set_exception(
                ServiceClosedError("service stopped before this request "
                                   "was served"))

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def submit(self, tokens, deadline_ms: Optional[float] = None
               ) -> PendingRequest:
        terminal = self._terminal
        if terminal is not None:
            raise terminal
        return super().submit(tokens, deadline_ms=deadline_ms)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["supervised"] = True
        snap["restarts"] = self._budget.restarts
        snap["max_restarts"] = self.policy.max_restarts
        snap["generation"] = self._generation
        snap["terminal"] = (type(self._terminal).__name__
                            if self._terminal is not None else None)
        return snap

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> None:
        self._generation += 1
        generation = self._generation
        self._last_beat = time.perf_counter()
        self._worker = threading.Thread(
            target=self._worker_loop, args=(generation,),
            name=f"inference-worker-gen{generation}", daemon=True)
        self._worker.start()

    def _worker_loop(self, generation: int) -> None:
        while not self._stopping.is_set() and generation == self._generation:
            self._last_beat = time.perf_counter()
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if not batch:
                continue
            if generation != self._generation:
                # Superseded while blocked in next_batch: hand the batch
                # back untouched -- it belongs to the successor.
                self.batcher.requeue(batch)
                return
            try:
                self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - crash report
                with self._crash_lock:
                    self._crash = (
                        exc, [r for r in batch if not r.done()])
                return

    # ------------------------------------------------------------------ #
    # supervisor side
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            self._stopping.wait(self.policy.heartbeat_interval_s)
            if self._stopping.is_set():
                return
            if self._terminal is not None:
                return
            with self._crash_lock:
                crash, self._crash = self._crash, None
            if crash is not None:
                exc, pending = crash
                self.stats.record_event("worker_crash")
                self._handle_failure(exc, pending)
                continue
            with self._inflight_lock:
                since = self._inflight_since
                inflight = list(self._inflight)
            now = time.perf_counter()
            if (since is not None
                    and now - since > self.policy.hang_timeout_s):
                # Abandon the stuck worker: bump the generation (it will
                # exit its loop when -- if -- the forward returns) and
                # give its batch to a replacement.
                self.stats.record_event("worker_hang")
                self._generation += 1
                with self._inflight_lock:
                    # Reset the hang clock so the *same* stuck batch is
                    # not re-declared hung on every tick (the abandoned
                    # worker's finally-block identity-compares its own
                    # batch, so it cannot clobber a successor's entry).
                    if self._inflight_since is since:
                        self._inflight = []
                        self._inflight_since = None
                self._handle_failure(
                    WorkerHungError(
                        f"worker hung > {self.policy.hang_timeout_s:.2f}s "
                        "inside a model forward"),
                    [r for r in inflight if not r.done()])
                continue
            worker = self._worker
            if worker is not None and not worker.is_alive():
                # Died without a crash report (should not happen; treated
                # as a crash with an unknown cause so nothing hangs).
                with self._crash_lock:
                    crash, self._crash = self._crash, None
                exc = crash[0] if crash else WorkerCrashError(
                    "worker thread exited unexpectedly")
                pending = crash[1] if crash else []
                self.stats.record_event("worker_crash")
                self._handle_failure(exc, pending)

    def _handle_failure(self, exc: BaseException,
                        pending: List[PendingRequest]) -> None:
        self._last_error = exc
        if self._budget.exhausted:
            self._terminate(exc, pending)
            return
        self.stats.record_event("restart")
        if pending:
            self.batcher.requeue(pending)
        delay = self._budget.next_backoff()
        if self._stopping.wait(delay):
            return
        self._spawn_worker()

    def _terminate(self, exc: BaseException,
                   pending: List[PendingRequest]) -> None:
        terminal = SupervisorExhaustedError(
            f"worker failed {self._budget.restarts + 1} times, restart "
            f"budget {self.policy.max_restarts} exhausted: {exc}")
        terminal.__cause__ = exc
        self._terminal = terminal
        self.stats.record_event("terminal")
        # Orphan any straggling worker, stop intake, fail everything
        # pending with the typed terminal error -- zero silent drops.
        self._generation += 1
        self.batcher.close()
        for request in pending + self.batcher.drain():
            request.set_exception(terminal)


def build_supervised_service(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
    config: ServiceConfig = ServiceConfig(),
    policy: RestartPolicy = RestartPolicy(),
    fault_schedule=None,
):
    """Construct a :class:`SupervisedService` over a Softermax BERT encoder.

    ``fault_schedule`` (a :class:`repro.serving.faults.FaultSchedule`)
    wraps the encoder in a :class:`repro.serving.faults.FaultyModel` --
    the chaos loadtest and CI smoke use this to measure the supervision
    guarantees instead of asserting them by hand.
    """
    model = build_encoder_model(model_name=model_name, kernel=kernel,
                                seed=seed)
    if fault_schedule is not None:
        from repro.serving.faults import FaultyModel

        model = FaultyModel(model, fault_schedule)
    return SupervisedService(model, config, policy)
