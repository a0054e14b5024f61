"""Dynamic micro-batching: a bounded request queue with time/size coalescing.

The batcher is the heart of the serving layer's throughput win: requests
arriving within a short window are coalesced into one batch so the
encoder (and the Softermax kernel under it) amortizes per-call
overhead over many requests.  Policy:

* a batch closes as soon as it holds ``max_batch_size`` requests, or
* ``max_wait_ms`` after its *first* request was dequeued, whichever comes
  first -- so a lone request never waits longer than the coalescing window,
  and a burst never waits at all.

The queue is bounded (``max_queue_depth``); when it is full, ``submit``
raises :class:`QueueFullError` immediately instead of buffering without
limit -- backpressure is the caller's signal to shed load.

Batch *formation* is also where robustness guarantees are enforced:

* Cancelled or already-completed requests are skipped, so an abandoned
  waiter never consumes a model forward.
* Requests whose deadline has passed are failed with a typed
  :class:`DeadlineExceededError` *before* they reach the model -- a
  timed-out request is shed, not computed and discarded.
* Requests handed back by a supervisor after a worker crash
  (:meth:`MicroBatcher.requeue`) are served ahead of the main queue: they
  are the oldest traffic and must not starve behind fresh arrivals.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Iterable, List, Optional, Tuple


class QueueFullError(RuntimeError):
    """The bounded request queue is full (shed load or retry later)."""


class ServiceClosedError(RuntimeError):
    """The service/batcher has been stopped and accepts no new requests."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before it could be served."""


class OverloadedError(RuntimeError):
    """Admission control shed this request: the service cannot meet its
    deadline at the current queue depth (graceful degradation, not an
    unbounded-latency queue)."""


class RequestCancelledError(RuntimeError):
    """The request was cancelled by its submitter before completion."""


class WorkerCrashError(RuntimeError):
    """A worker-fatal failure.

    Unlike an ordinary model exception (which fails the affected batch and
    leaves the worker serving), a :class:`WorkerCrashError` means the
    worker itself is broken: the service's supervision loop requeues the
    in-flight batch and restarts the worker, consuming one restart from
    that executor slot's budget (see the failure table in
    :mod:`repro.serving.service`).
    """


class PendingRequest:
    """A submitted request: token key plus a completion slot.

    A minimal future: the worker thread completes it with
    :meth:`set_result` / :meth:`set_exception`, the submitting thread
    blocks in :meth:`result`.  Completion is **first-wins**: after a worker
    restart the superseded worker may still finish a batch it was hung on,
    so a request can race two completers -- only the first takes effect
    (both compute the same bits, but the waiter must never observe a
    result slot mutating under it).

    ``deadline`` is an absolute :func:`time.perf_counter` timestamp; the
    batcher fails expired requests with :class:`DeadlineExceededError` at
    batch formation.  :meth:`cancel` withdraws a request the submitter no
    longer wants -- cancelled entries are skipped at batch formation and
    never consume a model forward.
    """

    __slots__ = ("key", "submitted_at", "deadline", "cached", "_clock",
                 "_event", "_result", "_exception", "_lock", "_callbacks",
                 "_cancelled")

    def __init__(self, key: Tuple[int, ...],
                 deadline: Optional[float] = None,
                 clock=time.perf_counter) -> None:
        self.key = key
        self._clock = clock
        self.submitted_at = clock()
        self.deadline = deadline
        self.cached = False
        self._event = threading.Event()
        self._result = None
        self._exception: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["PendingRequest"], None]] = []
        self._cancelled = False

    # ------------------------------------------------------------------ #
    def _complete(self, result, exception: Optional[BaseException]) -> bool:
        """First-wins completion; runs done-callbacks outside the lock."""
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._exception = exception
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback(self)
        return True

    def set_result(self, value) -> bool:
        """Complete successfully; returns False if already completed."""
        return self._complete(value, None)

    def set_exception(self, exc: BaseException) -> bool:
        """Complete with an error; returns False if already completed."""
        return self._complete(None, exc)

    def cancel(self, exception: Optional[BaseException] = None) -> bool:
        """Withdraw the request; the waiter gets ``exception`` (default
        :class:`RequestCancelledError`).  Returns True if the cancel won
        the completion race -- a False means a worker already answered.
        """
        self._cancelled = True
        return self._complete(
            None, exception or RequestCancelledError("request cancelled"))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the deadline (if any) has passed."""
        if self.deadline is None:
            return False
        return (self._clock() if now is None else now) >= self.deadline

    def add_done_callback(
            self, callback: Callable[["PendingRequest"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done).

        Callbacks fire on the completing thread -- they must be cheap and
        must not block (the daemon uses one to hop the result onto the
        event loop via ``call_soon_threadsafe``).
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block until completed; raises the worker's exception if any."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request not completed within {timeout} seconds")
        if self._exception is not None:
            raise self._exception
        return self._result


#: Queue sentinel that unblocks the worker on close.
_CLOSED = object()

#: Queue sentinel that wakes a blocked worker without carrying a request
#: (posted by ``requeue`` so handed-back requests are noticed promptly).
_WAKE = object()


class MicroBatcher:
    """Bounded queue + size/deadline coalescing into micro-batches.

    Parameters
    ----------
    max_batch_size:
        Largest batch handed to the model in one forward.
    max_wait_ms:
        Longest a dequeued request waits for companions before its batch
        closes.  ``0`` disables coalescing-by-time: a batch is whatever is
        already queued at dequeue time.
    max_queue_depth:
        Bound on queued (not yet dequeued) requests; beyond it ``submit``
        raises :class:`QueueFullError`.
    event_hook:
        Optional ``callable(name, count)`` notified of formation-time
        events (``"deadline_expired"``, ``"skipped_cancelled"``,
        ``"skipped_completed"``, ``"requeued"``) -- the service points it
        at its stats counters.
    """

    def __init__(self, max_batch_size: int = 32, max_wait_ms: float = 2.0,
                 max_queue_depth: int = 1024,
                 event_hook: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue_depth)
        self._closed = threading.Event()
        self._event_hook = event_hook
        # Requests handed back by a supervisor after a worker crash/hang;
        # consumed ahead of the main queue (they are the oldest traffic).
        self._requeued: "deque[PendingRequest]" = deque()
        self._requeue_lock = threading.Lock()
        # Serializes submit against close: without it, a submitter that
        # passed the closed-check could be preempted, have close() + a
        # final drain run to completion, then enqueue into the dead
        # batcher -- a request nothing would ever complete.
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def depth(self) -> int:
        """Approximate number of queued, not yet dequeued requests."""
        return self._queue.qsize() + len(self._requeued)

    def _notify(self, name: str, count: int = 1) -> None:
        if self._event_hook is not None and count:
            self._event_hook(name, count)

    def submit(self, request: PendingRequest) -> None:
        """Enqueue a request; raises on a full queue or a closed batcher."""
        with self._submit_lock:
            if self.closed:
                raise ServiceClosedError("batcher is closed")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                raise QueueFullError(
                    f"request queue is full ({self._queue.maxsize} pending)"
                ) from None

    def requeue(self, requests: Iterable[PendingRequest]) -> int:
        """Hand crashed-worker requests back for the next batch (head of
        line).  Bypasses the depth bound -- these requests were already
        admitted once and must not be dropped on the floor.  Returns the
        number of requests actually requeued (completed ones are skipped).
        """
        accepted = 0
        with self._requeue_lock:
            for request in requests:
                if request.done():
                    continue
                self._requeued.append(request)
                accepted += 1
        if accepted:
            self._notify("requeued", accepted)
            try:
                # Wake a worker blocked on the main queue; dropped on a
                # full queue, which is fine -- workers poll with a finite
                # timeout.
                self._queue.put_nowait(_WAKE)
            except queue.Full:
                pass
        return accepted

    # ------------------------------------------------------------------ #
    def _pop_requeued(self) -> Optional[PendingRequest]:
        with self._requeue_lock:
            if self._requeued:
                return self._requeued.popleft()
        return None

    def _admit(self, request: PendingRequest) -> bool:
        """Formation-time filter: skip dead entries, expire stale ones."""
        if request.cancelled:
            self._notify("skipped_cancelled")
            return False
        if request.done():
            # Completed by a superseded worker or the cache; nothing to do.
            self._notify("skipped_completed")
            return False
        if request.expired():
            if request.cancel(DeadlineExceededError(
                    "deadline passed before the request reached a batch")):
                self._notify("deadline_expired")
            return False
        return True

    def next_batch(self, timeout: Optional[float] = None
                   ) -> List[PendingRequest]:
        """Dequeue the next micro-batch (worker-thread side).

        Blocks up to ``timeout`` seconds for the first request (forever
        when ``None``); returns ``[]`` on timeout or when the batcher is
        closed and drained.  Once a first request arrives, keeps coalescing
        until the batch is full or ``max_wait_ms`` has passed.  Cancelled,
        already-completed and deadline-expired entries are filtered here,
        before the batch ever reaches the model.
        """
        batch: List[PendingRequest] = []
        coalesce_deadline: Optional[float] = None
        while len(batch) < self.max_batch_size:
            item = self._pop_requeued()
            if item is None:
                try:
                    if batch:
                        remaining = coalesce_deadline - time.perf_counter()
                        if remaining <= 0:
                            item = self._queue.get_nowait()
                        else:
                            item = self._queue.get(timeout=remaining)
                    elif self.closed:
                        # Never block on a closed batcher: hand out whatever
                        # is still queued, but a drained queue means we are
                        # done now, not after the full idle timeout.
                        item = self._queue.get_nowait()
                    else:
                        item = self._queue.get(timeout=timeout)
                except queue.Empty:
                    break
            if item is _CLOSED:
                self._repost_close_sentinel()
                break
            if item is _WAKE:
                # Pure wake-up: loop back and look at the requeue deque.
                continue
            if not self._admit(item):
                continue
            batch.append(item)
            if coalesce_deadline is None:
                coalesce_deadline = time.perf_counter() + self.max_wait_ms / 1e3
        return batch

    def _repost_close_sentinel(self) -> None:
        """Put the consumed ``_CLOSED`` sentinel back for the next reader.

        The sentinel is consumed wherever it surfaces (first slot or
        mid-coalesce); without re-posting it, the *next* ``next_batch``
        call on a drained queue would block its full timeout even though
        the batcher is closed.  Dropping it on a full queue is fine: the
        closed-check above never blocks once ``closed`` is set.
        """
        try:
            self._queue.put_nowait(_CLOSED)
        except queue.Full:
            pass

    def drain(self) -> List[PendingRequest]:
        """Remove and return everything still queued (used on shutdown)."""
        drained = []
        while True:
            item = self._pop_requeued()
            if item is None:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    return drained
            if item is not _CLOSED and item is not _WAKE:
                drained.append(item)

    def close(self) -> None:
        """Stop accepting requests and unblock a waiting worker.

        Taking the submit lock guarantees that once ``close()`` returns, no
        in-flight ``submit`` can still land a request: every submitter has
        either enqueued already (a later ``drain()`` will see it) or will
        observe ``closed`` and raise.
        """
        with self._submit_lock:
            if self._closed.is_set():
                return
            self._closed.set()
            try:
                # Sentinel wakes a worker blocked in next_batch.  On a full
                # queue the sentinel is dropped -- workers must therefore
                # poll with a finite timeout and re-check ``closed`` (the
                # service worker loop does).
                self._queue.put_nowait(_CLOSED)
            except queue.Full:
                pass
