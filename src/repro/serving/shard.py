"""Process-isolated sharded serving over one shared-memory snapshot.

:class:`ShardedInferenceService` keeps the :class:`InferenceService`
surface (``submit``/``infer``/``stop``/``snapshot``/context manager) but
executes model forwards in N worker **processes** instead of one worker
thread.  The failure domain shrinks from "the server" to "one shard": a
segfault-grade worker death (SIGKILL included) costs one batch worth of
latency, never a dropped request and never the service.

Memory stays O(1) in the worker count.  The parent publishes the model's
float64 parameter arrays **once** into a checksummed
:class:`~repro.serving.snapshot.SnapshotBundle`; each worker attaches,
verifies every CRC (refusing a corrupt segment with a typed
:class:`~repro.serving.snapshot.SnapshotCorruptionError` and a dedicated
exit code), rebinds its model to the read-only views zero-copy
(:func:`~repro.infer.plan.bind_snapshot_arrays`) and compiles its
inference plan over them
(:func:`~repro.nn.layers.frozen_array_snapshot` keeps read-only weights
uncopied) -- N plans, ONE copy of the weights.

Supervision generalizes the thread supervisor's machinery per shard:

* **liveness** -- a heartbeat pipe the worker beats on a timer thread;
  a worker whose beats stop while it is otherwise responsive is
  *stalled* and replaced (``policy.stall_timeout_s``);
* **crash** -- ``Process.exitcode`` classifies the death: negative means
  a signal (``worker_kill``), :data:`EXIT_CORRUPT` means the worker
  refused its snapshot (``snapshot_corrupt``), anything else is a plain
  ``worker_crash``;
* **hang** -- a dispatched batch unanswered past ``policy.hang_timeout_s``
  gets the worker SIGKILLed and replaced (``worker_hang``).

On any failure the in-flight batch is requeued head-of-line (admitted
requests are never dropped) and the shard respawns against the *same*
published snapshot -- no re-publish, no window where another shard's
attach could fail.  Restarts are budgeted per shard
(:class:`~repro.serving.supervisor.RestartBudget`, seeded per shard);
a shard that exhausts its budget **degrades** -- it is marked dead and
the remaining shards keep serving (state visible as
:class:`DegradedService` in ``snapshot()`` and the stats gauges) --
rather than failing the service.  Only when every shard is dead does the
service turn terminal with
:class:`~repro.serving.supervisor.SupervisorExhaustedError`.

Chaos coverage injects the process-grade fault kinds
(:data:`~repro.serving.faults.PROCESS_FAULT_KINDS`) inside the worker:
``kill`` SIGKILLs it mid-batch, ``stall`` silences its heartbeat thread,
``corrupt`` verifies a deliberately byte-flipped *copy* of the snapshot
(the shared segment itself stays pristine for the other shards).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.infer.plan import bind_snapshot_arrays, snapshot_arrays
from repro.serving.batcher import (
    PendingRequest,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.serving.faults import FaultSchedule, FaultyModel
from repro.serving.service import (
    InferenceService,
    ServiceConfig,
    build_encoder_model,
)
from repro.serving.snapshot import (
    SnapshotBundle,
    SnapshotCorruptionError,
    verify_manifest,
)
from repro.serving.supervisor import (
    RestartBudget,
    RestartPolicy,
    SupervisorExhaustedError,
    WorkerHungError,
)

#: Worker poll interval for the per-shard dispatch loops.
_IDLE_POLL_SECONDS = 0.05

#: How long a freshly spawned worker gets to attach + build its model
#: before the supervisor declares the spawn failed (generous: a plan
#: compile on a loaded CI box can take seconds).
_READY_TIMEOUT_S = 60.0

#: Exit code a worker uses for a worker-fatal model error
#: (:class:`~repro.serving.batcher.WorkerCrashError` escaping a forward).
EXIT_CRASH = 3

#: Exit code a worker uses after refusing a corrupt snapshot view.
EXIT_CORRUPT = 13

#: Multiplier separating per-shard fault-schedule seed streams; any
#: constant larger than plausible respawn counts works, prime by habit.
_SHARD_SEED_STRIDE = 1009


class WorkerStalledError(WorkerCrashError):
    """The worker stopped heartbeating past the stall timeout."""


@dataclass(frozen=True)
class DegradedService:
    """Point-in-time description of a partially-dead sharded service."""

    live_workers: int
    dead_shards: Tuple[int, ...]
    restarts_by_shard: Tuple[int, ...]

    def as_dict(self) -> dict:
        return asdict(self)


class _Shard:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "budget", "process", "cmd", "beat", "thread",
                 "generation", "ready", "dead", "last_beat",
                 "batch_counter")

    def __init__(self, index: int, budget: RestartBudget) -> None:
        self.index = index
        self.budget = budget
        self.process = None
        self.cmd = None
        self.beat = None
        self.thread: Optional[threading.Thread] = None
        self.generation = 0
        self.ready = False
        self.dead = False
        self.last_beat = time.perf_counter()
        self.batch_counter = 0


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_main(spec: dict, schedule: Optional[FaultSchedule],
                 cmd, beat) -> None:
    """Entry point of one shard worker process.

    Attaches (and verifies) the published snapshot, rebuilds the model
    over zero-copy views, then serves ``("infer", batch_id, keys)``
    messages until ``("stop",)`` or parent death.  Worker-fatal
    conditions exit the *process* with a classifying exit code; ordinary
    model errors are sent back and the worker keeps serving (the PR 3
    isolation semantics, now process-grade).
    """
    try:
        try:
            bundle = SnapshotBundle.attach(spec["manifest"])
        except SnapshotCorruptionError as exc:
            try:
                cmd.send(("fatal", str(exc)))
            except Exception:
                pass
            os._exit(EXIT_CORRUPT)
        model = build_encoder_model(
            model_name=spec["model_name"], kernel=spec["kernel"],
            seed=spec["seed"])
        bind_snapshot_arrays(model, bundle.arrays())
        stalled = threading.Event()
        if schedule is not None:
            import signal

            def _kill(fault):
                os.kill(os.getpid(), signal.SIGKILL)

            def _stall(fault):
                stalled.set()

            def _corrupt(fault):
                verify_manifest(bundle.corrupted_copy(), spec["manifest"])

            model = FaultyModel(model, schedule, process_hooks={
                "kill": _kill, "stall": _stall, "corrupt": _corrupt})
        stop_beats = threading.Event()

        def _beat_loop() -> None:
            while not stop_beats.is_set():
                if not stalled.is_set():
                    try:
                        beat.send(1)
                    except (BrokenPipeError, OSError):
                        return
                stop_beats.wait(spec["heartbeat_interval_s"])

        beater = threading.Thread(target=_beat_loop, name="shard-heartbeat",
                                  daemon=True)
        beater.start()
        engine_kwargs = spec["engine_kwargs"]
        pad_id = spec["pad_id"]
        cmd.send(("ready", os.getpid()))
        while True:
            try:
                message = cmd.recv()
            except (EOFError, OSError):
                break  # parent is gone; nothing left to serve
            if message[0] == "stop":
                break
            _, batch_id, keys = message
            try:
                outputs = model.encode_ragged(
                    [list(key) for key in keys], pad_id=pad_id,
                    **engine_kwargs)
                cmd.send(("ok", batch_id,
                          [np.asarray(hidden) for hidden in outputs]))
            except SnapshotCorruptionError:
                os._exit(EXIT_CORRUPT)
            except WorkerCrashError:
                os._exit(EXIT_CRASH)
            except Exception as exc:  # noqa: BLE001 - forwarded typed
                cmd.send(("err", batch_id, exc))
        stop_beats.set()
        bundle.close()
    except KeyboardInterrupt:  # pragma: no cover - parent ^C broadcast
        os._exit(0)


# --------------------------------------------------------------------------- #
# parent service
# --------------------------------------------------------------------------- #
class ShardedInferenceService(InferenceService):
    """The :class:`InferenceService` surface over N supervised processes.

    ``model`` is the parent-side instance: its parameters are what gets
    published (once) into the shared-memory snapshot, and its config
    drives submit-time validation.  The parent never runs a forward --
    every batch is dispatched to a shard worker process rebuilt from
    ``model_name``/``kernel``/``seed`` and bound to the published snapshot.

    ``fault_spec`` (chaos only) is the keyword dict for
    :meth:`~repro.serving.faults.FaultSchedule.from_seed`; each spawn
    draws its own schedule from a seed derived per shard and generation,
    so respawned workers do not replay the exact faults that killed
    their predecessors while the whole run stays reproducible from the
    base seed.
    """

    def __init__(self, model, config: ServiceConfig = ServiceConfig(),
                 policy: RestartPolicy = RestartPolicy(),
                 num_workers: int = 2,
                 model_name: str = "tiny-base", kernel: str = "auto",
                 seed: int = 0,
                 mp_context: str = "fork",
                 fault_spec: Optional[dict] = None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(model, config)
        import multiprocessing

        self.policy = policy
        self.num_workers = num_workers
        self._model_name = model_name
        self._kernel = kernel
        self._seed = seed
        self._mp = multiprocessing.get_context(mp_context)
        self._fault_spec = dict(fault_spec) if fault_spec else None
        self._bundle: Optional[SnapshotBundle] = None
        self._shards: List[_Shard] = []
        self._running = False
        # Final-stats carryover: ``run_daemon`` snapshots *after* stop(),
        # so the published-snapshot description outlives the bundle.
        self._bundle_info: Optional[dict] = None
        self._fatal: Optional[BaseException] = None
        # Guards the degrade/terminal transition (reached concurrently
        # from several shard runner threads); pure bookkeeping only.
        self._degrade_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardedInferenceService":
        if self._running:
            raise RuntimeError("service already started")
        if self.batcher.closed:
            self.batcher = self._make_batcher()
        self._stopping.clear()
        with self._degrade_lock:
            self._fatal = None
        self.stats.start()
        self._bundle = SnapshotBundle.publish(snapshot_arrays(self.model))
        self._bundle_info = self._bundle.describe()
        self._running = True
        self._shards = [
            _Shard(index, RestartBudget(self.policy,
                                        seed=self.policy.seed + index))
            for index in range(self.num_workers)]
        for shard in self._shards:
            self._spawn(shard)
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=self._shard_loop, args=(shard,),
                name=f"shard-runner-{shard.index}", daemon=True)
            shard.thread.start()
        self._set_health_gauges()
        return self

    def stop(self) -> None:
        """Stop runners and workers; fail the backlog with typed errors.

        Per-shard accounting (restart counts, degradation state) survives
        the stop so a post-shutdown ``snapshot()`` still reports the run.
        """
        if not self._running:
            return
        self._running = False
        self._stopping.set()
        self.batcher.close()
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join()
                shard.thread = None
        for shard in self._shards:
            self._shutdown_worker(shard)
        for request in self.batcher.drain():
            request.set_exception(
                ServiceClosedError("service stopped before this request "
                                   "was served"))
        if self._bundle is not None:
            self._bundle.close()
            self._bundle = None

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def _accepting(self) -> bool:
        return self._running

    def submit(self, tokens: Sequence[int],
               deadline_ms: Optional[float] = None) -> PendingRequest:
        terminal = self._fatal
        if terminal is not None:
            raise terminal
        return super().submit(tokens, deadline_ms=deadline_ms)

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until every shard is live (or dead), up to ``timeout``.

        Purely a convenience for interactive front ends that want their
        first status line to reflect the steady state instead of the
        boot transient; serving correctness never depends on it -- the
        batcher queues requests while workers boot.  Returns the live
        worker count at return time.
        """
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            shards = list(self._shards)
            settled = sum(1 for s in shards if s.ready or s.dead)
            if shards and settled == len(shards):
                break
            time.sleep(0.01)
        return self.snapshot()["live_workers"]

    def degraded(self) -> Optional[DegradedService]:
        """The degradation state, or ``None`` while every shard lives."""
        shards = list(self._shards)
        dead = tuple(s.index for s in shards if s.dead)
        if not dead:
            return None
        return DegradedService(
            live_workers=len(shards) - len(dead),
            dead_shards=dead,
            restarts_by_shard=tuple(s.budget.restarts for s in shards))

    def snapshot(self) -> dict:
        snap = super().snapshot()
        shards = list(self._shards)
        snap["sharded"] = True
        snap["supervised"] = True
        snap["workers"] = self.num_workers
        snap["live_workers"] = sum(
            1 for s in shards if not s.dead and s.ready)
        snap["restarts"] = sum(s.budget.restarts for s in shards)
        snap["max_restarts"] = self.policy.max_restarts * self.num_workers
        snap["restarts_by_shard"] = [s.budget.restarts for s in shards]
        degraded = self.degraded()
        snap["degraded"] = None if degraded is None else degraded.as_dict()
        snap["terminal"] = (type(self._fatal).__name__
                            if self._fatal is not None else None)
        if self._bundle_info is not None:
            snap["snapshot"] = dict(self._bundle_info)
        return snap

    # ------------------------------------------------------------------ #
    # spawn / teardown
    # ------------------------------------------------------------------ #
    def _draw_schedule(self, shard: _Shard) -> Optional[FaultSchedule]:
        if self._fault_spec is None:
            return None
        spec = dict(self._fault_spec)
        base = int(spec.pop("seed", 0))
        derived = (base + _SHARD_SEED_STRIDE * shard.index
                   + shard.generation - 1)
        return FaultSchedule.from_seed(derived, **spec)

    def _spawn(self, shard: _Shard) -> None:
        shard.generation += 1
        shard.ready = False
        schedule = self._draw_schedule(shard)
        parent_cmd, child_cmd = self._mp.Pipe(duplex=True)
        parent_beat, child_beat = self._mp.Pipe(duplex=False)
        spec = {
            "manifest": self._bundle.manifest,
            "model_name": self._model_name,
            "kernel": self._kernel,
            "seed": self._seed,
            "engine_kwargs": dict(self._engine_kwargs),
            "pad_id": self.config.pad_id,
            "heartbeat_interval_s": self.policy.heartbeat_interval_s,
        }
        process = self._mp.Process(
            target=_worker_main,
            args=(spec, schedule, child_cmd, child_beat),
            name=f"shard-{shard.index}-gen{shard.generation}",
            daemon=True)
        process.start()
        child_cmd.close()
        child_beat.close()
        shard.process = process
        shard.cmd = parent_cmd
        shard.beat = parent_beat
        shard.last_beat = time.perf_counter()

    def _close_pipes(self, shard: _Shard) -> None:
        for conn in (shard.cmd, shard.beat):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        shard.cmd = None
        shard.beat = None

    def _kill(self, shard: _Shard) -> None:
        process = shard.process
        if process is None:
            return
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)

    def _shutdown_worker(self, shard: _Shard) -> None:
        process = shard.process
        if process is None:
            return
        try:
            if shard.cmd is not None:
                shard.cmd.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.kill()
            process.join(timeout=5.0)
        self._close_pipes(shard)
        shard.process = None
        shard.ready = False

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    def _classify_exit(self, exitcode: Optional[int]
                       ) -> Tuple[str, BaseException]:
        if exitcode is not None and exitcode < 0:
            return "worker_kill", WorkerCrashError(
                f"worker killed by signal {-exitcode}")
        if exitcode == EXIT_CORRUPT:
            return "snapshot_corrupt", SnapshotCorruptionError(
                "worker refused a corrupt snapshot view and exited")
        return "worker_crash", WorkerCrashError(
            f"worker exited unexpectedly with code {exitcode}")

    def _drain_beats(self, shard: _Shard) -> None:
        beat = shard.beat
        if beat is None:
            return
        try:
            while beat.poll(0):
                beat.recv()
                shard.last_beat = time.perf_counter()
        except (EOFError, OSError):
            pass  # dead worker; the exitcode check classifies it

    def _health_failure(self, shard: _Shard
                        ) -> Optional[Tuple[str, BaseException]]:
        exitcode = shard.process.exitcode
        if exitcode is not None:
            return self._classify_exit(exitcode)
        if (time.perf_counter() - shard.last_beat
                > self.policy.stall_timeout_s):
            return "worker_stall", WorkerStalledError(
                f"worker stopped heartbeating for > "
                f"{self.policy.stall_timeout_s:.2f}s")
        return None

    def _shard_loop(self, shard: _Shard) -> None:
        while not self._stopping.is_set() and not shard.dead:
            if not shard.ready:
                self._await_ready(shard)
                continue
            self._drain_beats(shard)
            failure = self._health_failure(shard)
            if failure is not None:
                self._handle_failure(shard, *failure, pending=[])
                continue
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_SECONDS)
            if self._stopping.is_set():
                if batch:
                    self.batcher.requeue(batch)
                return
            if not batch:
                continue
            live, keys = self._form_batch(batch)
            if not live:
                continue
            self._dispatch(shard, live, keys)

    def _await_ready(self, shard: _Shard) -> None:
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        while not self._stopping.is_set():
            message = None
            try:
                if shard.cmd.poll(self.policy.heartbeat_interval_s):
                    message = shard.cmd.recv()
            except (EOFError, OSError):
                pass
            if message is not None and message[0] == "ready":
                shard.ready = True
                shard.last_beat = time.perf_counter()
                self._set_health_gauges()
                return
            # A ("fatal", reason) message precedes a classifying exit;
            # fall through and let the exitcode name the failure.
            exitcode = shard.process.exitcode
            if exitcode is not None:
                self._handle_failure(shard, *self._classify_exit(exitcode),
                                     pending=[])
                return
            if time.perf_counter() > deadline:
                self._kill(shard)
                self._handle_failure(
                    shard, "worker_hang",
                    WorkerHungError(
                        f"worker not ready within {_READY_TIMEOUT_S:.0f}s"),
                    pending=[])
                return

    def _dispatch(self, shard: _Shard,
                  live: List[PendingRequest], keys: List[tuple]) -> None:
        shard.batch_counter += 1
        batch_id = shard.batch_counter
        forward_start = time.perf_counter()
        hang_deadline = forward_start + self.policy.hang_timeout_s
        try:
            shard.cmd.send(("infer", batch_id, keys))
        except (BrokenPipeError, OSError):
            shard.process.join(timeout=self.policy.hang_timeout_s)
            self._handle_failure(
                shard, *self._classify_exit(shard.process.exitcode),
                pending=live)
            return
        while True:
            message = None
            try:
                if shard.cmd.poll(self.policy.heartbeat_interval_s):
                    message = shard.cmd.recv()
            except (EOFError, OSError):
                pass  # classified below via exitcode
            if message is not None:
                kind = message[0]
                if kind == "ok" and message[1] == batch_id:
                    self._complete_batch(live, keys, message[2],
                                         forward_start)
                    return
                if kind == "err" and message[1] == batch_id:
                    for request in live:
                        request.set_exception(message[2])
                    return
                continue  # stale response from a superseded batch
            if self._stopping.is_set():
                # Shutdown mid-flight: hand the batch back; stop() fails
                # it (typed) from the drain.
                self.batcher.requeue(live)
                return
            exitcode = shard.process.exitcode
            if exitcode is not None:
                self._handle_failure(shard, *self._classify_exit(exitcode),
                                     pending=live)
                return
            self._drain_beats(shard)
            now = time.perf_counter()
            if now > hang_deadline:
                self._kill(shard)
                self._handle_failure(
                    shard, "worker_hang",
                    WorkerHungError(
                        f"worker hung > {self.policy.hang_timeout_s:.2f}s "
                        "inside a dispatched batch"),
                    pending=live)
                return
            if now - shard.last_beat > self.policy.stall_timeout_s:
                self._kill(shard)
                self._handle_failure(
                    shard, "worker_stall",
                    WorkerStalledError(
                        "worker stopped heartbeating for > "
                        f"{self.policy.stall_timeout_s:.2f}s mid-batch"),
                    pending=live)
                return

    def _handle_failure(self, shard: _Shard, event: str,
                        exc: BaseException,
                        pending: List[PendingRequest]) -> None:
        self.stats.record_event(event)
        self._kill(shard)
        self._close_pipes(shard)
        stranded = [r for r in pending if not r.done()]
        if stranded:
            # Head of the line: these were admitted first; the *other*
            # shards can serve them while this one respawns.
            self.batcher.requeue(stranded)
        if shard.budget.exhausted:
            self._degrade(shard, exc)
            return
        self.stats.record_event("restart")
        delay = shard.budget.next_backoff()
        if self._stopping.wait(delay):
            return
        self._spawn(shard)
        self._set_health_gauges()

    def _degrade(self, shard: _Shard, exc: BaseException) -> None:
        terminal: Optional[SupervisorExhaustedError] = None
        with self._degrade_lock:
            shard.dead = True
            if (self._fatal is None
                    and all(s.dead for s in self._shards)):
                terminal = SupervisorExhaustedError(
                    f"all {self.num_workers} shards exhausted their "
                    f"restart budgets "
                    f"({self.policy.max_restarts} each): {exc}")
                terminal.__cause__ = exc
                self._fatal = terminal
        self.stats.record_event("shard_degraded")
        self._set_health_gauges()
        if terminal is None:
            return
        self.stats.record_event("terminal")
        self.batcher.close()
        for request in self.batcher.drain():
            request.set_exception(terminal)

    def _set_health_gauges(self) -> None:
        shards = list(self._shards)
        self.stats.set_gauge(
            "live_workers",
            sum(1 for s in shards if not s.dead and s.ready))
        self.stats.set_gauge("degraded", any(s.dead for s in shards))
        bundle = self._bundle
        if bundle is not None:
            self.stats.set_gauge("snapshot_version", bundle.version)
            self.stats.set_gauge("snapshot_checksum",
                                 f"{bundle.checksum:#010x}")


def build_sharded_service(
    model_name: str = "tiny-base",
    kernel: str = "auto",
    seed: int = 0,
    config: ServiceConfig = ServiceConfig(),
    policy: RestartPolicy = RestartPolicy(),
    num_workers: int = 2,
    mp_context: str = "fork",
    fault_spec: Optional[dict] = None,
) -> ShardedInferenceService:
    """Construct a :class:`ShardedInferenceService` over a Softermax BERT
    encoder (see :func:`~repro.serving.service.build_encoder_model`); the
    same builder arguments rebuild the model inside every worker, which
    then rebinds to the published snapshot."""
    model = build_encoder_model(model_name=model_name, kernel=kernel,
                                seed=seed)
    return ShardedInferenceService(
        model, config, policy, num_workers=num_workers,
        model_name=model_name, kernel=kernel, seed=seed,
        mp_context=mp_context, fault_spec=fault_spec)
