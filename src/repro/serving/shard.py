"""The process executor: shard workers over one shared-memory snapshot.

:class:`ShardPool` plugs into :class:`~repro.serving.service.
InferenceService` (``shards=ShardPool(N, ...)``, or
``build_encoder_service(workers=N)``) and gives it N executor slots whose
forwards run in worker **processes** instead of a worker thread.  The
failure domain shrinks from "the server" to "one shard": a
segfault-grade worker death (SIGKILL included) costs one batch worth of
latency, never a dropped request and never the service.  Supervision --
restart budgets, requeue, degradation, the terminal error -- is the
service's one loop; the failure table is in :mod:`repro.serving.service`.

Memory stays O(1) in the worker count.  On every service start the pool
publishes the model's float64 parameter arrays **once** into a
checksummed :class:`~repro.serving.snapshot.SnapshotBundle`; each worker
attaches, verifies every CRC (refusing a corrupt segment with a typed
:class:`~repro.serving.snapshot.SnapshotCorruptionError` and a dedicated
exit code), rebinds its model to the read-only views zero-copy
(:func:`~repro.infer.plan.bind_snapshot_arrays`) and compiles its
inference plan over them
(:func:`~repro.nn.layers.frozen_array_snapshot` keeps read-only weights
uncopied) -- N plans, ONE copy of the weights.  A respawned worker
attaches the *same* published snapshot: no re-publish, no window where
another shard's attach could fail.

What :class:`ShardExecutor` adds to the slot interface:

* **liveness** -- a heartbeat pipe the worker beats on a timer thread;
  a worker whose beats stop while it is otherwise responsive is
  *stalled* (``policy.stall_timeout_s``);
* **death classification** -- ``Process.exitcode``: negative means a
  signal (``worker_kill``), :data:`EXIT_CORRUPT` means the worker
  refused its snapshot (``snapshot_corrupt``), anything else is a plain
  ``worker_crash``;
* **kill** -- a hung or stalled worker is SIGKILLed, not abandoned.

Chaos comes from the service's ``fault_spec``: each spawn draws its own
:meth:`~repro.serving.faults.FaultSchedule.for_spawn` schedule (per shard
and generation, the rule the in-thread executor follows too) and fires
it inside the worker.  Besides crash, hang and error faults, a worker
process can fire the process-grade kinds
(:data:`~repro.serving.faults.PROCESS_FAULT_KINDS`): ``kill`` SIGKILLs it
mid-batch, ``stall`` silences its heartbeat thread, ``corrupt`` verifies a
deliberately byte-flipped *copy* of the snapshot (the shared segment
itself stays pristine for the other shards).
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.infer.plan import bind_snapshot_arrays, snapshot_arrays
from repro.serving.batcher import WorkerCrashError
from repro.serving.faults import FaultSchedule, FaultyModel
from repro.serving.service import build_encoder_model
from repro.serving.snapshot import (
    SnapshotBundle,
    SnapshotCorruptionError,
    verify_manifest,
)
from repro.serving.supervisor import (
    RestartPolicy,
    WorkerHungError,
    WorkerStalledError,
)

#: How long a freshly spawned worker gets to attach + build its model
#: before the supervisor declares the spawn failed (generous: a plan
#: compile on a loaded CI box can take seconds).
_READY_TIMEOUT_S = 60.0

#: Exit code a worker uses for a worker-fatal model error
#: (:class:`~repro.serving.batcher.WorkerCrashError` escaping a forward).
EXIT_CRASH = 3

#: Exit code a worker uses after refusing a corrupt snapshot view.
EXIT_CORRUPT = 13


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
# parent side
# --------------------------------------------------------------------------- #
class ShardPool:
    """N process executors over one shared-memory snapshot of the model.

    The service's model is the parent-side instance: :meth:`open`
    publishes its parameters (once per service start) and the parent never
    runs a forward.  Every worker rebuilds its model from
    ``model_name``/``kernel``/``seed`` and binds it to the snapshot.
    """

    def __init__(self, workers: int, model_name: str = "tiny-base",
                 kernel: str = "auto", seed: int = 0,
                 mp_context: str = "fork") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        import multiprocessing

        self.workers = workers
        self._model = {"model_name": model_name, "kernel": kernel,
                       "seed": seed}
        self._mp = multiprocessing.get_context(mp_context)
        self._bundle: Optional[SnapshotBundle] = None
        # Outlives close(): ``run_daemon`` snapshots after stop().
        self._info: Optional[dict] = None

    def open(self, service) -> List["ShardExecutor"]:
        """Publish ``service.model`` and return one executor per worker."""
        self._bundle = SnapshotBundle.publish(snapshot_arrays(service.model))
        self._info = self._bundle.describe()
        spec = {
            "manifest": self._bundle.manifest,
            **self._model,
            "engine_kwargs": dict(service._engine_kwargs),
            "pad_id": service.config.pad_id,
            "heartbeat_interval_s": service.policy.heartbeat_interval_s,
        }
        return [ShardExecutor(index, spec, self._mp, service.policy,
                              service.fault_spec)
                for index in range(self.workers)]

    def describe(self) -> Optional[dict]:
        """The published snapshot's summary (``None`` before any start)."""
        return None if self._info is None else dict(self._info)

    def close(self) -> None:
        if self._bundle is not None:
            self._bundle.close()
            self._bundle = None


class ShardExecutor:
    """One shard worker process; :meth:`start` spawns a new generation."""

    def __init__(self, index: int, spec: dict, mp, policy: RestartPolicy,
                 fault_spec: Optional[dict]) -> None:
        self.index = index
        self._spec = spec
        self._mp = mp
        self._policy = policy
        self._fault_spec = fault_spec
        self.process = None
        self._cmd = None
        self._beat = None
        self._generation = 0
        self._batch_id = 0
        self._last_beat = time.perf_counter()

    def start(self) -> None:
        self._generation += 1
        parent_cmd, child_cmd = self._mp.Pipe(duplex=True)
        parent_beat, child_beat = self._mp.Pipe(duplex=False)
        schedule = (None if self._fault_spec is None
                    else FaultSchedule.for_spawn(self._fault_spec, self.index,
                                                 self._generation))
        process = self._mp.Process(
            target=_worker_main,
            args=(self._spec, schedule, child_cmd, child_beat),
            name=f"shard-{self.index}-gen{self._generation}", daemon=True)
        process.start()
        child_cmd.close()
        child_beat.close()
        self.process = process
        self._cmd = parent_cmd
        self._beat = parent_beat
        self._last_beat = time.perf_counter()

    def await_ready(self, stopping: threading.Event):
        """Wait for the worker's ready handshake; a failure tuple if it
        dies or does not report in time, ``None`` once ready (or when
        ``stopping`` is set)."""
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        while not stopping.is_set():
            message = None
            try:
                if self._cmd.poll(self._policy.heartbeat_interval_s):
                    message = self._cmd.recv()
            except (EOFError, OSError):
                pass
            if message is not None and message[0] == "ready":
                self._last_beat = time.perf_counter()
                return None
            # A ("fatal", reason) message precedes a classifying exit;
            # fall through and let the exitcode name the failure.
            exitcode = self.process.exitcode
            if exitcode is not None:
                return self._classify_exit(exitcode)
            if time.perf_counter() > deadline:
                return "worker_hang", WorkerHungError(
                    f"worker not ready within {_READY_TIMEOUT_S:.0f}s")
        return None

    def send(self, keys):
        self._batch_id += 1
        try:
            self._cmd.send(("infer", self._batch_id, keys))
        except (BrokenPipeError, OSError):
            self.process.join(timeout=self._policy.hang_timeout_s)
            return self._classify_exit(self.process.exitcode)
        return None

    def poll(self, timeout: float):
        try:
            if self._cmd.poll(timeout):
                message = self._cmd.recv()
                if (message[0] in ("ok", "err")
                        and message[1] == self._batch_id):
                    return message[0], message[2]
        except (EOFError, OSError):
            pass  # a dead worker; health() classifies it
        return None  # nothing yet, or a superseded batch's reply

    def health(self):
        beat = self._beat
        try:
            while beat.poll(0):
                beat.recv()
                self._last_beat = time.perf_counter()
        except (EOFError, OSError):
            pass  # dead worker; the exitcode check classifies it
        exitcode = self.process.exitcode
        if exitcode is not None:
            return self._classify_exit(exitcode)
        if (time.perf_counter() - self._last_beat
                > self._policy.stall_timeout_s):
            return "worker_stall", WorkerStalledError(
                f"worker stopped heartbeating for > "
                f"{self._policy.stall_timeout_s:.2f}s")
        return None

    @staticmethod
    def _classify_exit(exitcode: Optional[int]
                       ) -> Tuple[str, BaseException]:
        if exitcode is not None and exitcode < 0:
            return "worker_kill", WorkerCrashError(
                f"worker killed by signal {-exitcode}")
        if exitcode == EXIT_CORRUPT:
            return "snapshot_corrupt", SnapshotCorruptionError(
                "worker refused a corrupt snapshot view and exited")
        return "worker_crash", WorkerCrashError(
            f"worker exited unexpectedly with code {exitcode}")

    def _close_pipes(self) -> None:
        for conn in (self._cmd, self._beat):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        self._cmd = None
        self._beat = None

    def kill(self) -> None:
        process = self.process
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
        self._close_pipes()

    def close(self, timeout: float) -> None:
        """Ask the worker to exit; SIGKILL it if it does not."""
        process = self.process
        if process is None:
            return
        try:
            if self._cmd is not None:
                self._cmd.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout=timeout)
        self.kill()
        self.process = None
