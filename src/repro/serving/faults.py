"""Deterministic fault injection for the serving stack.

The supervisor's guarantees -- zero dropped requests across worker
crashes, bounded tail latency under hangs -- are only guarantees if they
are *measured*, so both the test suite and the ``loadtest --chaos`` mode
drive the service through this layer instead of hand-rolled monkeypatches.
Everything is seeded: the same ``FaultSchedule.from_seed(seed, ...)``
produces the same faults at the same forward-call indices every run, which
makes chaos failures reproducible by seed alone.

Fault kinds (per model forward call):

``"crash"``
    Raise :class:`InjectedWorkerCrash` (a
    :class:`~repro.serving.batcher.WorkerCrashError`): the worker dies,
    the supervisor restarts it and requeues the in-flight batch.
``"hang"``
    Sleep ``seconds`` before computing -- long enough and the supervisor
    declares the worker hung, abandons it and restarts; the abandoned
    thread eventually finishes, which exercises the first-wins completion
    race.
``"error"``
    Raise :class:`InjectedModelError` (a plain ``RuntimeError``): the
    batch fails typed but the worker survives -- the PR 3 isolation
    semantics, distinct from a crash.

Process-grade fault kinds (shard worker processes,
:mod:`repro.serving.shard`; a service built with a nonzero rate for one
of them and no shards raises ``ValueError``):

``"kill"``
    The worker SIGKILLs itself mid-batch -- the hardest crash there is
    (no cleanup, negative ``Process.exitcode``); the process supervisor
    must requeue the in-flight batch and respawn against the same
    snapshot.
``"stall"``
    The worker silences its heartbeat thread but keeps serving -- a
    liveness failure without a crash; the supervisor's stall detection
    replaces it.
``"corrupt"``
    The worker verifies a deliberately byte-flipped *copy* of its
    snapshot view, driving the typed
    :class:`~repro.serving.snapshot.SnapshotCorruptionError` refusal
    path (the real shared segment is never touched -- the replacement
    worker attaches the pristine snapshot and recovers).

A service takes its chaos as a ``fault_spec`` -- the keyword dict of
:meth:`FaultSchedule.from_seed` -- and every worker it starts, thread or
process, fires the schedule :meth:`FaultSchedule.for_spawn` draws for its
slot and generation.

New kinds are appended to :data:`FAULT_KINDS` so schedules drawn by
:meth:`FaultSchedule.from_seed` with the original kinds are unchanged --
one uniform draw per call index, thresholds accumulated in tuple order.
For the same reason a kind is only ever removed while no caller gives it
a nonzero rate: its term in the threshold sum is then zero.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batcher import WorkerCrashError

#: The injectable fault kinds, in schedule-draw priority order.  New
#: kinds append at the end: :meth:`FaultSchedule.from_seed` accumulates
#: thresholds in this order, so appending (with a default rate of 0)
#: never moves an existing kind's faults to different call indices.
FAULT_KINDS = ("crash", "hang", "error", "kill", "stall", "corrupt")

#: The process-grade subset: only meaningful where the worker is a
#: process (``repro.serving.shard``); :class:`FaultyModel` requires a
#: matching process hook to fire one.
PROCESS_FAULT_KINDS = ("kill", "stall", "corrupt")

#: Multiplier separating per-slot fault-schedule seed streams; any
#: constant larger than plausible restart counts works, prime by habit.
_SLOT_SEED_STRIDE = 1009


class InjectedWorkerCrash(WorkerCrashError):
    """A scheduled worker-fatal crash (restart + requeue path)."""


class InjectedModelError(RuntimeError):
    """A scheduled per-batch model error (fail-the-batch path)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: fires on the ``call_index``-th model forward."""

    call_index: int
    kind: str
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.call_index < 0:
            raise ValueError("call_index must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


class FaultSchedule:
    """A deterministic call-index -> fault mapping.

    Build one explicitly from :class:`Fault` entries, or draw one with
    :meth:`from_seed` -- the latter is a pure function of its arguments,
    so a chaos run is reproducible from its recorded seed.
    """

    def __init__(self, faults: Iterable[Fault] = (),
                 seed: Optional[int] = None) -> None:
        self._by_index: Dict[int, Fault] = {}
        for fault in faults:
            if fault.call_index in self._by_index:
                raise ValueError(
                    f"two faults scheduled at call {fault.call_index}")
            self._by_index[fault.call_index] = fault
        self.seed = seed

    @classmethod
    def from_seed(cls, seed: int, num_calls: int,
                  crash_rate: float = 0.0, hang_rate: float = 0.0,
                  error_rate: float = 0.0, kill_rate: float = 0.0,
                  stall_rate: float = 0.0, corrupt_rate: float = 0.0,
                  hang_seconds: float = 0.25,
                  skip_first: int = 1) -> "FaultSchedule":
        """Draw a schedule over ``num_calls`` forward calls.

        One uniform draw per call index decides that call's fate, so the
        fault at index ``i`` does not depend on the rates of other kinds
        changing the draw *sequence* -- tweaking ``hang_rate`` never moves
        a crash to a different call (and the process-grade rates, drawn
        after the original kinds, never move any of them).  ``skip_first``
        leaves the first calls fault-free (warmup requests should measure
        the healthy path).
        """
        rates = {"crash": crash_rate, "hang": hang_rate,
                 "error": error_rate, "kill": kill_rate, "stall": stall_rate,
                 "corrupt": corrupt_rate}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1]")
        if sum(rates.values()) > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        rng = np.random.default_rng(seed)
        faults: List[Fault] = []
        for index in range(num_calls):
            draw = float(rng.random())
            if index < skip_first:
                continue
            threshold = 0.0
            for kind in FAULT_KINDS:
                threshold += rates[kind]
                if draw < threshold:
                    faults.append(Fault(
                        call_index=index, kind=kind,
                        seconds=hang_seconds if kind == "hang" else 0.0))
                    break
        return cls(faults, seed=seed)

    @classmethod
    def for_spawn(cls, spec: dict, slot: int,
                  generation: int) -> "FaultSchedule":
        """The schedule of executor ``slot``'s ``generation``-th worker.

        ``spec`` is the keyword dict of :meth:`from_seed`; its ``seed`` is
        offset per slot and per generation (1-based), so a replacement
        worker does not replay the faults that killed its predecessor
        while the whole run stays reproducible from the base seed.  The
        first worker of slot 0 draws from the base seed itself.
        """
        kwargs = dict(spec)
        base = int(kwargs.pop("seed", 0))
        return cls.from_seed(base + _SLOT_SEED_STRIDE * slot + generation - 1,
                             **kwargs)

    def fault_for(self, call_index: int) -> Optional[Fault]:
        return self._by_index.get(call_index)

    def __len__(self) -> int:
        return len(self._by_index)

    def faults(self) -> List[Fault]:
        return [self._by_index[i] for i in sorted(self._by_index)]

    def summary(self) -> dict:
        """JSON-friendly description recorded next to chaos measurements."""
        counts: Dict[str, int] = {}
        for fault in self._by_index.values():
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return {
            "seed": self.seed,
            "total": len(self._by_index),
            "counts": counts,
            "faults": [{"call_index": f.call_index, "kind": f.kind,
                        "seconds": f.seconds} for f in self.faults()],
        }


class FaultyModel:
    """A model wrapper that fires a :class:`FaultSchedule` on its forwards.

    Duck-types the slice of the encoder interface the service uses
    (``encode_ragged``, ``eval``, ``config``); every ``encode_ragged``
    call consumes one schedule index (thread-safe counter) and fires the
    scheduled fault, if any, *before* delegating to the wrapped model --
    so a crash never half-computes and a hang models a stalled, not a
    corrupted, worker.  Fired faults are logged in :attr:`injected` for
    assertions and benchmark records.
    """

    def __init__(self, model, schedule: FaultSchedule,
                 sleep=time.sleep, process_hooks: Optional[dict] = None
                 ) -> None:
        self.inner = model
        self.schedule = schedule
        self._sleep = sleep
        # kind -> callable(Fault) for the process-grade kinds ("kill",
        # "stall", "corrupt"): only a process worker can SIGKILL itself or
        # silence a heartbeat pipe, so the shard worker supplies these.
        # A schedule that fires a process-grade fault without a matching
        # hook is a configuration error, not a silent no-op.
        self._process_hooks = dict(process_hooks or {})
        self._lock = threading.Lock()
        self._calls = 0
        self.injected: List[Fault] = []

    @property
    def config(self):
        return getattr(self.inner, "config", None)

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def eval(self) -> "FaultyModel":
        if hasattr(self.inner, "eval"):
            self.inner.eval()
        return self

    def encode_ragged(self, sequences: Sequence[Sequence[int]],
                      pad_id: int = 0, **kwargs):
        with self._lock:
            index = self._calls
            self._calls += 1
            fault = self.schedule.fault_for(index)
            if fault is not None:
                self.injected.append(fault)
        if fault is not None:
            if fault.kind == "crash":
                raise InjectedWorkerCrash(
                    f"injected worker crash at forward call {index}")
            if fault.kind == "error":
                raise InjectedModelError(
                    f"injected model error at forward call {index}")
            if fault.kind == "hang":
                self._sleep(fault.seconds)
            elif fault.kind in PROCESS_FAULT_KINDS:
                hook = self._process_hooks.get(fault.kind)
                if hook is None:
                    raise RuntimeError(
                        f"process-grade fault {fault.kind!r} scheduled at "
                        f"call {index} but this worker has no "
                        f"{fault.kind!r} hook (process faults need a "
                        "sharded-serving worker process)")
                # "kill" never returns; "corrupt" raises the typed
                # refusal; "stall" returns and the forward proceeds
                # (a stalled worker keeps computing -- only its
                # liveness signal dies).
                hook(fault)
        return self.inner.encode_ragged(sequences, pad_id=pad_id, **kwargs)
