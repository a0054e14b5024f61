"""Restart policy, restart budget and the supervision error types.

The supervision loop itself lives in :class:`~repro.serving.service.
InferenceService` (one loop per executor slot, the same code for the
in-thread and the process executor); this module holds what that loop is
configured and accounted with:

* :class:`RestartPolicy` -- bounded restarts, exponential backoff with
  seeded jitter, and the hang/stall/heartbeat timeouts;
* :class:`RestartBudget` -- one slot's seeded restart accounting;
* the typed failures: :class:`WorkerHungError`, :class:`WorkerStalledError`
  and the terminal :class:`SupervisorExhaustedError`.

Correctness across restarts rides two mechanisms:

* :class:`~repro.serving.batcher.PendingRequest` completion is
  first-wins, so a request that raced a failure is answered exactly once.
* Executor generations: every restart gets fresh channels (a new reply
  queue or a new pipe pair), so an abandoned worker that limps home later
  answers into a channel nobody reads -- it can never complete a request
  its successor owns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.serving.batcher import WorkerCrashError


class SupervisorExhaustedError(RuntimeError):
    """The restart budget is spent; the service is terminally failed."""


class WorkerHungError(WorkerCrashError):
    """The worker exceeded the hang timeout inside a model forward."""


class WorkerStalledError(WorkerCrashError):
    """The worker stopped heartbeating past the stall timeout."""


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded-restart policy with exponential backoff and seeded jitter.

    ``max_restarts`` bounds worker replacements per executor slot over the
    service lifetime (restart ``n`` backs off ``backoff_initial_ms *
    multiplier**(n-1)`` milliseconds, capped at ``backoff_max_ms``, +/-
    ``jitter_fraction``).  The jitter RNG is seeded (``seed``) so
    supervised runs are reproducible end to end -- fault schedules and
    restart timing alike.
    """

    max_restarts: int = 5
    backoff_initial_ms: float = 20.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 500.0
    jitter_fraction: float = 0.1
    hang_timeout_s: float = 2.0
    heartbeat_interval_s: float = 0.02
    seed: int = 0
    #: How long a process worker may go without a heartbeat before the
    #: supervisor declares it stalled (distinct from ``hang_timeout_s``,
    #: which bounds one dispatched batch).  Unused by the in-thread
    #: executor, whose worker has no separate liveness signal to lose.
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
    """Seeded bounded-restart accounting for one executor slot.

    Counts replacements against ``policy.max_restarts`` and hands out the
    matching backoff delays.  Pass ``seed`` to derive distinct but
    reproducible jitter streams per slot (the service uses
    ``policy.seed + slot_index``).
    """

    def __init__(self, policy: RestartPolicy,
                 seed: Optional[int] = None) -> None:
        self.policy = policy
        self._rng = random.Random(policy.seed if seed is None else seed)
        self.restarts = 0

    @property
    def exhausted(self) -> bool:
        """True once the next failure must degrade, not restart."""
        return self.restarts >= self.policy.max_restarts

    def next_backoff(self) -> float:
        """Consume one restart; returns the pre-respawn delay in seconds."""
        self.restarts += 1
        return self.policy.backoff_seconds(self.restarts, self._rng)
