"""Dynamic-batching inference serving on the adaptive Softermax engine.

``repro.kernels`` makes a single softmax call fast; this subpackage turns
single-tensor calls into a *served* workload, the regime the Softermax
paper targets (transformer inference at datacenter request rates):

* :mod:`repro.serving.batcher` -- the dynamic micro-batcher: a bounded
  request queue plus ``max_batch_size`` / ``max_wait_ms`` coalescing.
* :mod:`repro.serving.service` -- :class:`InferenceService`: accepts
  per-request token sequences, coalesces them into batches, runs
  them through the BERT encoder / adaptive Softermax kernel as one
  forward, and returns per-request results.
* :mod:`repro.serving.cache` -- the LRU response cache.
* :mod:`repro.serving.stats` -- latency/throughput accounting (p50/p99,
  req/s, batch-size distribution, robustness event counters).
* :mod:`repro.serving.supervisor` -- :class:`SupervisedService`: the
  inference worker under actor-style supervision (heartbeat health
  checks, crash/hang restarts with in-flight requeue, bounded restarts
  with exponential backoff + seeded jitter).
* :mod:`repro.serving.daemon` -- the asyncio TCP front end: a
  line-delimited JSON protocol multiplexing many open-loop clients into
  the micro-batcher, with per-request deadlines and typed overload
  responses.
* :mod:`repro.serving.faults` -- deterministic fault injection (seeded
  schedules of worker crashes, hangs, model errors, kernel-pool death,
  plus the process-grade kill/stall/corrupt kinds) driving both the test
  suite and ``loadtest --chaos``.
* :mod:`repro.serving.snapshot` -- checksummed, versioned shared-memory
  model snapshots (:class:`SnapshotBundle`): published once, attached
  zero-copy by every shard worker, verified CRC-by-CRC before serving.
* :mod:`repro.serving.shard` -- :class:`ShardedInferenceService`: the
  same service surface over N supervised worker *processes* sharing one
  snapshot -- SIGKILL-grade crash isolation, heartbeat stall detection,
  per-shard restart budgets with graceful degradation.

The load-bearing guarantee is **bit-transparency**: a request's answer is
bitwise identical whether it rode alone or inside a coalesced batch (see
:meth:`repro.models.bert.BertEncoderModel.encode_ragged`), so batching is
purely a throughput knob and the response cache can never serve a value
that differs from a fresh computation.
"""

from repro.serving.batcher import (
    DeadlineExceededError,
    MicroBatcher,
    OverloadedError,
    PendingRequest,
    QueueFullError,
    RequestCancelledError,
    ServiceClosedError,
    WorkerCrashError,
)
from repro.serving.cache import LRUCache
from repro.serving.faults import Fault, FaultSchedule, FaultyModel
from repro.serving.service import (
    InferenceService,
    ServiceConfig,
    build_encoder_model,
    build_encoder_service,
)
from repro.serving.shard import (
    DegradedService,
    ShardedInferenceService,
    WorkerStalledError,
    build_sharded_service,
)
from repro.serving.snapshot import SnapshotBundle, SnapshotCorruptionError
from repro.serving.stats import LatencyStats, percentile
from repro.serving.supervisor import (
    RestartBudget,
    RestartPolicy,
    SupervisedService,
    SupervisorExhaustedError,
    WorkerHungError,
    build_supervised_service,
)

__all__ = [
    "MicroBatcher",
    "PendingRequest",
    "QueueFullError",
    "ServiceClosedError",
    "DeadlineExceededError",
    "OverloadedError",
    "RequestCancelledError",
    "WorkerCrashError",
    "WorkerHungError",
    "SupervisorExhaustedError",
    "LRUCache",
    "InferenceService",
    "ServiceConfig",
    "build_encoder_model",
    "build_encoder_service",
    "RestartPolicy",
    "RestartBudget",
    "SupervisedService",
    "build_supervised_service",
    "SnapshotBundle",
    "SnapshotCorruptionError",
    "ShardedInferenceService",
    "DegradedService",
    "WorkerStalledError",
    "build_sharded_service",
    "Fault",
    "FaultSchedule",
    "FaultyModel",
    "LatencyStats",
    "percentile",
]
