"""Graph-free inference engine (the serving fast path).

The kernel layer made the Softermax softmax fast and the serving layer
batches requests; this subpackage removes the remaining per-request cost:
the autograd machinery of the encoder forward itself.

* :mod:`repro.infer.plan` -- :class:`InferencePlan`: compile a trained
  module tree into a flat list of plain-NumPy ops (weights snapshotted,
  frozen fake-quantizers pre-applied, optionally a fused Q/K/V projection
  GEMM) and execute it with zero Tensor/backward-closure overhead.  The
  default plan is **bit-transparent**: it replays the exact float64 op
  sequence of the Tensor path.  Ragged batches run padding-free, as
  length-sorted packed token rows (:meth:`InferencePlan.run_ragged`).
* :mod:`repro.infer.arena` -- :class:`WorkspaceArena`: shape-keyed,
  reusable scratch buffers (row-capacity buckets for packed registers)
  threaded through the ``*_infer`` functional variants via ``out=``, so
  steady-state serving does no per-request large intermediate
  allocations.

Select the engine per call (``BertEncoderModel.encode(...,
engine="plan")``) or per service (:class:`repro.serving.ServiceConfig`
defaults to the plan engine).
"""

from repro.infer.arena import WorkspaceArena
from repro.infer.plan import (
    INPUT_HIDDEN,
    INPUT_IDS,
    ExecutionContext,
    InferencePlan,
    PlanBuilder,
    PlanOp,
)

__all__ = [
    "WorkspaceArena",
    "ExecutionContext",
    "InferencePlan",
    "PlanBuilder",
    "PlanOp",
    "INPUT_IDS",
    "INPUT_HIDDEN",
]
