"""In-memory span tracer for the traced benchmark run.

Every span is recorded from outside the library, by wrapping public entry
points of a live model:

* ``encode_ragged`` on the model instance (one span per forward);
* each ``PlanOp.fn`` of the model's compiled :class:`InferencePlan`;
* the softmax variant's ``forward_fn``, installed with
  ``set_softmax_variant`` before the plan is compiled, so the timed kernel
  is what the attention core calls.

Spans are plain tuples appended to lists (no locks: the in-thread service
runs every forward on one worker thread) and are written out only when the
run ends.  :meth:`Tracer.layer_metrics` folds them into the plan, attention
and kernel metrics named in ``layers.json``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import defaultdict

from repro.infer.plan import PlanOp
from repro.kernels import auto_kernel_choice

clock = time.perf_counter

#: Plan-op kinds, keyed by the last component of the op name.  Release ops
#: (``*.free``) move no data; they count with the merge/residual glue.
_OP_KIND_BY_SUFFIX = {
    "embeddings": "embeddings",
    "embedding_norm": "layer_norm",
    "attention_norm": "layer_norm",
    "output_norm": "layer_norm",
    "query": "linear",
    "key": "linear",
    "value": "linear",
    "output": "linear",
    "qkv_fused": "linear",
    "expand": "linear",
    "contract": "linear",
    "gelu": "gelu",
    "core": "attention_core",
    "merge": "merge_residual",
    "residual1": "merge_residual",
    "residual2": "merge_residual",
    "free": "merge_residual",
}

#: Kinds reported as ``plan.<kind>_ms`` (the core is ``attention.core_ms``).
_PLAN_KINDS = ("embeddings", "layer_norm", "linear", "gelu", "merge_residual")

#: float64 bytes read plus written per softmax element (input + output).
_KERNEL_BYTES_PER_ELEMENT = 16


def op_kind(name: str) -> str:
    kind = _OP_KIND_BY_SUFFIX.get(name.rsplit(".", 1)[-1])
    if kind is None:
        raise KeyError(f"unclassified plan op {name!r}")
    return kind


class Tracer:
    """Collects forward, plan-op and kernel spans of one model."""

    def __init__(self) -> None:
        #: (forward_id, start, end, batch_size, length_groups)
        self.forwards = []
        #: (op_name, start, end, forward_id)
        self.ops = []
        #: (forward_id, rows, length, start, end)
        self.kernels = []
        self._forward = -1

    def reset(self) -> None:
        """Drop the spans recorded so far (warm-up forwards)."""
        del self.forwards[:], self.ops[:], self.kernels[:]

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self, model) -> None:
        """Time ``model``'s softmax, plan ops and ``encode_ragged``.

        The timed variant goes in through ``set_softmax_variant`` (which
        drops compiled plans), then the default plan is compiled and its op
        list swapped for timed wrappers of the same functions.
        """
        variant = model.encoder.layers[0].attention.softmax_variant
        model.set_softmax_variant(self._timed_variant(variant))
        plan = model.inference_plan()
        plan.ops = [PlanOp(op.name, self._timed_op(op.name, op.fn))
                    for op in plan.ops]
        encode = model.encode_ragged

        def traced_encode(sequences, *args, **kwargs):
            self._forward += 1
            forward_id = self._forward
            start = clock()
            outputs = encode(sequences, *args, **kwargs)
            self.forwards.append((forward_id, start, clock(), len(sequences),
                                  len({len(s) for s in sequences})))
            return outputs

        model.encode_ragged = traced_encode

    def _timed_variant(self, variant):
        forward = variant.forward_fn
        kernels = self.kernels

        def timed_forward(scores, out=None, scratch=None):
            start = clock()
            probs = forward(scores, out=out, scratch=scratch)
            end = clock()
            length = scores.shape[-1]
            kernels.append((self._forward, scores.size // length, length,
                            start, end))
            return probs

        return dataclasses.replace(variant, forward_fn=timed_forward)

    def _timed_op(self, name, fn):
        ops = self.ops

        def timed_op(ctx) -> None:
            start = clock()
            fn(ctx)
            ops.append((name, start, clock(), self._forward))

        return timed_op

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def layer_metrics(self) -> dict:
        """Per-forward plan, attention and kernel metrics (ms unless named
        otherwise).  Requires at least one traced forward."""
        forwards = len(self.forwards)
        if forwards == 0:
            raise RuntimeError("no traced forward to report")
        forward_s = sum(end - start for _, start, end, _, _ in self.forwards)
        requests = sum(batch for _, _, _, batch, _ in self.forwards)
        by_kind = defaultdict(float)
        for name, start, end, _ in self.ops:
            by_kind[op_kind(name)] += end - start
        op_s = sum(by_kind.values())
        kernel_s = sum(end - start for *_, start, end in self.kernels)
        calls = len(self.kernels)
        elements = sum(rows * length for _, rows, length, _, _ in self.kernels)
        native = sum(1 for _, rows, length, _, _ in self.kernels
                     if auto_kernel_choice(rows, length) == "softermax-native")
        per_forward_ms = 1e3 / forwards
        metrics = {
            "kernel.ms_per_forward": kernel_s * per_forward_ms,
            "kernel.calls_per_forward": calls / forwards,
            "kernel.elements_per_call": elements / calls if calls else 0.0,
            "kernel.ns_per_element": (kernel_s * 1e9 / elements
                                      if elements else 0.0),
            "kernel.native_frac": native / calls if calls else 0.0,
            "kernel.mb_moved_per_forward": (
                elements * _KERNEL_BYTES_PER_ELEMENT / 1e6 / forwards),
            "attention.core_ms": by_kind["attention_core"] * per_forward_ms,
            "attention.staging_ms": ((by_kind["attention_core"] - kernel_s)
                                     * per_forward_ms),
            "attention.length_groups_per_forward": (
                sum(groups for *_, groups in self.forwards) / forwards),
            "plan.forward_ms": forward_s * per_forward_ms,
            "plan.forward_ms_per_req": forward_s * 1e3 / requests,
            "plan.op_coverage_frac": op_s / forward_s,
        }
        for kind in _PLAN_KINDS:
            metrics[f"plan.{kind}_ms"] = by_kind[kind] * per_forward_ms
        return metrics

    def forward_seconds(self) -> float:
        return sum(end - start for _, start, end, _, _ in self.forwards)

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line: kind, name, start,
        end, parent (the forward id), extra fields."""
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for forward_id, start, end, batch, groups in self.forwards:
                stream.write(json.dumps(["forward", "encode_ragged", start,
                                         end, forward_id, batch, groups]))
                stream.write("\n")
            for name, start, end, forward_id in self.ops:
                stream.write(json.dumps(["op", name, start, end,
                                         forward_id]))
                stream.write("\n")
            for forward_id, rows, length, start, end in self.kernels:
                stream.write(json.dumps(["kernel", "softmax", start, end,
                                         forward_id, rows, length]))
                stream.write("\n")
