"""Graph-free inference plans: compile a Module tree to a flat op list.

The autograd substrate makes every eval-mode forward pay for training
machinery it never uses: each ``Linear``/``LayerNorm``/GELU/residual wraps
arrays in :class:`~repro.nn.tensor.Tensor`, records backward closures
(parameters require grad even in eval mode, so the whole graph is built),
and allocates fresh float64 temporaries per op, per layer, per call.
:class:`InferencePlan` removes all of it:

* **Compile once** -- :meth:`InferencePlan.from_model` walks the module
  tree through its ``export_plan`` hooks, snapshots every weight (with
  frozen fake-quantizers pre-applied, and Q/K/V optionally concatenated
  for a fused projection GEMM), and emits an ordered list of
  :class:`PlanOp` closures over a flat register file.
* **Execute with arena buffers** -- ops acquire their outputs from a
  :class:`~repro.infer.arena.WorkspaceArena` and release dead registers
  immediately, so steady-state serving reuses the same scratch buffers
  across layers and across calls.
* **Padding-free ragged batches** -- :meth:`InferencePlan.run_ragged`
  stable-sorts the sequences by length and feeds the ops one ``(tokens,
  hidden)`` matrix with no pad rows, each length group a contiguous block
  of rows.  Per-token ops (LayerNorm, linear, GELU, residuals) work on any
  leading shape; the attention core stages each group with one copy per
  operand (:func:`repro.nn.functional.packed_attention`).
* **Bit-transparent by construction** -- the default plan replays the
  exact float64 NumPy call sequence of the Tensor path (see the
  ``*_infer`` variants in :mod:`repro.nn.functional`), so plan outputs are
  bitwise identical to the graph engine and every golden/serving bitwise
  test pins the plan automatically.  The opt-in ``fuse_qkv`` projection
  trades that guarantee for one GEMM instead of three (mathematically
  identical, tolerance-tested).

Snapshot semantics: a plan is frozen at compile time.  Later
``load_state_dict`` / ``set_softmax_variant`` / quantizer changes do NOT
flow into an existing plan -- recompile (``BertEncoderModel`` invalidates
its cached plans on both mutations).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.infer.arena import WorkspaceArena
from repro.kernels.workspace import KernelWorkspace
from repro.nn import functional as F

#: Reserved register names for runtime inputs.
INPUT_IDS = "input_ids"
INPUT_HIDDEN = "hidden_in"
#: Reserved register holding a packed execution's per-token position ids.
INPUT_POSITIONS = "positions_in"

#: Fewest rows of a packed token matrix built from sequences.  One row
#: would route the per-token GEMMs through BLAS's single-row (gemv) path,
#: whose accumulation differs from the gemm path taken at any other row
#: count -- breaking bitwise transparency between a solo length-1 request
#: and the same request inside a batch.  Extra rows are pad rows.
MIN_PACKED_ROWS = 2


def pack_lengths(lengths: Sequence[int]) -> Tuple[list, tuple, list]:
    """Packed layout of sequences with the given token counts.

    Sequences are stable-sorted by length, so each length group is one
    contiguous block of rows.  Returns ``(order, groups, offsets)``: the
    sorted sequence indices, each group's ``(start_row, count, length)``,
    and each sequence's first row (in input order).
    """
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    groups: list = []
    offsets = [0] * len(lengths)
    row = 0
    for index in order:
        length = lengths[index]
        if groups and groups[-1][2] == length:
            groups[-1][1] += 1
        else:
            groups.append([row, 1, length])
        offsets[index] = row
        row += length
    return order, tuple(tuple(group) for group in groups), offsets


@dataclass(frozen=True)
class PlanOp:
    """One step of a compiled plan: a named closure over the context."""

    name: str
    fn: Callable[["ExecutionContext"], None]


class ExecutionContext:
    """Mutable state of one plan execution: registers + buffer ownership.

    ``regs`` maps register names to arrays.  ``owned`` marks registers
    whose buffers were acquired from the arena (caller inputs and views
    are not owned and are never released to the pool).  Two layouts:

    * padded -- ``(batch, seq, ...)`` registers; ``mask`` is the optional
      additive attention mask and ``positions`` the broadcast position ids;
    * packed -- ``(rows, ...)`` registers of length-sorted tokens; ``groups``
      holds each length group's ``(start_row, count, length)`` (attention
      cores switch to exact masking on it) and ``positions`` each row's
      position id.

    ``scratch`` is the plan's kernel workspace
    (:class:`~repro.kernels.workspace.KernelWorkspace`): attention ops
    pass it to the softmax kernels so their internal temporaries ride the
    same arena as the register file.
    """

    __slots__ = ("regs", "arena", "owned", "mask", "groups", "positions",
                 "scratch")

    def __init__(self, arena: WorkspaceArena,
                 scratch: Optional[KernelWorkspace] = None) -> None:
        self.regs: Dict[str, np.ndarray] = {}
        self.arena = arena
        self.owned: Set[str] = set()
        self.mask: Optional[np.ndarray] = None
        self.groups: Optional[tuple] = None
        self.positions: Optional[np.ndarray] = None
        self.scratch = scratch

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """Arena buffer for an op output (mark owned via :meth:`put`).

        Drawn from a row-capacity bucket, so packed registers whose row
        count changes per batch still reuse pooled buffers.
        """
        return self.arena.acquire_rows(shape, dtype)

    def put(self, reg: str, buffer: np.ndarray, owned: bool = True) -> None:
        """Bind ``reg`` to ``buffer``; owned buffers return to the arena."""
        self.regs[reg] = buffer
        if owned:
            self.owned.add(reg)

    def pop_release(self, reg: str) -> None:
        """Drop a register; its buffer goes back to the pool if owned."""
        buffer = self.regs.pop(reg)
        if reg in self.owned:
            self.owned.discard(reg)
            self.arena.release(buffer)

    def transfer(self, src: str, dst: str) -> None:
        """Rebind ``src``'s buffer (and ownership) under the name ``dst``."""
        buffer = self.regs.pop(src)
        self.regs[dst] = buffer
        if src in self.owned:
            self.owned.discard(src)
            self.owned.add(dst)


class PlanBuilder:
    """Accumulates :class:`PlanOp` items while ``export_plan`` hooks run."""

    def __init__(self) -> None:
        self.ops: List[PlanOp] = []
        self.meta: Dict[str, object] = {}
        self._counter = 0

    def reg(self, hint: str) -> str:
        """A fresh, globally unique register name."""
        self._counter += 1
        return f"%{self._counter}:{hint}"

    def emit(self, name: str, fn: Callable[[ExecutionContext], None]) -> None:
        self.ops.append(PlanOp(name, fn))

    def emit_release(self, name: str, *regs: str) -> None:
        """Emit an op that returns the given registers' buffers to the pool."""

        def release_op(ctx: ExecutionContext) -> None:
            for reg in regs:
                ctx.pop_release(reg)

        self.ops.append(PlanOp(name, release_op))


class InferencePlan:
    """A compiled, executable snapshot of a model's eval-mode forward.

    Build with :meth:`from_model` (any module exposing ``export_plan`` and
    ``plan_input_kind`` -- :class:`~repro.models.bert.BertEncoderModel`
    takes token ids, :class:`~repro.nn.transformer.TransformerEncoder`
    takes pre-embedded hidden states).  Executions are serialized by an
    internal lock; the arena is private to the plan.
    """

    def __init__(self, ops: List[PlanOp], output_reg: str, input_kind: str,
                 meta: Optional[dict] = None, fuse_qkv: bool = False,
                 block_kv: Optional[int] = None, source: str = "") -> None:
        if input_kind not in ("ids", "hidden"):
            raise ValueError(f"unknown plan input kind {input_kind!r}")
        self.ops = list(ops)
        self.output_reg = output_reg
        self.input_kind = input_kind
        self.meta = dict(meta or {})
        self.fuse_qkv = fuse_qkv
        self.block_kv = block_kv
        self.source = source
        self.arena = WorkspaceArena()
        # Kernel scratch rides the same arena, so one byte budget and one
        # set of counters covers registers and kernel temporaries alike.
        self.scratch = KernelWorkspace(arena=self.arena)
        self.calls = 0
        # Position ids of a packed ids execution index this table; BERT
        # always records max_seq_len and longer sequences are rejected.
        self._positions = np.arange(int(self.meta.get("max_seq_len", 0)))
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(cls, model, fuse_qkv: bool = False,
                   block_kv: Optional[int] = None) -> "InferencePlan":
        """Compile ``model`` into a plan (weights snapshotted now).

        ``block_kv`` compiles attention cores to the chunked O(block)
        exact-mask path (see :func:`repro.nn.functional.
        chunked_masked_attention`); such plans reject additive masks in
        :meth:`run` -- use :meth:`run_ragged` with a prefix mask, or no
        mask.

        Tolerance: defaults (fuse_qkv=False, block_kv=None) are bitwise
        vs the autograd graph path; fuse_qkv trades bitwise equality for
        one wide QKV GEMM (BLAS blocking order, pinned by
        tests/infer/test_plan.py), block_kv inherits
        chunked_masked_attention's merge contract.
        """
        input_kind = getattr(model, "plan_input_kind", None)
        if input_kind is None or not hasattr(model, "export_plan"):
            raise TypeError(
                f"{type(model).__name__} does not support plan export; "
                "expected a module with export_plan/plan_input_kind "
                "(BertEncoderModel or TransformerEncoder)")
        builder = PlanBuilder()
        input_reg = INPUT_IDS if input_kind == "ids" else INPUT_HIDDEN
        export_kwargs = {"fuse_qkv": fuse_qkv}
        if block_kv is not None:
            # Only threaded when set, so exporters predating the knob
            # (custom test modules) keep compiling unchanged.
            export_kwargs["block_kv"] = block_kv
        output_reg = model.export_plan(builder, input_reg, **export_kwargs)
        return cls(builder.ops, output_reg, input_kind,
                   meta=builder.meta, fuse_qkv=fuse_qkv, block_kv=block_kv,
                   source=type(model).__name__)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, inputs, attention_mask=None) -> np.ndarray:
        """Eval-mode forward (optional additive masking).

        Bitwise identical to the graph engine's
        ``model.eval(); model.forward(inputs, attention_mask).data``.
        Returns a caller-owned ``(batch, seq, hidden)`` float64 array.
        A ``block_kv`` plan runs packed, every sequence full length.
        """
        regs, batch_seq = self._prepare_inputs(inputs)
        if self.block_kv is not None:
            if attention_mask is not None:
                raise ValueError(
                    "this plan was compiled with block_kv (chunked "
                    "exact-mask attention) and cannot honor an additive "
                    "mask; use run_ragged with a right-padded prefix mask, "
                    "or no mask")
            batch, seq_len = batch_seq
            return self._run_padded(regs, np.repeat(seq_len, batch),
                                    extract=None, detach=True)
        mask = (None if attention_mask is None
                else self._validate_mask(attention_mask, batch_seq))

        def bind(ctx: ExecutionContext) -> None:
            ctx.regs.update(regs)
            ctx.mask = mask
            ctx.positions = np.broadcast_to(np.arange(batch_seq[1]),
                                            batch_seq)

        return self._execute(bind, lambda output: (output, output),
                             detach=True)

    def run_ragged(self, inputs, attention_mask=None, extract=None):
        """Eval-mode forward with *exact* masking on packed token rows.

        Two input forms:

        * ``attention_mask=None`` -- ``inputs`` is a sequence of
          variable-length sequences (token ids for an ids plan,
          ``(length, hidden)`` arrays for a hidden-state plan).  The
          result is the list of per-sequence ``(length, hidden)`` outputs
          in input order.
        * a right-padded 0/1 prefix ``attention_mask`` -- ``inputs`` is the
          padded ``(batch, seq)`` ids / ``(batch, seq, hidden)`` array and
          the result the padded ``(batch, seq, hidden)`` output.  The pad
          positions run as one extra block of rows after the sequences and
          get zero attention context, so every cell -- pad cells included
          -- is what the graph engine's exact-mask forward computes.

        Either way the sequences are stable-sorted by length and the ops
        see one ``(rows, hidden)`` matrix with no pad rows between
        sequences, each length group a contiguous block.  Padded keys get
        exactly zero attention probability, so each sequence's rows are
        bitwise identical to running it alone.

        ``extract`` is the safe way to consume the result: it is called on
        it *inside* the execution lock (copy out what you keep --
        :meth:`~repro.models.bert.BertEncoderModel.encode_ragged` copies
        each sequence) and its return value is returned; the backing
        buffer then goes straight back to the arena.  Without ``extract``
        the result views an arena buffer that stays valid only until the
        next execution -- safe for a single-threaded caller, racy if the
        plan is shared across threads.
        """
        if attention_mask is None:
            return self._run_sequences(inputs, extract)
        regs, batch_seq = self._prepare_inputs(inputs)
        mask = self._validate_mask(attention_mask, batch_seq)
        return self._run_padded(regs, F.prefix_mask_lengths(mask),
                                extract=extract)

    def _run_sequences(self, sequences, extract):
        """Pack variable-length sequences (the serving hot path)."""
        lengths = [len(seq) for seq in sequences]
        if not lengths:
            return [] if extract is None else extract([])
        if min(lengths) < 1:
            raise ValueError("every sequence must contain at least one token")
        order, groups, offsets = pack_lengths(lengths)
        tokens = sum(lengths)
        rows = max(tokens, MIN_PACKED_ROWS)
        if self.input_kind == "ids":
            self._check_seq_len(max(lengths))
        else:
            hidden_dim = np.shape(sequences[0])[-1]

        def bind(ctx: ExecutionContext) -> None:
            ctx.groups = groups
            if self.input_kind == "hidden":
                hidden = ctx.acquire((rows, hidden_dim))
                for index in order:
                    start = offsets[index]
                    np.copyto(hidden[start:start + lengths[index]],
                              sequences[index])
                hidden[tokens:] = hidden[0]
                ctx.put(INPUT_HIDDEN, hidden)
                return
            ids = ctx.acquire((rows,), np.int64)
            ctx.put(INPUT_IDS, ids)
            ids[:tokens] = list(chain.from_iterable(
                sequences[index] for index in order))
            # Pad rows (the MIN_PACKED_ROWS floor) repeat the first token;
            # fill them before the vocab check, which must not see what the
            # pooled buffer held before.
            ids[tokens:] = ids[0]
            self._check_vocab(ids)
            positions = ctx.acquire((rows,), np.int64)
            ctx.put(INPUT_POSITIONS, positions)
            for start, count, length in groups:
                positions[start:start + count * length].reshape(
                    count, length)[:] = self._positions[:length]
            positions[tokens:] = positions[0]
            ctx.positions = positions

        def finish(output: np.ndarray):
            return ([output[offset:offset + length]
                     for offset, length in zip(offsets, lengths)], output)

        return self._execute(bind, finish, extract=extract)

    def _run_padded(self, regs: Dict[str, np.ndarray], lengths: np.ndarray,
                    extract=None, detach: bool = False):
        """Pack a right-padded batch (``regs`` from :meth:`_prepare_inputs`):
        the sequences' valid cells in length order, then every pad cell as
        one trailing block; the output is scattered back to the padded
        shape."""
        ((input_reg, padded_in),) = regs.items()
        batch, seq_len = padded_in.shape[:2]
        order, groups, _ = pack_lengths(lengths.tolist())
        valid = np.arange(seq_len) < lengths[:, None]
        cells = np.arange(batch * seq_len).reshape(batch, seq_len)
        # The padded-array entry (encode with a mask), not the serving
        # path; the permutation is O(cells) int bookkeeping.
        # repro: allow(R1): one int permutation per padded call
        perm = np.concatenate((cells[order][valid[order]], cells[~valid]))
        flat_in = padded_in.reshape((perm.size,) + padded_in.shape[2:])

        def bind(ctx: ExecutionContext) -> None:
            ctx.groups = groups
            packed = ctx.acquire(flat_in.shape, flat_in.dtype)
            np.take(flat_in, perm, axis=0, out=packed)
            ctx.put(input_reg, packed)
            if self.input_kind == "ids":
                positions = ctx.acquire(perm.shape, np.int64)
                np.remainder(perm, seq_len, out=positions)
                ctx.put(INPUT_POSITIONS, positions)
                ctx.positions = positions

        def finish(output: np.ndarray):
            padded = self.arena.acquire_rows(
                (batch, seq_len) + output.shape[1:])
            padded.reshape(output.shape)[perm] = output
            return padded, padded

        return self._execute(bind, finish, extract=extract, detach=detach)

    def _check_vocab(self, ids: np.ndarray) -> None:
        vocab_size = self.meta.get("vocab_size")
        if vocab_size is not None and (ids.min(initial=0) < 0
                                       or ids.max(initial=0) >= vocab_size):
            raise IndexError("embedding id out of range")

    def _prepare_inputs(self, inputs) -> Tuple[Dict[str, np.ndarray], tuple]:
        if self.input_kind == "ids":
            ids = np.asarray(inputs, dtype=np.int64)
            if ids.ndim != 2:
                raise ValueError(
                    f"expected (batch, seq) token ids, got shape {ids.shape}")
            self._check_seq_len(ids.shape[1])
            self._check_vocab(ids)
            return {INPUT_IDS: ids}, ids.shape
        hidden = np.asarray(inputs, dtype=np.float64)
        if hidden.ndim != 3:
            raise ValueError(
                f"expected (batch, seq, hidden) states, got {hidden.shape}")
        return {INPUT_HIDDEN: hidden}, hidden.shape[:2]

    def _check_seq_len(self, seq_len: int) -> None:
        max_seq_len = self.meta.get("max_seq_len")
        if max_seq_len is not None and seq_len > max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len "
                f"{max_seq_len}")

    @staticmethod
    def _validate_mask(attention_mask, batch_seq: tuple) -> np.ndarray:
        mask = np.asarray(attention_mask, dtype=np.float64)
        if mask.shape != tuple(batch_seq):
            raise ValueError(
                f"attention_mask shape {mask.shape} does not match "
                f"(batch, seq)={tuple(batch_seq)}")
        return mask

    def _execute(self, bind, finish, extract=None, detach: bool = False):
        """Run the ops under the execution lock.

        ``bind(ctx)`` loads the inputs into a fresh context;
        ``finish(output)`` turns the output register into ``(result,
        backing)``, the arena buffer the result lives in.  ``extract``
        consumes the result before the backing buffer is recycled;
        ``detach`` hands it to the caller for good; otherwise it is
        recycled at the start of the next execution.
        """
        with self._lock:
            self.arena.begin_call()
            ctx = ExecutionContext(self.arena, scratch=self.scratch)
            try:
                bind(ctx)
                for op in self.ops:
                    op.fn(ctx)
                output = ctx.regs.pop(self.output_reg)
                owned = self.output_reg in ctx.owned
                ctx.owned.discard(self.output_reg)
            finally:
                # Balanced plans leave only their inputs behind; sweep so
                # neither those nor a hook's forgotten release can grow
                # the working set (or leak on an error).
                for reg in list(ctx.regs):
                    ctx.pop_release(reg)
            self.calls += 1
            result, backing = finish(output)
            if backing is not output:
                if owned:
                    self.arena.release(output)
                owned = True
            if extract is not None:
                # Consume the result while still holding the lock (the
                # caller's copies happen here), then recycle it at once.
                result = extract(result)
                if owned:
                    self.arena.release(backing)
            elif owned and not detach:
                # Caller reads (and copies) before the next execution.
                self.arena.release_deferred(backing)
            return result

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def op_names(self) -> List[str]:
        return [op.name for op in self.ops]

    def describe(self) -> str:
        """Human-readable plan listing (op order and arena state)."""
        header = (f"InferencePlan({self.source or 'module'}, "
                  f"input={self.input_kind}, ops={self.num_ops}, "
                  f"fuse_qkv={self.fuse_qkv}, block_kv={self.block_kv}, "
                  f"calls={self.calls})")
        lines = [header] + [f"  {i:3d}. {name}"
                            for i, name in enumerate(self.op_names())]
        return "\n".join(lines)

    def stats(self) -> dict:
        """Execution counters plus arena and kernel-scratch statistics."""
        return {"calls": self.calls, "ops": self.num_ops,
                "fuse_qkv": self.fuse_qkv, "block_kv": self.block_kv,
                "arena": self.arena.stats(),
                "kernel_scratch": self.scratch.stats()}

    def __repr__(self) -> str:
        return (f"InferencePlan(source={self.source!r}, "
                f"input_kind={self.input_kind!r}, ops={self.num_ops}, "
                f"fuse_qkv={self.fuse_qkv})")


# --------------------------------------------------------------------------- #
# snapshot export/import (sharded serving)
# --------------------------------------------------------------------------- #
def snapshot_arrays(model) -> Dict[str, np.ndarray]:
    """Export the model's parameter arrays for snapshot publication.

    Returns live references keyed by dotted parameter name -- the
    publisher (:meth:`repro.serving.snapshot.SnapshotBundle.publish`)
    copies them into shared memory, so no intermediate copy is taken
    here.  Pairs with :func:`bind_snapshot_arrays` on the worker side.
    """
    return {name: param.data for name, param in model.named_parameters()}


def bind_snapshot_arrays(model, arrays: Dict[str, np.ndarray]) -> None:
    """Bind ``model``'s parameters to snapshot ``arrays`` **zero-copy**.

    The worker-side import: parameters are rebound directly to the
    (read-only, shared-memory) views, unlike
    :meth:`~repro.nn.layers.Module.load_state_dict` which copies.  Plan
    compilation then keeps read-only weights as-is
    (:func:`repro.nn.layers.frozen_array_snapshot`), so every worker
    process serves from the one published copy.  Fires
    ``_on_state_loaded`` on every module so cached plans compiled from
    the old weights are invalidated.
    """
    own = {name: param for name, param in model.named_parameters()}
    missing = set(own) - set(arrays)
    unexpected = set(arrays) - set(own)
    if missing or unexpected:
        raise KeyError(
            f"snapshot mismatch; missing={sorted(missing)}, "
            f"unexpected={sorted(unexpected)}")
    for name, array in arrays.items():
        if own[name].shape != array.shape:
            raise ValueError(
                f"shape mismatch for {name}: {own[name].shape} vs "
                f"{array.shape}")
        if array.dtype != np.float64:
            raise ValueError(
                f"snapshot array {name} has dtype {array.dtype}; "
                "parameters are float64")
        own[name].data = array
    for module in model.modules():
        module._on_state_loaded()
