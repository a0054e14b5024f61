"""Multi-headed self-attention with a pluggable softmax.

This is the module the paper cares about: the attention block computes
``softmax(Q K^T / sqrt(d_head)) V`` per head, and Softermax replaces the
softmax while the rest of the block is untouched.  The softmax is selected
by name through :func:`repro.nn.functional.get_softmax_variant`, so the same
model can be evaluated with the reference softmax, the base-2 softmax or the
bit-accurate Softermax pipeline (with straight-through gradients) simply by
switching the variant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import SoftmaxVariant, get_softmax_variant
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Multi-headed self-attention (the paper's Figure 2 attention block).

    Parameters
    ----------
    hidden_dim:
        Model width (must be divisible by ``num_heads``).
    num_heads:
        Number of attention heads.
    dropout:
        Dropout probability applied to the attention probabilities.
    softmax_variant:
        Either a registered variant name (``"reference"``, ``"base2"``,
        ``"softermax"``) or a :class:`SoftmaxVariant` instance.
    kernel:
        Softermax kernel selector (see :mod:`repro.kernels`): when the
        variant is the string ``"softermax"``, pick the named implementation
        (``"auto"`` resolves to the adaptive fused/blocked/parallel
        dispatcher; pass ``"softermax-bit-accurate"`` to force the
        slice-loop oracle).  Ignored for other variants.
    kernel_options:
        Engine knobs forwarded to the kernel factory (``workers``,
        ``block_rows``); ignored for non-Softermax variants.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        dropout: float = 0.1,
        softmax_variant: str | SoftmaxVariant = "reference",
        kernel: str = "auto",
        kernel_options: Optional[dict] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if hidden_dim % num_heads != 0:
            raise ValueError(
                f"hidden_dim ({hidden_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = rng or np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads

        self.query = Linear(hidden_dim, hidden_dim, rng=rng)
        self.key = Linear(hidden_dim, hidden_dim, rng=rng)
        self.value = Linear(hidden_dim, hidden_dim, rng=rng)
        self.output = Linear(hidden_dim, hidden_dim, rng=rng)
        self.attn_dropout = Dropout(dropout, seed=seed)

        self.set_softmax_variant(softmax_variant, kernel=kernel,
                                 kernel_options=kernel_options)
        #: Populated by :meth:`forward` when ``capture_scores`` is enabled:
        #: the raw scaled attention scores of the last call (for calibration
        #: and for feeding the hardware cost model with realistic data).
        self.last_scores: Optional[np.ndarray] = None
        self.capture_scores = False

    def set_softmax_variant(self, variant: str | SoftmaxVariant,
                            kernel: str = "auto",
                            kernel_options: Optional[dict] = None) -> None:
        """Switch the attention softmax implementation.

        ``kernel`` (and the engine knobs in ``kernel_options``) select the
        Softermax implementation when ``variant`` is the string
        ``"softermax"`` (every kernel in the registry's bit-accurate
        family produces identical outputs, so this only affects speed).
        """
        if isinstance(variant, str):
            if variant == "softermax" and (kernel != "auto" or kernel_options):
                from repro.nn.functional import make_softermax_variant

                variant = make_softermax_variant(kernel=kernel,
                                                 kernel_options=kernel_options)
            else:
                variant = get_softmax_variant(variant)
        self.softmax_variant = variant

    def _split_heads(self, x: Tensor, batch: int, seq_len: int) -> Tensor:
        # (batch, seq, hidden) -> (batch, heads, seq, head_dim)
        return x.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor, batch: int, seq_len: int) -> Tensor:
        # (batch, heads, seq, head_dim) -> (batch, seq, hidden)
        return x.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.hidden_dim)

    def forward(self, hidden: Tensor, attention_mask: Optional[np.ndarray] = None,
                exact_mask: bool = False,
                block_kv: Optional[int] = None) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        hidden:
            Input of shape ``(batch, seq_len, hidden_dim)``.
        attention_mask:
            Optional boolean/0-1 array of shape ``(batch, seq_len)`` where 1
            marks valid tokens.  Masked (padding) positions receive a large
            negative score before the softmax.
        exact_mask:
            Inference-only alternative masking scheme for ragged batches:
            instead of an additive penalty (which leaves padded keys a tiny
            but nonzero probability), padded keys are excluded *exactly* --
            each sequence's softmax runs over only its valid prefix, so a
            request's attention output is bitwise identical whether it rides
            alone or inside a coalesced padded batch.  Requires a
            right-padded prefix mask and eval mode.
        block_kv:
            Opt-in chunked long-context path (inference-only): attention
            runs in ``block_kv``-sized query/key blocks through the
            online-normalizer merge, never materializing the full
            ``seq x seq`` score matrix (see :func:`repro.nn.functional.
            chunked_masked_attention` for the tolerance contract).  Uses
            exact masking; with a mask it therefore requires
            ``exact_mask=True``, and with no mask it attends over the full
            sequence.
        """
        batch, seq_len, _ = hidden.shape
        if block_kv is not None and attention_mask is not None \
                and not exact_mask:
            raise ValueError(
                "block_kv (chunked attention) uses exact masking and "
                "cannot honor the additive -30.0 mask penalty; pass "
                "exact_mask=True with a prefix mask, or no mask")

        q = self._split_heads(self.query(hidden), batch, seq_len)
        k = self._split_heads(self.key(hidden), batch, seq_len)
        v = self._split_heads(self.value(hidden), batch, seq_len)

        if (exact_mask and attention_mask is not None) or block_kv is not None:
            if self.training:
                raise RuntimeError(
                    "exact masking is an inference-only path (it bypasses "
                    "the autograd graph); call eval() first")
            if attention_mask is not None:
                mask = np.asarray(attention_mask, dtype=np.float64)
                if mask.shape != (batch, seq_len):
                    raise ValueError(
                        f"attention_mask shape {mask.shape} does not match "
                        f"(batch, seq)={batch, seq_len}")
                lengths = F.prefix_mask_lengths(mask)
            else:
                # Chunked attention without a mask: every key is valid.
                lengths = np.full(batch, seq_len, dtype=np.int64)
            context = Tensor(self._exact_masked_attention(
                q.data, k.data, v.data, lengths, block_kv=block_kv))
            merged = self._merge_heads(context, batch, seq_len)
            return self.output(merged)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))

        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=np.float64)
            if mask.shape != (batch, seq_len):
                raise ValueError(
                    f"attention_mask shape {mask.shape} does not match (batch, seq)={batch, seq_len}"
                )
            # Broadcast to (batch, 1, 1, seq): padding keys are suppressed.
            additive = (1.0 - mask)[:, None, None, :] * (-30.0)
            scores = scores + Tensor(additive)

        if self.capture_scores:
            # repro: allow(R1): opt-in debug capture; the copy is the snapshot
            self.last_scores = scores.data.copy()

        probs = F.attention_softmax(scores, self.softmax_variant)
        probs = self.attn_dropout(probs)

        context = probs @ v
        merged = self._merge_heads(context, batch, seq_len)
        return self.output(merged)

    def _exact_masked_attention(self, q: np.ndarray, k: np.ndarray,
                                v: np.ndarray, lengths: np.ndarray,
                                block_kv: Optional[int] = None) -> np.ndarray:
        """Length-grouped exact-mask attention (see
        :func:`repro.nn.functional.exact_masked_attention`, shared with the
        plan engine); ``block_kv`` selects the chunked O(block) path.

        Tolerance: block_kv=None (and groups <= block_kv) is bitwise;
        longer groups inherit chunked_masked_attention's merge contract.
        """
        if block_kv is not None:
            return F.chunked_masked_attention(
                q, k, v, lengths, 1.0 / np.sqrt(self.head_dim),
                self.softmax_variant, block_kv)
        return F.exact_masked_attention(
            q, k, v, lengths, 1.0 / np.sqrt(self.head_dim),
            F.softmax_forward_with_out(self.softmax_variant))

    # ------------------------------------------------------------------ #
    # plan export (graph-free inference)
    # ------------------------------------------------------------------ #
    def export_plan(self, builder, x_reg: str, prefix: str = "attention",
                    fuse_qkv: bool = False,
                    block_kv: Optional[int] = None) -> str:
        """Emit this attention block's ops onto ``builder``.

        The emitted ops replay the eval-mode forward bit for bit: Q/K/V
        projections, the attention core with the head merge folded in, and
        the output projection.  The core runs one of two layouts: packed
        token rows with exact masking when the execution context carries
        length ``groups`` (:func:`repro.nn.functional.packed_attention`),
        or padded ``(batch, seq, hidden)`` registers with additive-mask
        scores otherwise.  The softmax variant's forward function and all
        weights are snapshotted at export time.

        ``fuse_qkv`` replaces the three projection GEMMs with one GEMM
        against the column-concatenated ``[Wq | Wk | Wv]`` weight.  The
        result is mathematically identical but *not* guaranteed bitwise
        equal (BLAS may block the wider GEMM differently), which is why it
        is opt-in; quantized projections cannot be fused (each projection
        carries its own input-quantizer scale).

        ``block_kv`` sends packed length groups longer than ``block_kv``
        through the chunked O(block) core of :func:`repro.nn.functional.
        chunked_masked_attention`; block buffers are staged on the plan's
        arena-backed workspace.  Such plans always execute packed (see
        :meth:`repro.infer.plan.InferencePlan.run`, which rejects additive
        masks for them).

        Tolerance: fuse_qkv trades bitwise equality for one wide GEMM
        (BLAS blocking order; pinned by tests/infer/test_plan.py);
        block_kv inherits chunked_masked_attention's merge contract.
        Both default off = bitwise.
        """
        heads, head_dim = self.num_heads, self.head_dim
        hidden_dim = self.hidden_dim
        scale = 1.0 / np.sqrt(self.head_dim)
        variant = self.softmax_variant
        # Uniform workspace-aware surface (custom variants with a plain
        # forward get copy-out semantics): the core op threads the arena
        # buffer and the plan's kernel workspace through the softmax.
        softmax_forward = F.softmax_forward_with_out(self.softmax_variant)

        def split(x: np.ndarray) -> np.ndarray:
            batch, seq_len, _ = x.shape
            return x.reshape(batch, seq_len, heads,
                             head_dim).transpose(0, 2, 1, 3)

        if fuse_qkv:
            projections = (self.query, self.key, self.value)
            if any(p.plan_input_quant_params() is not None
                   for p in projections):
                raise ValueError(
                    "fuse_qkv cannot fuse quantized projections (each "
                    "carries its own input-quantizer scale); compile with "
                    "fuse_qkv=False")
            # repro: allow(R1): plan export is compile-time, not per-call
            fused_weight = np.concatenate(
                [p.plan_weight() for p in projections], axis=1)
            # repro: allow(R1): plan export is compile-time, not per-call
            fused_bias = np.concatenate(
                [p.plan_bias() for p in projections])
            qkv_reg = builder.reg(f"{prefix}.qkv_fused")
            core_in = (qkv_reg,)

            def project_op(ctx) -> None:
                x = ctx.regs[x_reg]
                qkv = ctx.acquire(x.shape[:-1] + (3 * hidden_dim,))
                F.linear_infer(x, fused_weight, fused_bias, out=qkv)
                ctx.put(qkv_reg, qkv)

            def operands(ctx):
                # Column slices of [Q | K | V]: (..., hidden) views.
                qkv = ctx.regs[qkv_reg]
                return (qkv[..., :hidden_dim],
                        qkv[..., hidden_dim:2 * hidden_dim],
                        qkv[..., 2 * hidden_dim:])

            builder.emit(f"{prefix}.qkv_fused", project_op)
        else:
            q_reg = self.query.export_plan(builder, x_reg, f"{prefix}.query")
            k_reg = self.key.export_plan(builder, x_reg, f"{prefix}.key")
            v_reg = self.value.export_plan(builder, x_reg, f"{prefix}.value")
            core_in = (q_reg, k_reg, v_reg)

            def operands(ctx):
                return ctx.regs[q_reg], ctx.regs[k_reg], ctx.regs[v_reg]

        merged_reg = builder.reg(f"{prefix}.merged")

        def core_op(ctx) -> None:
            q, k, v = operands(ctx)
            merged = ctx.acquire(q.shape)
            if ctx.groups is not None:
                # Packed rows, exact masking: one staging copy per length
                # group, context written straight into the merged layout.
                F.packed_attention(q, k, v, ctx.groups, heads, scale,
                                   softmax_forward, variant, block_kv,
                                   out=merged, scratch=ctx.scratch)
            else:
                # Padded (batch, seq, hidden) registers: the graph path's
                # full-batch scores with an optional additive mask.
                q, k, v = split(q), split(k), split(v)
                batch, _, seq_len, _ = q.shape
                scores = ctx.acquire((batch, heads, seq_len, seq_len))
                np.matmul(q, k.swapaxes(-1, -2), out=scores)
                np.multiply(scores, scale, out=scores)
                if ctx.mask is not None:
                    additive = (1.0 - ctx.mask)[:, None, None, :] * (-30.0)
                    np.add(scores, additive, out=scores)
                # The probabilities land in an arena buffer and the kernel
                # draws its scratch from the plan's workspace: the softmax
                # stage -- the paper's hot spot -- performs no per-call
                # allocation at all in steady state.
                probs = ctx.acquire(scores.shape)
                softmax_forward(scores, out=probs, scratch=ctx.scratch)
                ctx.arena.release(scores)
                context = ctx.acquire((batch, heads, seq_len, head_dim))
                np.matmul(probs, v, out=context)
                ctx.arena.release(probs)
                np.copyto(merged.reshape(batch, seq_len, heads, head_dim),
                          context.transpose(0, 2, 1, 3))
                ctx.arena.release(context)
            ctx.put(merged_reg, merged)
            for reg in core_in:
                ctx.pop_release(reg)

        builder.emit(f"{prefix}.core", core_op)
        out_reg = self.output.export_plan(builder, merged_reg,
                                          f"{prefix}.output")
        builder.emit_release(f"{prefix}.merged.free", merged_reg)
        return out_reg
