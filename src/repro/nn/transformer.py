"""Transformer encoder layers (paper Figure 2).

A Transformer layer is a multi-headed self-attention block followed by a
position-wise feed-forward block, each wrapped in dropout + residual +
layer-norm (the post-norm arrangement used by BERT).  The attention softmax
is pluggable via the ``softmax_variant`` argument, which is how Softermax is
dropped into a full network.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.functional import SoftmaxVariant
from repro.nn.layers import Dropout, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


class FeedForward(Module):
    """Position-wise feed-forward block (Linear -> GELU -> Linear)."""

    def __init__(self, hidden_dim: int, intermediate_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.expand = Linear(hidden_dim, intermediate_dim, rng=rng)
        self.contract = Linear(intermediate_dim, hidden_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.contract(F.gelu(self.expand(x)))

    def export_plan(self, builder, x_reg: str, prefix: str = "ffn") -> str:
        """Emit expand -> GELU -> contract; intermediates go back to the
        arena as soon as they are dead."""
        expanded_reg = self.expand.export_plan(builder, x_reg,
                                               f"{prefix}.expand")
        gelu_reg = builder.reg(f"{prefix}.gelu")

        def gelu_op(ctx) -> None:
            expanded = ctx.regs[expanded_reg]
            out = ctx.acquire(expanded.shape)
            scratch = ctx.acquire(expanded.shape)
            F.gelu_infer(expanded, out=out, scratch=scratch)
            ctx.arena.release(scratch)
            ctx.put(gelu_reg, out)
            ctx.pop_release(expanded_reg)

        builder.emit(f"{prefix}.gelu", gelu_op)
        out_reg = self.contract.export_plan(builder, gelu_reg,
                                            f"{prefix}.contract")
        builder.emit_release(f"{prefix}.gelu.free", gelu_reg)
        return out_reg


class TransformerLayer(Module):
    """One encoder layer: self-attention block + feed-forward block."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        intermediate_dim: int,
        dropout: float = 0.1,
        softmax_variant: str | SoftmaxVariant = "reference",
        kernel: str = "auto",
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(seed)
        self.attention = MultiHeadSelfAttention(
            hidden_dim, num_heads, dropout=dropout,
            softmax_variant=softmax_variant, kernel=kernel, rng=rng,
            seed=seed,
        )
        self.attention_norm = LayerNorm(hidden_dim)
        self.attention_dropout = Dropout(dropout, seed=seed)
        self.feed_forward = FeedForward(hidden_dim, intermediate_dim, rng=rng)
        self.output_norm = LayerNorm(hidden_dim)
        self.output_dropout = Dropout(dropout, seed=seed)

    def forward(self, hidden: Tensor, attention_mask: Optional[np.ndarray] = None,
                exact_mask: bool = False,
                block_kv: Optional[int] = None) -> Tensor:
        attended = self.attention(hidden, attention_mask, exact_mask=exact_mask,
                                  block_kv=block_kv)
        hidden = self.attention_norm(hidden + self.attention_dropout(attended))
        transformed = self.feed_forward(hidden)
        hidden = self.output_norm(hidden + self.output_dropout(transformed))
        return hidden

    def set_softmax_variant(self, variant: str | SoftmaxVariant,
                            kernel: str = "auto") -> None:
        self.attention.set_softmax_variant(variant, kernel=kernel)

    def export_plan(self, builder, hidden_reg: str, prefix: str = "layer",
                    fuse_qkv: bool = False,
                    block_kv: Optional[int] = None) -> str:
        """Emit one encoder layer (attention block + feed-forward block).

        Residual sums are computed in place into the newer operand's
        buffer (bitwise equal: ``np.add(h, a, out=a)`` is ``h + a``), and
        every buffer goes back to the arena the op after its last read.
        """
        attended_reg = self.attention.export_plan(
            builder, hidden_reg, f"{prefix}.attention", fuse_qkv=fuse_qkv,
            block_kv=block_kv)
        sum1_reg = builder.reg(f"{prefix}.residual1")

        def residual1_op(ctx) -> None:
            hidden = ctx.regs[hidden_reg]
            attended = ctx.regs[attended_reg]
            np.add(hidden, attended, out=attended)
            ctx.transfer(attended_reg, sum1_reg)
            ctx.pop_release(hidden_reg)

        builder.emit(f"{prefix}.residual1", residual1_op)
        normed_reg = self.attention_norm.export_plan(
            builder, sum1_reg, f"{prefix}.attention_norm")
        builder.emit_release(f"{prefix}.residual1.free", sum1_reg)

        transformed_reg = self.feed_forward.export_plan(
            builder, normed_reg, f"{prefix}.ffn")
        sum2_reg = builder.reg(f"{prefix}.residual2")

        def residual2_op(ctx) -> None:
            normed = ctx.regs[normed_reg]
            transformed = ctx.regs[transformed_reg]
            np.add(normed, transformed, out=transformed)
            ctx.transfer(transformed_reg, sum2_reg)
            ctx.pop_release(normed_reg)

        builder.emit(f"{prefix}.residual2", residual2_op)
        out_reg = self.output_norm.export_plan(
            builder, sum2_reg, f"{prefix}.output_norm")
        builder.emit_release(f"{prefix}.residual2.free", sum2_reg)
        return out_reg


class TransformerEncoder(Module):
    """A stack of :class:`TransformerLayer` modules."""

    def __init__(
        self,
        num_layers: int,
        hidden_dim: int,
        num_heads: int,
        intermediate_dim: int,
        dropout: float = 0.1,
        softmax_variant: str | SoftmaxVariant = "reference",
        kernel: str = "auto",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.layers: List[TransformerLayer] = []
        for i in range(num_layers):
            layer = TransformerLayer(
                hidden_dim, num_heads, intermediate_dim, dropout=dropout,
                softmax_variant=softmax_variant, kernel=kernel, rng=rng,
                seed=None if seed is None else seed + i,
            )
            self.add_module(f"layer_{i}", layer)
            self.layers.append(layer)

    def forward(self, hidden: Tensor, attention_mask: Optional[np.ndarray] = None,
                exact_mask: bool = False,
                block_kv: Optional[int] = None) -> Tensor:
        for layer in self.layers:
            hidden = layer(hidden, attention_mask, exact_mask=exact_mask,
                           block_kv=block_kv)
        return hidden

    def set_softmax_variant(self, variant: str | SoftmaxVariant,
                            kernel: str = "auto") -> None:
        """Switch the attention softmax of every layer at once."""
        for layer in self.layers:
            layer.set_softmax_variant(variant, kernel=kernel)

    #: Inference plans compiled from a bare encoder take pre-embedded
    #: hidden states as their runtime input (see ``InferencePlan.run``).
    plan_input_kind = "hidden"

    def export_plan(self, builder, hidden_reg: str, prefix: str = "encoder",
                    fuse_qkv: bool = False,
                    block_kv: Optional[int] = None) -> str:
        """Emit the whole layer stack; returns the final hidden register."""
        for i, layer in enumerate(self.layers):
            hidden_reg = layer.export_plan(builder, hidden_reg,
                                           f"{prefix}.layer_{i}",
                                           fuse_qkv=fuse_qkv,
                                           block_kv=block_kv)
        return hidden_reg
