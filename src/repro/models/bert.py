"""BERT-style encoder models and task heads.

Two uses:

* **Trainable surrogates** (``tiny_base`` / ``tiny_large``): small enough to
  fine-tune on the synthetic task suite with the NumPy substrate, while
  keeping the architectural knobs (relative depth/width, heads, dropout)
  that distinguish BERT-Base from BERT-Large.
* **Geometry descriptors** (``bert_base`` / ``bert_large``): the real
  published geometries, used by the hardware runtime/energy models to count
  operations for Figure 1 and Figure 5 (they are never instantiated as
  trainable models -- 340M parameters is not a NumPy-friendly size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.tasks import TaskDataset
from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
)
from repro.nn.functional import SoftmaxVariant


@dataclass(frozen=True)
class BertConfig:
    """Architecture hyper-parameters of a BERT-style encoder."""

    vocab_size: int
    hidden_dim: int
    num_layers: int
    num_heads: int
    intermediate_dim: int
    max_seq_len: int
    dropout: float = 0.1
    name: str = "bert"

    def __post_init__(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    # ------------------------------------------------------------------ #
    # published geometries (for the hardware cost models)
    # ------------------------------------------------------------------ #
    @classmethod
    def bert_base(cls, max_seq_len: int = 512, vocab_size: int = 30522) -> "BertConfig":
        return cls(vocab_size, 768, 12, 12, 3072, max_seq_len, name="bert-base")

    @classmethod
    def bert_large(cls, max_seq_len: int = 512, vocab_size: int = 30522) -> "BertConfig":
        return cls(vocab_size, 1024, 24, 16, 4096, max_seq_len, name="bert-large")

    # ------------------------------------------------------------------ #
    # trainable surrogates (for the accuracy experiments)
    # ------------------------------------------------------------------ #
    @classmethod
    def tiny_base(cls, vocab_size: int = 32, max_seq_len: int = 32) -> "BertConfig":
        """Surrogate for BERT-Base: 2 layers x 32 wide, 4 heads."""
        return cls(vocab_size, 32, 2, 4, 64, max_seq_len, dropout=0.05, name="tiny-base")

    @classmethod
    def tiny_large(cls, vocab_size: int = 32, max_seq_len: int = 32) -> "BertConfig":
        """Surrogate for BERT-Large: deeper and wider than ``tiny_base``."""
        return cls(vocab_size, 48, 3, 4, 96, max_seq_len, dropout=0.05, name="tiny-large")

    @classmethod
    def tiny_long(cls, vocab_size: int = 32,
                  max_seq_len: int = 32768) -> "BertConfig":
        """Long-context surrogate: ``tiny_base`` widths with one layer and a
        32k position table, sized for the chunked-attention benchmarks
        (dense attention at this length would need a 34 GB score matrix)."""
        return cls(vocab_size, 32, 1, 4, 64, max_seq_len, dropout=0.0,
                   name="tiny-long")

    def parameter_count_estimate(self) -> int:
        """Closed-form parameter count (embeddings + encoder), for reporting."""
        embed = (self.vocab_size + self.max_seq_len) * self.hidden_dim
        per_layer = (
            4 * self.hidden_dim * self.hidden_dim  # Q, K, V, output projections
            + 2 * self.hidden_dim * self.intermediate_dim  # FFN
            + 9 * self.hidden_dim  # biases + layer norms
            + self.intermediate_dim
        )
        return int(embed + self.num_layers * per_layer)


class BertEncoderModel(Module):
    """Token + position embeddings followed by a Transformer encoder stack."""

    #: Inference plans compiled from this model take token ids as input.
    plan_input_kind = "ids"

    def __init__(self, config: BertConfig,
                 softmax_variant: str | SoftmaxVariant = "reference",
                 kernel: str = "auto",
                 kernel_options: Optional[dict] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.hidden_dim, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.hidden_dim, rng=rng)
        self.embedding_norm = LayerNorm(config.hidden_dim)
        self.embedding_dropout = Dropout(config.dropout, seed=seed)
        self.encoder = TransformerEncoder(
            num_layers=config.num_layers,
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            intermediate_dim=config.intermediate_dim,
            dropout=config.dropout,
            softmax_variant=softmax_variant,
            kernel=kernel,
            kernel_options=kernel_options,
            seed=seed,
        )
        #: Compiled inference plans, keyed by ``(fuse_qkv, block_kv)``.
        #: Plans snapshot weights at compile time; both mutation entry
        #: points (``load_state_dict``, ``set_softmax_variant``) clear
        #: this cache so the next plan-engine call recompiles.
        self._plans: dict = {}

    def forward(self, input_ids: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                exact_mask: bool = False,
                block_kv: Optional[int] = None) -> Tensor:
        input_ids = np.asarray(input_ids, dtype=np.int64)
        batch, seq_len = input_ids.shape
        if seq_len > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq_len), (batch, seq_len))
        hidden = self.token_embedding(input_ids) + self.position_embedding(positions)
        hidden = self.embedding_dropout(self.embedding_norm(hidden))
        return self.encoder(hidden, attention_mask, exact_mask=exact_mask,
                            block_kv=block_kv)

    # ------------------------------------------------------------------ #
    # inference engines (graph vs compiled plan)
    # ------------------------------------------------------------------ #
    def export_plan(self, builder, ids_reg: str = "input_ids",
                    fuse_qkv: bool = False,
                    block_kv: Optional[int] = None) -> str:
        """Emit embeddings + encoder onto a plan builder (see
        :class:`repro.infer.InferencePlan`)."""
        from repro.nn.functional import embedding_infer

        token_weight = self.token_embedding.plan_weight()
        position_weight = self.position_embedding.plan_weight()
        hidden_dim = self.config.hidden_dim
        builder.meta.update(vocab_size=self.config.vocab_size,
                            max_seq_len=self.config.max_seq_len,
                            hidden_dim=hidden_dim)
        embed_reg = builder.reg("embeddings")

        def embed_op(ctx) -> None:
            # Padded (batch, seq) or packed (rows,) ids; the context
            # carries the matching position id of every token.
            ids = ctx.regs[ids_reg]
            tokens = ctx.acquire(ids.shape + (hidden_dim,))
            embedding_infer(token_weight, ids, out=tokens)
            positions = ctx.acquire(ids.shape + (hidden_dim,))
            embedding_infer(position_weight, ctx.positions, out=positions)
            np.add(tokens, positions, out=tokens)
            ctx.arena.release(positions)
            ctx.put(embed_reg, tokens)

        builder.emit("embeddings", embed_op)
        normed_reg = self.embedding_norm.export_plan(builder, embed_reg,
                                                     "embedding_norm")
        builder.emit_release("embeddings.free", embed_reg)
        # embedding_dropout is the identity in eval mode (plan semantics).
        return self.encoder.export_plan(builder, normed_reg,
                                        prefix="encoder", fuse_qkv=fuse_qkv,
                                        block_kv=block_kv)

    def inference_plan(self, fuse_qkv: bool = False,
                       block_kv: Optional[int] = None,
                       refresh: bool = False):
        """The cached compiled plan for this model (compile on first use).

        Plans snapshot weights, quantizer scales and the softmax variant
        at compile time and are keyed by their compile options
        (``fuse_qkv``, ``block_kv``); ``load_state_dict`` and
        ``set_softmax_variant`` invalidate the cache, other mutations
        (e.g. attaching quantizers) need ``refresh=True``.

        Tolerance: the default plan (fuse_qkv=False, block_kv=None) is
        bitwise vs the graph forward; either opt-in inherits the
        corresponding contract in
        :meth:`~repro.infer.plan.InferencePlan.from_model`.
        """
        from repro.infer import InferencePlan

        if refresh:
            # A mutation invalidates every snapshot, not just the one the
            # caller happens to ask for first.
            self._plans.clear()
        key = (bool(fuse_qkv), block_kv)
        plan = self._plans.get(key)
        if plan is None:
            plan = InferencePlan.from_model(self, fuse_qkv=fuse_qkv,
                                            block_kv=block_kv)
            self._plans[key] = plan
        return plan

    def encode(self, input_ids: np.ndarray,
               attention_mask: Optional[np.ndarray] = None,
               engine: str = "graph", fuse_qkv: bool = False,
               block_kv: Optional[int] = None) -> np.ndarray:
        """Eval-mode forward returning a raw hidden-state array.

        ``engine="graph"`` runs the autograd Tensor path;
        ``engine="plan"`` runs the compiled graph-free plan, which is
        bitwise identical (``fuse_qkv=True`` swaps in the fused Q/K/V
        projection -- mathematically equal, not bit-guaranteed).

        ``block_kv`` opts into chunked O(block)-memory attention (see
        :func:`repro.nn.functional.chunked_masked_attention` for the
        tolerance contract).  It switches masking to the *exact* scheme: a
        provided ``attention_mask`` must then be a right-padded 0/1 prefix
        mask, and with no mask the full sequence is attended.  Graph and
        plan engines stay bitwise identical to each other under
        ``block_kv``.
        """
        if engine == "graph":
            if block_kv is None:
                return self.forward(input_ids, attention_mask).data
            return self.forward(input_ids, attention_mask,
                                exact_mask=attention_mask is not None,
                                block_kv=block_kv).data
        if engine == "plan":
            if self.training:
                raise RuntimeError(
                    "the plan engine replays eval-mode semantics; call "
                    "eval() first")
            plan = self.inference_plan(fuse_qkv=fuse_qkv, block_kv=block_kv)
            if block_kv is not None and attention_mask is not None:
                # Chunked plans reject additive masks; a prefix mask rides
                # the exact-mask ragged entry point instead (np.array
                # detaches the arena buffer under the plan lock).
                return plan.run_ragged(input_ids, attention_mask,
                                       extract=np.array)
            return plan.run(input_ids, attention_mask)
        raise ValueError(
            f"unknown inference engine {engine!r}; choose 'graph' or 'plan'")

    def encode_ragged(self, sequences, pad_id: int = 0,
                      engine: str = "graph", fuse_qkv: bool = False,
                      block_kv: Optional[int] = None) -> list:
        """Encode a batch of variable-length token sequences in one pass.

        The serving entry point: the batch runs through the encoder as a
        single forward with *exact* attention masking (each sequence's
        softmax runs over only its own tokens), and the per-sequence
        hidden states come back out.

        Because every per-token operation is row-independent and the exact
        mask keeps other sequences and padding out of the attention
        reduction, the returned hidden states are **bitwise identical** to
        encoding each sequence alone -- coalescing requests into a batch is
        a pure throughput optimization.  Requires eval mode (the
        autograd-free masked attention path).

        ``engine`` selects the forward implementation: ``"graph"`` (the
        autograd Tensor path, which pads the batch to its longest
        sequence -- ``pad_id`` fills the tail) or ``"plan"`` (the compiled
        graph-free fast path, bitwise identical, which packs the tokens
        without padding -- see :meth:`repro.infer.InferencePlan.
        run_ragged`; the serving layer defaults to it).

        ``block_kv`` opts into chunked O(block)-memory attention for long
        sequences.  Chunked length groups follow the documented tolerance
        contract of :func:`repro.nn.functional.chunked_masked_attention`
        instead of being bitwise-equal to the dense path -- but chunking
        depends only on a sequence's own length group, so batching remains
        bit-transparent (solo vs coalesced results stay identical).

        Returns a list of ``(length_i, hidden_dim)`` float64 arrays, one per
        input sequence.
        """
        if self.training:
            raise RuntimeError(
                "encode_ragged is an inference entry point; call eval() first")
        if engine not in ("graph", "plan"):
            raise ValueError(
                f"unknown inference engine {engine!r}; choose 'graph' or "
                "'plan'")
        if engine == "plan":
            # run_ragged applies ``copies`` to the per-sequence views of
            # its arena output while still holding the plan's execution
            # lock, so the copies can never race a concurrent execution
            # recycling the buffer.
            return self.inference_plan(
                fuse_qkv=fuse_qkv, block_kv=block_kv).run_ragged(
                sequences, extract=_copies)
        if len(sequences) == 0:
            return []
        lengths = [len(seq) for seq in sequences]
        if min(lengths) < 1:
            raise ValueError("every sequence must contain at least one token")
        if max(lengths) > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {max(lengths)} exceeds max_seq_len "
                f"{self.config.max_seq_len}")
        # Pad width floor of 2: a width-1 batch would route the per-token
        # GEMMs through BLAS's single-row (gemv) path, whose accumulation
        # differs from the gemm path used at any other width -- which would
        # break bitwise transparency between a solo length-1 request and the
        # same request inside a wider batch (the plan keeps the same floor,
        # see repro.infer.plan.MIN_PACKED_ROWS).
        max_len = max(2, *lengths)
        batch = len(sequences)
        input_ids = np.full((batch, max_len), pad_id, dtype=np.int64)
        mask = np.zeros((batch, max_len), dtype=np.float64)
        for i, seq in enumerate(sequences):
            input_ids[i, :lengths[i]] = np.asarray(seq, dtype=np.int64)
            mask[i, :lengths[i]] = 1.0
        hidden = self.forward(input_ids, mask, exact_mask=True,
                              block_kv=block_kv).data
        return [np.array(hidden[i, :length])
                for i, length in enumerate(lengths)]

    def _on_state_loaded(self) -> None:
        """Invalidate compiled plans after any state-dict load (fires even
        when the load happens on a wrapper module, e.g. ``TaskModel``)."""
        self._plans.clear()

    def set_softmax_variant(self, variant: str | SoftmaxVariant,
                            kernel: str = "auto",
                            kernel_options: Optional[dict] = None) -> None:
        """Switch the attention softmax of every encoder layer."""
        self.encoder.set_softmax_variant(variant, kernel=kernel,
                                        kernel_options=kernel_options)
        self._plans.clear()


def _copies(views: list) -> list:
    """Caller-owned copies of per-sequence output views."""
    return [np.array(view) for view in views]


class ClassificationHead(Module):
    """[CLS] pooling followed by a linear classifier."""

    def __init__(self, hidden_dim: int, num_classes: int, dropout: float = 0.1,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.dropout = Dropout(dropout, seed=seed)
        self.pooler = Linear(hidden_dim, hidden_dim, rng=rng)
        self.classifier = Linear(hidden_dim, num_classes, rng=rng)

    def forward(self, hidden: Tensor) -> Tensor:
        cls = hidden[:, 0, :]
        pooled = self.pooler(cls).tanh()
        return self.classifier(self.dropout(pooled))


class RegressionHead(Module):
    """[CLS] pooling followed by a single-output regressor (STS-B style)."""

    def __init__(self, hidden_dim: int, dropout: float = 0.1,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.dropout = Dropout(dropout, seed=seed)
        self.pooler = Linear(hidden_dim, hidden_dim, rng=rng)
        self.regressor = Linear(hidden_dim, 1, rng=rng)

    def forward(self, hidden: Tensor) -> Tensor:
        cls = hidden[:, 0, :]
        pooled = self.pooler(cls).tanh()
        out = self.regressor(self.dropout(pooled))
        return out.reshape(out.shape[0])


class SpanHead(Module):
    """Per-position start/end logits for extractive QA (SQuAD style)."""

    def __init__(self, hidden_dim: int, seed: Optional[int] = None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.span_logits = Linear(hidden_dim, 2, rng=rng)

    def forward(self, hidden: Tensor,
                attention_mask: Optional[np.ndarray] = None) -> tuple:
        logits = self.span_logits(hidden)  # (batch, seq, 2)
        start_logits = logits[:, :, 0]
        end_logits = logits[:, :, 1]
        if attention_mask is not None:
            penalty = Tensor((1.0 - np.asarray(attention_mask, dtype=np.float64)) * (-30.0))
            start_logits = start_logits + penalty
            end_logits = end_logits + penalty
        return start_logits, end_logits


class TaskModel(Module):
    """Encoder plus the head appropriate to a task (classification/regression/span)."""

    def __init__(self, config: BertConfig, task: TaskDataset,
                 softmax_variant: str | SoftmaxVariant = "reference",
                 kernel: str = "auto",
                 kernel_options: Optional[dict] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.config = config
        self.task_type = task.task_type
        self.encoder_model = BertEncoderModel(config, softmax_variant,
                                              kernel=kernel,
                                              kernel_options=kernel_options,
                                              seed=seed)
        if task.task_type == "classification":
            self.head = ClassificationHead(config.hidden_dim, task.num_classes,
                                           dropout=config.dropout, seed=seed)
        elif task.task_type == "regression":
            self.head = RegressionHead(config.hidden_dim, dropout=config.dropout, seed=seed)
        elif task.task_type == "span":
            self.head = SpanHead(config.hidden_dim, seed=seed)
        else:
            raise ValueError(f"unsupported task type {task.task_type!r}")

    def forward(self, input_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None):
        hidden = self.encoder_model(input_ids, attention_mask)
        if self.task_type == "span":
            return self.head(hidden, attention_mask)
        return self.head(hidden)

    def set_softmax_variant(self, variant: str | SoftmaxVariant,
                            kernel: str = "auto",
                            kernel_options: Optional[dict] = None) -> None:
        self.encoder_model.set_softmax_variant(variant, kernel=kernel,
                                               kernel_options=kernel_options)
