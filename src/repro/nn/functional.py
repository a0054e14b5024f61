"""Differentiable functional operations for the NumPy autograd substrate.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects and are
the building blocks used by :mod:`repro.nn.layers` and
:mod:`repro.nn.attention`.  The attention softmax is *pluggable*: the
:class:`SoftmaxVariant` registry maps a name (``"reference"``, ``"base2"``,
``"softermax"``, ...) to a forward function and the gradient surrogate used
in the backward pass, which is how Softermax-aware fine-tuning (bit-accurate
forward, straight-through backward) is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core import (
    OnlineNormalizerState,
    SoftermaxConfig,
    integer_max,
    softermax as softermax_forward,
    softermax_float,
    softmax_reference,
    base2_softmax,
    softmax_jacobian_vector_product,
    log_softmax_reference,
)
from repro.fixedpoint import RoundingMode, quantize
from repro.nn.tensor import Tensor


# --------------------------------------------------------------------------- #
# simple activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as used by BERT)."""
    c = np.sqrt(2.0 / np.pi)
    inner = (x + (x * x * x) * 0.044715) * c
    return x * 0.5 * (inner.tanh() + 1.0)


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return 1.0 / ((-x).exp() + 1.0)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (variance + eps).sqrt()
    return normalized * weight + bias


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight + bias`` (weight stored as in_dim x out_dim)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def prefix_mask_lengths(mask: np.ndarray) -> np.ndarray:
    """Per-sequence valid-token counts of a right-padded attention mask.

    The exact-masking attention path excludes padded keys *exactly* (their
    probability is zero by construction, not an additive penalty), which is
    only well-defined when every sequence is a prefix of valid tokens
    followed by padding.  Raises :class:`ValueError` for interior holes,
    non-0/1 values, or all-padding rows.
    """
    mask = np.asarray(mask, dtype=np.float64)
    lengths = np.rint(mask.sum(axis=-1)).astype(np.int64)
    expected = (np.arange(mask.shape[-1]) < lengths[..., None]).astype(
        np.float64)
    if not np.array_equal(mask, expected):
        raise ValueError(
            "exact masking requires right-padded 0/1 prefix masks "
            "(all 1s followed by all 0s per sequence)")
    if (lengths < 1).any():
        raise ValueError("exact masking requires at least one valid token "
                         "per sequence")
    return lengths


# --------------------------------------------------------------------------- #
# graph-free inference variants (raw ndarrays, ``out=`` threading)
# --------------------------------------------------------------------------- #
# These mirror the Tensor ops above *bit for bit* -- same NumPy calls in the
# same order, so an :class:`repro.infer.InferencePlan` built from them
# replays the exact float64 sequence the autograd path would, just without
# Tensor wrapping, backward closures, or fresh large temporaries.  The
# ``out=``/``scratch=`` parameters accept arena buffers; when omitted the
# functions allocate (useful standalone and in tests).
#
# Bitwise-critical details, pinned by tests/infer/test_plan.py:
# * ``Tensor.mean`` is ``sum * (1.0 / count)`` -- NOT ``np.mean`` (which
#   divides); ``layer_norm_infer`` replays the multiply-by-reciprocal.
# * ``Tensor.__sub__`` is ``a + (-b)``; IEEE-754 addition of a negated
#   operand is bitwise identical to subtraction, so ``np.subtract`` is safe.
# * GELU's association order ``(x * 0.5) * (tanh(...) + 1.0)`` is kept.

def linear_infer(x: np.ndarray, weight: np.ndarray,
                 bias: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine transform on raw arrays; bitwise equal to :func:`linear`."""
    out = np.matmul(x, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def layer_norm_infer(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5,
                     out: Optional[np.ndarray] = None,
                     scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Layer norm on raw arrays; bitwise equal to :func:`layer_norm`.

    ``out`` doubles as the centered buffer, ``scratch`` holds the squared
    deviations; the per-row statistics are a small fresh ``(..., 1)``
    allocation.
    """
    if out is None:
        out = np.empty_like(x)
    if scratch is None:
        scratch = np.empty_like(x)
    count = x.shape[-1]
    stat = np.sum(x, axis=-1, keepdims=True)
    np.multiply(stat, 1.0 / count, out=stat)          # mean
    np.subtract(x, stat, out=out)                     # centered
    np.multiply(out, out, out=scratch)
    np.sum(scratch, axis=-1, keepdims=True, out=stat)
    np.multiply(stat, 1.0 / count, out=stat)          # variance
    np.add(stat, eps, out=stat)
    np.sqrt(stat, out=stat)
    np.divide(out, stat, out=out)                     # normalized
    np.multiply(out, weight, out=out)
    np.add(out, bias, out=out)
    return out


def gelu_infer(x: np.ndarray, out: Optional[np.ndarray] = None,
               scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Tanh-approximation GELU on raw arrays; bitwise equal to :func:`gelu`."""
    if out is None:
        out = np.empty_like(x)
    if scratch is None:
        scratch = np.empty_like(x)
    c = np.sqrt(2.0 / np.pi)
    np.multiply(x, x, out=scratch)
    np.multiply(scratch, x, out=scratch)
    np.multiply(scratch, 0.044715, out=scratch)
    np.add(x, scratch, out=scratch)
    np.multiply(scratch, c, out=scratch)
    np.tanh(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, scratch, out=out)
    return out


def embedding_infer(weight: np.ndarray, ids: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row gather on a raw table; bitwise equal to ``Tensor.gather_rows``."""
    return np.take(weight, np.asarray(ids, dtype=np.int64), axis=0, out=out)


# --------------------------------------------------------------------------- #
# exact-mask attention: one per-group core, two layouts
# --------------------------------------------------------------------------- #
# Exact masking groups sequences by valid length and runs each group's
# attention over its ``[:length]`` slices only, with one kernel call per
# group.  The per-group math (QK^T, scale, softmax, PV -- or the chunked
# online-merge recurrence) exists once, in :func:`_attend_groups`; the two
# layouts differ only in how a group's Q/K/V reach the contiguous
# ``(count, heads, length, head_dim)`` staging buffers and how its context
# goes back:
#
# * padded (:func:`exact_masked_attention`, the graph engine): ``(batch,
#   heads, seq, head_dim)`` tensors, one copy per sequence;
# * packed (:func:`packed_attention`, the plan engine): ``(tokens, hidden)``
#   row matrices whose length groups are contiguous row blocks, one copy
#   per group, context written straight into the merged layout.
#
# Staged bytes and per-group GEMM shapes are the same in both, so each
# sequence's output is bitwise identical whichever layout -- and whichever
# batch -- carried it.

def _take(scratch, key: str, shape) -> np.ndarray:
    """A staging buffer: the workspace's when given, else a fresh one."""
    if scratch is None:
        return np.empty(shape, dtype=np.float64)
    return scratch.take_shaped(key, shape)


def _dense_group_context(qb, kb, vb, scale, softmax_forward,
                         scratch) -> np.ndarray:
    """Dense attention of one staged group; returns the context, written
    over ``qb`` (its data is consumed by the score GEMM)."""
    count, heads, length, _ = qb.shape
    scores = _take(scratch, "attn.scores", (count, heads, length, length))
    np.matmul(qb, kb.swapaxes(-1, -2), out=scores)
    np.multiply(scores, scale, out=scores)
    probs = _take(scratch, "attn.probs", scores.shape)
    softmax_forward(scores, out=probs, scratch=scratch)
    np.matmul(probs, vb, out=qb)
    return qb


_DENSE_KEYS = ("attn.qb", "attn.kb", "attn.vb")
_CHUNK_KEYS = ("chunk.qb", "chunk.kb", "chunk.vb")


def _attend_groups(groups, gather, scatter, heads, head_dim, scale,
                   softmax_forward, variant, block_kv, scratch) -> None:
    """Run every length group through the shared per-group core.

    ``groups`` yields ``(handle, count, length)``; ``gather(handle,
    length, qb, kb, vb)`` fills the staging buffers and ``scatter(handle,
    length, qs, ctx)`` stores the context of query rows ``qs:qs + ctx.
    shape[2]``.  Groups longer than ``block_kv`` take the chunked core.

    Tolerance: bitwise for block_kv=None and groups <= block_kv; longer
    groups inherit chunked_masked_attention's merge contract.
    """
    for handle, count, length in groups:
        chunked = block_kv is not None and length > block_kv
        shape = (count, heads, length, head_dim)
        qb, kb, vb = [_take(scratch, key, shape)
                      for key in (_CHUNK_KEYS if chunked else _DENSE_KEYS)]
        gather(handle, length, qb, kb, vb)
        if chunked:
            _chunked_group_context(
                qb, kb, vb, scale, variant, block_kv, scratch,
                lambda qs, ctx: scatter(handle, length, qs, ctx))
        else:
            scatter(handle, length, 0, _dense_group_context(
                qb, kb, vb, scale, softmax_forward, scratch))


def exact_masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                           lengths: np.ndarray, scale: float,
                           softmax_forward: Callable[..., np.ndarray],
                           out: Optional[np.ndarray] = None,
                           scratch=None) -> np.ndarray:
    """Length-grouped attention with padded keys excluded exactly.

    ``q``/``k``/``v`` are padded ``(batch, heads, seq, head_dim)`` tensors
    and ``lengths`` each sequence's valid prefix.  Sequences are grouped
    by valid length; each group's scores, softmax and context are computed
    on the ``[:length]`` slices only, in one kernel call per group.
    Per-sequence results are therefore bitwise identical to running that
    sequence alone (rows are independent in every bit-accurate kernel, and
    the per-(batch, head) GEMM operands have identical shapes either way)
    and to the plan engine's :func:`packed_attention`.  Padded positions
    come back as exact zeros.

    ``softmax_forward`` follows the workspace-aware contract ``fn(scores,
    out=, scratch=)`` (see :func:`softmax_forward_with_out`).  ``out`` may
    be a caller buffer (it is zero-filled here); with a ``scratch``
    workspace every per-group temporary is staged on it, otherwise they
    are ordinary allocations.
    """
    return _padded_attention(q, k, v, lengths, scale, softmax_forward,
                             None, None, out, scratch)


def _padded_attention(q, k, v, lengths, scale, softmax_forward, variant,
                      block_kv, out, scratch) -> np.ndarray:
    """Gather/scatter of the padded layout around :func:`_attend_groups`.

    Tolerance: bitwise for block_kv=None and groups <= block_kv; longer
    groups inherit chunked_masked_attention's merge contract.
    """
    if out is None:
        out = np.zeros_like(v)
    else:
        out.fill(0.0)

    def gather(idx, length, qb, kb, vb) -> None:
        for j, b in enumerate(idx):
            np.copyto(qb[j], q[b, :, :length, :])
            np.copyto(kb[j], k[b, :, :length, :])
            np.copyto(vb[j], v[b, :, :length, :])

    def scatter(idx, length, qs, ctx) -> None:
        qe = qs + ctx.shape[2]
        for j, b in enumerate(idx):
            np.copyto(out[b, :, qs:qe, :], ctx[j])

    groups = []
    for length in np.unique(lengths):
        idx = np.nonzero(lengths == length)[0]
        groups.append((idx, len(idx), int(length)))
    _attend_groups(groups, gather, scatter, q.shape[1], q.shape[-1], scale,
                   softmax_forward, variant, block_kv, scratch)
    return out


def packed_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     groups, heads: int, scale: float,
                     softmax_forward: Callable[..., np.ndarray],
                     variant: Optional["SoftmaxVariant"] = None,
                     block_kv: Optional[int] = None,
                     out: Optional[np.ndarray] = None,
                     scratch=None) -> np.ndarray:
    """Exact-mask attention over packed token rows (the plan's layout).

    ``q``/``k``/``v`` are ``(tokens, hidden)`` row matrices -- any row
    stride, e.g. column slices of a fused QKV projection.  ``groups``
    lists ``(start, count, length)`` blocks: ``count`` sequences of
    ``length`` tokens each, one after another from row ``start``.  Each
    group's operands are staged with one copy apiece, run through the
    same per-group core as :func:`exact_masked_attention` (one softmax
    call per group), and its context is written straight into ``out``'s
    merged ``(tokens, hidden)`` layout.  Rows after the last group are pad
    rows: they get exact zeros, as padded positions do.

    ``block_kv`` sends groups longer than it through the chunked core of
    :func:`chunked_masked_attention` (``variant`` supplies the streaming
    recurrence).

    Tolerance: bitwise vs exact_masked_attention for block_kv=None and
    groups <= block_kv; longer groups inherit chunked_masked_attention's
    merge contract.
    """
    if block_kv is not None:
        _check_chunkable(variant, block_kv)
    rows, hidden = q.shape
    head_dim = hidden // heads
    if out is None:
        out = np.empty((rows, hidden), dtype=np.float64)
    covered = 0
    if groups:
        start, count, length = groups[-1]
        covered = start + count * length
    out[covered:].fill(0.0)

    def blocks(x, start, count, length) -> np.ndarray:
        # (rows, hidden) -> (count, length, heads, head_dim), a view.
        return x[start:start + count * length].reshape(
            count, length, heads, head_dim)

    def gather(start, length, qb, kb, vb) -> None:
        count = qb.shape[0]
        np.copyto(qb, blocks(q, start, count, length).transpose(0, 2, 1, 3))
        np.copyto(kb, blocks(k, start, count, length).transpose(0, 2, 1, 3))
        np.copyto(vb, blocks(v, start, count, length).transpose(0, 2, 1, 3))

    def scatter(start, length, qs, ctx) -> None:
        count, _, width, _ = ctx.shape
        np.copyto(blocks(out, start, count, length)[:, qs:qs + width],
                  ctx.transpose(0, 2, 1, 3))

    _attend_groups(groups, gather, scatter, heads, head_dim, scale,
                   softmax_forward, variant, block_kv, scratch)
    return out


# --------------------------------------------------------------------------- #
# chunked O(block)-memory attention on the online-normalizer recurrence
# --------------------------------------------------------------------------- #
#: Tolerance contract of the chunked whole-row merge for the float softmax
#: variants (``"reference"``, ``"base2"``): chunked output vs the dense
#: engine on shapes both can run.  Every cross-block renormalization is an
#: exact power of two (the integer running max of the paper's recurrence),
#: so the only deviation is float summation order across blocks.
CHUNKED_MERGE_RTOL = 1e-9
CHUNKED_MERGE_ATOL = 1e-12


class _ExactChunkRule:
    """Per-query-block streaming softmax state for the float variants.

    Rides :class:`~repro.core.OnlineNormalizerState` in exact mode, one
    :meth:`update` per key/value block.  The integer running max makes
    every cross-block renormalization factor ``2**(old_max - new_max)`` an
    exact power of two, so merging accumulates no rounding beyond float
    summation order (see :data:`CHUNKED_MERGE_RTOL`).  Base-e variants are
    handled upstream by folding ``log2(e)`` into the score scale:
    ``e**x == 2**(x * log2(e))``.
    """

    def __init__(self, rows_shape) -> None:
        self._state = OnlineNormalizerState(rows_shape, exact=True)
        self._prev_max = None

    def feed(self, scores: np.ndarray):
        """Consume one key/value block of scaled scores.

        Returns ``(weights, ctx_shift)``: unnormalized weights relative to
        the *new* running max, and the factor (or ``None`` when it is
        identically one) that rescales the partial context accumulated so
        far onto the new max.
        """
        state = self._state
        prev_max = self._prev_max
        local_max = integer_max(scores, axis=-1)
        unnormed = state.update(scores)
        new_max = state.running_max
        np.multiply(unnormed,
                    np.power(2.0, local_max - new_max)[..., None],
                    out=unnormed)
        self._prev_max = new_max
        if prev_max is None:
            return unnormed, None
        shift = np.power(2.0, prev_max - new_max)
        if np.all(shift == 1.0):
            return unnormed, None
        return unnormed, shift

    def finalize_(self, ctx: np.ndarray) -> None:
        """Divide the accumulated context by the merged denominator."""
        np.divide(ctx, self._state.running_sum[..., None], out=ctx)


class _SoftermaxChunkRule:
    """Per-query-block streaming state for bit-accurate Softermax variants.

    Per-block statistics come from the fused kernel front end
    (:meth:`~repro.kernels.fused.FusedSoftermaxKernel.online_stats`),
    bitwise-pinned to the slice-loop pipeline; blocks are then merged with
    the paper's own hardware recurrence at block granularity -- power-of-two
    shifts on the integer running max plus a ``sum_fmt`` round-to-nearest
    on the running sum -- and the final division uses the bit-accurate
    reciprocal unit.  The whole bit-accurate kernel family shares one
    oracle, so the chunked statistics are identical whichever kernel the
    variant itself selected.
    """

    def __init__(self, config: SoftermaxConfig, ws) -> None:
        from repro.kernels.fused import get_fused_kernel

        self._kernel = get_fused_kernel(config)
        self._config = config
        self._ws = ws
        self._max = None
        self._sum = None

    def feed(self, scores: np.ndarray):
        cfg = self._config
        unnormed, slice_maxes, bmax, bsum = self._kernel.online_stats(
            scores, ws=self._ws)
        if self._max is None:
            new_max = bmax
            self._sum = bsum
            shift = None
        else:
            new_max = np.maximum(self._max, bmax)
            run_shift = np.power(2.0, self._max - new_max)
            loc_shift = np.power(2.0, bmax - new_max)
            merged = self._sum * run_shift + bsum * loc_shift
            self._sum = quantize(merged, cfg.sum_fmt, RoundingMode.NEAREST)
            shift = None if np.all(run_shift == 1.0) else run_shift
        # Rescale the per-slice-relative numerators onto the running max;
        # the exponents are integers, so the factors are exact.
        exp = np.repeat(slice_maxes - new_max[..., None],
                        cfg.slice_width, axis=-1)
        np.multiply(unnormed,
                    np.power(2.0, exp[..., :scores.shape[-1]]),
                    out=unnormed)
        self._max = new_max
        return unnormed, shift

    def finalize_(self, ctx: np.ndarray) -> None:
        recip = self._kernel.reciprocal_unit(self._sum)
        np.multiply(ctx, recip[..., None], out=ctx)


def _chunk_rule(variant: "SoftmaxVariant", rows_shape, scratch):
    if variant.chunk_kind == "softermax":
        cfg = variant.config or SoftermaxConfig.paper_table1()
        return _SoftermaxChunkRule(cfg, scratch)
    return _ExactChunkRule(rows_shape)


def _chunk_scale(variant: "SoftmaxVariant", scale: float) -> float:
    """Score scale for the chunked path (folds base-e onto base 2)."""
    if variant.chunk_kind == "exact" and variant.base != 2.0:
        return scale * np.log2(variant.base)
    return scale


def chunked_masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             lengths: np.ndarray, scale: float,
                             variant: "SoftmaxVariant", block_kv: int,
                             out: Optional[np.ndarray] = None,
                             scratch=None) -> np.ndarray:
    """Length-grouped attention in O(block) peak memory.

    Same contract and masking semantics as :func:`exact_masked_attention`,
    but nothing quadratic in the sequence length is ever materialized:
    both the query and the key/value axes are processed in blocks of
    ``block_kv`` (blocking only the keys would still leave an
    ``seq x block`` score strip per query row -- at 32k queries that is
    hundreds of megabytes), carrying ``(running_max, running_sum, partial
    context)`` through the online-normalizer merge.  Peak extra memory per
    group is the staged Q/K/V slices (linear in the sequence) plus
    ``O(block_kv**2)`` score/weight temporaries.

    Length groups not longer than ``block_kv`` delegate to the dense group
    path and are therefore *bitwise identical* to
    :func:`exact_masked_attention`.  Longer groups follow the documented
    tolerance contract (the same opt-in rule as ``fuse_qkv``):

    * float variants (``chunk_kind == "exact"``): within
      :data:`CHUNKED_MERGE_RTOL`/:data:`CHUNKED_MERGE_ATOL` of the dense
      engine -- all cross-block renormalizations are exact powers of two,
      only float summation order differs;
    * bit-accurate Softermax variants (``chunk_kind == "softermax"``):
      per-block statistics stay bitwise-pinned to the slice-loop oracle
      (via :meth:`~repro.kernels.fused.FusedSoftermaxKernel.online_stats`)
      and blocks merge with the paper's hardware recurrence, but the
      streaming path cannot apply the dense back end's two output-side
      roundings (the FLOOR requantize of renormalized numerators and the
      NEAREST ``output_fmt`` rounding), so whole-row results differ from
      the dense engine by a few output resolutions per probability --
      bounded in practice by ``~output_fmt.resolution * sqrt(L) *
      max|V|`` per context element (pinned by the chunked test suite).

    Variants without a declared ``chunk_kind`` (custom registrations) are
    rejected: their forward is a black box with no streaming recurrence.

    ``out``/``scratch`` follow the allocation-free contract of
    :func:`exact_masked_attention`: with a workspace, block buffers are
    staged on it, so steady-state executions allocate nothing.  The plan
    engine runs the same chunked core on packed rows
    (:func:`packed_attention` with ``block_kv``).

    Tolerance: bitwise vs exact_masked_attention for groups <= block_kv;
    longer groups: float variants within CHUNKED_MERGE_RTOL /
    CHUNKED_MERGE_ATOL, Softermax variants within ~output_fmt.resolution
    * sqrt(L) * max|V| per context element (pinned by
    tests/nn/test_chunked_attention.py).
    """
    _check_chunkable(variant, block_kv)
    return _padded_attention(q, k, v, lengths, scale,
                             softmax_forward_with_out(variant), variant,
                             int(block_kv), out, scratch)


def _check_chunkable(variant: "SoftmaxVariant", block_kv: int) -> None:
    """Reject block sizes and variants the chunked core cannot run.

    Tolerance: validation only; chunked groups follow
    chunked_masked_attention's merge contract.
    """
    if int(block_kv) < 1:
        raise ValueError(f"block_kv must be >= 1, got {block_kv}")
    if getattr(variant, "chunk_kind", None) is None:
        raise ValueError(
            f"softmax variant {getattr(variant, 'name', variant)!r} does "
            "not define a chunked (online-merge) recurrence; chunked "
            "attention supports the float reference variants and Softermax "
            "variants built by make_softermax_variant")


def _chunked_group_context(qb, kb, vb, scale, variant, block, scratch,
                           emit) -> None:
    """Blocked attention of one staged group (O(block**2) temporaries);
    ``emit(qs, ctx)`` receives each query block's finished context."""
    count, heads, length, head_dim = qb.shape
    eff_scale = _chunk_scale(variant, scale)
    for qs in range(0, length, block):
        qe = min(qs + block, length)
        qw = qe - qs
        rule = _chunk_rule(variant, (count, heads, qw), scratch)
        ctx = _take(scratch, "chunk.ctx", (count, heads, qw, head_dim))
        qview = qb[:, :, qs:qe, :]
        for ks in range(0, length, block):
            ke = min(ks + block, length)
            kw = ke - ks
            scores = _take(scratch, "chunk.scores", (count, heads, qw, kw))
            np.matmul(qview, kb[:, :, ks:ke, :].swapaxes(-1, -2), out=scores)
            np.multiply(scores, eff_scale, out=scores)
            weights, ctx_shift = rule.feed(scores)
            if ks == 0:
                np.matmul(weights, vb[:, :, ks:ke, :], out=ctx)
                continue
            if ctx_shift is not None:
                np.multiply(ctx, ctx_shift[..., None], out=ctx)
            part = _take(scratch, "chunk.part", (count, heads, qw, head_dim))
            np.matmul(weights, vb[:, :, ks:ke, :], out=part)
            np.add(ctx, part, out=ctx)
        rule.finalize_(ctx)
        emit(qs, ctx)


# --------------------------------------------------------------------------- #
# softmax variants (the pluggable attention softmax)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SoftmaxVariant:
    """A named softmax implementation usable inside attention.

    Attributes
    ----------
    name:
        Registry key.
    forward_fn:
        ``forward_fn(scores) -> probabilities`` on raw NumPy arrays (may be
        non-differentiable, e.g. the bit-accurate Softermax pipeline).
    surrogate_fn:
        Smooth float function whose Jacobian is used in the backward pass
        (the straight-through estimator).  For exact float softmaxes this is
        the same function as ``forward_fn``.
    base:
        Exponential base of the surrogate (needed for the Jacobian scale).
    supports_out:
        Whether ``forward_fn`` accepts the workspace-aware keywords
        (``out=``, ``scratch=``) of the kernel contract.  The built-in
        variants all do; custom variants registered with a plain
        single-argument forward are adapted by
        :func:`softmax_forward_with_out` where needed.
    config:
        Softermax operating point the variant is bound to (``None`` for
        float variants); consulted by the chunked attention path.
    chunk_kind:
        Which streaming recurrence :func:`chunked_masked_attention` may
        use for this variant: ``"exact"`` (float online-normalizer merge),
        ``"softermax"`` (bit-accurate block statistics merged with the
        hardware recurrence), or ``None`` (not chunkable -- the forward is
        a black box).
    """

    name: str
    forward_fn: Callable[[np.ndarray], np.ndarray]
    surrogate_fn: Callable[[np.ndarray], np.ndarray]
    base: float
    supports_out: bool = False
    config: Optional[SoftermaxConfig] = None
    chunk_kind: Optional[str] = None


def _registry() -> Dict[str, SoftmaxVariant]:
    return dict(_SOFTMAX_VARIANTS)


_SOFTMAX_VARIANTS: Dict[str, SoftmaxVariant] = {}


def register_softmax_variant(variant: SoftmaxVariant) -> None:
    """Register (or replace) a softmax variant by name."""
    _SOFTMAX_VARIANTS[variant.name] = variant


def get_softmax_variant(name: str) -> SoftmaxVariant:
    """Look up a registered softmax variant."""
    try:
        return _SOFTMAX_VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown softmax variant {name!r}; available: {sorted(_SOFTMAX_VARIANTS)}"
        ) from None


def available_softmax_variants() -> list:
    """Names of all registered softmax variants."""
    return sorted(_SOFTMAX_VARIANTS)


def softmax_forward_with_out(variant: SoftmaxVariant) -> Callable:
    """A uniform ``fn(scores, out=None, scratch=None)`` over any variant.

    Out-capable variants return their forward unchanged; plain forwards
    are adapted with copy-out semantics so callers that thread arena
    buffers (the plan executor) work with custom variants too.
    """
    if variant.supports_out:
        return variant.forward_fn
    forward = variant.forward_fn

    def adapted(scores: np.ndarray, out: Optional[np.ndarray] = None,
                scratch=None) -> np.ndarray:
        probs = forward(scores)
        if out is None:
            return probs
        np.copyto(out, probs)
        return out

    return adapted


def make_softermax_variant(config: SoftermaxConfig | None = None,
                           name: str = "softermax",
                           kernel: str = "auto",
                           kernel_options: dict | None = None) -> SoftmaxVariant:
    """Create a Softermax variant bound to a specific operating point.

    Parameters
    ----------
    config:
        Operating point (paper Table I when omitted).
    name:
        Registry key of the resulting variant.
    kernel:
        Named implementation from :mod:`repro.kernels` (``"auto"`` selects
        the adaptive fused/blocked/parallel dispatcher; every kernel in
        the bit-accurate family matches the ``"softermax-bit-accurate"``
        oracle bit for bit).
    kernel_options:
        Engine knobs forwarded to the kernel factory (e.g. ``workers``,
        ``block_rows``).
    """
    from repro.kernels import resolve_kernel

    cfg = config or SoftermaxConfig.paper_table1()
    kernel_fn = resolve_kernel(kernel, cfg, **(kernel_options or {}))

    def forward(scores: np.ndarray, out: Optional[np.ndarray] = None,
                scratch=None) -> np.ndarray:
        return kernel_fn(scores, axis=-1, out=out, scratch=scratch)

    return SoftmaxVariant(
        name=name,
        forward_fn=forward,
        surrogate_fn=lambda s: softermax_float(s, axis=-1),
        base=2.0,
        supports_out=True,
        config=cfg,
        chunk_kind="softermax",
    )


def _float_variant(name: str, fn: Callable, base: float) -> SoftmaxVariant:
    """A float-reference variant with copy-out contract support."""

    def forward(scores: np.ndarray, out: Optional[np.ndarray] = None,
                scratch=None) -> np.ndarray:
        probs = fn(scores, axis=-1)
        if out is None:
            return probs
        np.copyto(out, probs)
        return out

    return SoftmaxVariant(
        name=name,
        forward_fn=forward,
        surrogate_fn=lambda s: fn(s, axis=-1),
        base=base,
        supports_out=True,
        chunk_kind="exact",
    )


register_softmax_variant(_float_variant("reference", softmax_reference, np.e))
register_softmax_variant(_float_variant("base2", base2_softmax, 2.0))
register_softmax_variant(make_softermax_variant())


def attention_softmax(scores: Tensor, variant: SoftmaxVariant) -> Tensor:
    """Apply a softmax variant along the last axis of ``scores``.

    Forward: the variant's (possibly bit-accurate fixed-point) forward
    function.  Backward: straight-through estimator -- the gradient of the
    smooth surrogate evaluated at the same input, which is exactly the
    scheme the paper uses for Softermax-aware fine-tuning.
    """

    def forward_fn(data: np.ndarray) -> np.ndarray:
        return variant.forward_fn(data)

    def backward_fn(grad_out: np.ndarray, input_data: np.ndarray,
                    output_data: np.ndarray) -> np.ndarray:
        surrogate_probs = variant.surrogate_fn(input_data)
        return softmax_jacobian_vector_product(
            surrogate_probs, grad_out, axis=-1, base=variant.base
        )

    return scores.apply(forward_fn, backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Plain differentiable base-e softmax (used outside attention)."""
    if axis != -1:
        raise ValueError("softmax currently supports only the last axis")

    def forward_fn(data: np.ndarray) -> np.ndarray:
        return softmax_reference(data, axis=-1)

    def backward_fn(grad_out: np.ndarray, input_data: np.ndarray,
                    output_data: np.ndarray) -> np.ndarray:
        return softmax_jacobian_vector_product(output_data, grad_out, axis=-1, base=np.e)

    return x.apply(forward_fn, backward_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable differentiable log-softmax."""
    if axis != -1:
        raise ValueError("log_softmax currently supports only the last axis")

    def forward_fn(data: np.ndarray) -> np.ndarray:
        return log_softmax_reference(data, axis=-1)

    def backward_fn(grad_out: np.ndarray, input_data: np.ndarray,
                    output_data: np.ndarray) -> np.ndarray:
        probs = np.exp(output_data)
        return grad_out - probs * np.sum(grad_out, axis=-1, keepdims=True)

    return x.apply(forward_fn, backward_fn)
