"""InferencePlan: bit-transparency vs the graph engine, arena reuse,
snapshot semantics, eval-mode no-ops, and the fused-QKV opt-in.

The load-bearing tests are the bitwise ones: the default plan engine must
replay the exact float64 op sequence of the autograd Tensor path, so every
output -- unmasked, additive-masked, and exact-masked ragged -- compares
with ``np.array_equal``, not ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import InferencePlan
from repro.models import BertConfig
from repro.models.bert import BertEncoderModel
from repro.nn import TransformerEncoder, Tensor
from repro.quant.qat import attach_quantizers

pytestmark = pytest.mark.plan

VOCAB = 24
MAX_SEQ = 16


def make_model(softmax_variant: str = "softermax",
               seed: int = 0) -> BertEncoderModel:
    config = BertConfig.tiny_base(vocab_size=VOCAB, max_seq_len=MAX_SEQ)
    model = BertEncoderModel(config, softmax_variant=softmax_variant,
                             kernel="auto", seed=seed)
    return model.eval()


@pytest.fixture(scope="module")
def model() -> BertEncoderModel:
    return make_model()


@pytest.fixture
def ids(rng) -> np.ndarray:
    return rng.integers(0, VOCAB, size=(3, 12))


# --------------------------------------------------------------------------- #
# bit-transparency (the tentpole's acceptance contract)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch,seq", [(1, 2), (1, MAX_SEQ), (4, 7), (2, 12)])
def test_plan_bitwise_equals_graph_unmasked(model, rng, batch, seq):
    ids = rng.integers(0, VOCAB, size=(batch, seq))
    graph = model.encode(ids, engine="graph")
    plan = model.encode(ids, engine="plan")
    assert np.array_equal(graph, plan)


def test_plan_bitwise_equals_graph_with_additive_mask(model, ids):
    mask = np.ones(ids.shape)
    mask[0, 9:] = 0.0
    mask[2, 4:] = 0.0
    graph = model.encode(ids, mask, engine="graph")
    plan = model.encode(ids, mask, engine="plan")
    assert np.array_equal(graph, plan)


def test_plan_ragged_bitwise_equals_graph_and_solo(model, rng):
    sequences = [list(rng.integers(1, VOCAB, size=int(n)))
                 for n in (3, 11, 7, 2, 7)]
    graph = model.encode_ragged(sequences, engine="graph")
    plan = model.encode_ragged(sequences, engine="plan")
    for got, expected in zip(plan, graph):
        assert np.array_equal(got, expected)
    # Each sequence is also bitwise equal to riding alone (the serving
    # bit-transparency contract, now through the plan engine).
    for seq, expected in zip(sequences, plan):
        solo = model.encode_ragged([seq], engine="plan")[0]
        assert np.array_equal(solo, expected)


# --------------------------------------------------------------------------- #
# packed ragged layout: length-sorted token rows, no padding
# --------------------------------------------------------------------------- #
def _ragged(rng, lengths):
    return [list(rng.integers(1, VOCAB, size=int(n))) for n in lengths]


def assert_packed_bitwise(model, sequences, **engine):
    """Plan (packed) == graph (padded) == solo plan, bit for bit."""
    plan = model.encode_ragged(sequences, engine="plan", **engine)
    graph = model.encode_ragged(sequences, engine="graph", **engine)
    assert len(plan) == len(sequences)
    for seq, got, expected in zip(sequences, plan, graph):
        assert got.shape == (len(seq), model.config.hidden_dim)
        assert np.array_equal(got, expected)
        solo = model.encode_ragged([seq], engine="plan", **engine)[0]
        assert np.array_equal(got, solo)
    return plan


def test_pack_lengths_sorts_stably_into_contiguous_groups():
    from repro.infer.plan import pack_lengths

    order, groups, offsets = pack_lengths([3, 1, 3, 2, 1])
    assert order == [1, 4, 3, 0, 2]
    # (start_row, count, length): one block per distinct length.
    assert groups == ((0, 2, 1), (2, 1, 2), (4, 2, 3))
    assert offsets == [4, 0, 7, 2, 1]


@pytest.mark.parametrize("lengths", [
    (5, 5, 5, 5),                        # one length group
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),  # every length distinct
    (9, 3, 14, 3, 9, 16, 1, 9),           # mixed groups, unsorted input
])
def test_packed_groups_bitwise_equal_graph_and_solo(model, rng, lengths):
    assert_packed_bitwise(model, _ragged(rng, lengths))


def test_packed_shuffled_batch_gives_identical_outputs(model, rng):
    sequences = _ragged(rng, (4, 12, 7, 12, 2, 7, 16, 4))
    baseline = model.encode_ragged(sequences, engine="plan")
    order = rng.permutation(len(sequences))
    shuffled = model.encode_ragged([sequences[i] for i in order],
                                   engine="plan")
    for position, index in enumerate(order):
        assert np.array_equal(shuffled[position], baseline[index])


def test_packed_solo_length_one_keeps_the_two_row_floor(model, rng):
    """A solo one-token request packs to one real row plus a pad row, so
    its token GEMMs take the same (gemm) path as inside a batch."""
    from repro.infer.plan import MIN_PACKED_ROWS

    assert MIN_PACKED_ROWS == 2
    single = [int(rng.integers(1, VOCAB))]
    solo = model.encode_ragged([single], engine="plan")[0]
    batch = [single] + _ragged(rng, (6, 1, 11))
    assert np.array_equal(solo, model.encode_ragged(batch, engine="plan")[0])
    assert np.array_equal(solo,
                          model.encode_ragged([single], engine="graph")[0])


def test_packed_pad_row_ignores_stale_pooled_ids(rng):
    """The pad row's id comes from the request, not from the pooled
    buffer: an out-of-range leftover must not fail a valid request."""
    model = make_model()
    plan = model.inference_plan()
    for _ in range(2):   # the ids and positions registers
        plan.arena.release(np.full(2, 10**9, dtype=np.int64))
    single = [int(rng.integers(1, VOCAB))]
    served = model.encode_ragged([single], engine="plan")[0]
    assert np.array_equal(served,
                          model.encode_ragged([single], engine="graph")[0])


@pytest.mark.parametrize("block", [4, 8])
def test_packed_block_kv_groups_above_and_below_block(model, rng, block):
    # Groups of length 3 and block stay dense; 9, 13 and 16 are chunked.
    sequences = _ragged(rng, (13, 3, block, 16, 9, 3, 13))
    assert_packed_bitwise(model, sequences, block_kv=block)


def test_packed_fuse_qkv_within_tolerance(model, rng):
    sequences = _ragged(rng, (8, 3, 15, 8, 1))
    fused = model.encode_ragged(sequences, engine="plan", fuse_qkv=True)
    graph = model.encode_ragged(sequences, engine="graph")
    for seq, got, expected in zip(sequences, fused, graph):
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
        # Fused or not, batching stays bit-transparent.
        solo = model.encode_ragged([seq], engine="plan", fuse_qkv=True)[0]
        assert np.array_equal(got, solo)


def test_packed_hidden_state_plan(rng):
    """A TransformerEncoder plan packs (length, hidden) arrays."""
    encoder = TransformerEncoder(num_layers=2, hidden_dim=16, num_heads=2,
                                 intermediate_dim=32, dropout=0.0,
                                 softmax_variant="softermax", seed=3).eval()
    plan = InferencePlan.from_model(encoder)
    sequences = [rng.normal(size=(n, 16)) for n in (5, 2, 9, 5, 1)]
    packed = plan.run_ragged(sequences, extract=lambda views: [
        np.array(view) for view in views])
    width = max(len(seq) for seq in sequences)
    padded = np.zeros((len(sequences), width, 16))
    mask = np.zeros((len(sequences), width))
    for i, seq in enumerate(sequences):
        padded[i, :len(seq)] = seq
        mask[i, :len(seq)] = 1.0
    graph = encoder(Tensor(padded), mask, exact_mask=True).data
    for i, seq in enumerate(sequences):
        assert np.array_equal(packed[i], graph[i, :len(seq)])
        solo = plan.run_ragged([seq], extract=lambda views: np.array(
            views[0]))
        assert np.array_equal(packed[i], solo)


def test_packed_padded_entry_matches_graph_including_pad_cells(model, rng):
    """run_ragged with a prefix mask runs the pad cells as a trailing
    block with zero attention context: every padded cell matches."""
    ids = rng.integers(0, VOCAB, size=(4, 10))
    mask = np.zeros(ids.shape)
    for row, length in enumerate((10, 3, 7, 3)):
        mask[row, :length] = 1.0
    plan = model.inference_plan().run_ragged(ids, mask, extract=np.array)
    graph = model.forward(ids, mask, exact_mask=True).data
    assert np.array_equal(plan, graph)


def test_packed_arena_has_no_misses_across_token_totals(model):
    """Row-capacity buckets: once warm, batches with token totals never
    seen before reuse the pooled buffers instead of allocating."""
    from repro.infer.arena import row_capacity

    rng = np.random.default_rng(7)
    warm = [_ragged(rng, rng.integers(8, 17, size=32)) for _ in range(4)]
    # Trimmed copies: new totals, and no length group larger than in the
    # warm batch they come from (so the kernel workspace need not grow).
    fresh = [batch[:-cut] for batch in warm for cut in (1, 2, 3)]
    warm_totals = {sum(map(len, batch)) for batch in warm}
    fresh_totals = {sum(map(len, batch)) for batch in fresh}
    assert fresh_totals - warm_totals
    assert ({row_capacity(total) for total in fresh_totals}
            <= {row_capacity(total) for total in warm_totals})
    plan = model.inference_plan()
    for batch in warm:
        model.encode_ragged(batch, engine="plan")
    misses = plan.arena.misses
    outputs = [model.encode_ragged(batch, engine="plan") for batch in fresh]
    assert plan.arena.misses == misses
    for batch, served in zip(fresh, outputs):
        for seq, got in zip(batch[:3], served):
            assert np.array_equal(
                got, model.encode_ragged([seq], engine="graph")[0])


def test_encoder_only_plan_takes_hidden_states(rng):
    encoder = TransformerEncoder(num_layers=2, hidden_dim=16, num_heads=2,
                                 intermediate_dim=32, dropout=0.0,
                                 softmax_variant="reference", seed=3).eval()
    hidden = rng.normal(size=(2, 6, 16))
    graph = encoder(Tensor(hidden)).data
    plan = InferencePlan.from_model(encoder)
    assert plan.input_kind == "hidden"
    assert np.array_equal(graph, plan.run(hidden))


def test_plan_deterministic_across_repeated_calls(model, ids):
    first = model.encode(ids, engine="plan")
    for _ in range(3):
        assert np.array_equal(first, model.encode(ids, engine="plan"))


# --------------------------------------------------------------------------- #
# workspace arena behavior
# --------------------------------------------------------------------------- #
def test_steady_state_ragged_calls_do_not_allocate(model, rng):
    from repro.kernels import output_allocation_count

    sequences = [list(rng.integers(1, VOCAB, size=int(n)))
                 for n in (5, 9, 12, 9)]
    plan = model.inference_plan()
    model.encode_ragged(sequences, engine="plan")
    model.encode_ragged(sequences, engine="plan")
    misses_before = plan.arena.misses
    kernel_allocs_before = output_allocation_count()
    scratch_reallocs_before = plan.scratch.reallocs
    model.encode_ragged(sequences, engine="plan")
    assert plan.arena.misses == misses_before, \
        "steady-state serving must reuse arena buffers, not allocate"
    assert plan.arena.hits > 0
    # The workspace-aware kernel boundary: the softmax stage writes into
    # arena buffers (out=) and draws scratch from the plan workspace, so
    # steady state performs zero kernel-output allocations too.
    assert output_allocation_count() == kernel_allocs_before, \
        "steady-state serving must not allocate kernel outputs"
    assert plan.scratch.reallocs == scratch_reallocs_before


def test_plan_stats_include_kernel_scratch(model, rng):
    sequences = [list(rng.integers(1, VOCAB, size=int(n))) for n in (4, 7)]
    model.encode_ragged(sequences, engine="plan")
    stats = model.inference_plan().stats()
    scratch = stats["kernel_scratch"]
    assert scratch["buffers"] > 0 and scratch["nbytes"] > 0
    # Arena-backed scratch: the workspace's bytes were allocated by (and
    # are accounted to) the plan's arena.
    assert stats["arena"]["allocated_bytes"] >= scratch["nbytes"]


def test_run_output_is_caller_owned(model, rng):
    ids_a = rng.integers(0, VOCAB, size=(2, 8))
    ids_b = rng.integers(0, VOCAB, size=(2, 8))
    out_a = model.encode(ids_a, engine="plan")
    expected_a = out_a.copy()
    # A later call with the same shapes must not recycle out_a's buffer.
    out_b = model.encode(ids_b, engine="plan")
    assert np.array_equal(out_a, expected_a)
    out_a[:] = -1.0  # caller may scribble without corrupting the plan
    out_c = model.encode(ids_b, engine="plan")
    assert np.array_equal(out_b, out_c)


def test_plan_introspection(model):
    plan = model.inference_plan()
    names = plan.op_names()
    assert plan.num_ops == len(names)
    assert names[0] == "embeddings"
    assert any("encoder.layer_0.attention.core" == n for n in names)
    assert any("encoder.layer_1.output_norm" == n for n in names)
    description = plan.describe()
    assert "BertEncoderModel" in description and "embeddings" in description
    assert plan.stats()["arena"]["misses"] >= 0


# --------------------------------------------------------------------------- #
# fused QKV projection (opt-in, tolerance contract)
# --------------------------------------------------------------------------- #
def test_fused_qkv_matches_within_tolerance(model, ids):
    graph = model.encode(ids, engine="graph")
    fused = model.encode(ids, engine="plan", fuse_qkv=True)
    np.testing.assert_allclose(fused, graph, rtol=1e-10, atol=1e-12)


def test_fused_qkv_emits_one_projection_gemm(model):
    fused_plan = model.inference_plan(fuse_qkv=True)
    names = fused_plan.op_names()
    assert any(name.endswith("qkv_fused") for name in names)
    assert not any(name.endswith(".query") for name in names)
    plain_plan = model.inference_plan(fuse_qkv=False)
    # Two fewer projection ops per layer.
    assert fused_plan.num_ops < plain_plan.num_ops


def test_fused_qkv_rejects_quantized_projections():
    model = make_model(seed=5)
    quantizers = attach_quantizers(model)
    for quantizer in quantizers.values():
        quantizer.set_amax(1.0)
    with pytest.raises(ValueError, match="fuse_qkv"):
        model.inference_plan(fuse_qkv=True, refresh=True)


def test_concurrent_ragged_calls_are_isolated(model, rng):
    """Two threads hammering the same model's plan engine with same-shaped
    batches must never see each other's hidden states (the per-sequence
    copies happen inside the plan's execution lock)."""
    import threading

    set_a = [list(rng.integers(1, VOCAB, size=n)) for n in (6, 10, 4)]
    set_b = [list(rng.integers(1, VOCAB, size=n)) for n in (6, 10, 4)]
    expected = {0: model.encode_ragged(set_a, engine="plan"),
                1: model.encode_ragged(set_b, engine="plan")}
    failures = []

    def worker(index, sequences):
        for _ in range(25):
            outputs = model.encode_ragged(sequences, engine="plan")
            for got, want in zip(outputs, expected[index]):
                if not np.array_equal(got, want):
                    failures.append(index)
                    return

    threads = [threading.Thread(target=worker, args=(0, set_a)),
               threading.Thread(target=worker, args=(1, set_b))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, "concurrent plan executions corrupted responses"


# --------------------------------------------------------------------------- #
# snapshot semantics: state_dict round trips and cache invalidation
# --------------------------------------------------------------------------- #
def test_state_dict_roundtrip_through_plan(rng):
    model = make_model(seed=1)
    donor = make_model(seed=2)
    ids = rng.integers(0, VOCAB, size=(2, 6))

    stale_plan = model.inference_plan()
    old_output = stale_plan.run(ids).copy()

    model.load_state_dict(donor.state_dict())
    # The pre-load plan snapshotted the old weights (documented snapshot
    # semantics): it still reproduces the old outputs ...
    assert np.array_equal(stale_plan.run(ids), old_output)
    # ... while the model's cached plan was invalidated by the load, so
    # the plan engine now sees the new weights, bitwise equal to both the
    # graph path and a donor-built plan.
    fresh = model.encode(ids, engine="plan")
    assert np.array_equal(fresh, model.encode(ids, engine="graph"))
    assert np.array_equal(fresh, donor.encode(ids, engine="plan"))
    assert not np.array_equal(fresh, old_output)


def test_wrapper_load_state_dict_invalidates_encoder_plans(rng):
    """Loading through a wrapper module (the TaskModel shape) must still
    invalidate the inner encoder's cached plans -- the base
    ``Module.load_state_dict`` rebinds parameters by dotted name and
    notifies every module in the tree via ``_on_state_loaded``."""
    from repro.nn import Module

    class Wrapper(Module):
        def __init__(self, encoder):
            super().__init__()
            self.encoder_model = encoder

    wrapped = Wrapper(make_model(seed=1))
    donor = Wrapper(make_model(seed=2))
    ids = rng.integers(0, VOCAB, size=(2, 6))
    old_output = wrapped.encoder_model.encode(ids, engine="plan")
    wrapped.load_state_dict(donor.state_dict())
    fresh = wrapped.encoder_model.encode(ids, engine="plan")
    assert np.array_equal(
        fresh, wrapped.encoder_model.encode(ids, engine="graph"))
    assert not np.array_equal(fresh, old_output)


def test_refresh_recompiles_every_cached_plan(rng):
    model = make_model(seed=3)
    plain = model.inference_plan(fuse_qkv=False)
    fused = model.inference_plan(fuse_qkv=True)
    model.inference_plan(refresh=True)
    assert model.inference_plan(fuse_qkv=False) is not plain
    # refresh clears the whole cache, not just the requested key: the
    # fused plan must not survive as a stale snapshot.
    assert model.inference_plan(fuse_qkv=True) is not fused


def test_set_softmax_variant_invalidates_cached_plans(rng):
    model = make_model(softmax_variant="softermax", seed=4)
    ids = rng.integers(0, VOCAB, size=(2, 6))
    softermax_out = model.encode(ids, engine="plan")
    model.set_softmax_variant("reference")
    reference_out = model.encode(ids, engine="plan")
    assert not np.array_equal(softermax_out, reference_out)
    assert np.array_equal(reference_out, model.encode(ids, engine="graph"))


# --------------------------------------------------------------------------- #
# eval-mode no-ops: dropout and quantizers on the plan path
# --------------------------------------------------------------------------- #
def test_eval_dropout_is_noop_on_plan_path(rng):
    # tiny_base carries dropout=0.05; in eval mode both engines must
    # ignore it entirely (bitwise, across repeated calls -- no RNG drift).
    model = make_model(seed=6)
    assert model.config.dropout > 0.0
    ids = rng.integers(0, VOCAB, size=(2, 9))
    graph = model.encode(ids, engine="graph")
    plan = model.encode(ids, engine="plan")
    assert np.array_equal(graph, plan)
    assert np.array_equal(plan, model.encode(ids, engine="plan"))


def test_unconfigured_quantizers_pass_through(rng):
    model = make_model(seed=7)
    ids = rng.integers(0, VOCAB, size=(2, 8))
    baseline = model.encode(ids, engine="graph")
    attach_quantizers(model)  # attached but never calibrated/frozen
    plan_out = model.encode(ids, engine="plan")
    assert np.array_equal(plan_out, baseline)


def test_frozen_quantizers_replayed_bitwise(rng):
    model = make_model(seed=8)
    ids = rng.integers(0, VOCAB, size=(2, 8))
    quantizers = attach_quantizers(model)
    for quantizer in quantizers.values():
        quantizer.set_amax(2.0)
    graph = model.encode(ids, engine="graph")
    plan = model.encode(ids, engine="plan")
    assert np.array_equal(graph, plan)
    assert not np.array_equal(graph, make_model(seed=8).encode(
        ids, engine="graph")), "quantization must actually change outputs"


def test_calibrating_quantizers_block_compilation(rng):
    model = make_model(seed=9)
    quantizers = attach_quantizers(model)
    for quantizer in quantizers.values():
        quantizer.enable_calibration()
    with pytest.raises(RuntimeError, match="calibrating"):
        model.inference_plan(refresh=True)


# --------------------------------------------------------------------------- #
# validation and error paths
# --------------------------------------------------------------------------- #
def test_plan_engine_requires_eval_mode(model, ids):
    model.train()
    try:
        with pytest.raises(RuntimeError, match="eval"):
            model.encode(ids, engine="plan")
    finally:
        model.eval()


def test_unknown_engine_rejected(model, ids):
    with pytest.raises(ValueError, match="unknown inference engine"):
        model.encode(ids, engine="jit")
    with pytest.raises(ValueError, match="unknown inference engine"):
        model.encode_ragged([[1, 2]], engine="jit")


def test_plan_validates_inputs_like_the_graph(model):
    plan = model.inference_plan()
    with pytest.raises(IndexError, match="out of range"):
        plan.run(np.full((1, 4), VOCAB, dtype=np.int64))
    with pytest.raises(ValueError, match="max_seq_len"):
        plan.run(np.zeros((1, MAX_SEQ + 1), dtype=np.int64))
    with pytest.raises(ValueError, match="attention_mask shape"):
        plan.run(np.zeros((2, 4), dtype=np.int64), np.ones((2, 5)))
    with pytest.raises(ValueError, match="right-padded"):
        plan.run_ragged(np.zeros((1, 4), dtype=np.int64),
                        np.array([[1.0, 0.0, 1.0, 0.0]]))


def test_from_model_rejects_plain_modules():
    with pytest.raises(TypeError, match="plan export"):
        InferencePlan.from_model(object())
