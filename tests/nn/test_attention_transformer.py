"""Tests for multi-head attention and the Transformer encoder layers."""

import numpy as np
import pytest

from repro.nn import (
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoder,
    TransformerLayer,
)
from repro.nn.functional import get_softmax_variant


@pytest.fixture
def hidden_batch(rng):
    return Tensor(rng.normal(size=(2, 10, 16)))


class TestMultiHeadSelfAttention:
    def test_output_shape(self, hidden_batch):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        out = attn(hidden_batch)
        assert out.shape == (2, 10, 16)

    def test_hidden_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_attention_mask_blocks_padding(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        attn.eval()
        x = rng.normal(size=(1, 6, 16))
        mask = np.array([[1, 1, 1, 0, 0, 0]])
        attn.capture_scores = True
        attn(Tensor(x), attention_mask=mask)
        scores = attn.last_scores
        # Masked key positions carry a large negative score.
        assert np.all(scores[..., 3:] < -10.0)

    def test_mask_shape_validated(self, hidden_batch):
        attn = MultiHeadSelfAttention(16, 4, seed=0)
        with pytest.raises(ValueError):
            attn(hidden_batch, attention_mask=np.ones((2, 3)))

    def test_padding_does_not_change_valid_outputs(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        attn.eval()
        x_short = rng.normal(size=(1, 4, 16))
        x_padded = np.concatenate([x_short, rng.normal(size=(1, 3, 16))], axis=1)
        mask = np.array([[1, 1, 1, 1, 0, 0, 0]])
        out_short = attn(Tensor(x_short)).data
        out_padded = attn(Tensor(x_padded), attention_mask=mask).data
        assert np.allclose(out_short, out_padded[:, :4, :], atol=1e-6)

    def test_switching_softmax_variant_changes_output(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        attn.eval()
        x = Tensor(rng.normal(size=(1, 8, 16)) * 3.0)
        reference_out = attn(x).data.copy()
        attn.set_softmax_variant("softermax")
        softermax_out = attn(x).data
        assert not np.allclose(reference_out, softermax_out)
        # But they should be close (the perturbation is a quantization error).
        assert np.max(np.abs(reference_out - softermax_out)) < 1.0

    def test_variant_object_accepted(self, hidden_batch):
        attn = MultiHeadSelfAttention(16, 4, seed=0,
                                      softmax_variant=get_softmax_variant("base2"))
        assert attn.softmax_variant.name == "base2"

    def test_name_options_thread_through(self, rng):
        """Every engine yields identical bits, and an option embedded in
        the kernel name reaches the kernel."""
        x = Tensor(rng.normal(size=(1, 8, 16)) * 3.0)
        outputs = {}
        for kernel in ("softermax-bit-accurate", "softermax-fused", "auto",
                       "softermax-fused(lpw_method=lstsq)",
                       "auto(lpw_method=lstsq)"):
            attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0,
                                          softmax_variant="softermax",
                                          kernel=kernel)
            attn.eval()
            outputs[kernel] = attn(x).data
        oracle = outputs["softermax-bit-accurate"]
        assert np.array_equal(outputs["softermax-fused"], oracle)
        assert np.array_equal(outputs["auto"], oracle)
        lstsq = outputs["softermax-fused(lpw_method=lstsq)"]
        assert np.array_equal(outputs["auto(lpw_method=lstsq)"], lstsq)
        assert not np.array_equal(lstsq, oracle)

    def test_gradients_flow_to_all_projections(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        out = attn(Tensor(rng.normal(size=(2, 5, 16))))
        out.sum().backward()
        for name, param in attn.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0), name


class TestTransformerLayer:
    def test_forward_shape_preserved(self, rng):
        layer = TransformerLayer(16, 4, 32, dropout=0.0, seed=0)
        out = layer(Tensor(rng.normal(size=(3, 7, 16))))
        assert out.shape == (3, 7, 16)

    def test_layer_output_is_normalized(self, rng):
        layer = TransformerLayer(16, 4, 32, dropout=0.0, seed=0)
        layer.eval()
        out = layer(Tensor(rng.normal(size=(2, 5, 16)) * 10)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_set_softmax_variant_propagates(self):
        layer = TransformerLayer(16, 4, 32, seed=0)
        layer.set_softmax_variant("softermax")
        assert layer.attention.softmax_variant.name == "softermax"


class TestTransformerEncoder:
    def test_stacks_layers(self, rng):
        encoder = TransformerEncoder(3, 16, 4, 32, dropout=0.0, seed=0)
        assert len(encoder.layers) == 3
        out = encoder(Tensor(rng.normal(size=(2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_set_softmax_variant_hits_every_layer(self):
        encoder = TransformerEncoder(3, 16, 4, 32, seed=0)
        encoder.set_softmax_variant("base2")
        assert all(layer.attention.softmax_variant.name == "base2"
                   for layer in encoder.layers)

    def test_deterministic_with_seed(self, rng):
        x = rng.normal(size=(1, 5, 16))
        out_a = TransformerEncoder(2, 16, 4, 32, dropout=0.0, seed=7)(Tensor(x)).data
        out_b = TransformerEncoder(2, 16, 4, 32, dropout=0.0, seed=7)(Tensor(x)).data
        assert np.allclose(out_a, out_b)

    def test_gradients_flow_through_the_stack(self, rng):
        encoder = TransformerEncoder(2, 16, 4, 32, dropout=0.0, seed=0)
        out = encoder(Tensor(rng.normal(size=(2, 4, 16))))
        out.sum().backward()
        grads = [p.grad for p in encoder.parameters()]
        assert all(g is not None for g in grads)


class TestExactMasking:
    """The inference-only exact-mask path used by the serving layer."""

    def test_padded_keys_have_exactly_zero_influence(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        attn.eval()
        valid = rng.normal(size=(1, 4, 16))
        # Same valid tokens, two different paddings: the valid positions'
        # outputs must be bitwise identical.
        for pad_width in (2, 5):
            padded = np.concatenate(
                [valid, rng.normal(size=(1, pad_width, 16))], axis=1)
            mask = np.concatenate(
                [np.ones((1, 4)), np.zeros((1, pad_width))], axis=1)
            out = attn(Tensor(padded), attention_mask=mask,
                       exact_mask=True).data
            if pad_width == 2:
                first = out[:, :4].copy()
            else:
                assert np.array_equal(out[:, :4], first)

    def test_exact_mask_requires_eval_mode(self, rng):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        x = Tensor(rng.normal(size=(2, 6, 16)))
        mask = np.ones((2, 6))
        with pytest.raises(RuntimeError, match="eval"):
            attn(x, attention_mask=mask, exact_mask=True)

    def test_exact_mask_rejects_non_prefix_masks(self, rng):
        from repro.nn.functional import prefix_mask_lengths

        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, seed=0)
        attn.eval()
        x = Tensor(rng.normal(size=(1, 4, 16)))
        with pytest.raises(ValueError, match="prefix"):
            attn(x, attention_mask=np.array([[1.0, 0.0, 1.0, 0.0]]),
                 exact_mask=True)
        with pytest.raises(ValueError, match="at least one valid token"):
            attn(x, attention_mask=np.zeros((1, 4)), exact_mask=True)
        assert prefix_mask_lengths(np.array([[1, 1, 0], [1, 1, 1]])).tolist() \
            == [2, 3]

    def test_exact_mask_flag_threads_through_encoder(self, rng):
        encoder = TransformerEncoder(num_layers=2, hidden_dim=16, num_heads=4,
                                     intermediate_dim=32, dropout=0.0, seed=0)
        encoder.eval()
        x = Tensor(rng.normal(size=(2, 6, 16)))
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]],
                        dtype=np.float64)
        out = encoder(x, mask, exact_mask=True)
        assert out.shape == (2, 6, 16)
