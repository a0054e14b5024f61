"""Equivalence and property tests for the softmax kernel engine.

The contract under test: **every** kernel the registry flags as
``bit_accurate`` is *bitwise* identical to the slice-loop
:class:`SoftermaxPipeline` oracle -- outputs and every exposed intermediate
-- across shapes, slice widths, axes and operating points.  The kernel
list is pulled from the registry at collection time, so a newly registered
bit-accurate kernel is pinned to the oracle automatically (via its spec's
``runner_factory``).  On top of that, every registered kernel must behave
like a softmax (probabilities in [0, 1], rows summing to ~1, permutation
equivariance along the reduction axis).  The ``"auto"`` alias rides along
every engine case, so whatever it names on this box (native when built,
fused otherwise) is pinned to the oracle too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoftermaxConfig, SoftermaxPipeline
from repro.fixedpoint import QFormat
from repro.kernels import (
    FusedSoftermaxKernel,
    KernelWorkspace,
    available_kernels,
    fused_softermax,
    get_fused_kernel,
    get_kernel,
    output_allocation_count,
    resolve_kernel,
)

INTERMEDIATE_FIELDS = (
    "quantized_input",
    "slice_maxes",
    "unnormed",
    "global_max",
    "denominator",
    "reciprocal",
    "output",
)

CONFIGS = {
    "paper": SoftermaxConfig.paper_table1(),
    "high_precision": SoftermaxConfig.high_precision(),
    "explicit_max": SoftermaxConfig(use_online_normalization=False),
    "float_max": SoftermaxConfig(use_integer_max=False),
    "base_e": SoftermaxConfig(use_base2=False),
    "slice_8": SoftermaxConfig(slice_width=8),
    "slice_1": SoftermaxConfig(slice_width=1),
    "mixed_max_fmt": SoftermaxConfig(max_fmt=QFormat(7, 4, signed=True)),
    # Too wide to tabulate: exercises the fused float fallback path.
    "no_lut": SoftermaxConfig(input_fmt=QFormat(8, 16, signed=True),
                              max_fmt=QFormat(8, 16, signed=True)),
}

SHAPES = [(16,), (1, 16), (3, 33), (2, 2, 40), (2, 3, 4, 24), (5, 96), (4, 512)]

#: Every bit-accurate kernel in the registry with full-intermediate access,
#: plus the ``"auto"`` alias.  Automatically includes kernels added later:
#: registering a bit-accurate kernel without a runner_factory fails the
#: registry test, and registering one with it pins it to the oracle here.
BIT_ACCURATE = sorted(
    name for name in available_kernels()
    if get_kernel(name).bit_accurate and name != "softermax-bit-accurate"
) + ["auto"]


def _runner(name: str, config):
    spec = get_kernel(name)
    assert spec.runner_factory is not None, (
        f"bit-accurate kernel {name!r} must expose a runner_factory so the "
        "equivalence suite can pin its intermediates to the oracle")
    return spec.runner_factory(config)


def _assert_bitwise_equal(pipeline, kernel, x):
    ref = pipeline.run(x).intermediates
    got = kernel.run(x).intermediates
    for field in INTERMEDIATE_FIELDS:
        a, b = getattr(ref, field), getattr(got, field)
        assert np.array_equal(a, b), (
            f"{field} diverged: max abs diff "
            f"{np.max(np.abs(np.asarray(a) - np.asarray(b)))}"
        )
    assert np.array_equal(kernel(x), ref.output)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_bit_accurate_kernels_bitwise_identical(rng, config_name, shape):
    config = CONFIGS[config_name]
    pipeline = SoftermaxPipeline(config)
    kernels = {name: _runner(name, config) for name in BIT_ACCURATE}
    # Moderate scale exercises the LPW range; the large scale saturates the
    # input/max formats (non-integer shifts -> the fused float back end).
    for scale in (6.0, 40.0):
        x = rng.normal(0.0, scale, size=shape)
        ref = pipeline.run(x).intermediates
        for name, kernel in kernels.items():
            got = kernel.run(x).intermediates
            for field in INTERMEDIATE_FIELDS:
                a, b = getattr(ref, field), getattr(got, field)
                assert np.array_equal(a, b), (
                    f"{name}: {field} diverged on {config_name}/{shape}"
                )
            assert np.array_equal(kernel(x), ref.output), name


@pytest.mark.parametrize("name", BIT_ACCURATE)
@pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
def test_bit_accurate_axis_handling(rng, paper_config, name, axis):
    x = rng.normal(0.0, 5.0, size=(6, 7, 40))
    pipeline = SoftermaxPipeline(paper_config)
    kernel = _runner(name, paper_config)
    assert np.array_equal(pipeline(x, axis=axis), kernel(x, axis=axis))


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_bit_accurate_extreme_and_degenerate_inputs(paper_config, name):
    pipeline = SoftermaxPipeline(paper_config)
    kernel = _runner(name, paper_config)
    # The third case forces a renormalization shift of 63 (one slice maxes
    # at +31, another at -32): the shift count must saturate safely in the
    # int32 code domain, not over-shift.
    wide_shift = np.concatenate([np.full((2, 32), 31.0),
                                 np.full((2, 32), -32.0)], axis=-1)
    cases = [
        np.zeros((3, 37)),
        np.full((2, 40), -31.0),
        wide_shift,
        np.full((2, 40), 31.75),
        np.linspace(-64.0, 64.0, 96).reshape(2, 48),  # saturates both ends
        np.asarray([[1e30, -1e30, 0.0, 2.5]]),
    ]
    for x in cases:
        _assert_bitwise_equal(pipeline, kernel, x)


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_bit_accurate_empty_axis_raises(paper_config, name):
    with pytest.raises(ValueError):
        _runner(name, paper_config)(np.zeros((4, 0)))
    with pytest.raises(ValueError):
        SoftermaxPipeline(paper_config)(np.zeros((4, 0)))


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_bit_accurate_does_not_mutate_input(rng, paper_config, name):
    x = rng.normal(0.0, 6.0, size=(4, 64))
    before = x.copy()
    _runner(name, paper_config)(x)
    assert np.array_equal(x, before)


def test_fused_kernel_memoized_per_config():
    a = get_fused_kernel(SoftermaxConfig.paper_table1())
    b = get_fused_kernel(SoftermaxConfig.paper_table1())
    c = get_fused_kernel(SoftermaxConfig(slice_width=8))
    assert a is b
    assert a is not c
    assert isinstance(a, FusedSoftermaxKernel)
    assert isinstance(fused_softermax(np.zeros((2, 8))), np.ndarray)


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_bit_accurate_degenerate_shapes(rng, paper_config, name):
    """Zero-row batches, 1-D inputs and tiny batches all match the oracle.

    These are the shapes a serving layer actually produces between real
    batches (empty flushes, single requests, tiny coalesced batches), so
    every bit-accurate kernel must handle them.
    """
    pipeline = SoftermaxPipeline(paper_config)
    kernel = _runner(name, paper_config)
    cases = [
        np.zeros((0, 16)),                     # zero rows
        np.zeros((0, 3, 24)),                  # zero rows, extra lead dims
        rng.normal(0.0, 6.0, size=37),         # 1-D input
        rng.normal(0.0, 6.0, size=(3, 40)),    # a tiny coalesced batch
    ]
    for x in cases:
        got = kernel(x)
        expected = pipeline(x)
        assert got.shape == expected.shape, (name, x.shape)
        assert np.array_equal(got, expected), (name, x.shape)


# --------------------------------------------------------------------------- #
# the workspace-aware out=/scratch= contract
# --------------------------------------------------------------------------- #
# Parameterized over BIT_ACCURATE (i.e. over runner_factory), so a newly
# registered bit-accurate kernel gets the in-place contract pinned for free.
OUT_SHAPES = [(16,), (3, 33), (2, 2, 40), (5, 96), (0, 16)]


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_engine_kernels_declare_out_capability(name):
    spec = get_kernel(name)
    assert spec.supports_out, name
    assert spec.supports_scratch, name


@pytest.mark.parametrize("name", BIT_ACCURATE)
@pytest.mark.parametrize("shape", OUT_SHAPES, ids=str)
def test_out_mode_bitwise_identical_to_allocate_mode(rng, paper_config,
                                                     name, shape):
    """A fresh ``out=`` buffer receives the exact allocate-mode bits."""
    kernel = _runner(name, paper_config)
    x = rng.normal(0.0, 6.0, size=shape)
    expected = kernel(x)
    out = np.full(shape, np.nan)
    returned = kernel(x, out=out)
    assert returned is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_out_buffer_reused_across_calls(rng, paper_config, name):
    """Stale contents of a reused ``out=`` buffer never leak through."""
    kernel = _runner(name, paper_config)
    out = np.full((6, 48), np.inf)
    for seed in range(3):
        x = np.random.default_rng(seed).normal(0.0, 6.0, size=(6, 48))
        returned = kernel(x, out=out)
        assert returned is out
        assert np.array_equal(out, kernel(x))


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_out_mismatch_raises(rng, paper_config, name):
    kernel = _runner(name, paper_config)
    x = rng.normal(0.0, 6.0, size=(4, 40))
    for bad in (np.empty((4, 39)), np.empty((3, 40)), np.empty(40),
                np.empty((4, 40), dtype=np.float32),
                np.empty((4, 40), dtype=np.int64)):
        with pytest.raises(ValueError):
            kernel(x, out=bad)
    with pytest.raises(ValueError):
        kernel(x, out=[[0.0] * 40] * 4)  # not an ndarray


@pytest.mark.parametrize("name", BIT_ACCURATE)
@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_out_mode_handles_every_axis(rng, paper_config, name, axis):
    kernel = _runner(name, paper_config)
    x = rng.normal(0.0, 5.0, size=(5, 6, 40))
    out = np.empty_like(x)
    assert np.array_equal(kernel(x, axis=axis, out=out),
                          kernel(x, axis=axis))


@pytest.mark.parametrize("name", BIT_ACCURATE)
def test_caller_scratch_workspace_bitwise_identical(rng, paper_config, name):
    """One caller-owned workspace serves every engine, across shapes."""
    kernel = _runner(name, paper_config)
    ws = KernelWorkspace()
    for shape in ((4, 64), (2, 17), (8, 96), (4, 64)):
        x = rng.normal(0.0, 6.0, size=shape)
        assert np.array_equal(kernel(x, scratch=ws), kernel(x)), shape
        out = np.empty(shape)
        assert np.array_equal(kernel(x, out=out, scratch=ws), kernel(x))


def test_out_mode_steady_state_performs_no_output_allocations(rng,
                                                              paper_config):
    """out= + scratch= means zero allocation traffic at the kernel boundary
    (the serving fast path's contract, also asserted by bench_encoder)."""
    for name in BIT_ACCURATE:
        kernel = _runner(name, paper_config)
        ws = KernelWorkspace()
        x = rng.normal(0.0, 6.0, size=(8, 64))
        out = np.empty_like(x)
        kernel(x, out=out, scratch=ws)  # warm the workspace
        before = output_allocation_count()
        reallocs = ws.reallocs
        for _ in range(3):
            kernel(x, out=out, scratch=ws)
        assert output_allocation_count() == before
        assert ws.reallocs == reallocs
        # Allocate mode is counted.
        kernel(x)
        assert output_allocation_count() == before + 1


def test_input_never_mutated_by_out_mode(rng, paper_config):
    for name in BIT_ACCURATE:
        kernel = _runner(name, paper_config)
        x = rng.normal(0.0, 6.0, size=(4, 48))
        before = x.copy()
        kernel(x, out=np.empty_like(x), scratch=KernelWorkspace())
        assert np.array_equal(x, before), name


def test_resolved_kernels_all_accept_out(rng, paper_config):
    """The resolution-time wrapper gives every kernel the full surface --
    non-native kernels (oracle, float references) get copy-out semantics."""
    x = rng.normal(0.0, 4.0, size=(4, 40))
    for name in sorted(set(available_kernels()) | {"auto"}):
        fn = resolve_kernel(name, paper_config)
        expected = fn(x, axis=-1)
        out = np.full(x.shape, np.nan)
        returned = fn(x, axis=-1, out=out, scratch=KernelWorkspace())
        assert returned is out, name
        assert np.array_equal(out, expected), name
        with pytest.raises(ValueError):
            fn(x, out=np.empty((2, 2)))


# --------------------------------------------------------------------------- #
# softmax properties of every registered kernel
# --------------------------------------------------------------------------- #
def _kernel_tolerance(name: str) -> float:
    """Permutation/rounding tolerance per kernel family.

    Pure float softmaxes only see summation-order noise; kernels that
    quantize their output to Q(1,7) can legitimately flip a last bit when
    the reduction order changes; the multi-slice Softermax datapath rounds
    its denominator once per slice, so a permutation that regroups the
    slices can move the output by a couple of output LSBs.
    """
    if name in ("reference", "base2", "softermax-float"):
        return 1e-9
    if name.startswith("softermax"):
        return 4.0 / 128.0
    return 1.5 / 128.0


@pytest.mark.parametrize("name", sorted(
    set(available_kernels()) | {"auto"}))
def test_kernel_is_a_softmax(rng, name):
    kernel_fn = resolve_kernel(name, SoftermaxConfig.paper_table1())
    x = rng.normal(0.0, 4.0, size=(8, 96))
    probs = kernel_fn(x, axis=-1)
    assert probs.shape == x.shape
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    # Float kernels sum to one up to accumulation noise; the fixed-point
    # datapath quantizes each output to Q(1,7) with a floor renormalization,
    # so long rows legitimately sum a few percent short of one (paper
    # section IV; the attention matmul is insensitive to this).
    if name in ("reference", "base2", "softermax-float"):
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    else:
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=0.1)


@pytest.mark.parametrize("name", sorted(available_kernels()))
def test_kernel_permutation_equivariant(rng, name):
    x = rng.normal(0.0, 4.0, size=(5, 96))
    perm = rng.permutation(x.shape[-1])
    kernel_fn = resolve_kernel(name, SoftermaxConfig.paper_table1())
    direct = kernel_fn(x, axis=-1)[..., perm]
    permuted = kernel_fn(x[..., perm], axis=-1)
    np.testing.assert_allclose(permuted, direct, atol=_kernel_tolerance(name))


@pytest.mark.parametrize("name", ["softermax-bit-accurate", "softermax-fused",
                                  "auto"])
def test_softermax_single_slice_permutation_exact(rng, name):
    """Within one hardware slice the datapath is order-independent.

    The slice maximum is a permutation-invariant reduction and the
    fixed-point slice sum is exact (order-independent), so permuting a
    single-slice row must permute the output bit-for-bit.
    """
    config = SoftermaxConfig(slice_width=128)
    kernel_fn = resolve_kernel(name, config)
    x = rng.normal(0.0, 4.0, size=(6, 128))
    perm = rng.permutation(128)
    assert np.array_equal(kernel_fn(x[..., perm], axis=-1),
                          kernel_fn(x, axis=-1)[..., perm])


def test_bit_accurate_kernels_agree_through_registry(rng):
    """The registry's bit-accurate family is interchangeable."""
    config = SoftermaxConfig.paper_table1()
    x = rng.normal(0.0, 6.0, size=(4, 4, 80))
    outputs = [resolve_kernel(name, config)(x, axis=-1)
               for name in [*available_kernels(), "auto"]
               if get_kernel(name).bit_accurate]
    assert len(outputs) >= 3
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)
