"""Tests for the named softmax kernel registry and adaptive dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoftermaxConfig, softmax_reference
from repro.kernels import (
    AUTO_BLOCKED_MIN_ELEMENTS,
    AUTO_KERNEL,
    AUTO_PARALLEL_MIN_ELEMENTS,
    AdaptiveSoftermaxKernel,
    KernelSpec,
    auto_kernel_choice,
    available_kernels,
    dispatch_candidates,
    get_kernel,
    native_available,
    parse_kernel_name,
    register_kernel,
    resolve_kernel,
)
from repro.kernels import registry as registry_module

#: What auto picks below the parallel threshold on this box: the compiled
#: engine when the extension is importable, the legacy pair otherwise.
NATIVE = native_available()


class TestRegistryLookup:
    def test_builtin_kernels_registered(self):
        names = available_kernels()
        for expected in ("reference", "base2", "softermax-bit-accurate",
                         "softermax-fused", "softermax-blocked",
                         "softermax-parallel", "softermax-adaptive",
                         "ibert", "lut-exp", "split-exp"):
            assert expected in names

    def test_auto_alias_resolves_to_adaptive(self):
        assert AUTO_KERNEL == "softermax-adaptive"
        assert get_kernel("auto") is get_kernel("softermax-adaptive")
        assert "auto" not in available_kernels()

    def test_unknown_kernel_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_kernel("definitely-not-a-kernel")

    def test_bit_accurate_flags(self):
        for name in ("softermax-fused", "softermax-bit-accurate",
                     "softermax-blocked", "softermax-parallel",
                     "softermax-adaptive"):
            assert get_kernel(name).bit_accurate, name
        assert not get_kernel("reference").bit_accurate
        assert not get_kernel("ibert").bit_accurate

    def test_bit_accurate_kernels_expose_runners(self):
        """Every bit-accurate kernel must be pinnable by the equivalence
        suite: a runner_factory returning an object with run()."""
        config = SoftermaxConfig.paper_table1()
        for name in available_kernels():
            spec = get_kernel(name)
            if not spec.bit_accurate:
                continue
            assert spec.runner_factory is not None, name
            runner = spec.runner_factory(config)
            assert callable(runner) and hasattr(runner, "run"), name

    def test_engine_kernels_document_selection(self):
        for name in ("softermax-fused", "softermax-blocked",
                     "softermax-parallel", "softermax-adaptive"):
            assert get_kernel(name).selection, name

    def test_dispatch_candidates_derived_from_registry(self):
        """The adaptive candidate list is the registry's engine family --
        bit-accurate, workspace-aware, not the dispatcher itself."""
        candidates = dispatch_candidates()
        assert "softermax-fused" in candidates
        assert "softermax-blocked" in candidates
        assert "softermax-parallel" in candidates
        assert AUTO_KERNEL not in candidates
        assert "softermax-bit-accurate" not in candidates
        assert ("softermax-native" in candidates) == NATIVE
        # A backend registered later appears without further wiring.
        register_kernel(KernelSpec(
            name="test-backend", factory=lambda config: None,
            description="test-only", bit_accurate=True,
            supports_out=True, supports_scratch=True))
        try:
            assert "test-backend" in dispatch_candidates()
        finally:
            registry_module._KERNELS.pop("test-backend", None)

    def test_adaptive_docs_generated_from_registry(self):
        """The adaptive docstring and spec description list exactly the
        registry's candidates -- no hand-enumerated engine names."""
        doc = AdaptiveSoftermaxKernel.__doc__
        spec = get_kernel(AUTO_KERNEL)
        for name in dispatch_candidates():
            assert name in doc, name
            assert name.removeprefix("softermax-") in spec.description, name
        assert ("native" in spec.description) == NATIVE

    def test_out_capability_flags(self):
        """The engine family writes in place natively; the oracle and the
        float/related-work kernels are copy-wrapped at resolution time."""
        for name in ("softermax-fused", "softermax-blocked",
                     "softermax-parallel", "softermax-adaptive"):
            spec = get_kernel(name)
            assert spec.supports_out and spec.supports_scratch, name
        for name in ("softermax-bit-accurate", "reference", "base2",
                     "softermax-float", "ibert", "lut-exp", "split-exp"):
            spec = get_kernel(name)
            assert not spec.supports_out and not spec.supports_scratch, name


class TestNameParsing:
    def test_bare_name(self):
        assert parse_kernel_name("softermax-fused") == ("softermax-fused", {})

    def test_options_suffix(self):
        base, options = parse_kernel_name(
            "softermax-parallel(workers=4, block_rows=8)")
        assert base == "softermax-parallel"
        assert options == {"workers": 4, "block_rows": 8}

    def test_get_kernel_ignores_options(self):
        assert get_kernel("softermax-parallel(workers=4)") \
            is get_kernel("softermax-parallel")

    def test_malformed_names_raise(self):
        for bad in ("softermax-parallel(workers)", "kernel(workers=2.5)",
                    "name(x=1", "kernel(x=a b)", "kernel(x=-lstsq)"):
            with pytest.raises(ValueError):
                parse_kernel_name(bad)

    def test_string_option_values_parse(self):
        """Identifier-shaped values reach the factory as strings."""
        base, options = parse_kernel_name(
            "softermax-blocked(lpw_method=lstsq, block_rows=8)")
        assert base == "softermax-blocked"
        assert options == {"lpw_method": "lstsq", "block_rows": 8}
        # Type errors in string-valued knobs surface at resolution, not
        # parse: "two" is identifier-shaped, so it parses...
        assert parse_kernel_name("k(workers=two)") == ("k", {"workers": "two"})
        # ...and then fails cleanly when the parallel factory coerces it.
        with pytest.raises((TypeError, ValueError)):
            resolve_kernel("softermax-parallel(workers=two)")


class TestResolve:
    def test_resolved_kernel_is_callable(self, rng):
        fn = resolve_kernel("reference", None)
        x = rng.normal(size=(3, 12))
        np.testing.assert_allclose(fn(x, axis=-1), softmax_reference(x, axis=-1))

    def test_softermax_kernels_bind_config(self, rng):
        config = SoftermaxConfig(slice_width=8)
        fused = resolve_kernel("softermax-fused", config)
        oracle = resolve_kernel("softermax-bit-accurate", config)
        x = rng.normal(0.0, 5.0, size=(2, 40))
        assert np.array_equal(fused(x), oracle(x))

    def test_default_config_is_paper_table1(self, rng, paper_config):
        x = rng.normal(0.0, 5.0, size=(2, 48))
        assert np.array_equal(
            resolve_kernel("softermax-fused", None)(x),
            resolve_kernel("softermax-fused", paper_config)(x),
        )

    def test_options_from_name_and_kwargs(self, rng, paper_config):
        x = rng.normal(0.0, 5.0, size=(4, 64))
        expected = resolve_kernel("softermax-bit-accurate", paper_config)(x)
        by_name = resolve_kernel("softermax-blocked(block_rows=2)", paper_config)
        by_kwarg = resolve_kernel("softermax-blocked", paper_config, block_rows=2)
        assert np.array_equal(by_name(x), expected)
        assert np.array_equal(by_kwarg(x), expected)

    def test_none_options_are_dropped(self, rng, paper_config):
        fn = resolve_kernel("softermax-fused", paper_config,
                            workers=None, block_rows=None)
        x = rng.normal(0.0, 5.0, size=(2, 32))
        assert fn(x).shape == x.shape

    def test_unsupported_options_raise_cleanly(self):
        with pytest.raises(TypeError, match="does not accept options"):
            resolve_kernel("reference", None, workers=2)

    def test_wrapped_kernels_get_copy_out_semantics(self, rng):
        """Kernels without native support still honor the full contract."""
        fn = resolve_kernel("reference", None)
        x = rng.normal(size=(3, 12))
        expected = softmax_reference(x, axis=-1)
        out = np.full(x.shape, np.nan)
        returned = fn(x, axis=-1, out=out)
        assert returned is out
        np.testing.assert_allclose(out, expected)
        with pytest.raises(ValueError):
            fn(x, out=np.empty((3, 11)))
        with pytest.raises(ValueError):
            fn(x, out=np.empty((3, 12), dtype=np.float32))

    def test_supported_options_reflect_factory_signatures(self):
        from repro.kernels import supported_options

        assert supported_options("reference") == set()
        assert supported_options("softermax-fused") == {"lpw_method"}
        assert supported_options("softermax-blocked") \
            == {"block_rows", "lpw_method"}
        assert supported_options("softermax-parallel") \
            == {"workers", "block_rows", "lpw_method"}
        assert supported_options("auto") \
            == {"workers", "block_rows", "lpw_method"}

    def test_lpw_method_reachable_via_parameterized_name(self, rng,
                                                         paper_config):
        """String knobs select genuinely different table fits."""
        x = rng.normal(0.0, 5.0, size=(4, 64))
        blocked = resolve_kernel("softermax-blocked(lpw_method=lstsq)",
                                 paper_config)
        fused = resolve_kernel("softermax-fused(lpw_method=lstsq)",
                               paper_config)
        assert np.array_equal(blocked(x), fused(x))
        endpoint = resolve_kernel("softermax-blocked", paper_config)
        assert not np.array_equal(blocked(x), endpoint(x))

    def test_adaptive_forwards_lpw_method_to_children(self, paper_config):
        kernel = resolve_kernel("auto", paper_config, lpw_method="lstsq")
        children = ["softermax-fused", "softermax-blocked",
                    "softermax-parallel"]
        if NATIVE:
            children.append("softermax-native")
        for child in children:
            assert kernel._kernel_for(child).lpw_method == "lstsq", child


class TestAdaptiveDispatch:
    def test_choice_thresholds(self, pin_cpu_count):
        # Pin a multicore host so the thresholds (not the single-core
        # gate) are what is under test here; native=False pins the legacy
        # fused/blocked split, native=True the compiled replacement.
        pin_cpu_count(4)
        assert auto_kernel_choice(8, 512, workers=1, native=False) \
            == "softermax-fused"
        assert auto_kernel_choice(8, 512, workers=1, native=True) \
            == "softermax-native"
        big_rows = AUTO_BLOCKED_MIN_ELEMENTS // 512
        assert auto_kernel_choice(big_rows, 512, workers=1, native=False) \
            == "softermax-blocked"
        assert auto_kernel_choice(big_rows, 512, workers=1, native=True) \
            == "softermax-native"
        huge_rows = AUTO_PARALLEL_MIN_ELEMENTS // 512
        assert auto_kernel_choice(huge_rows, 512, workers=1, native=False) \
            == "softermax-blocked"  # no extra workers -> stay in process
        # The pool keeps the top slot even when native is available (it
        # spreads the same compiled-or-blocked work over real cores).
        for native in (False, True):
            assert auto_kernel_choice(huge_rows, 512, workers=4,
                                      native=native) == "softermax-parallel"
        # One giant row cannot be split across workers.
        assert auto_kernel_choice(1, AUTO_PARALLEL_MIN_ELEMENTS, workers=4,
                                  native=False) == "softermax-blocked"

    def test_choice_defaults_to_registered_availability(self,
                                                       pin_cpu_count):
        """native=None (the adaptive kernel's call) means "if registered"."""
        pin_cpu_count(1)
        expected = "softermax-native" if NATIVE else "softermax-fused"
        assert auto_kernel_choice(8, 512, workers=1) == expected

    def test_single_core_host_never_picks_the_pool(self, pin_cpu_count):
        """On a 1-core box the pool is pure overhead (the ROADMAP-noted
        0.8x regression): auto skips parallel even with an explicit
        multi-worker budget and falls to the in-process engines."""
        huge_rows = AUTO_PARALLEL_MIN_ELEMENTS // 512
        pin_cpu_count(1)
        assert auto_kernel_choice(huge_rows, 512, workers=4, native=False) \
            == "softermax-blocked"
        assert auto_kernel_choice(huge_rows, 512, native=False) \
            == "softermax-blocked"
        # cpu_count() may report None (unknown): treated as single core.
        pin_cpu_count(None)
        assert auto_kernel_choice(huge_rows, 512, workers=4, native=False) \
            == "softermax-blocked"
        # Back on a multicore host the same call fans out again.
        pin_cpu_count(2)
        assert auto_kernel_choice(huge_rows, 512, workers=4, native=False) \
            == "softermax-parallel"

    def test_single_core_gate_applies_to_the_adaptive_kernel(
            self, pin_cpu_count, paper_config):
        pin_cpu_count(1)
        kernel = AdaptiveSoftermaxKernel(paper_config, workers=4)
        rows = AUTO_PARALLEL_MIN_ELEMENTS // 256
        huge = np.zeros((rows, 256))
        assert kernel._choose(huge, -1) != "softermax-parallel"
        assert kernel._choose(huge, -1) == (
            "softermax-native" if NATIVE else "softermax-blocked")

    def test_adaptive_kernel_dispatches_and_matches(self, rng, paper_config):
        kernel = AdaptiveSoftermaxKernel(paper_config, workers=1)
        small = rng.normal(0.0, 5.0, size=(4, 64))
        assert kernel._choose(small, -1) == (
            "softermax-native" if NATIVE else "softermax-fused")
        rows = AUTO_BLOCKED_MIN_ELEMENTS // 256
        big = rng.normal(0.0, 5.0, size=(rows, 256))
        assert kernel._choose(big, -1) == (
            "softermax-native" if NATIVE else "softermax-blocked")
        oracle = resolve_kernel("softermax-bit-accurate", paper_config)
        assert np.array_equal(kernel(small), oracle(small))
        probs = kernel(big)
        assert probs.shape == big.shape
        # Spot-check a band of the big tensor against the oracle.
        assert np.array_equal(probs[:8], oracle(big[:8]))

    def test_dispatch_reads_host_cores_once(self, monkeypatch,
                                            pin_cpu_count):
        """The per-call dispatch must not re-query the host: the core
        count is read once and the child kernels resolved once."""
        reads = []
        pin_cpu_count(1)
        monkeypatch.setattr("os.cpu_count", lambda: reads.append(1) or 1)
        for _ in range(3):
            auto_kernel_choice(8, 512)
        assert reads == [1]
        registry_module.host_cores.cache_clear()
        auto_kernel_choice(8, 512)
        assert reads == [1, 1]

    def test_adaptive_memoizes_child_kernels(self, paper_config,
                                             monkeypatch):
        kernel = AdaptiveSoftermaxKernel(paper_config, workers=1)
        name = kernel._choose(np.zeros((4, 64)), -1)
        child = kernel._kernel_for(name)
        # A second lookup must not go back through the cached factories.
        monkeypatch.setattr(kernel, "_resolve", None)
        assert kernel._kernel_for(name) is child

    def test_adaptive_empty_axis_raises(self, paper_config):
        with pytest.raises(ValueError):
            AdaptiveSoftermaxKernel(paper_config)(np.zeros((4, 0)))


class TestRegistration:
    def test_register_and_replace(self):
        spec = KernelSpec(name="test-identity",
                          factory=lambda config: lambda x, axis=-1: np.asarray(x),
                          description="test-only kernel")
        register_kernel(spec)
        try:
            assert get_kernel("test-identity") is spec
            replacement = KernelSpec(name="test-identity",
                                     factory=spec.factory,
                                     description="replaced")
            register_kernel(replacement)
            assert get_kernel("test-identity").description == "replaced"
        finally:
            registry_module._KERNELS.pop("test-identity", None)

    def test_auto_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_kernel(KernelSpec(name="auto",
                                       factory=lambda config: None,
                                       description="nope"))
