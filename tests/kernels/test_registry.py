"""Tests for the named softmax kernel registry and its ``"auto"`` alias."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoftermaxConfig, softmax_reference
from repro.kernels import (
    KernelSpec,
    auto_kernel_choice,
    available_kernels,
    get_kernel,
    native_available,
    parse_kernel_name,
    register_kernel,
    resolve_kernel,
)
from repro.kernels import registry as registry_module

#: What auto names on this box: the compiled engine when the extension is
#: importable, the fused kernel otherwise.
NATIVE = native_available()
AUTO_TARGET = "softermax-native" if NATIVE else "softermax-fused"


class TestRegistryLookup:
    def test_builtin_kernels_registered(self):
        names = available_kernels()
        for expected in ("reference", "base2", "softermax-bit-accurate",
                         "softermax-fused", "ibert", "lut-exp", "split-exp"):
            assert expected in names

    def test_auto_alias_resolves_to_fast_path(self):
        assert get_kernel("auto") is get_kernel(AUTO_TARGET)
        assert get_kernel("auto(lpw_method=lstsq)") is get_kernel(AUTO_TARGET)
        assert "auto" not in available_kernels()

    def test_unknown_kernel_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_kernel("definitely-not-a-kernel")

    def test_bit_accurate_flags(self):
        for name in ("softermax-fused", "softermax-bit-accurate", "auto"):
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

    def test_out_capability_flags(self):
        """The engine family writes in place natively; the oracle and the
        float/related-work kernels are copy-wrapped at resolution time."""
        for name in ("softermax-fused", "auto"):
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
        base, options = parse_kernel_name("kernel(a=4, b=8)")
        assert base == "kernel"
        assert options == {"a": 4, "b": 8}

    def test_get_kernel_ignores_options(self):
        assert get_kernel("softermax-fused(lpw_method=lstsq)") \
            is get_kernel("softermax-fused")

    def test_malformed_names_raise(self):
        for bad in ("softermax-fused(lpw_method)", "kernel(a=2.5)",
                    "name(x=1", "kernel(x=a b)", "kernel(x=-lstsq)"):
            with pytest.raises(ValueError):
                parse_kernel_name(bad)

    def test_string_option_values_parse(self):
        """Identifier-shaped values reach the factory as strings."""
        base, options = parse_kernel_name(
            "softermax-fused(lpw_method=lstsq, n=8)")
        assert base == "softermax-fused"
        assert options == {"lpw_method": "lstsq", "n": 8}
        # Bad values surface at resolution, not parse: "bogus" is
        # identifier-shaped, so it parses...
        assert parse_kernel_name("k(lpw_method=bogus)") \
            == ("k", {"lpw_method": "bogus"})
        # ...and then fails cleanly when the factory fits its tables.
        with pytest.raises(ValueError):
            resolve_kernel("softermax-fused(lpw_method=bogus)")


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
        by_name = resolve_kernel("softermax-fused(lpw_method=lstsq)",
                                 paper_config)
        by_kwarg = resolve_kernel("softermax-fused", paper_config,
                                  lpw_method="lstsq")
        assert np.array_equal(by_name(x), by_kwarg(x))
        # Keyword arguments win over the name.
        overridden = resolve_kernel("softermax-fused(lpw_method=lstsq)",
                                    paper_config, lpw_method="endpoint")
        assert np.array_equal(
            overridden(x), resolve_kernel("softermax-fused", paper_config)(x))

    def test_none_options_are_dropped(self, rng, paper_config):
        fn = resolve_kernel("softermax-fused", paper_config,
                            lpw_method=None)
        x = rng.normal(0.0, 5.0, size=(2, 32))
        assert fn(x).shape == x.shape

    def test_rejected_options_raise_cleanly(self):
        with pytest.raises(TypeError, match="does not accept options"):
            resolve_kernel("reference", None, lpw_method="lstsq")

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

    def test_lpw_method_reachable_via_parameterized_name(self, rng,
                                                         paper_config):
        """String knobs select genuinely different table fits."""
        x = rng.normal(0.0, 5.0, size=(4, 64))
        auto = resolve_kernel("auto(lpw_method=lstsq)", paper_config)
        fused = resolve_kernel("softermax-fused(lpw_method=lstsq)",
                               paper_config)
        assert np.array_equal(auto(x), fused(x))
        endpoint = resolve_kernel("auto", paper_config)
        assert not np.array_equal(auto(x), endpoint(x))

    def test_auto_forwards_lpw_method_at_resolve_time(self, paper_config):
        kernel = resolve_kernel("auto", paper_config, lpw_method="lstsq")
        assert kernel.__self__.lpw_method == "lstsq"
        runner = get_kernel("auto").runner_factory(paper_config,
                                                   lpw_method="lstsq")
        assert runner.lpw_method == "lstsq"


class TestAutoAlias:
    def test_choice_ignores_shape(self):
        for rows, length in ((0, 0), (1, 1), (8, 512), (4096, 4096)):
            assert auto_kernel_choice(rows, length) == AUTO_TARGET

    def test_bad_option_fails_at_resolve_time(self):
        """The alias resolves eagerly: a bad option is a resolution error,
        not a failure deferred to the first softmax call."""
        with pytest.raises(ValueError, match="unknown fit method"):
            resolve_kernel("auto(lpw_method=bogus)")

    def test_auto_matches_oracle(self, rng, paper_config):
        kernel = resolve_kernel("auto", paper_config)
        oracle = resolve_kernel("softermax-bit-accurate", paper_config)
        for shape in ((4, 64), (64, 256)):
            x = rng.normal(0.0, 5.0, size=shape)
            assert np.array_equal(kernel(x), oracle(x)), shape

    def test_auto_empty_axis_raises(self, paper_config):
        with pytest.raises(ValueError):
            resolve_kernel("auto", paper_config)(np.zeros((4, 0)))


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
