"""Behavioral tests for the compiled Softermax backend (`softermax-native`).

Bitwise equivalence against the oracle is pinned by
``tests/kernels/test_equivalence.py`` through the registry's
``runner_factory`` mechanism; this module covers what that matrix cannot:
import/fallback behavior, the ``REPRO_DISABLE_NATIVE`` kill switch (in a
subprocess, since the guard runs at import time), what the ``"auto"``
alias names with the extension present and absent, and the staging path for strided /
non-last-axis inputs.  Everything that needs the ``.so`` is gated with
``skipif``, so the suite is green on a box that never built the extension.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.kernels.registry as registry_module
from repro.core import SoftermaxConfig, SoftermaxPipeline
from repro.kernels import (
    KernelWorkspace,
    NativeSoftermaxKernel,
    auto_kernel_choice,
    available_kernels,
    get_fused_kernel,
    get_kernel,
    get_native_kernel,
    native_available,
    native_softermax,
    resolve_kernel,
)
from repro.kernels._native import DISABLE_ENV

NATIVE = native_available()

#: The .so exists on disk -- true even when this process runs with the
#: kill switch engaged (native_available() is then False regardless).
EXTENSION_BUILT = (
    importlib.util.find_spec("repro.kernels._native._softermax") is not None)

needs_native = pytest.mark.skipif(
    not NATIVE, reason="compiled _softermax extension not built/disabled")

SRC = str(Path(__file__).resolve().parents[2] / "src")


# --------------------------------------------------------------------------- #
# import/fallback surface
# --------------------------------------------------------------------------- #

def test_availability_and_registration_agree():
    assert ("softermax-native" in available_kernels()) == NATIVE
    assert (get_kernel("auto").name == "softermax-native") == NATIVE


def test_wrapper_importable_without_extension():
    # The wrapper layer must never require the .so: a kernel built while
    # the extension is unavailable delegates every call to the fused engine.
    kernel = NativeSoftermaxKernel()
    assert kernel.native_supported == NATIVE
    x = np.linspace(-4.0, 4.0, 24).reshape(2, 12)
    assert np.array_equal(kernel(x), get_fused_kernel(kernel.config)(x))


def test_ineligible_config_delegates_to_fused(rng):
    # No online normalization -> outside the integer C fast path: the
    # kernel must permanently delegate, bitwise-identically, even with
    # the extension built.
    config = SoftermaxConfig(use_online_normalization=False)
    kernel = NativeSoftermaxKernel(config)
    assert not kernel.native_supported
    x = rng.normal(0.0, 6.0, size=(3, 33))
    assert np.array_equal(kernel(x), get_fused_kernel(config)(x))


def _run_subprocess(extra_env, code):
    env = dict(os.environ)
    env.pop(DISABLE_ENV, None)
    env.update(extra_env)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


_PROBE = (
    "from repro.kernels import available_kernels, native_available\n"
    "print(int(native_available()),"
    " int('softermax-native' in available_kernels()))\n"
)


def test_kill_switch_disables_backend_in_subprocess():
    out = _run_subprocess({DISABLE_ENV: "1"}, _PROBE).stdout.split()
    assert out == ["0", "0"]


def test_kill_switch_zero_and_empty_mean_enabled():
    # "" and "0" are documented as no-ops: availability then only depends
    # on whether the extension is actually built.
    expected = [str(int(EXTENSION_BUILT))] * 2
    assert _run_subprocess({DISABLE_ENV: "0"}, _PROBE).stdout.split() == expected
    assert _run_subprocess({DISABLE_ENV: ""}, _PROBE).stdout.split() == expected


# --------------------------------------------------------------------------- #
# the auto alias, with and without the backend
# --------------------------------------------------------------------------- #

def test_auto_choice_prefers_native_when_registered(monkeypatch):
    if not NATIVE:  # make the registry look native-enabled
        spec = registry_module._KERNELS["softermax-fused"]
        monkeypatch.setitem(registry_module._KERNELS, "softermax-native",
                            replace(spec, name="softermax-native"))
    assert auto_kernel_choice(8, 64) == "softermax-native"
    assert auto_kernel_choice(1024, 2048) == "softermax-native"
    assert get_kernel("auto") is registry_module._KERNELS["softermax-native"]


def test_auto_choice_degrades_when_backend_absent(monkeypatch):
    monkeypatch.delitem(registry_module._KERNELS, "softermax-native",
                        raising=False)
    assert auto_kernel_choice(8, 64) == "softermax-fused"
    assert auto_kernel_choice(1024, 2048) == "softermax-fused"
    assert get_kernel("auto") is get_kernel("softermax-fused")


@needs_native
def test_auto_resolves_to_native_instance():
    kernel = resolve_kernel("auto")
    assert isinstance(kernel.__self__, NativeSoftermaxKernel)


# --------------------------------------------------------------------------- #
# compiled-path behavior (skipped without the extension)
# --------------------------------------------------------------------------- #

@needs_native
def test_resolved_kernel_matches_oracle(rng):
    fn = resolve_kernel("softermax-native")
    pipeline = SoftermaxPipeline()
    x = rng.normal(0.0, 6.0, size=(4, 96))
    assert np.array_equal(fn(x), pipeline(x))


@needs_native
def test_strided_and_non_last_axis_inputs(rng):
    kernel = get_native_kernel()
    fused = get_fused_kernel(kernel.config)
    dense = rng.normal(0.0, 6.0, size=(6, 8, 64))
    transposed = np.swapaxes(dense, 0, 2)      # non-contiguous view
    strided = dense[:, ::2, ::3]               # sliced strides
    for x in (transposed, strided):
        assert not x.flags.c_contiguous
        assert np.array_equal(kernel(x), fused(np.ascontiguousarray(x)))
    for axis in (0, 1, -2):
        assert np.array_equal(kernel(dense, axis=axis),
                              fused(dense, axis=axis))


@needs_native
def test_out_and_scratch_reuse(rng):
    kernel = get_native_kernel()
    ws = KernelWorkspace()
    x = rng.normal(0.0, 6.0, size=(5, 96))
    out = np.empty_like(x)
    first = kernel(x, out=out, scratch=ws)
    assert first is out
    expected = kernel(x)
    assert np.array_equal(out, expected)
    # Second call reuses the same workspace views; results stay identical.
    assert kernel(x, out=out, scratch=ws) is out
    assert np.array_equal(out, expected)
    with pytest.raises(ValueError):
        kernel(x, out=np.empty((3, 3)))


@needs_native
def test_saturated_maximum_falls_back_bitwise():
    # Saturated maxima make the renormalization shift non-integral; the C
    # loop must detect this and re-route to the fused kernel's float back
    # end rather than emit wrong integers.
    x = np.full((2, 40), 31.75)
    kernel = get_native_kernel()
    assert np.array_equal(kernel(x), SoftermaxPipeline()(x))


@needs_native
def test_convenience_wrapper_matches_engine(rng):
    x = rng.normal(0.0, 6.0, size=(3, 40))
    assert np.array_equal(native_softermax(x), get_native_kernel()(x))
