"""Softmax kernel engine: named, swappable softmax implementations.

``repro.core`` defines *what* Softermax computes (the bit-accurate
slice-loop pipeline); this subpackage is about *how fast* it runs and how a
caller picks an implementation:

* :mod:`repro.kernels.fused` -- the fused whole-tensor NumPy kernel,
  bitwise identical to :class:`~repro.core.softermax.SoftermaxPipeline` and
  an order of magnitude faster (the pure-Python fast path).
* :mod:`repro.kernels.native` -- the compiled C row loop over the
  integer-code LUT pipeline (optional extension; the fused kernel stands
  in when it is absent or disabled via ``REPRO_DISABLE_NATIVE=1``).
* :mod:`repro.kernels.registry` -- the name -> implementation registry,
  used by the attention layers, sweeps, the CLI and the benchmarks; its
  ``"auto"`` alias names native when registered, else fused.
* :mod:`repro.kernels.workspace` -- the workspace-aware call contract:
  caller-owned ``out=`` buffers, the :class:`KernelWorkspace` scratch pool
  shared by every engine, and the kernel output-allocation counters the
  serving benchmarks assert against.
* :mod:`repro.kernels.shm` -- shared-memory attach helpers for the
  serving snapshot bundle.
"""

from repro.kernels.fused import (
    FusedSoftermaxKernel,
    fused_softermax,
    get_fused_kernel,
)
from repro.kernels.native import (
    NativeSoftermaxKernel,
    get_native_kernel,
    native_available,
    native_softermax,
)
from repro.kernels.registry import (
    KernelSpec,
    auto_kernel_choice,
    available_kernels,
    get_kernel,
    parse_kernel_name,
    register_kernel,
    resolve_kernel,
)
from repro.kernels.workspace import (
    KernelWorkspace,
    check_out_buffer,
    output_allocation_count,
    record_output_allocation,
    reset_output_allocations,
)

__all__ = [
    "FusedSoftermaxKernel",
    "fused_softermax",
    "get_fused_kernel",
    "NativeSoftermaxKernel",
    "get_native_kernel",
    "native_available",
    "native_softermax",
    "KernelSpec",
    "auto_kernel_choice",
    "available_kernels",
    "get_kernel",
    "parse_kernel_name",
    "register_kernel",
    "resolve_kernel",
    "KernelWorkspace",
    "check_out_buffer",
    "output_allocation_count",
    "record_output_allocation",
    "reset_output_allocations",
]
