"""Compiled Softermax engine (`softermax-native`).

Python wrapper around the C extension
:mod:`repro.kernels._native._softermax`, which runs the fused kernel's
integer-code pipeline -- quantize, slice maxima, pow2 difference-LUT
gather, online-normalization merge, reciprocal multiply, output
quantization -- as one C pass per row with no NumPy ufunc dispatch.

The extension has two row loops over one int32 table set: a portable
scalar loop and, on x86-64, an AVX2 loop that runs each slice in 8 int32
lanes.  It picks the AVX2 loop once, at import, when the CPU reports
AVX2 (and only for slices at least one vector wide); no option, env var
or tensor shape takes part.  :func:`native_isa` names the loop in use.

The wrapper owns everything the C loops must not: table construction is
borrowed from the memoized :class:`~repro.kernels.fused.FusedSoftermaxKernel`
(so the LUT, reciprocal table and output-value table are the bit-accurate
units' own output), axis handling / `out=` / `scratch=` follow the
registry's workspace-aware kernel contract, and every case the integer
C path cannot express bitwise is routed to the fused kernel instead:

* the extension is not importable (no compiler, wheel-less install) or
  disabled via ``REPRO_DISABLE_NATIVE=1`` -- the engine is then not
  registered at all and ``"auto"`` names ``softermax-fused`` instead;
* the operating point is outside the integer fast path (no difference
  LUT, no online normalization, float maxima, untabulated reciprocal or
  signed output format) or outside the int32 code domain (the fused
  kernel works in int64, or one slice's code sum could reach 2**31) --
  the kernel permanently delegates to fused;
* a saturated maximum makes a renormalization shift non-integral, or a
  score is NaN -- the C loop detects this and reports it, and the call
  is re-run through the fused kernel (its float back end, or the
  oracle's own answer for NaN rows, bitwise vs the oracle either way).

Non-contiguous / non-last-axis inputs are staged into workspace scratch
(copy-in), so strided attention-score views work unchanged.  Bitwise
equivalence of both row loops is pinned by
``tests/kernels/test_equivalence.py`` through the registry's
``runner_factory`` mechanism (plus a scalar-pinned runner), like every
other engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.core.config import SoftermaxConfig, DEFAULT_CONFIG
from repro.core.softermax import SoftermaxResult
from repro.kernels.fused import FusedSoftermaxKernel, get_fused_kernel
from repro.kernels.workspace import (
    KernelWorkspace,
    check_out_buffer,
    record_output_allocation,
)

try:
    from repro.kernels._native import lib as _lib
except ImportError:  # pragma: no cover - package layout is fixed
    _lib = None


def native_available() -> bool:
    """True when the compiled extension is importable and not disabled."""
    return _lib is not None


def native_isa() -> Optional[str]:
    """Row loop the extension dispatched to at import: ``"avx2"`` or
    ``"scalar"``; ``None`` when the extension is absent or disabled."""
    return None if _lib is None else _lib.isa


# Parameter-block layout; must match the P_* enum in _softermaxmodule.c.
_P_COUNT = 17


class NativeSoftermaxKernel:
    """Workspace-aware `fn(x, axis=-1, out=None, scratch=None)` C engine.

    Bitwise-identical to :class:`FusedSoftermaxKernel` (hence to the
    slice-loop oracle) on every input, NaN included: operating points
    inside the int32 code domain run the compiled row loop the extension
    dispatched to (see :func:`native_isa`), everything else delegates to
    the fused kernel.  ``native_supported`` says which applies.
    """

    def __init__(self, config: Optional[SoftermaxConfig] = None,
                 lpw_method: str = "endpoint", *,
                 _allow_simd: bool = True) -> None:
        self.config = config or DEFAULT_CONFIG
        self.lpw_method = lpw_method
        # Private: False pins the scalar row loop on a SIMD-capable CPU so
        # the equivalence suite can cover both loops.  Not a user option.
        self._allow_simd = _allow_simd
        self._fused: FusedSoftermaxKernel = get_fused_kernel(
            self.config, lpw_method)
        fused = self._fused
        self.native_supported = bool(
            _lib is not None
            and fused._lut_codes is not None
            and fused._recip_values is not None
            and fused._out_values is not None
            and self.config.use_online_normalization
            and self.config.use_integer_max
            # The int32 code domain of both row loops: the fused kernel's
            # own int32 work-dtype rule (products, shifts, gather index)
            # plus one slice's code sum.
            and fused._work_dtype is np.int32
            and fused._idx_dtype is not np.int64
            and self.config.slice_width * int(fused._lut_codes.max()) < 2**31
        )
        if self.native_supported:
            self._build_tables()

    def _build_tables(self) -> None:
        fused = self._fused
        self._lut = np.ascontiguousarray(fused._lut_codes, dtype=np.int32)
        # Denominator code -> reciprocal *code*: the fused kernel gathers
        # the reciprocal value and re-derives the code per call; indexing
        # the pre-divided table yields the identical integers.
        self._recip_codes = np.ascontiguousarray(
            np.rint(fused._recip_values / fused._recip_res), dtype=np.int32)
        self._out_table = np.ascontiguousarray(fused._out_values,
                                               dtype=np.float64)
        self._inv_in_res = 1.0 / fused._in_res
        self._params = np.asarray(self._pack_params(), dtype=np.int64)
        assert self._params.size == _P_COUNT

    def _pack_params(self) -> list:
        """Integer parameter block for the C loop (P_* enum order)."""
        fused, cfg = self._fused, self.config
        return [
            cfg.slice_width,
            cfg.input_fmt.min_code, cfg.input_fmt.max_code,
            cfg.input_fmt.frac_bits, cfg.max_fmt.frac_bits,
            cfg.max_fmt.min_code, cfg.max_fmt.max_code,
            fused._in_scale, fused._max_scale, fused._lo_code,
            cfg.unnormed_fmt.frac_bits - cfg.sum_fmt.frac_bits,
            cfg.sum_fmt.min_code, cfg.sum_fmt.max_code,
            (cfg.unnormed_fmt.frac_bits + cfg.recip_fmt.frac_bits
             - cfg.output_fmt.frac_bits),
            cfg.output_fmt.min_code, cfg.output_fmt.max_code,
            fused._max_shift,
        ]

    @staticmethod
    def _take(ws: Optional[KernelWorkspace], key: str, shape, dtype):
        """Scratch array of ``shape``: workspace-backed or freshly allocated."""
        if ws is None:
            return np.empty(shape, dtype=dtype)
        return ws.take_shaped(key, shape, dtype)

    def __call__(self, x: np.ndarray, axis: int = -1,
                 out: Optional[np.ndarray] = None,
                 scratch: Optional[KernelWorkspace] = None) -> np.ndarray:
        """Apply Softermax along ``axis`` and return the probabilities.

        Same contract and bits as ``FusedSoftermaxKernel.__call__``; the
        compiled row loop serves eligible calls, the fused kernel the rest.
        """
        x = np.asarray(x, dtype=np.float64)
        check_out_buffer(out, x.shape)
        if not self.native_supported:
            return self._fused(x, axis=axis, out=out, scratch=scratch)

        last_axis = axis == -1 or axis == x.ndim - 1
        moved = x if last_axis else np.moveaxis(x, axis, -1)
        length = moved.shape[-1]
        if length == 0:
            raise ValueError("softermax requires a non-empty reduction axis")
        if not moved.flags.c_contiguous:
            staged = self._take(scratch, "native.x", moved.shape, np.float64)
            np.copyto(staged, moved)
            moved = staged

        direct = (out is not None and last_axis and out.flags.c_contiguous)
        if direct:
            dest = out
        elif out is None:
            dest = np.empty(moved.shape, dtype=np.float64)
        else:
            dest = self._take(scratch, "native.out", moved.shape, np.float64)

        width = self.config.slice_width
        num_slices = (length + width - 1) // width
        ucodes = self._take(scratch, "native.ucodes",
                            (num_slices * width,), np.int32)
        slices = self._take(scratch, "native.slices",
                            (3 * num_slices,), np.int32)
        rc = _lib.forward(moved.reshape(-1, length),
                          dest.reshape(-1, length),
                          self._lut, self._recip_codes, self._out_table,
                          ucodes, slices, self._params, self._inv_in_res,
                          self._allow_simd)
        if rc != 0:
            # A saturated maximum (non-integral renormalization shift) or a
            # NaN score: the integer path cannot be bitwise, so the fused
            # kernel answers -- its float back end, or the oracle's own
            # rows for NaN, identical to the oracle either way.
            return self._fused(x, axis=axis, out=out, scratch=scratch)

        if direct:
            return out
        result = dest if last_axis else np.moveaxis(dest, -1, axis)
        if out is None:
            record_output_allocation()
            return result
        np.copyto(out, result)
        return out

    def run(self, x: np.ndarray, axis: int = -1) -> SoftermaxResult:
        """Full-intermediate run (equivalence-suite surface).

        Intermediates come from the fused kernel -- the same tables and
        the same integer pipeline the C loop mirrors -- while ``__call__``
        output is pinned natively by the same suite.
        """
        return self._fused.run(x, axis=axis)


@lru_cache(maxsize=None)
def get_native_kernel(config: Optional[SoftermaxConfig] = None,
                      lpw_method: str = "endpoint") -> NativeSoftermaxKernel:
    """Memoized kernel factory: one kernel (and table set) per config."""
    return NativeSoftermaxKernel(config or DEFAULT_CONFIG,
                                 lpw_method=lpw_method)


def native_softermax(
    x: np.ndarray,
    axis: int = -1,
    config: Optional[SoftermaxConfig] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[KernelWorkspace] = None,
) -> np.ndarray:
    """Drop-in compiled Softermax over ``axis`` (falls back to fused).

    Bitwise-identical to the slice-loop reference; see the module
    docstring for the delegation rules when the extension is absent.
    """
    return get_native_kernel(config)(x, axis=axis, out=out, scratch=scratch)
