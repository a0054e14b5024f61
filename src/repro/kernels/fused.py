"""Fused batched Softermax kernel.

:class:`~repro.core.softermax.SoftermaxPipeline` mirrors the hardware
slice-by-slice, walking the reduction axis in Python loops: at sequence
length 512 it makes ~16 trips through the interpreter per row group and
issues hundreds of small NumPy calls (including a per-element ``np.power``
inside the power-of-two unit).  That is the right shape for a bit-accurate
functional model and the wrong shape for throughput.

This module computes the *identical* result in a handful of whole-tensor
operations, almost entirely in the integer code domain:

* the input is quantized straight to int32 codes and reshaped into a
  ``(..., num_slices, slice_width)`` tile view (the last tile is padded so
  padding can never win a maximum, and padded lanes are zeroed out of the
  sums);
* per-slice integer maxima use one reduction over the tile axis --
  ``max(ceil(x)) == ceil(max(x))``, so the ceil runs on the tiny per-slice
  array instead of the full tensor;
* the power-of-two unit is folded into a lookup table over every possible
  quantized score-minus-max difference (the input/max grids are narrow
  fixed-point formats, so the set is small and enumerable) -- one gather
  replaces the floor/subtract/LPW/shift/quantize chain;
* the online-normalization recurrence keeps its per-slice loop (each step
  rounds, so it is inherently sequential) but runs on small per-row state
  arrays with all shift factors precomputed, five NumPy calls per slice;
* the renormalize-and-divide back end is integer arithmetic on the codes:
  the ``2**(slice_max - global_max)`` renormalization is a right shift and
  the final round-to-nearest/saturation is an add-shift-clip.

Bitwise equivalence with the pipeline is not approximate: every quantized
value produced here is computed by the very same elementwise float
expression, or by exact integer arithmetic on the fixed-point codes (sums
of grid values fit losslessly in int64/float64), or gathered from a table
that was itself filled by the bit-accurate unit.  The one input the code
domain cannot represent, a NaN score, is answered per row by the
pipeline itself (one reduction screens each batch for it).  The
equivalence suite in ``tests/kernels/test_equivalence.py`` asserts
``array_equal`` across shapes, slice widths, axes and operating points.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from repro.core.config import SoftermaxConfig, DEFAULT_CONFIG
from repro.core.online_normalizer import integer_max
from repro.core.pow2_unit import PowerOfTwoUnit
from repro.core.reciprocal_unit import ReciprocalUnit
from repro.core.softermax import (
    SoftermaxIntermediates,
    SoftermaxPipeline,
    SoftermaxResult,
)
from repro.fixedpoint import RoundingMode, quantize
from repro.kernels.workspace import (
    KernelWorkspace,
    check_out_buffer,
    record_output_allocation,
)

try:
    # The raw clip ufunc skips np.clip's Python dispatch overhead, which is
    # measurable in the per-slice recurrence; np.clip resolves to the same
    # ufunc, so results are identical.
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - older numpy layouts
    _clip = np.clip

#: Largest difference LUT the kernel will precompute (entries).  The paper's
#: Q(6,2) operating point needs 511; even a Q(8,8) ablation needs ~98k.
#: Configs beyond this fall back to the vectorized float path.
MAX_LUT_ENTRIES = 1 << 20


def narrowest_int_dtype(lo: int, hi: int) -> type:
    """Smallest signed NumPy integer dtype whose range covers [lo, hi]."""
    for dtype in (np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    raise OverflowError(f"range [{lo}, {hi}] exceeds int64")


@dataclass
class FusedSoftermaxKernel:
    """Whole-tensor Softermax, bitwise-identical to the slice-loop pipeline.

    Parameters
    ----------
    config:
        Operating point; must match the pipeline being replaced.
    lpw_method:
        LPW table construction method (must match the pipeline's units for
        bitwise equivalence; both default to ``"endpoint"``).

    Examples
    --------
    >>> kernel = FusedSoftermaxKernel()
    >>> probs = kernel(np.asarray([[2.0, 1.0, 3.0]]))
    >>> bool(abs(probs.sum() - 1.0) < 0.05)
    True
    """

    config: SoftermaxConfig = None
    lpw_method: str = "endpoint"

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = DEFAULT_CONFIG
        cfg = self.config
        self.pow2_unit = PowerOfTwoUnit(cfg, lpw_method=self.lpw_method)
        self.reciprocal_unit = ReciprocalUnit(cfg, lpw_method=self.lpw_method)

        self._in_res = cfg.input_fmt.resolution
        self._max_res = cfg.max_fmt.resolution
        self._un_res = cfg.unnormed_fmt.resolution
        self._sum_res = cfg.sum_fmt.resolution
        self._recip_res = cfg.recip_fmt.resolution
        self._out_res = cfg.output_fmt.resolution

        # Widest intermediate of the integer back end: unnormed * reciprocal
        # codes, plus the rounding offset.
        product_bits = (cfg.unnormed_fmt.total_bits + cfg.recip_fmt.total_bits + 2)
        self._work_dtype = np.int32 if product_bits < 31 else np.int64
        # Renormalization shifts beyond the unnormed code width already
        # yield zero, so they can be capped below the work dtype's bit
        # width (NumPy leaves over-shifting undefined).
        self._max_shift = 30 if self._work_dtype is np.int32 else 62

        # Output codes -> float values (a gather beats astype + multiply);
        # only trivially indexable for unsigned output formats.
        if cfg.output_fmt.min_code == 0:
            self._out_values = (
                np.arange(cfg.output_fmt.max_code + 1, dtype=np.float64)
                * self._out_res
            )
        else:
            self._out_values = None

        # Denominator code -> reciprocal value, filled by the bit-accurate
        # unit itself, so the whole leading-one-detect/LPW/requantize chain
        # collapses to one gather per row.
        if cfg.sum_fmt.min_code == 0 and cfg.sum_fmt.total_bits <= 20:
            codes = np.arange(cfg.sum_fmt.max_code + 1, dtype=np.float64)
            self._recip_values = self.reciprocal_unit(codes * self._sum_res)
        else:
            self._recip_values = None

        self._build_pow2_lut()

    # ------------------------------------------------------------------ #
    # table construction
    # ------------------------------------------------------------------ #
    def _pow2(self, x: np.ndarray) -> np.ndarray:
        """Same semantics as ``SoftermaxPipeline._pow2`` (base-2 or base-e)."""
        if self.config.use_base2:
            return self.pow2_unit(x)
        return quantize(np.exp(x), self.config.unnormed_fmt, RoundingMode.NEAREST)

    def _build_pow2_lut(self) -> None:
        """Tabulate the unnormalized exponential over every possible diff.

        The quantized scores live on the ``input_fmt`` grid and the (slice
        or global) maxima on the ``max_fmt`` grid, so ``score - max`` lies
        on the grid of resolution ``2**-max(frac_in, frac_max)`` -- a
        finite, enumerable set.  Evaluating the bit-accurate unit once per
        grid point makes the lookup bitwise-faithful by construction.
        """
        cfg = self.config
        frac = max(cfg.input_fmt.frac_bits, cfg.max_fmt.frac_bits)
        res = 2.0 ** (-frac)
        lo = cfg.input_fmt.min_value - cfg.max_fmt.max_value
        hi = cfg.input_fmt.max_value - cfg.max_fmt.min_value
        entries = int(round((hi - lo) / res)) + 1
        if entries > MAX_LUT_ENTRIES:
            self._lut_codes = None
            self._idx_dtype = None
            return
        values = lo + np.arange(entries, dtype=np.float64) * res
        codes = np.rint(self._pow2(values) / self._un_res)
        self._lut_codes = codes.astype(self._work_dtype)
        # Index of a diff: icode * in_scale - mcode * max_scale - lo_code,
        # everything in units of the common (finest) grid.
        self._in_scale = 1 << (frac - cfg.input_fmt.frac_bits)
        self._max_scale = 1 << (frac - cfg.max_fmt.frac_bits)
        self._lo_code = int(round(lo / res))
        # The gather index is the largest int intermediate of the forward
        # pass; its value range is known at build time (input and max codes
        # are narrow), so it can usually live in int16 -- half the memory
        # traffic of the former int32 index on the bandwidth-bound shapes.
        t_lo = cfg.input_fmt.min_code * self._in_scale
        t_hi = cfg.input_fmt.max_code * self._in_scale
        off_lo = cfg.max_fmt.min_code * self._max_scale + self._lo_code
        off_hi = cfg.max_fmt.max_code * self._max_scale + self._lo_code
        self._idx_dtype = narrowest_int_dtype(
            min(t_lo, t_lo - off_hi), max(t_hi, t_hi - off_lo)
        )

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def __call__(self, x: np.ndarray, axis: int = -1,
                 out: Optional[np.ndarray] = None,
                 scratch: Optional[KernelWorkspace] = None) -> np.ndarray:
        """Apply Softermax along ``axis`` and return the probabilities.

        ``out`` is an optional float64 buffer of ``x``'s exact shape: the
        probabilities are written into it in place (bitwise identical to
        the allocate mode) and it is returned.  ``scratch`` is an optional
        :class:`~repro.kernels.workspace.KernelWorkspace` that hosts the
        whole-tensor temporaries, so a caller that reuses one workspace
        across calls pays no steady-state scratch allocation.
        """
        x = np.asarray(x, dtype=np.float64)
        check_out_buffer(out, x.shape)
        last_axis = axis == -1 or axis == x.ndim - 1
        if last_axis and (out is None or out.flags.c_contiguous):
            output, _ = self._forward(x, want_intermediates=False, out=out,
                                      ws=scratch)
            return output
        # Non-last axis (or a non-contiguous out): compute on the moved
        # view, then copy into the caller's buffer.
        moved = x if last_axis else np.moveaxis(x, axis, -1)
        output, _ = self._forward(moved, want_intermediates=False, ws=scratch)
        if not last_axis:
            output = np.moveaxis(output, -1, axis)
        if out is None:
            return output
        np.copyto(out, output)
        return out

    def run(self, x: np.ndarray, axis: int = -1) -> SoftermaxResult:
        """Run the fused kernel, retaining every intermediate signal.

        Returns the same :class:`SoftermaxResult` (and intermediate arrays)
        as ``SoftermaxPipeline.run`` on the same input.
        """
        moved = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
        _, result = self._forward(moved, want_intermediates=True)
        return result

    def online_stats(self, x: np.ndarray,
                     ws: Optional[KernelWorkspace] = None):
        """Front half of the kernel for streaming consumers.

        Returns ``(unnormed, slice_maxes, running_max, running_sum)`` --
        bitwise the same values as the matching intermediates of
        :meth:`run` on the same input (they are produced by the same code
        path), but *without* the renormalize-and-divide back end and
        without allocating an output.  ``unnormed`` is shaped like ``x``
        and holds the unnormalized exponential codes times the unnormed
        resolution, relative to the per-slice maxima ``slice_maxes``.

        This is the primitive the chunked attention path
        (:func:`repro.nn.functional.chunked_masked_attention`) calls per
        key/value block: blocks are merged downstream with power-of-two
        shifts on ``(running_max, running_sum)`` -- the online-normalizer
        recurrence at block granularity -- so nothing quadratic in the
        sequence length is ever materialized.  ``unnormed`` may live in
        ``ws``; consume it before the next call on the same workspace.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            u, sm, rm, rs = self.online_stats(x[None, :], ws=ws)
            return u[0], sm[0], rm[0], rs[0]
        cfg = self.config
        length = x.shape[-1]
        if length == 0:
            raise ValueError("softermax requires a non-empty reduction axis")
        if self._lut_codes is None or not cfg.use_online_normalization:
            # Exotic operating point or the no-online ablation: take the
            # intermediates from the vectorized float path (still bitwise
            # vs the pipeline).  Without online normalization the "state"
            # is the broadcast global max and the whole-row sum, which the
            # block merge downstream handles unchanged.
            _, result = self._forward_float(x, want_intermediates=True)
            i = result.intermediates
            return i.unnormed, i.slice_maxes, i.global_max, i.denominator

        # --- input quantization, straight to int32 codes (as _forward) --- #
        in_fmt = cfg.input_fmt
        buf = self._take(ws, "fused.buf", x.shape, np.float64)
        np.multiply(x, 1.0 / self._in_res, out=buf)  # exact: power of 2
        buf += 0.5
        np.floor(buf, out=buf)
        _clip(buf, in_fmt.min_code, in_fmt.max_code, buf)
        icodes = self._take(ws, "fused.icodes", x.shape, np.int32)
        np.copyto(icodes, buf, casting="unsafe")

        width = cfg.slice_width
        num_slices = (length + width - 1) // width
        padded_len = num_slices * width
        lead = x.shape[:-1]
        if padded_len != length:
            padded = self._take(ws, "fused.padded", lead + (padded_len,),
                                np.int32)
            padded[..., length:] = in_fmt.min_code
            padded[..., :length] = icodes
            lane_pad = (np.arange(padded_len) >= length).reshape(num_slices,
                                                                 width)
        else:
            padded = icodes
            lane_pad = None
        tiles = padded.reshape(lead + (num_slices, width))

        # --- per-slice maxima + LUT gather (as _forward) ------------------ #
        slice_mc = tiles.max(axis=-1)
        mcq = self._quantize_max_codes(slice_mc)
        slice_max_f = mcq * self._max_res
        if self._max_scale == 1:
            offset = mcq + self._lo_code
        else:
            offset = mcq * self._max_scale + self._lo_code
        off = offset[..., :, None]
        idx = self._take(ws, "fused.idx", tiles.shape, self._idx_dtype)
        if self._in_scale == 1:
            np.subtract(tiles, off, out=idx, casting="unsafe")
        else:
            np.multiply(tiles, self._in_scale, out=idx, casting="unsafe")
            np.subtract(idx, off, out=idx, casting="unsafe")
        ucodes = self._take(ws, "fused.ucodes", tiles.shape, self._work_dtype)
        self._lut_codes.take(idx, mode="clip", out=ucodes)
        if lane_pad is not None:
            ucodes[..., lane_pad] = 0

        # --- merged (max, sum) state (as _forward) ------------------------ #
        sum_codes = self._quantize_sum_codes(ucodes.sum(axis=-1,
                                                        dtype=np.int64))
        running_max, rs_codes = self._online_merge(slice_max_f, sum_codes)
        # repro: allow(R1): O(rows) sum-code cast, not O(rows*len)
        running_sum = rs_codes.astype(np.int64) * self._sum_res

        ufloat = self._take(ws, "fused.ufloat", tiles.shape, np.float64)
        np.multiply(ucodes, self._un_res, out=ufloat)
        unnormed = ufloat.reshape(lead + (padded_len,))[..., :length]
        return unnormed, slice_max_f, running_max, running_sum

    @staticmethod
    def _take(ws: Optional[KernelWorkspace], key: str, shape, dtype):
        """Scratch array of ``shape``: workspace-backed or freshly allocated."""
        if ws is None:
            return np.empty(shape, dtype=dtype)
        return ws.take_shaped(key, shape, dtype)

    def _forward(self, moved: np.ndarray, want_intermediates: bool,
                 out: Optional[np.ndarray] = None,
                 ws: Optional[KernelWorkspace] = None):
        cfg = self.config
        length = moved.shape[-1]
        if length == 0:
            raise ValueError("softermax requires a non-empty reduction axis")
        if moved.ndim == 1:
            # Process a lone row as a batch of one; per-row state arrays
            # (running max/sum) must be arrays, not scalars.
            inner_out = None if out is None else out[None, :]
            output, result = self._forward(moved[None, :], want_intermediates,
                                           out=inner_out, ws=ws)
            output = out if out is not None else np.squeeze(output, axis=0)
            if result is not None:
                i = result.intermediates
                result = SoftermaxResult(SoftermaxIntermediates(
                    *(np.squeeze(a, axis=0) for a in (
                        i.quantized_input, i.slice_maxes, i.unnormed,
                        i.global_max, i.denominator, i.reciprocal, i.output))
                ))
            return output, result
        nan_rows = self._nan_rows(moved)
        if nan_rows is not None:
            return self._forward_nan_rows(moved, nan_rows, want_intermediates,
                                          out, ws)
        if self._lut_codes is None:
            # Exotic operating point (diff LUT too large): vectorized float
            # path, still fused, still bitwise-identical.
            output, result = self._forward_float(moved, want_intermediates)
            if out is not None:
                np.copyto(out, output)
                output = out
            else:
                record_output_allocation()
            return output, result

        # --- input quantization, straight to int32 codes ----------------- #
        in_fmt = cfg.input_fmt
        buf = self._take(ws, "fused.buf", moved.shape, np.float64)
        np.multiply(moved, 1.0 / self._in_res, out=buf)  # exact: power of 2
        buf += 0.5
        np.floor(buf, out=buf)
        _clip(buf, in_fmt.min_code, in_fmt.max_code, buf)
        icodes = self._take(ws, "fused.icodes", moved.shape, np.int32)
        np.copyto(icodes, buf, casting="unsafe")

        width = cfg.slice_width
        num_slices = (length + width - 1) // width
        padded_len = num_slices * width
        lead = moved.shape[:-1]

        if padded_len != length:
            padded = self._take(ws, "fused.padded", lead + (padded_len,),
                                np.int32)
            padded[..., length:] = in_fmt.min_code
            padded[..., :length] = icodes
            lane_pad = (np.arange(padded_len) >= length).reshape(num_slices, width)
        else:
            padded = icodes
            lane_pad = None
        tiles = padded.reshape(lead + (num_slices, width))

        # --- per-slice maxima (on the small reduced array) ---------------- #
        # max and ceil commute (both monotone), so reduce first.
        slice_mc = tiles.max(axis=-1)  # (..., num_slices) input codes
        if cfg.use_online_normalization:
            mcq = self._quantize_max_codes(slice_mc)  # max_fmt codes
            slice_max_f = mcq * self._max_res
            ref_mcq = mcq
        else:
            mcq_g = self._quantize_max_codes(slice_mc.max(axis=-1))
            global_max = mcq_g * self._max_res
            slice_max_f = np.ascontiguousarray(
                np.broadcast_to(global_max[..., None], lead + (num_slices,))
            )
            ref_mcq = mcq_g[..., None]

        # --- unnormalized exponentials: one gather ------------------------ #
        if self._max_scale == 1:
            offset = ref_mcq + self._lo_code  # small array
        else:
            offset = ref_mcq * self._max_scale + self._lo_code
        off = offset[..., :, None] if cfg.use_online_normalization \
            else offset[..., None]
        # The downcast to the narrow index dtype is exact: the bounds were
        # enumerated at LUT-build time over every possible code pair.
        idx = self._take(ws, "fused.idx", tiles.shape, self._idx_dtype)
        if self._in_scale == 1:
            np.subtract(tiles, off, out=idx, casting="unsafe")
        else:
            np.multiply(tiles, self._in_scale, out=idx, casting="unsafe")
            np.subtract(idx, off, out=idx, casting="unsafe")
        ucodes = self._take(ws, "fused.ucodes", tiles.shape, self._work_dtype)
        self._lut_codes.take(idx, mode="clip", out=ucodes)
        if lane_pad is not None:
            ucodes[..., lane_pad] = 0

        # --- denominator --------------------------------------------------- #
        if cfg.use_online_normalization:
            sum_codes = self._quantize_sum_codes(ucodes.sum(axis=-1, dtype=np.int64))
            running_max, rs_codes = self._online_merge(slice_max_f, sum_codes)
            # repro: allow(R1): O(rows) sum-code cast, not O(rows*len)
            rs_codes = rs_codes.astype(np.int64)
            running_sum = rs_codes * self._sum_res
        else:
            running_max = global_max
            rs_codes = self._quantize_sum_codes(ucodes.sum(axis=(-2, -1),
                                                           dtype=np.int64))
            running_sum = rs_codes * self._sum_res

        if self._recip_values is not None:
            reciprocal = self._recip_values.take(rs_codes)
        else:
            reciprocal = self.reciprocal_unit(running_sum)

        # --- renormalize and divide ---------------------------------------- #
        shift_exp = slice_max_f - running_max[..., None]  # <= 0 by construction
        output, ufloat = self._normalize(ucodes, shift_exp, reciprocal,
                                         want_intermediates, length, out=out)

        if not want_intermediates:
            return output, None

        intermediates = SoftermaxIntermediates(
            quantized_input=icodes * self._in_res,
            slice_maxes=slice_max_f,
            unnormed=ufloat.reshape(lead + (padded_len,))[..., :length],
            global_max=running_max,
            denominator=running_sum,
            reciprocal=reciprocal,
            output=output,
        )
        return output, SoftermaxResult(intermediates)

    # ------------------------------------------------------------------ #
    # NaN rows
    # ------------------------------------------------------------------ #
    @staticmethod
    def _nan_rows(moved: np.ndarray) -> Optional[np.ndarray]:
        """Mask (over the leading axes) of the rows holding a NaN, or None.

        One reduction screens the batch -- a row sums to NaN iff it holds a
        NaN or both infinities -- and only flagged rows are re-checked.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            if not np.isnan(np.add.reduce(moved, axis=-1)).any():
                return None
        rows = np.isnan(moved).any(axis=-1)
        return rows if rows.any() else None

    @cached_property
    def _oracle(self) -> SoftermaxPipeline:
        """The slice-loop pipeline on this kernel's own units."""
        pipeline = SoftermaxPipeline(self.config)
        pipeline.pow2_unit = self.pow2_unit
        pipeline.reciprocal_unit = self.reciprocal_unit
        return pipeline

    def _forward_nan_rows(self, moved, nan_rows, want_intermediates, out, ws):
        """Rows holding a NaN take the oracle's answer, row by row.

        The code domain has no NaN, so those rows run the fast path zeroed
        and are then overwritten -- output and every intermediate -- with
        the slice-loop pipeline's result on the same rows.  Every step of
        the pipeline is row-independent, so the other rows keep their bits.
        """
        # Cold path (only batches holding a NaN reach it).
        clean = np.where(nan_rows[..., None], 0.0, moved)
        output, result = self._forward(clean, want_intermediates, out=out,
                                       ws=ws)
        with np.errstate(invalid="ignore"):
            ref = self._oracle.run(moved[nan_rows]).intermediates
        output[nan_rows] = ref.output
        if result is not None:
            got = result.intermediates
            for name in (f.name for f in fields(SoftermaxIntermediates)):
                signal = getattr(got, name)
                if not signal.flags.writeable:  # a broadcast max view
                    # repro: allow(R1): cold NaN path, per-row state only
                    signal = signal.copy()
                    setattr(got, name, signal)
                signal[nan_rows] = getattr(ref, name)
        return output, result

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def _quantize_max_codes(self, mc: np.ndarray) -> np.ndarray:
        """Input-grid max codes -> ``max_fmt`` codes (IntMax + requantize).

        Matches ``quantize(integer_max(...), max_fmt, NEAREST)`` exactly: an
        integer ceiling re-expressed on the max grid is already on-grid, so
        the NEAREST rounding is the identity and only the saturation
        remains.  The non-integer ablation rounds in float (the arrays here
        are per-slice, not per-element).
        """
        cfg = self.config
        fi = cfg.input_fmt.frac_bits
        fm = cfg.max_fmt.frac_bits
        if cfg.use_integer_max:
            ceil_int = (mc + ((1 << fi) - 1)) >> fi  # ceil(code / 2**fi)
            scaled = ceil_int << fm
        else:
            if fm >= fi:
                scaled = mc << (fm - fi)
            else:
                scaled = np.floor(mc * (self._in_res / self._max_res) + 0.5)
        # repro: allow(R1): O(rows*slices) max-code cast, small vs the tiles
        return _clip(scaled, cfg.max_fmt.min_code,
                     cfg.max_fmt.max_code).astype(np.int32)

    def _quantize_sum_codes(self, sum_codes: np.ndarray) -> np.ndarray:
        """Integer round-to-nearest of unnormed-code sums into sum codes.

        Sums of grid values are exact in int64 (the widest plausible format
        plus the row-length bits fits easily), so this reproduces the
        pipeline's ``quantize(np.sum(...), sum_fmt, NEAREST)`` bit for bit.
        """
        cfg = self.config
        shift = cfg.unnormed_fmt.frac_bits - cfg.sum_fmt.frac_bits
        if shift > 0:
            codes = (sum_codes + (1 << (shift - 1))) >> shift
        else:
            codes = sum_codes << (-shift)
        return _clip(codes, cfg.sum_fmt.min_code, cfg.sum_fmt.max_code)

    def _online_merge(self, slice_max_f: np.ndarray, sum_codes: np.ndarray):
        """The online-normalization recurrence over the slice axis.

        Each step quantizes the running sum, so the loop is inherently
        sequential -- but it runs on per-row state arrays (tiny next to the
        full tensor) with all shift factors precomputed, and it tracks the
        running sum in code units (an exact power-of-two rescaling of the
        pipeline's value-domain expression, hence bitwise-equal).
        """
        cfg = self.config
        num_slices = slice_max_f.shape[-1]
        # Work slice-major: the loop then indexes with a plain scalar and
        # every per-step operand is a contiguous per-row state array.
        perm = (slice_max_f.ndim - 1,) + tuple(range(slice_max_f.ndim - 1))
        smf = slice_max_f.transpose(perm)
        acc = np.maximum.accumulate(smf, axis=0)
        running_max = acc[-1]
        # repro: allow(R1): O(slices*rows) merge-state staging
        sc = sum_codes.transpose(perm).astype(np.float64)
        if num_slices == 1:
            return running_max, sc[0]

        # One reused (num_slices, rows) temporary carries both shift-factor
        # families: it holds the local shifts just long enough to rescale the
        # slice sums in place (``sc`` becomes ``local``), then is overwritten
        # with the running-state shifts.  Peak state of the recurrence is
        # three slice-major arrays (acc, sc, tmp) instead of five.
        tmp = np.subtract(smf, acc)
        np.power(2.0, tmp, out=tmp)  # local shift factors
        needs_round = (tmp != 1.0).reshape(num_slices, -1).any(axis=1)
        sc *= tmp  # local = slice sums rescaled (exact: powers of two)
        np.subtract(acc[:-1], acc[1:], out=tmp[:-1])
        run_shift = np.power(2.0, tmp[:-1], out=tmp[:-1])

        lo = float(cfg.sum_fmt.min_code)
        hi = float(cfg.sum_fmt.max_code)
        # Steps where every row's shift factor is 1.0 can skip work: the
        # rescale multiply is the identity, and once both shifts are 1 the
        # sum of two integer code arrays is already on-grid, so the
        # round-to-nearest is the identity too (the state is always
        # integer-valued after a floor).  Common case: the running maximum
        # stabilizes after the first few slices.
        needs_mul = (run_shift != 1.0).reshape(num_slices - 1, -1).any(axis=1)
        # repro: allow(R1): O(rows) running-state seed for the recurrence
        rs = sc[0].copy()
        for s in range(1, num_slices):
            if needs_mul[s - 1]:
                rs *= run_shift[s - 1]
            rs += sc[s]
            if needs_mul[s - 1] or needs_round[s]:
                rs += 0.5
                np.floor(rs, out=rs)
            _clip(rs, lo, hi, rs)
        return running_max, rs

    def _normalize(self, ucodes, shift_exp, reciprocal, want_intermediates,
                   length, out=None):
        """Renormalize the numerators and multiply by the reciprocal.

        The integer fast path applies when the per-slice shifts are pure
        powers of two (always true with integer maxima unless a maximum
        saturated at the ``max_fmt`` ceiling): the FLOOR requantization is a
        right shift of the codes and the final NEAREST rounding is an
        add-and-shift.  Otherwise fall back to the pipeline's elementwise
        float expression, which is identical by construction.

        Returns the final *unpadded* ``(..., length)`` output: the last
        gather reads the valid lanes through a strided view of the padded
        tiles and writes straight into ``out`` when given, so the in-place
        mode adds no staging copy over the allocate mode.
        """
        cfg = self.config
        lead = ucodes.shape[:-2]
        padded_len = ucodes.shape[-2] * ucodes.shape[-1]
        ufloat = ucodes * self._un_res if want_intermediates else None
        integer_shifts = bool(np.all(shift_exp == np.floor(shift_exp)))
        if not integer_shifts:
            if ufloat is None:
                ufloat = ucodes * self._un_res
            shift = np.power(2.0, shift_exp)
            renormed = quantize(ufloat * shift[..., None], cfg.unnormed_fmt,
                                RoundingMode.FLOOR)
            output_tiles = quantize(renormed * reciprocal[..., None, None],
                                    cfg.output_fmt, RoundingMode.NEAREST)
            output = output_tiles.reshape(lead + (padded_len,))[..., :length]
            if out is not None:
                np.copyto(out, output)
                return out, ufloat
            record_output_allocation()
            return output, ufloat

        # shift_exp <= 0; cap the shift count below the work dtype's bit
        # width (the codes are long gone to zero by then).
        # repro: allow(R1): O(rows) shift-count cast
        k = np.minimum(-shift_exp, float(self._max_shift)).astype(self._work_dtype)
        # repro: allow(R1): O(rows) reciprocal-code cast
        recip_codes = np.rint(reciprocal / self._recip_res).astype(self._work_dtype)
        # The product overwrites the unnormalized codes in place: they are
        # not read again (the intermediates snapshot was taken above).
        prod = ucodes
        if k.any():
            np.right_shift(ucodes, k[..., None], out=prod)
            prod *= recip_codes[..., None, None]
        else:
            np.multiply(ucodes, recip_codes[..., None, None], out=prod)
        out_shift = (cfg.unnormed_fmt.frac_bits + cfg.recip_fmt.frac_bits
                     - cfg.output_fmt.frac_bits)
        if out_shift > 0:
            prod += 1 << (out_shift - 1)
            prod >>= out_shift
        else:
            prod <<= -out_shift
        _clip(prod, cfg.output_fmt.min_code, cfg.output_fmt.max_code, prod)
        codes = prod.reshape(lead + (padded_len,))
        if padded_len != length:
            codes = codes[..., :length]
        if out is None:
            out = np.empty(lead + (length,), dtype=np.float64)
            record_output_allocation()
        if self._out_values is not None:
            self._out_values.take(codes, out=out)
        else:
            np.copyto(out, codes)
            out *= self._out_res
        return out, ufloat

    # ------------------------------------------------------------------ #
    # float fallback (no diff LUT)
    # ------------------------------------------------------------------ #
    # Cold fallback for operating points too wide to tabulate; whole-tensor
    # float math allocates by design.  # repro: allow(R1)
    def _forward_float(self, moved: np.ndarray, want_intermediates: bool):
        """Whole-tensor float path for operating points too wide to tabulate.

        Every elementwise expression is the pipeline's own, applied to the
        padded tile view at once instead of slice by slice.
        """
        cfg = self.config
        length = moved.shape[-1]
        quantized = quantize(moved, cfg.input_fmt, RoundingMode.NEAREST)

        width = cfg.slice_width
        num_slices = (length + width - 1) // width
        padded_len = num_slices * width
        lead = quantized.shape[:-1]

        if padded_len != length:
            padded = np.full(lead + (padded_len,), -np.inf, dtype=np.float64)
            padded[..., :length] = quantized
            lane_pad = (np.arange(padded_len) >= length).reshape(num_slices, width)
        else:
            padded = quantized
            lane_pad = None
        tiles = padded.reshape(lead + (num_slices, width))

        # max and ceil commute, so reduce first (pads are -inf, never max).
        slice_mc = tiles.max(axis=-1)
        if cfg.use_integer_max:
            slice_mc = np.ceil(slice_mc)
        local_max = quantize(slice_mc, cfg.max_fmt, RoundingMode.NEAREST)

        if cfg.use_online_normalization:
            slice_maxes = local_max
            ref_max = local_max[..., :, None]
        else:
            if cfg.use_integer_max:
                global_max = integer_max(quantized, axis=-1)
            else:
                global_max = np.max(quantized, axis=-1)
            global_max = quantize(global_max, cfg.max_fmt, RoundingMode.NEAREST)
            slice_maxes = np.ascontiguousarray(
                np.broadcast_to(global_max[..., None], lead + (num_slices,))
            )
            ref_max = global_max[..., None, None]

        diff = tiles - ref_max
        if lane_pad is not None:
            diff = np.where(lane_pad, 0.0, diff)
        unnormed = self._pow2(diff)
        if lane_pad is not None:
            unnormed = np.where(lane_pad, 0.0, unnormed)

        if cfg.use_online_normalization:
            local_sum = quantize(unnormed.sum(axis=-1), cfg.sum_fmt,
                                 RoundingMode.NEAREST)
            sum_codes = np.rint(local_sum / self._sum_res).astype(np.int64)
            running_max, rs_codes = self._online_merge(local_max, sum_codes)
            running_sum = rs_codes * self._sum_res
        else:
            running_max = global_max
            running_sum = quantize(unnormed.sum(axis=(-2, -1)), cfg.sum_fmt,
                                   RoundingMode.NEAREST)

        reciprocal = self.reciprocal_unit(running_sum)

        shift = np.power(2.0, slice_maxes - running_max[..., None])
        renormed = quantize(unnormed * shift[..., None], cfg.unnormed_fmt,
                            RoundingMode.FLOOR)
        output_tiles = quantize(renormed * reciprocal[..., None, None],
                                cfg.output_fmt, RoundingMode.NEAREST)

        output = output_tiles.reshape(lead + (padded_len,))[..., :length]
        if not want_intermediates:
            return output, None
        intermediates = SoftermaxIntermediates(
            quantized_input=quantized,
            slice_maxes=slice_maxes,
            unnormed=unnormed.reshape(lead + (padded_len,))[..., :length],
            global_max=running_max,
            denominator=running_sum,
            reciprocal=reciprocal,
            output=output,
        )
        return output, SoftermaxResult(intermediates)


@lru_cache(maxsize=None)
def get_fused_kernel(config: SoftermaxConfig | None = None,
                     lpw_method: str = "endpoint") -> FusedSoftermaxKernel:
    """Memoized kernel factory: one kernel (and LUT) per operating point."""
    return FusedSoftermaxKernel(config or DEFAULT_CONFIG, lpw_method=lpw_method)


def fused_softermax(
    x: np.ndarray,
    axis: int = -1,
    config: SoftermaxConfig | None = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[KernelWorkspace] = None,
) -> np.ndarray:
    """Drop-in fused Softermax over ``axis`` (see :func:`repro.core.softermax`).

    Bitwise-identical to the slice-loop reference, an order of magnitude
    faster on batched attention-score tensors, and cached per config so
    repeated calls pay no table-construction cost.  ``out``/``scratch``
    follow the registry's workspace-aware kernel contract.
    """
    return get_fused_kernel(config)(x, axis=axis, out=out, scratch=scratch)
