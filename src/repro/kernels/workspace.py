"""Caller-owned scratch workspaces and the kernel allocation counters.

The kernel call contract (see :mod:`repro.kernels.registry`) is
``fn(x, axis=-1, out=None, scratch=None)``:

* ``out`` is the output buffer -- when given, the probabilities are written
  in place (bitwise identical to the allocate mode) and no output array is
  allocated by the kernel;
* ``scratch`` is a :class:`KernelWorkspace`, the home for every sizeable
  internal temporary (quantization buffers, gather indices, unnormalized
  codes).  One workspace serves every engine: the buffers are keyed by a
  namespaced string, grown monotonically, and reused across calls, so a
  steady-state caller (the inference-plan executor, a serving worker)
  performs no per-call scratch allocation either.

The module also owns the **output-allocation counter**: every kernel that
allocates the array it hands back (no ``out=``, or an implementation
without native in-place support) records the allocation here, so serving
benchmarks can assert that the hot path performs *zero* steady-state
kernel-output allocations (``benchmarks/bench_encoder.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class KernelWorkspace:
    """Named, dtype-aware scratch buffers shared across kernel calls.

    Buffers are keyed by an arbitrary string (kernels namespace their keys,
    e.g. ``"fused.icodes"``), grown monotonically (a smaller request
    reuses the larger buffer) and replaced when the dtype changes.  The
    workspace can be *arena-backed*: pass any allocator exposing
    ``acquire(shape, dtype)`` / ``release(buffer)`` (in practice a
    :class:`repro.infer.arena.WorkspaceArena`) and the workspace draws its
    buffers from -- and returns outgrown ones to -- that pool, so all
    pooling statistics and byte budgets live in one place.

    A workspace is not thread-safe; give each concurrent executor its own
    (the plan executor serializes executions with a lock).
    """

    def __init__(self, arena=None) -> None:
        self._arena = arena
        self._buffers: Dict[str, np.ndarray] = {}
        # Shaped views handed out by take_shaped, keyed (key, shape): the
        # steady-state fast path is one dict hit instead of a slice +
        # reshape per take.  Entries self-invalidate when the underlying
        # buffer is replaced (checked via ``view.base``).
        self._views: Dict[tuple, np.ndarray] = {}
        #: Number of ``take`` calls that had to (re)allocate a buffer.
        self.reallocs = 0
        #: Number of ``take`` calls served by an existing buffer.
        self.reuses = 0

    def take(self, key: str, size: int, dtype=np.float64) -> np.ndarray:
        """A flat buffer of at least ``size`` elements of ``dtype``.

        Returns a length-``size`` view; contents are unspecified (callers
        fully overwrite their scratch).  The underlying buffer persists
        under ``key`` until a bigger or differently-typed request replaces
        it.
        """
        dtype = np.dtype(dtype)
        size = int(size)
        buffer = self._buffers.get(key)
        if buffer is not None and buffer.dtype == dtype and buffer.size >= size:
            self.reuses += 1
            return buffer[:size]
        if buffer is not None:
            if self._arena is not None:
                self._arena.release(buffer)
            # Drop cached views of the outgrown buffer: a stale view would
            # pin the old memory invisibly to the arena's byte budget.
            self._views = {ck: view for ck, view in self._views.items()
                           if ck[0] != key}
        self.reallocs += 1
        if self._arena is not None:
            buffer = self._arena.acquire((max(size, 1),), dtype=dtype)
        else:
            buffer = np.empty(max(size, 1), dtype=dtype)
        self._buffers[key] = buffer
        return buffer[:size]

    def take_shaped(self, key: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`take`, reshaped to ``shape`` (C order)."""
        view = self._views.get((key, shape))
        if view is not None and view.base is self._buffers.get(key) \
                and view.dtype == dtype:
            self.reuses += 1
            return view
        size = 1
        for dim in shape:
            size *= dim
        view = self.take(key, size, dtype).reshape(shape)
        self._views[(key, shape)] = view
        return view

    def clear(self) -> None:
        """Drop every buffer (returning arena-backed ones to the pool)."""
        if self._arena is not None:
            for buffer in self._buffers.values():
                self._arena.release(buffer)
        self._buffers.clear()
        self._views.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def stats(self) -> dict:
        """Buffer inventory and reuse counters (for tests and benchmarks)."""
        return {
            "buffers": len(self._buffers),
            "nbytes": self.nbytes,
            "reallocs": self.reallocs,
            "reuses": self.reuses,
            "keys": sorted(self._buffers),
        }

    def __repr__(self) -> str:
        return (f"KernelWorkspace(buffers={len(self._buffers)}, "
                f"nbytes={self.nbytes}, reallocs={self.reallocs})")


def check_out_buffer(out: Optional[np.ndarray], shape) -> None:
    """Validate a caller-provided ``out=`` buffer against the contract.

    The output buffer must be a float64 :class:`numpy.ndarray` of exactly
    the input's shape; anything else is a usage error, raised eagerly so a
    wrong buffer can never be silently ignored or partially filled.
    """
    if out is None:
        return
    if not isinstance(out, np.ndarray):
        raise ValueError(
            f"out= must be a numpy array, got {type(out).__name__}")
    if out.dtype != np.float64:
        raise ValueError(f"out= must be float64, got dtype {out.dtype}")
    if tuple(out.shape) != tuple(shape):
        raise ValueError(
            f"out= shape {tuple(out.shape)} does not match input shape "
            f"{tuple(shape)}")


# --------------------------------------------------------------------------- #
# output-allocation accounting
# --------------------------------------------------------------------------- #
_OUTPUT_ALLOCATIONS = 0


def record_output_allocation(count: int = 1) -> None:
    """Note that a kernel allocated the output array it returned."""
    global _OUTPUT_ALLOCATIONS
    _OUTPUT_ALLOCATIONS += count


def output_allocation_count() -> int:
    """Process-lifetime count of kernel output allocations."""
    return _OUTPUT_ALLOCATIONS


def reset_output_allocations() -> None:
    """Reset the counter (benchmarks scope their steady-state windows)."""
    global _OUTPUT_ALLOCATIONS
    _OUTPUT_ALLOCATIONS = 0
