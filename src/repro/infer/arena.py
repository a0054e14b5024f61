"""Shape-keyed workspace arena for the graph-free inference engine.

The graph path allocates fresh float64 temporaries for every op of every
layer of every call; at serving rates that allocation traffic -- not the
arithmetic -- dominates the encoder forward.  :class:`WorkspaceArena` is
the antidote: a pool of preallocated scratch buffers keyed by shape (and
dtype), so the plan executor's ``acquire``/``release`` cycle reuses the
same handful of arrays across layers *and* across calls.  Steady-state
serving (same request shapes arriving repeatedly) performs no per-request
large intermediate allocations.

Buffers default to float64 (the plan's register file), but the pools are
dtype-aware: the kernel boundary's scratch workspaces
(:class:`repro.kernels.workspace.KernelWorkspace`) draw their narrow
integer buffers (int16 gather indices, uint16 unnormalized codes, ...)
from the same arena, so one byte budget and one set of hit/miss counters
covers the whole inference working set.

Packed plan registers have a leading *row* dimension that changes with
every batch (the token total of a ragged batch).  :meth:`acquire_rows`
serves them from row-capacity buckets -- the leading dimension rounded up
to a power of two -- and hands out a row-prefix view, so a stream of
batches with different token totals keeps hitting a handful of pooled
shapes instead of missing on each new total.

Two release flavors:

* :meth:`release` -- the buffer is dead now; it goes straight back to the
  free pool and the next ``acquire`` of that shape reuses it.
* :meth:`release_deferred` -- the buffer is the *result* the caller is
  about to read (e.g. :meth:`~repro.infer.plan.InferencePlan.run_ragged`
  output, copied out immediately by ``encode_ragged``).  It is parked and
  only returned to the pool by :meth:`begin_call` at the start of the
  next execution, so the caller's read window is safe.  Parked buffers are
  exempt from the byte-budget eviction until they re-enter the pool.

The arena is not thread-safe by itself; :class:`~repro.infer.plan.
InferencePlan` serializes executions with a lock.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

Shape = Tuple[int, ...]
#: Pool key: (shape, dtype).  Keys hold the interned ``np.dtype`` object --
#: hashing it is cheap, while ``dtype.name`` is a computed property that
#: showed up in the serving profile; names are only rendered in ``stats``.
PoolKey = Tuple[Shape, np.dtype]


#: Default cap on pooled (free) bytes.  Steady-state serving of one shape
#: family stays far below this; the cap only bites when a long-lived
#: service sees many distinct row-capacity buckets and attention shapes, in
#: which case the least-recently-used shapes' buffers are dropped instead of
#: growing the pool without bound.
DEFAULT_MAX_FREE_BYTES = 64 * 1024 * 1024


def row_capacity(rows: int) -> int:
    """Pooled leading dimension for ``rows`` rows: the next power of two."""
    return 1 << max(rows - 1, 0).bit_length()


class WorkspaceArena:
    """A free-list of scratch buffers keyed by exact (shape, dtype).

    The free pool is bounded by ``max_free_bytes``: releases beyond the
    budget evict buffers from the least-recently-used *shape* (freshly
    used shapes -- the serving steady state -- are kept hot).  A budget of
    zero disables pooling entirely: every release drops its buffer on the
    spot (counted as an eviction) without touching the recency bookkeeping.
    """

    def __init__(self, max_free_bytes: int = DEFAULT_MAX_FREE_BYTES) -> None:
        if max_free_bytes < 0:
            raise ValueError("max_free_bytes must be >= 0")
        self.max_free_bytes = max_free_bytes
        self._free: Dict[PoolKey, List[np.ndarray]] = {}
        self._free_bytes = 0
        self._deferred: List[np.ndarray] = []
        self._tick = 0
        self._last_used: Dict[PoolKey, int] = {}
        #: Number of ``acquire`` calls served from the pool.
        self.hits = 0
        #: Number of ``acquire`` calls that had to allocate.
        self.misses = 0
        #: Number of pooled buffers dropped by the byte-budget eviction.
        self.evictions = 0
        #: Total bytes ever allocated by this arena.
        self.allocated_bytes = 0

    @staticmethod
    def _key_of(buffer: np.ndarray) -> PoolKey:
        return (buffer.shape, buffer.dtype)

    # ------------------------------------------------------------------ #
    # the acquire/release cycle
    # ------------------------------------------------------------------ #
    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """Hand out a C-contiguous buffer of exactly ``shape`` / ``dtype``.

        Contents are unspecified (pooled buffers carry stale values); every
        plan op fully overwrites its output, and the few that need zeros
        (the exact-mask attention context) fill them explicitly.
        """
        if type(shape) is not tuple:
            shape = tuple(shape)
        dtype = np.dtype(dtype)
        key = (shape, dtype)
        self._touch(key)
        pool = self._free.get(key)
        if pool:
            self.hits += 1
            buffer = pool.pop()
            self._free_bytes -= buffer.nbytes
            if not pool:
                del self._free[key]
                self._last_used.pop(key, None)
            return buffer
        self.misses += 1
        buffer = np.empty(shape, dtype=dtype)
        self.allocated_bytes += buffer.nbytes
        return buffer

    def acquire_rows(self, shape, dtype=np.float64) -> np.ndarray:
        """A ``shape`` buffer carved from a row-capacity bucket.

        The pooled buffer's leading dimension is :func:`row_capacity` of
        ``shape[0]``; the caller gets the C-contiguous row-prefix view.
        Release the view itself: :meth:`release` pools its base.
        """
        rows = shape[0]
        bucket = (row_capacity(rows),) + tuple(shape[1:])
        return self.acquire(bucket, dtype)[:rows]

    def release(self, buffer: np.ndarray) -> None:
        """Return a previously acquired buffer to the free pool.

        A row-prefix view from :meth:`acquire_rows` returns its whole
        bucket buffer.
        """
        if buffer.base is not None:
            buffer = buffer.base
        if self.max_free_bytes == 0:
            # No pool to park it in: drop on the spot, touching neither
            # the byte count nor the recency map (a zero-budget arena must
            # never accumulate bookkeeping for buffers it cannot keep).
            self.evictions += 1
            return
        key = self._key_of(buffer)
        self._touch(key)
        self._free.setdefault(key, []).append(buffer)
        self._free_bytes += buffer.nbytes
        self._evict()

    def _touch(self, key: PoolKey) -> None:
        self._tick += 1
        self._last_used[key] = self._tick

    def _evict(self) -> None:
        """Drop LRU shapes' buffers until the pool fits the byte budget."""
        while self._free_bytes > self.max_free_bytes and self._free:
            key = min(self._free, key=lambda k: self._last_used.get(k, 0))
            pool = self._free[key]
            dropped = pool.pop()
            self._free_bytes -= dropped.nbytes
            self.evictions += 1
            if not pool:
                del self._free[key]
                self._last_used.pop(key, None)

    def release_deferred(self, buffer: np.ndarray) -> None:
        """Return ``buffer`` to the pool at the *next* :meth:`begin_call`.

        Used for execution outputs the caller still reads (and copies)
        after the executor returns but before the next execution starts.
        Parked buffers are not part of the free pool, so the byte-budget
        eviction cannot reclaim them early.
        """
        self._deferred.append(buffer)

    def begin_call(self) -> None:
        """Start a new execution: reclaim buffers parked by the last one."""
        for buffer in self._deferred:
            self.release(buffer)
        self._deferred.clear()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Pool occupancy and hit/miss counters (for tests and benchmarks)."""
        pooled = sum(len(pool) for pool in self._free.values())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "free_buffers": pooled,
            "free_bytes": self._free_bytes,
            "max_free_bytes": self.max_free_bytes,
            "deferred_buffers": len(self._deferred),
            "allocated_bytes": self.allocated_bytes,
            "shapes": sorted((shape, dtype.name) for shape, dtype
                             in self._free),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"WorkspaceArena(free={stats['free_buffers']}, "
                f"hits={stats['hits']}, misses={stats['misses']}, "
                f"allocated={stats['allocated_bytes']} B)")
