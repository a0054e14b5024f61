"""Shared-memory lifecycle helpers used by every shm consumer in the repo.

The serving snapshot bundle (:mod:`repro.serving.snapshot`) puts tensors
into POSIX shared memory and hits a CPython wart: under the ``spawn``
start method a child that merely *attaches* to a segment registers it
with its own ``resource_tracker``, which then unlinks the parent's segment
when the child exits (and prints a leaked-resource warning on the way
out).  The stdlib fix is to unregister
the attachment, but the tracker is keyed by the segment's *raw* name
(``shm._name``, with the POSIX leading slash), a private attribute.

This module owns that workaround in one place:

* :func:`tracker_key` reads ``shm._name`` behind a guard, reconstructing
  the raw name from the public ``shm.name`` if a future CPython renames
  the private attribute -- so an interpreter upgrade degrades to a
  correct fallback instead of silently resurrecting the double-unlink.
* :func:`unregister_inherited_segment` performs the unregistration
  (a no-op under ``fork``, where children share the parent's tracker).
* :func:`attach_shared_memory` is the one-call attach-without-ownership
  helper shard workers use.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory


def tracker_key(shm: shared_memory.SharedMemory) -> str:
    """The name the ``resource_tracker`` knows this segment by.

    CPython registers segments under the raw OS name (``shm._name``,
    which keeps the leading ``/`` on POSIX) rather than the public
    ``shm.name`` (which strips it).  Version-guarded: if the private
    attribute disappears or changes type, rebuild the raw name from the
    public one instead of crashing or silently unregistering nothing.
    """
    name = getattr(shm, "_name", None)
    if isinstance(name, str) and name:
        return name
    public = shm.name
    if os.name != "nt" and not public.startswith("/"):
        return "/" + public
    return public


def unregister_inherited_segment(shm: shared_memory.SharedMemory) -> bool:
    """Detach ``shm`` from this process's resource tracker (best effort).

    Call after attaching (``create=False``) to a segment owned by another
    process under the ``spawn`` start method, where the child's tracker
    would otherwise unlink the parent's segment at child exit.  Under
    ``fork`` the tracker is shared and no unregistration is needed (or
    performed).  Returns ``True`` when an unregistration was attempted.
    """
    if multiprocessing.get_start_method(allow_none=True) == "fork":
        return False
    try:  # pragma: no cover - spawn-only housekeeping
        from multiprocessing import resource_tracker

        resource_tracker.unregister(tracker_key(shm), "shared_memory")
        return True
    except Exception:  # pragma: no cover - tracker may be gone at exit
        return False


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking ownership of it.

    The returned handle must be ``close()``d by the caller; it is never
    ``unlink()``ed here -- destruction belongs to the publishing process.
    """
    shm = shared_memory.SharedMemory(name=name)
    unregister_inherited_segment(shm)
    return shm
