"""The version-guarded shared-memory tracker helpers (repro.kernels.shm).

The serving snapshot bundle routes its attach path through these
helpers, so the CPython
``resource_tracker`` workaround lives -- and is tested -- in one place.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory

import pytest

from repro.kernels.shm import (
    attach_shared_memory,
    tracker_key,
    unregister_inherited_segment,
)


@pytest.fixture()
def segment():
    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        yield shm
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def test_tracker_key_prefers_private_raw_name(segment):
    key = tracker_key(segment)
    assert key == segment._name
    if os.name != "nt":
        assert key.startswith("/")
        assert key.lstrip("/") == segment.name.lstrip("/")


def test_tracker_key_falls_back_to_public_name():
    class FutureSharedMemory:
        """A stand-in for a CPython that renamed ``_name``."""

        name = "psm_fake_segment"

    key = tracker_key(FutureSharedMemory())
    if os.name != "nt":
        assert key == "/psm_fake_segment"
    else:  # pragma: no cover - windows
        assert key == "psm_fake_segment"


def test_tracker_key_fallback_ignores_non_string_private_attr():
    class WeirdSharedMemory:
        _name = 12345  # wrong type: the guard must not return this
        name = "psm_weird"

    key = tracker_key(WeirdSharedMemory())
    assert isinstance(key, str)
    assert key.lstrip("/") == "psm_weird"


def test_unregister_is_noop_under_fork(segment, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=True: "fork")
    assert unregister_inherited_segment(segment) is False


def test_unregister_attempts_under_spawn(segment, monkeypatch):
    calls = []
    from multiprocessing import resource_tracker

    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=True: "spawn")
    monkeypatch.setattr(resource_tracker, "unregister",
                        lambda name, rtype: calls.append((name, rtype)))
    assert unregister_inherited_segment(segment) is True
    assert calls == [(tracker_key(segment), "shared_memory")]


def test_attach_shared_memory_round_trip(segment):
    segment.buf[:4] = b"abcd"
    attached = attach_shared_memory(segment.name)
    try:
        assert bytes(attached.buf[:4]) == b"abcd"
        assert attached.size >= 64
    finally:
        attached.close()
    # the attach never took ownership: the segment still exists
    probe = shared_memory.SharedMemory(name=segment.name)
    probe.close()
