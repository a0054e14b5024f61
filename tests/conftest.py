"""Shared pytest fixtures for the Softermax reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoftermaxConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def pin_cpu_count(monkeypatch):
    """Pin the host core count the kernel dispatcher sees.

    ``pin_cpu_count(n)`` patches ``os.cpu_count`` and drops the cached
    :func:`repro.kernels.registry.host_cores` reading so the next dispatch
    sees ``n``; teardown drops it again, so the real count is re-read once
    the patch is undone.
    """
    from repro.kernels.registry import host_cores

    def pin(count) -> None:
        monkeypatch.setattr("os.cpu_count", lambda: count)
        host_cores.cache_clear()

    yield pin
    host_cores.cache_clear()


@pytest.fixture
def paper_config() -> SoftermaxConfig:
    """The paper's Table I operating point."""
    return SoftermaxConfig.paper_table1()


@pytest.fixture
def score_rows(rng) -> np.ndarray:
    """A small batch of realistic attention-score rows."""
    from repro.core import attention_score_batch

    return attention_score_batch(batch=6, seq_len=96, scale=4.0, seed=7)
