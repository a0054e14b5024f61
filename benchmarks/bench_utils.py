"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the timing numbers collected by pytest-benchmark, each benchmark writes its
regenerated table/series to ``benchmarks/results/<name>.txt`` so the output
can be compared against the paper after the run (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

#: Directory where regenerated tables/figures are written.
RESULTS_DIR = Path(__file__).parent / "results"


def git_revision() -> str:
    """``HEAD`` of the checkout holding this harness -- suffixed
    ``-dirty`` when the working tree has uncommitted changes -- or
    ``"unavailable"`` (no git, or not a checkout of its own)."""
    root = Path(__file__).resolve().parent.parent
    if not (root / ".git").exists():
        return "unavailable"
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except OSError:
        return "unavailable"
    return rev.stdout.strip() if rev.returncode == 0 else "unavailable"


def write_result(name: str, content: str) -> Path:
    """Write a regenerated table/figure to the results directory."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    return path


def bench_scale(default: float = 1.0) -> float:
    """Scale factor for the expensive accuracy benchmarks.

    Controlled by the ``SOFTERMAX_BENCH_SCALE`` environment variable so a
    quick smoke run (e.g. ``SOFTERMAX_BENCH_SCALE=0.1``) and a full run can
    share the same harness.
    """
    value = os.environ.get("SOFTERMAX_BENCH_SCALE", "")
    if not value:
        return default
    scale = float(value)
    if scale <= 0:
        raise ValueError("SOFTERMAX_BENCH_SCALE must be positive")
    return scale
