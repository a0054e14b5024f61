"""Sweep drivers used by the figure benchmarks and the examples.

These wrap the hardware models with convenient "give me the series the
paper plots" functions: the Figure 1 softmax-runtime-fraction trend and the
Figure 5 energy-vs-sequence-length curves, plus a numerical-accuracy sweep
of the Softermax pipeline across sequence lengths (not a paper figure, but
a useful sanity series referenced by the ablation benchmarks).  The
Softermax sweeps take a ``kernel`` selector (see :mod:`repro.kernels`) so
they can run on the fused fast path or the slice-loop oracle
interchangeably.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core import SoftermaxConfig, base2_softmax, compare_softmax, attention_score_batch
from repro.hardware.energy_model import SweepPoint, sequence_length_sweep
from repro.hardware.runtime_model import RuntimeBreakdown, runtime_breakdown_sweep
from repro.kernels import resolve_kernel
from repro.models.bert import BertConfig


@dataclass
class RuntimeFractionSeries:
    """Softmax (and friends) runtime fraction as sequence length grows."""

    seq_lens: List[int]
    fractions: Dict[str, List[float]]

    def series(self, op_class: str) -> List[float]:
        return self.fractions[op_class]


def runtime_fraction_series(
    config: BertConfig | None = None,
    seq_lens: Sequence[int] = (128, 256, 384, 512, 1024, 2048),
) -> RuntimeFractionSeries:
    """Figure 1 series: per-operator runtime fractions vs sequence length."""
    breakdowns: List[RuntimeBreakdown] = runtime_breakdown_sweep(config, seq_lens)
    fractions: Dict[str, List[float]] = {}
    for breakdown in breakdowns:
        for op_class, fraction in breakdown.fractions().items():
            fractions.setdefault(op_class, []).append(fraction)
    return RuntimeFractionSeries(list(seq_lens), fractions)


@dataclass
class EnergySweepSeries:
    """Figure 5 series for one PE width."""

    vector_size: int
    seq_lens: List[int]
    softermax_energy_uj: List[float]
    baseline_energy_uj: List[float]

    def ratios(self) -> List[float]:
        return [s / b for s, b in zip(self.softermax_energy_uj, self.baseline_energy_uj)]


def energy_sweep_series(
    seq_lens: Sequence[int] = (128, 256, 384, 512, 1024, 2048, 4096),
    vector_sizes: Sequence[int] = (16, 32),
) -> List[EnergySweepSeries]:
    """Figure 5 series: PE energy vs sequence length for each PE width."""
    points: List[SweepPoint] = sequence_length_sweep(seq_lens, vector_sizes)
    series: List[EnergySweepSeries] = []
    for vector_size in vector_sizes:
        mine = [p for p in points if p.vector_size == vector_size]
        series.append(EnergySweepSeries(
            vector_size=vector_size,
            seq_lens=[p.seq_len for p in mine],
            softermax_energy_uj=[p.softermax_energy_uj for p in mine],
            baseline_energy_uj=[p.baseline_energy_uj for p in mine],
        ))
    return series


@dataclass
class AccuracySweepPoint:
    """Numerical error of the Softermax pipeline at one sequence length."""

    seq_len: int
    max_abs_error: float
    mean_abs_error: float
    argmax_agreement: float


def softermax_error_sweep(
    seq_lens: Iterable[int] = (64, 128, 384, 1024),
    batch: int = 16,
    config: SoftermaxConfig | None = None,
    seed: int = 0,
    kernel: str = "auto",
) -> List[AccuracySweepPoint]:
    """Numerical error of Softermax vs the float base-2 softmax, per seq len.

    ``kernel`` picks the Softermax implementation from the registry; the
    bit-accurate family yields identical numbers, so this only changes how
    long the sweep takes.
    """
    config = config or SoftermaxConfig.paper_table1()
    kernel_fn = resolve_kernel(kernel, config)
    points: List[AccuracySweepPoint] = []
    for seq_len in seq_lens:
        scores = attention_score_batch(batch, seq_len, seed=seed)
        report = compare_softmax(kernel_fn, scores, reference_fn=base2_softmax)
        points.append(AccuracySweepPoint(
            seq_len=seq_len,
            max_abs_error=report.max_abs_error,
            mean_abs_error=report.mean_abs_error,
            argmax_agreement=report.argmax_agreement,
        ))
    return points


@dataclass
class KernelTimingPoint:
    """Wall-clock timing of one kernel on one workload shape.

    ``peak_mem_bytes`` is the tracemalloc high-water mark of one call
    (Python-side allocations, which for these kernels means the NumPy
    arrays).
    """

    kernel: str
    seq_len: int
    batch: int
    best_seconds: float
    calls_per_second: float
    rows_per_second: float
    peak_mem_bytes: Optional[int] = None


def _call_peak_memory(kernel_fn, scores) -> Optional[int]:
    """Peak traced allocation of one kernel call (None if already tracing)."""
    if tracemalloc.is_tracing():
        return None
    tracemalloc.start()
    try:
        kernel_fn(scores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def kernel_timing_sweep(
    kernels: Sequence[str] = ("softermax-bit-accurate", "softermax-fused"),
    seq_lens: Sequence[int] = (64, 128, 256, 512, 1024),
    batches: Sequence[int] = (8,),
    config: SoftermaxConfig | None = None,
    repeats: int = 3,
    min_calls: int = 2,
    seed: int = 0,
    measure_memory: bool = True,
) -> List[KernelTimingPoint]:
    """Time registered kernels over batched attention-score rows.

    Used by ``benchmarks/bench_kernels.py`` to record the perf trajectory
    of the kernel engine (best-of-``repeats`` wall-clock per call).
    Kernel names may embed options (``"softermax-fused(lpw_method=lstsq)"``).
    The memory probe runs outside the timed loop so it never skews timings.
    """
    config = config or SoftermaxConfig.paper_table1()
    points: List[KernelTimingPoint] = []
    for name in kernels:
        kernel_fn = resolve_kernel(name, config)
        for seq_len in seq_lens:
            for batch in batches:
                scores = attention_score_batch(batch, seq_len, seed=seed)
                kernel_fn(scores)  # warm caches and tables
                peak = (_call_peak_memory(kernel_fn, scores)
                        if measure_memory else None)
                calls = max(min_calls, int(50_000 / (batch * seq_len)))
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    for _ in range(calls):
                        kernel_fn(scores)
                    best = min(best, (time.perf_counter() - start) / calls)
                points.append(KernelTimingPoint(
                    kernel=name,
                    seq_len=seq_len,
                    batch=batch,
                    best_seconds=best,
                    calls_per_second=1.0 / best,
                    rows_per_second=batch / best,
                    peak_mem_bytes=peak,
                ))
    return points
