"""Kernel engine benchmark: oracle vs fused vs native.

Times every requested kernel across sequence lengths and batch sizes and
writes ``benchmarks/results/BENCH_kernels.json`` so later PRs have a
recorded perf trajectory.  Two workloads are covered:

* the **row-latency** workload (small batches of rows, the unit of work an
  attention head hands the softmax engine) -- headlines: the fused kernel's
  speedup over the slice-loop ``SoftermaxPipeline`` at sequence length 512,
  and the compiled ``softermax-native`` engine's speedup over the fused
  kernel at the same point (recorded only when the extension is built);
* the **huge-tensor throughput** workload (batch x heads worth of rows at a
  long sequence length, default 64 x 16 rows @ seq 2048) -- headline: the
  native engine's speedup over the fused kernel in the bandwidth-bound
  regime.

Every timed Softermax kernel stays bitwise-identical (checked here too, on
top of the equivalence suite), and each timing point records the
tracemalloc peak of one call so memory wins are part of the trajectory.
The payload records its environment: ``cpu_count``, ``native`` (whether
``softermax-native`` was registered), ``native_isa`` (the row loop the
extension dispatched to: ``"avx2"``, ``"scalar"`` or ``None``) and
``git_rev``.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_kernels            # full sweep
    PYTHONPATH=src python -m benchmarks.bench_kernels --quick    # CI smoke

The ``--quick`` mode also diffs its measurements against the recorded JSON
(warn-only, generous tolerance) so perf regressions surface in every PR;
``scripts/ci.sh`` invokes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

import numpy as np

if __package__ in (None, ""):  # executed as a plain script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_utils import RESULTS_DIR, git_revision

from repro.core import SoftermaxConfig, attention_score_batch
from repro.eval import kernel_timing_sweep
from repro.kernels import native_available, native_isa, resolve_kernel

#: The pair the row-latency acceptance criterion is about.
ORACLE = "softermax-bit-accurate"
FUSED = "softermax-fused"
NATIVE = "softermax-native"

#: Huge-tensor throughput workload: 64 batch x 16 heads worth of rows at
#: sequence length 2048 (~2M elements / 16 MB of float64 scores per call).
HUGE_ROWS = 64 * 16
HUGE_SEQ = 2048

#: Warn when a measured speedup falls below this fraction of the recorded
#: baseline (generous: the boxes running CI are noisy and heterogeneous).
BASELINE_TOLERANCE = 0.5


def _best(points, kernel: str, seq_len: int, batch: int):
    for p in points:
        if p.kernel == kernel and p.seq_len == seq_len and p.batch == batch:
            return p.best_seconds
    return None


def _check_bitwise(config, kernels, seq_len: int) -> None:
    """The timed kernels must agree bit-for-bit before we time them."""
    oracle_fn = resolve_kernel(ORACLE, config)
    check = attention_score_batch(batch=4, seq_len=seq_len, seed=1)
    expected = oracle_fn(check)
    for name in kernels:
        if name == ORACLE or not name.startswith("softermax"):
            continue
        if name.startswith("softermax-float"):
            continue
        if not np.array_equal(expected, resolve_kernel(name, config)(check)):
            raise AssertionError(
                f"kernel {name!r} diverged from the bit-accurate oracle")


def run_bench(seq_lens, batches, kernels, repeats: int) -> dict:
    """Time the row-latency workload and assemble the JSON payload."""
    config = SoftermaxConfig.paper_table1()
    _check_bitwise(config, kernels, max(seq_lens))

    points = kernel_timing_sweep(kernels=kernels, seq_lens=seq_lens,
                                 batches=batches, config=config,
                                 repeats=repeats)
    speedups = {}
    native_speedups = {}
    for seq_len in seq_lens:
        for batch in batches:
            key = f"seq{seq_len}_batch{batch}"
            ref = _best(points, ORACLE, seq_len, batch)
            fused = _best(points, FUSED, seq_len, batch)
            native = _best(points, NATIVE, seq_len, batch)
            if ref is not None and fused is not None:
                speedups[key] = round(ref / fused, 2)
            if fused is not None and native is not None:
                native_speedups[key] = round(fused / native, 2)

    headline_batch = min(batches)
    headline = None
    native_headline = None
    if 512 in seq_lens:
        headline = speedups.get(f"seq512_batch{headline_batch}")
        native_headline = native_speedups.get(f"seq512_batch{headline_batch}")

    return {
        "workload": "attention_score_batch rows, paper Table I config",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native": native_available(),
        "native_isa": native_isa(),
        "git_rev": git_revision(),
        "kernels": list(kernels),
        "seq_lens": list(seq_lens),
        "batches": list(batches),
        "results": [vars(p) for p in points],
        "speedup_fused_vs_oracle": speedups,
        "speedup_at_512": headline,
        "speedup_native_vs_fused": native_speedups,
        "native_speedup_at_512": native_headline,
    }


def run_huge_bench(rows: int, seq_len: int, repeats: int) -> dict:
    """Time the huge-tensor throughput workload (no oracle: too slow)."""
    config = SoftermaxConfig.paper_table1()
    kernels = (FUSED, NATIVE) if native_available() else (FUSED,)
    _check_bitwise(config, kernels, 256)

    points = kernel_timing_sweep(kernels=kernels, seq_lens=(seq_len,),
                                 batches=(rows,), config=config,
                                 repeats=repeats, min_calls=1)
    fused = _best(points, FUSED, seq_len, rows)
    native = _best(points, NATIVE, seq_len, rows)
    return {
        "workload": f"{rows} rows x seq {seq_len} "
                    f"({rows * seq_len} elements, huge-tensor throughput)",
        "rows": rows,
        "seq_len": seq_len,
        "results": [vars(p) for p in points],
        "speedup_native_vs_fused":
            None if fused is None or native is None
            else round(fused / native, 2),
    }


def check_against_baseline(payload: dict, baseline_path: Path,
                           tolerance: float = BASELINE_TOLERANCE) -> list:
    """Warn-only diff of measured speedups against the recorded trajectory.

    Returns the warning lines (empty when everything is within tolerance
    or no baseline exists yet).
    """
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    warnings = []

    recorded = baseline.get("speedup_fused_vs_oracle", {})
    measured = payload.get("speedup_fused_vs_oracle", {})
    for key in sorted(set(recorded) & set(measured)):
        if recorded[key] and measured[key] < recorded[key] * tolerance:
            warnings.append(
                f"fused-vs-oracle speedup at {key} fell to {measured[key]}x "
                f"(recorded {recorded[key]}x, tolerance {tolerance:.0%})")

    for key in ("native", "native_isa"):
        if baseline.get(key) != payload.get(key):
            warnings.append(
                f"baseline was recorded with {key}={baseline.get(key)} "
                f"but this run has {key}={payload.get(key)}; skipping "
                "the native diffs")
            return warnings
    rec_native = baseline.get("speedup_native_vs_fused", {})
    mes_native = payload.get("speedup_native_vs_fused", {})
    for key in sorted(set(rec_native) & set(mes_native)):
        if rec_native[key] and mes_native[key] < rec_native[key] * tolerance:
            warnings.append(
                f"native-vs-fused speedup at {key} fell to "
                f"{mes_native[key]}x (recorded {rec_native[key]}x, "
                f"tolerance {tolerance:.0%})")

    rec_huge = baseline.get("huge", {})
    mes_huge = payload.get("huge", {})
    same_workload = (rec_huge.get("rows") == mes_huge.get("rows")
                     and rec_huge.get("seq_len") == mes_huge.get("seq_len"))
    if mes_huge and rec_huge and not same_workload:
        warnings.append(
            f"huge workload shape differs from the recorded baseline "
            f"({mes_huge.get('rows')}x{mes_huge.get('seq_len')} vs "
            f"{rec_huge.get('rows')}x{rec_huge.get('seq_len')}); "
            "skipping the huge-tensor speedup diff")
    elif same_workload:
        rec = rec_huge.get("speedup_native_vs_fused")
        mes = mes_huge.get("speedup_native_vs_fused")
        if rec and mes and mes < rec * tolerance:
            warnings.append(
                f"huge-tensor native-vs-fused speedup fell to {mes}x "
                f"(recorded {rec}x, tolerance {tolerance:.0%})")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs (no JSON "
                             "rewrite, warn-only baseline diff)")
    parser.add_argument("--seq-lens", type=int, nargs="+",
                        default=[64, 128, 256, 512, 1024])
    parser.add_argument("--batches", type=int, nargs="+", default=[8, 64])
    default_kernels = [ORACLE, FUSED, "reference", "base2"]
    if native_available():
        default_kernels.insert(2, NATIVE)
    parser.add_argument("--kernels", nargs="+", default=default_kernels)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--huge-rows", type=int, default=HUGE_ROWS)
    parser.add_argument("--huge-seq", type=int, default=HUGE_SEQ)
    parser.add_argument("--skip-huge", action="store_true",
                        help="skip the huge-tensor throughput workload")
    parser.add_argument("--output", default=str(RESULTS_DIR / "BENCH_kernels.json"))
    args = parser.parse_args(argv)

    if args.quick:
        quick_kernels = (ORACLE, FUSED) + ((NATIVE,) if native_available()
                                           else ())
        payload = run_bench(seq_lens=(64, 512), batches=(8,),
                            kernels=quick_kernels, repeats=2)
        if not args.skip_huge:
            # Same workload shape as the recorded trajectory so the
            # baseline diff below compares like with like.
            payload["huge"] = run_huge_bench(rows=args.huge_rows,
                                             seq_len=args.huge_seq,
                                             repeats=2)
    else:
        payload = run_bench(seq_lens=tuple(args.seq_lens),
                            batches=tuple(args.batches),
                            kernels=tuple(args.kernels),
                            repeats=args.repeats)
        if not args.skip_huge:
            payload["huge"] = run_huge_bench(rows=args.huge_rows,
                                             seq_len=args.huge_seq,
                                             repeats=args.repeats)
    payload["ru_maxrss_kb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if resource is not None else None)

    for key, value in sorted(payload["speedup_fused_vs_oracle"].items()):
        print(f"{key:>18}: fused speedup {value:5.1f}x")
    if payload["speedup_at_512"] is not None:
        print(f"headline (seq 512): {payload['speedup_at_512']:.1f}x")
    for key, value in sorted(payload["speedup_native_vs_fused"].items()):
        print(f"{key:>18}: native-vs-fused speedup {value:5.1f}x")
    if payload["native_speedup_at_512"] is not None:
        print("native headline (seq 512): "
              f"{payload['native_speedup_at_512']:.1f}x over fused")
    huge = payload.get("huge")
    if huge:
        print(f"huge workload ({huge['workload']}): native vs fused "
              f"{huge['speedup_native_vs_fused']}x")

    if args.quick:
        # The smoke run verifies the harness end to end without clobbering
        # the recorded trajectory with low-repeat numbers -- but it does
        # compare against the recorded speedups so regressions are visible.
        for line in check_against_baseline(payload, Path(args.output)):
            print(f"WARNING: {line}")
        print("quick mode: results not written (baseline diff is warn-only)")
        return 0

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
