"""Long-context benchmark: chunked O(block)-memory attention vs dense.

The dense exact-mask engine materializes a ``seq x seq`` score matrix per
head; at 32k tokens that is ``4 heads * 32768**2 * 8 B ~ 34 GB`` for the
scores alone (plus probabilities and kernel intermediates on top), which
no reasonable host can serve.  The chunked path
(:func:`repro.nn.functional.chunked_masked_attention`, ``block_kv``)
streams query/key blocks through the online-normalizer merge and keeps
the quadratic temporaries at ``O(block_kv**2)``, so the same encoder runs
a 32k-token request in tens of megabytes.

Recorded to ``benchmarks/results/BENCH_longseq.json`` per sequence
length (2k / 8k / 32k on the ``tiny-long`` surrogate, ``block_kv=512``):

* chunked latency plus the tracemalloc peak of a warmed call (steady) and
  of the first call including plan compilation (cold);
* the dense point where it fits in memory -- latency + peak -- and
  ``{"feasible": false, "estimated_bytes": ...}`` where it does not
  (the 32k row: the headline is that chunked *runs* where dense cannot);
* steady-state allocation counters (asserted zero, as in
  ``bench_encoder``): blocked execution stays allocation-free too;
* the environment: ``cpu_count``, ``native`` and ``git_rev``.

Before anything is timed, small-shape equivalence is asserted: chunked
plan == chunked graph bitwise, and ``block_kv >= seq`` == dense bitwise.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_longseq            # record
    PYTHONPATH=src python -m benchmarks.bench_longseq --quick    # CI smoke

``--quick`` runs the 2k point only, rewrites nothing, and diffs against
the recorded JSON warn-only; ``scripts/ci.sh`` invokes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # executed as a plain script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_utils import RESULTS_DIR, git_revision

BLOCK_KV = 512
SEQ_LENS = (2048, 8192, 32768)

#: Dense-point memory estimate: scores + probabilities + the fused
#: kernel's code/index intermediates, all ``heads * seq**2`` shaped.
DENSE_BYTES_PER_SCORE = 8 * 4

#: Run the dense point only when its estimate stays under this fraction
#: of MemAvailable (headroom for BLAS scratch and the rest of the model).
DENSE_MEM_FRACTION = 0.25

#: Warn when the measured chunked 2k latency exceeds the recorded
#: baseline by more than this factor.
BASELINE_TOLERANCE = 3.0


def build_model(seed: int = 0):
    from repro.models import BertConfig
    from repro.models.bert import BertEncoderModel

    return BertEncoderModel(BertConfig.tiny_long(),
                            softmax_variant="softermax",
                            kernel="auto", seed=seed).eval()


def request(model, seq_len: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.vocab_size, size=(1, seq_len))


def check_equivalence(model) -> None:
    """Small-shape contract checks before any timing."""
    ids = request(model, 256)
    graph = model.encode(ids, engine="graph", block_kv=64)
    plan = model.encode(ids, engine="plan", block_kv=64)
    if not np.array_equal(graph, plan):
        raise AssertionError("chunked plan diverged bitwise from the "
                             "chunked graph path")
    dense = model.encode(ids, engine="plan")
    degenerate = model.encode(ids, engine="plan", block_kv=256)
    if not np.array_equal(dense, degenerate):
        raise AssertionError("block_kv >= seq must be bitwise identical "
                             "to the dense engine")


def available_memory_bytes() -> int:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 4 << 30  # conservative fallback


def dense_bytes_estimate(model, seq_len: int) -> int:
    return model.config.num_heads * seq_len * seq_len * DENSE_BYTES_PER_SCORE


def best_seconds(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cold_peak_bytes(fn) -> int:
    """tracemalloc peak of the *first* call (plan compile + arena fill)."""
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def warm_peak_bytes(fn) -> int:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def measure_point(model, seq_len: int, repeat: int, seed: int) -> dict:
    ids = request(model, seq_len, seed=seed)

    def chunked():
        return model.encode(ids, engine="plan", block_kv=BLOCK_KV)

    cold_peak = cold_peak_bytes(chunked)  # also the warmup call
    chunked_point = {
        "best_seconds": round(best_seconds(chunked, repeat), 3),
        "tracemalloc_peak_mb": round(warm_peak_bytes(chunked) / 1e6, 1),
        "cold_peak_mb": round(cold_peak / 1e6, 1),
        "block_kv": BLOCK_KV,
    }

    estimate = dense_bytes_estimate(model, seq_len)
    budget = int(available_memory_bytes() * DENSE_MEM_FRACTION)
    if estimate > budget:
        dense_point = {
            "feasible": False,
            "estimated_bytes": estimate,
            "estimated_gb": round(estimate / 1e9, 1),
            "reason": (f"dense scores/probs/intermediates need "
                       f"~{estimate / 1e9:.0f} GB; budget is "
                       f"{budget / 1e9:.0f} GB"),
        }
    else:
        def dense():
            return model.encode(ids, engine="plan")

        dense()  # warmup (compiles the dense plan, fills its arena)
        dense_point = {
            "feasible": True,
            "best_seconds": round(best_seconds(dense, max(1, repeat - 1)),
                                  3),
            "tracemalloc_peak_mb": round(warm_peak_bytes(dense) / 1e6, 1),
        }
    return {"seq_len": seq_len, "chunked": chunked_point,
            "dense": dense_point}


def measure_steady_state(model, seq_len: int = 2048, iterations: int = 5,
                         warmup: int = 2) -> dict:
    """Blocked execution must stay allocation-free after warmup.

    Measured on the ragged serving entry point: ``run_ragged`` extracts
    per-sequence copies under the plan lock and recycles every arena
    buffer (``run`` by contrast detaches its output buffer each call, on
    the dense path too).
    """
    from repro.kernels import output_allocation_count

    rng = np.random.default_rng(1)
    sequences = [[int(t) for t in rng.integers(1, model.config.vocab_size,
                                               size=n)]
                 for n in (seq_len, seq_len - 700)]
    plan = model.inference_plan(block_kv=BLOCK_KV)
    for _ in range(warmup):
        model.encode_ragged(sequences, engine="plan", block_kv=BLOCK_KV)
    arena_misses = plan.arena.misses
    kernel_allocs = output_allocation_count()
    scratch_reallocs = plan.scratch.reallocs
    for _ in range(iterations):
        model.encode_ragged(sequences, engine="plan", block_kv=BLOCK_KV)
    return {
        "seq_len": seq_len,
        "iterations": iterations,
        "arena_misses": plan.arena.misses - arena_misses,
        "kernel_output_allocations":
            output_allocation_count() - kernel_allocs,
        "kernel_scratch_reallocs": plan.scratch.reallocs - scratch_reallocs,
    }


def assert_zero_steady_state_allocations(steady: dict) -> None:
    failures = [f"{key}={steady[key]}" for key in
                ("arena_misses", "kernel_output_allocations",
                 "kernel_scratch_reallocs") if steady[key] != 0]
    if failures:
        raise AssertionError(
            "steady-state chunked serving performed allocations at the "
            f"kernel boundary: {', '.join(failures)} over "
            f"{steady['iterations']} iterations")


def run_benchmark(seq_lens, repeat: int, seed: int) -> dict:
    model = build_model(seed=seed)
    check_equivalence(model)
    print("equivalence check passed (chunked plan == graph bitwise, "
          "block_kv >= seq == dense bitwise)")

    points = []
    for seq_len in seq_lens:
        point = measure_point(model, seq_len, repeat, seed)
        points.append(point)
        chunked = point["chunked"]
        print(f"seq {seq_len:>6}: chunked {chunked['best_seconds']:8.3f} s  "
              f"peak {chunked['tracemalloc_peak_mb']:7.1f} MB "
              f"(cold {chunked['cold_peak_mb']:.1f} MB)")
        dense = point["dense"]
        if dense["feasible"]:
            print(f"            dense   {dense['best_seconds']:8.3f} s  "
                  f"peak {dense['tracemalloc_peak_mb']:7.1f} MB")
        else:
            print(f"            dense   infeasible: {dense['reason']}")

    steady = measure_steady_state(model)
    assert_zero_steady_state_allocations(steady)
    print(f"steady state (seq {steady['seq_len']}, "
          f"{steady['iterations']} iterations): "
          f"{steady['arena_misses']} arena misses, "
          f"{steady['kernel_output_allocations']} kernel output "
          f"allocations, {steady['kernel_scratch_reallocs']} scratch "
          "reallocs (asserted zero)")

    from repro.kernels import native_available

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native": native_available(),
        "git_rev": git_revision(),
        "model": "tiny-long",
        "block_kv": BLOCK_KV,
        "points": points,
        "steady_state": steady,
        "headline": ("chunked attention serves sequence lengths whose "
                     "dense score matrices exceed available memory, in "
                     "O(block) quadratic temporaries"),
    }


def check_against_baseline(payload: dict, baseline_path: Path,
                           tolerance: float = BASELINE_TOLERANCE) -> list:
    """Warn-only diff against the recorded long-context trajectory."""
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    def point_of(doc, seq_len):
        for point in doc.get("points", ()):
            if point.get("seq_len") == seq_len:
                return point.get("chunked", {})
        return {}

    warnings = []
    recorded = point_of(baseline, 2048).get("best_seconds")
    measured = point_of(payload, 2048).get("best_seconds")
    if recorded and measured and measured > recorded * tolerance:
        warnings.append(
            f"chunked 2k latency rose to {measured} s "
            f"(recorded {recorded} s, tolerance {tolerance:.0f}x)")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2k point only, no JSON rewrite, warn-only "
                             "baseline diff (CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats per point (best wins)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output",
                        default=str(RESULTS_DIR / "BENCH_longseq.json"))
    args = parser.parse_args(argv)

    seq_lens = (2048,) if args.quick else SEQ_LENS
    repeat = 1 if args.quick else args.repeat
    payload = run_benchmark(seq_lens, repeat, args.seed)

    if args.quick:
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
