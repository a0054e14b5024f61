"""Encoder-forward benchmark: graph engine vs compiled inference plan.

The kernel benchmarks time the softmax alone; this one times the whole
encoder forward -- the serving hot path -- across the inference engines:

* ``graph``  -- the autograd Tensor path (``engine="graph"``),
* ``plan``   -- the compiled graph-free plan with workspace-arena buffer
  reuse (``engine="plan"``, bitwise identical to the graph path),
* ``plan+fuse`` -- the plan with the fused Q/K/V projection GEMM
  (opt-in; mathematically identical, not bit-guaranteed).

Two workloads are recorded to ``benchmarks/results/BENCH_encoder.json``:

* ``single`` -- one request at the model's max sequence length (the
  latency path; the acceptance criterion is a >= 1.5x plan-vs-graph
  speedup here), and
* ``ragged_batch`` -- served-shaped ragged batches through
  ``encode_ragged`` (exact masking, the dynamic batcher's forward),
  rotating through several seeded batches with different token totals,
  as a serving stream does.

Besides wall time, each point records the tracemalloc peak per call --
the plan engine's second claim is a large cut in per-call allocation.
The ragged workload additionally records (and *asserts*) the steady-state
allocation counters of the workspace-aware kernel boundary: after a warmup
pass over the rotating batches, further ragged plan calls must show zero
arena misses, zero kernel output allocations and zero kernel-scratch
reallocations, or the run fails -- this is the hard check
``scripts/ci.sh`` relies on (the latency baseline diff below stays
warn-only).  Because the token total changes from call to call, the check
covers the plan arena's row-capacity buckets, not just one fixed shape.
The payload records its environment: ``cpu_count``, ``native`` (the
compiled kernel registered) and ``git_rev``.
Before anything is timed, plan outputs are asserted bitwise equal to
graph outputs (and the fused plan allclose), so the recorded speedups are
guaranteed to compare equal computations.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_encoder            # record
    PYTHONPATH=src python -m benchmarks.bench_encoder --quick    # CI smoke

``--quick`` runs fewer iterations, rewrites nothing, and diffs the
measured plan speedup against the recorded JSON (warn-only, generous
tolerance); ``scripts/ci.sh`` invokes it.
"""

from __future__ import annotations

import argparse
import itertools
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

#: Warn when the measured plan speedup falls below this fraction of the
#: recorded baseline.
BASELINE_TOLERANCE = 0.5

#: Acceptance target: plan-vs-graph speedup on the single-request workload.
TARGET_SPEEDUP = 1.5

#: Seeded ragged batches the ragged workload rotates through.
RAGGED_BATCHES = 4


def build_model(model_name: str = "tiny-base", seed: int = 0):
    from repro.models import BertConfig
    from repro.models.bert import BertEncoderModel

    config = (BertConfig.tiny_large() if model_name == "tiny-large"
              else BertConfig.tiny_base())
    return BertEncoderModel(config, softmax_variant="softermax",
                            kernel="auto", seed=seed).eval()


def single_request(model, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.vocab_size,
                        size=(1, model.config.max_seq_len))


def ragged_batch(model, batch: int = 8, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(8, 17, size=batch)
    return [[int(t) for t in rng.integers(1, model.config.vocab_size,
                                          size=int(n))] for n in lengths]


def ragged_batches(model, count: int = RAGGED_BATCHES,
                   seed: int = 0) -> list:
    """``count`` seeded ragged batches with pairwise different token
    totals (so a rotation changes the packed row count on every call)."""
    batches, totals = [], set()
    candidate = seed
    while len(batches) < count:
        batch = ragged_batch(model, seed=candidate)
        total = sum(len(seq) for seq in batch)
        if total not in totals:
            totals.add(total)
            batches.append(batch)
        candidate += 1
    return batches


def check_equivalence(model) -> None:
    """Plan outputs must be bitwise equal to graph outputs before timing."""
    ids = single_request(model)
    graph = model.encode(ids, engine="graph")
    plan = model.encode(ids, engine="plan")
    if not np.array_equal(graph, plan):
        raise AssertionError("plan engine diverged bitwise from the graph "
                             "engine on the single-request workload")
    fused = model.encode(ids, engine="plan", fuse_qkv=True)
    if not np.allclose(graph, fused, rtol=1e-10, atol=1e-12):
        raise AssertionError("fused-QKV plan diverged beyond tolerance")
    for sequences in ragged_batches(model):
        for got, expected in zip(
                model.encode_ragged(sequences, engine="plan"),
                model.encode_ragged(sequences, engine="graph")):
            if not np.array_equal(got, expected):
                raise AssertionError("plan engine diverged bitwise from "
                                     "the graph engine on the ragged "
                                     "workload")


def measure_ragged_steady_state(model, batches, iterations: int = 20,
                                warmup: int = 2) -> dict:
    """Allocation counters over steady-state ragged plan serving.

    After ``warmup`` passes over ``batches`` populate the arena and the
    kernel workspace, ``iterations`` further calls -- rotating through the
    batches, so the token total changes per call -- must not miss the
    arena, allocate a kernel output, or regrow the kernel scratch: the
    workspace-aware kernel boundary's contract.
    """
    from repro.kernels import output_allocation_count

    plan = model.inference_plan()
    for _ in range(warmup):
        for sequences in batches:
            model.encode_ragged(sequences, engine="plan")
    arena_misses = plan.arena.misses
    kernel_allocs = output_allocation_count()
    scratch_reallocs = plan.scratch.reallocs
    rotation = itertools.cycle(batches)
    for _ in range(iterations):
        model.encode_ragged(next(rotation), engine="plan")
    return {
        "iterations": iterations,
        "token_totals": [sum(len(seq) for seq in sequences)
                         for sequences in batches],
        "arena_misses": plan.arena.misses - arena_misses,
        "kernel_output_allocations":
            output_allocation_count() - kernel_allocs,
        "kernel_scratch_reallocs": plan.scratch.reallocs - scratch_reallocs,
    }


def assert_zero_steady_state_allocations(steady: dict) -> None:
    """Hard check: the serving hot path stays allocation-free."""
    failures = [f"{key}={steady[key]}" for key in
                ("arena_misses", "kernel_output_allocations",
                 "kernel_scratch_reallocs") if steady[key] != 0]
    if failures:
        raise AssertionError(
            "steady-state ragged serving performed allocations at the "
            f"kernel boundary: {', '.join(failures)} over "
            f"{steady['iterations']} iterations")


def best_seconds(fn, number: int, repeat: int) -> float:
    """Best mean seconds/call over ``repeat`` timing loops."""
    fn()  # warmup (LUTs, arena population, BLAS threads)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def peak_bytes(fn) -> int:
    """tracemalloc peak of one (warmed-up) call."""
    fn()
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def measure_workload(model, runners: dict, number: int, repeat: int) -> dict:
    points = {}
    for name, fn in runners.items():
        points[name] = {
            "best_ms_per_call": round(best_seconds(fn, number, repeat) * 1e3,
                                      4),
            "tracemalloc_peak_kb": round(peak_bytes(fn) / 1e3, 1),
        }
    graph_ms = points["graph"]["best_ms_per_call"]
    speedups = {name: round(graph_ms / p["best_ms_per_call"], 2)
                for name, p in points.items() if name != "graph"}
    return {"points": points, "speedup_vs_graph": speedups}


def run_benchmark(model_name: str, number: int, repeat: int,
                  seed: int) -> dict:
    model = build_model(model_name, seed=seed)
    check_equivalence(model)
    print("equivalence check passed (plan == graph bitwise, fused within "
          "tolerance)")

    ids = single_request(model, seed=seed)
    single = measure_workload(model, {
        "graph": lambda: model.encode(ids, engine="graph"),
        "plan": lambda: model.encode(ids, engine="plan"),
        "plan_fused": lambda: model.encode(ids, engine="plan",
                                           fuse_qkv=True),
    }, number, repeat)
    single["workload"] = (f"1 request x seq {model.config.max_seq_len}, "
                          f"{model.config.name}, auto Softermax kernel")

    batches = ragged_batches(model, seed=seed)
    graph_rotation = itertools.cycle(batches)
    plan_rotation = itertools.cycle(batches)
    ragged = measure_workload(model, {
        "graph": lambda: model.encode_ragged(next(graph_rotation),
                                             engine="graph"),
        "plan": lambda: model.encode_ragged(next(plan_rotation),
                                            engine="plan"),
    }, max(1, number // 2), repeat)
    ragged["workload"] = (
        f"{len(batches[0])} ragged requests of 8-16 tokens via "
        f"encode_ragged (exact masking), rotating over {len(batches)} "
        "seeded batches with different token totals")

    steady = measure_ragged_steady_state(model, batches)
    assert_zero_steady_state_allocations(steady)

    from repro.kernels import native_available

    plan = model.inference_plan()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native": native_available(),
        "git_rev": git_revision(),
        "model": model_name,
        "timing": {"number": number, "repeat": repeat},
        "single": single,
        "ragged_batch": ragged,
        "ragged_steady_state": steady,
        "plan": {"ops": plan.num_ops, "arena": plan.arena.stats(),
                 "kernel_scratch": plan.scratch.stats()},
        "speedup_plan_vs_graph_single": single["speedup_vs_graph"]["plan"],
        "target_speedup": TARGET_SPEEDUP,
    }


def check_against_baseline(payload: dict, baseline_path: Path,
                           tolerance: float = BASELINE_TOLERANCE) -> list:
    """Warn-only diff against the recorded encoder trajectory."""
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    warnings = []
    recorded = baseline.get("speedup_plan_vs_graph_single")
    measured = payload.get("speedup_plan_vs_graph_single")
    if recorded and measured and measured < recorded * tolerance:
        warnings.append(
            f"plan-engine speedup fell to {measured}x "
            f"(recorded {recorded}x, tolerance {tolerance:.0%})")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations for CI smoke runs (no JSON "
                             "rewrite, warn-only baseline diff)")
    parser.add_argument("--model", choices=("tiny-base", "tiny-large"),
                        default="tiny-base")
    parser.add_argument("--number", type=int, default=50,
                        help="calls per timing loop")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timing loops (best mean wins)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output",
                        default=str(RESULTS_DIR / "BENCH_encoder.json"))
    args = parser.parse_args(argv)

    number, repeat = (10, 3) if args.quick else (args.number, args.repeat)
    payload = run_benchmark(args.model, number, repeat, args.seed)

    for section in ("single", "ragged_batch"):
        block = payload[section]
        print(f"{section}: {block['workload']}")
        for name, point in block["points"].items():
            print(f"  {name:>10}: {point['best_ms_per_call']:8.3f} ms/call  "
                  f"peak {point['tracemalloc_peak_kb']:8.1f} KB")
        for name, speedup in block["speedup_vs_graph"].items():
            print(f"  {name:>10}: {speedup:5.2f}x vs graph")
    steady = payload["ragged_steady_state"]
    print(f"ragged steady state ({steady['iterations']} iterations over "
          f"token totals {steady['token_totals']}): "
          f"{steady['arena_misses']} arena misses, "
          f"{steady['kernel_output_allocations']} kernel output "
          f"allocations, {steady['kernel_scratch_reallocs']} scratch "
          "reallocs (asserted zero)")
    headline = payload["speedup_plan_vs_graph_single"]
    print(f"headline (plan vs graph, single request): {headline:.2f}x "
          f"(target >= {TARGET_SPEEDUP}x)")

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
