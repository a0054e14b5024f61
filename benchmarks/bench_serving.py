"""Serving-layer benchmark: batched vs unbatched throughput curve.

Drives the same open-loop harness as the ``loadtest`` CLI command
(:mod:`repro.serving.loadtest`) across a sweep of ``max_batch_size``
settings and records the curve to ``benchmarks/results/BENCH_serving.json``
so later PRs have a recorded serving trajectory.  Headline: throughput of
dynamic batching at batch 32 over sequential single-request serving
(``max_batch_size=1``) on the same box -- the acceptance criterion is a
>= 3x win.

The response cache is disabled and every request is unique, so the
recorded win is pure batching.  A separate point records a 50%-duplicate
workload with the cache enabled, putting the memoization win on the
trajectory too.  Before anything is timed, a bit-transparency check
asserts that batched responses are bitwise identical to solo responses
(the serving layer's correctness contract).  The full sweep also records
a **chaos point**: the seeded fault-injection loadtest against the
supervised service, asserting zero-drop (every request resolves to a
result or typed error across worker crashes/hangs/restarts) and bitwise
identity to solo inference.

PR 9 adds three process-sharding points to the trajectory: a **sharded
chaos point** (SIGKILL/stall/corruption against N worker processes on one
shared-memory snapshot, same hard assertions, failure messages carrying
the replay seed), a **workers-vs-throughput curve** (recorded honestly
for the box; the scaling assertion is gated on a multicore budget), and a
**shared-snapshot RSS point** measuring that N attached workers cost O(1)
-- not O(N) -- snapshot memory, with an explicit-copy control.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_serving            # full sweep
    PYTHONPATH=src python -m benchmarks.bench_serving --quick    # CI smoke

``--quick`` also diffs its measurement against the recorded JSON
(warn-only, generous tolerance) so serving regressions surface in every
PR; ``scripts/ci.sh`` invokes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # executed as a plain script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_utils import RESULTS_DIR, git_revision

from repro.kernels import native_available
from repro.serving.loadtest import run_loadtest, synthetic_requests
from repro.serving.service import ServiceConfig, build_encoder_service

#: Batch sizes of the recorded throughput curve (1 == sequential serving).
CURVE_BATCH_SIZES = (1, 4, 8, 16, 32)

#: Warn when the measured batched-vs-sequential speedup falls below this
#: fraction of the recorded baseline.
BASELINE_TOLERANCE = 0.5


def check_bit_transparency(num_requests: int = 16, seed: int = 7) -> None:
    """Batched responses must be bitwise identical to solo responses."""
    requests = synthetic_requests(num_requests, seed=seed)
    service = build_encoder_service(
        config=ServiceConfig(max_batch_size=num_requests, max_wait_ms=5.0,
                             cache_size=0))
    with service:
        batched = [r.result(60.0) for r in
                   [service.submit(tokens) for tokens in requests]]
    solo = [service.model.encode_ragged([list(tokens)])[0]
            for tokens in requests]
    for i, (got, expected) in enumerate(zip(batched, solo)):
        if not np.array_equal(got, expected):
            raise AssertionError(
                f"batched response {i} diverged from the solo response; "
                "serving bit-transparency is broken")


def run_curve(num_requests: int, batch_sizes, max_wait_ms: float,
              seed: int) -> dict:
    """Measure the batched-vs-unbatched throughput curve."""
    requests = synthetic_requests(num_requests, seed=seed)
    points = []
    for batch_size in batch_sizes:
        result = run_loadtest(requests, batch_size=batch_size,
                              max_wait_ms=max_wait_ms if batch_size > 1
                              else 0.0,
                              cache_size=0, seed=seed)
        points.append(result.as_dict())
    by_batch = {p["batch_size"]: p for p in points}
    sequential = by_batch.get(1)
    speedups = {}
    if sequential:
        for batch_size, point in sorted(by_batch.items()):
            if batch_size != 1:
                speedups[f"batch{batch_size}"] = round(
                    point["requests_per_second"]
                    / sequential["requests_per_second"], 2)
    payload = {
        "workload": f"{num_requests} unique requests of 8-16 tokens, "
                    "tiny-base encoder, auto Softermax kernel, "
                    "cache disabled",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native": native_available(),
        "git_rev": git_revision(),
        "requests": num_requests,
        "batch_sizes": list(batch_sizes),
        "results": points,
        "speedup_vs_sequential": speedups,
        "speedup_batch32_vs_sequential": speedups.get("batch32"),
    }
    return payload


def run_cached_point(num_requests: int, seed: int) -> dict:
    """One point with a 50%-duplicate workload and the cache enabled."""
    requests = synthetic_requests(num_requests, seed=seed,
                                  duplicate_fraction=0.5)
    result = run_loadtest(requests, batch_size=32, cache_size=1024, seed=seed)
    return {
        "workload": f"{num_requests} requests, 50% duplicates, LRU cache on",
        **result.as_dict(),
    }


def run_sharded_chaos_point(num_requests: int, seed: int,
                            num_workers: int = 2) -> dict:
    """The kill-grade robustness point: process-sharded serving under
    SIGKILL/stall/corruption chaos on one shared-memory snapshot.

    ``zero_drop`` and ``bitwise_identical_to_solo`` are hard assertions;
    failure messages carry the fault-schedule seed so the exact schedule
    replays from the recorded number alone.
    """
    from repro.serving.loadtest import run_sharded_chaos_loadtest

    payload = run_sharded_chaos_loadtest(
        num_requests=num_requests, num_workers=num_workers, batch_size=4,
        max_wait_ms=0.5, kill_rate=0.10, stall_rate=0.04, corrupt_rate=0.04,
        error_rate=0.02, stall_timeout_s=0.3, max_restarts=32,
        deadline_ms=150.0, deadline_fraction=0.3, seed=seed)
    fault_seed = payload["faults"]["seed"]
    if not payload["zero_drop"]:
        raise AssertionError(
            f"sharded chaos loadtest dropped requests "
            f"(fault seed {fault_seed}): {payload['outcomes']}")
    if not payload["bitwise_identical_to_solo"]:
        raise AssertionError(
            f"sharded chaos responses diverged bitwise from solo "
            f"inference (fault seed {fault_seed})")
    return payload


def run_workers_curve(num_requests: int, worker_counts, seed: int) -> dict:
    """Clean (fault-free) throughput of the sharded service vs workers.

    Recorded honestly for the box at hand: on a 1-core container extra
    worker processes buy nothing (the curve documents the IPC overhead);
    the scaling assertion is gated on a real multicore budget.
    """
    import time as _time

    from repro.serving import (
        RestartPolicy, ServiceConfig, build_sharded_service,
    )
    from repro.serving.loadtest import synthetic_requests

    requests = synthetic_requests(num_requests, seed=seed)
    points = []
    for workers in worker_counts:
        service = build_sharded_service(
            config=ServiceConfig(max_batch_size=8, max_wait_ms=1.0,
                                 cache_size=0),
            policy=RestartPolicy(seed=seed), num_workers=workers)
        with service:
            start = _time.perf_counter()
            service.infer_many(requests, timeout=600.0)
            elapsed = _time.perf_counter() - start
        points.append({"workers": workers,
                       "requests_per_second": round(num_requests / elapsed, 1),
                       "elapsed_seconds": round(elapsed, 4)})
    by_workers = {p["workers"]: p["requests_per_second"] for p in points}
    curve = {
        "workload": f"{num_requests} unique requests, fault-free sharded "
                    "service, cache disabled",
        "cpu_count": os.cpu_count(),
        "points": points,
    }
    if 1 in by_workers and 2 in by_workers:
        curve["speedup_2_workers_vs_1"] = round(
            by_workers[2] / by_workers[1], 2)
        # Scaling is only promised where there are cores to scale onto.
        if (os.cpu_count() or 1) >= 4 and curve["speedup_2_workers_vs_1"] < 1.0:
            raise AssertionError(
                f"2-worker sharded serving slower than 1 worker on a "
                f"{os.cpu_count()}-core box: "
                f"{curve['speedup_2_workers_vs_1']}x")
    return curve


def _private_rss_kb() -> int:
    """This process's private (unshared) memory, in kB, from smaps_rollup."""
    total = 0
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        return -1
    return total


def _rss_probe_worker(manifest, conn):
    """Attach the snapshot, then contrast private-memory deltas:
    zero-copy views (shared pages) vs an explicit private copy."""
    from repro.serving.snapshot import SnapshotBundle

    base = _private_rss_kb()
    bundle = SnapshotBundle.attach(manifest)
    views = bundle.arrays()
    # read EVERY page: faulted-in shared mappings must not show up private
    touched = sum(float(view.sum()) for view in views.values())
    after_attach = _private_rss_kb()
    copies = {name: np.array(view) for name, view in views.items()}
    touched += sum(float(c[0]) for c in copies.values())
    after_copy = _private_rss_kb()
    conn.send({
        "attach_private_delta_kb": after_attach - base,
        "copy_private_delta_kb": after_copy - after_attach,
        "touched": touched,
    })
    conn.close()
    del views, copies
    bundle.close()


def run_shared_rss_point(num_workers: int = 4, bundle_mb: int = 64) -> dict:
    """Measure that N attached workers cost O(1), not O(N), snapshot RSS.

    Publishes a ``bundle_mb``-sized synthetic snapshot (the tiny test
    model is too small to measure against page-granular accounting), has
    ``num_workers`` *spawned* processes (no fork COW credit) attach and
    read it, and records each worker's private-memory delta.  Hard
    asserts: attaching costs a small fraction of the bundle per worker
    while an explicit copy costs the full bundle -- the zero-copy claim,
    measured.
    """
    import multiprocessing as mp

    from repro.serving.snapshot import SnapshotBundle

    rng = np.random.default_rng(0)
    count = bundle_mb * 1024 * 1024 // 8 // 4
    arrays = {f"blob{i}": rng.standard_normal(count) for i in range(4)}
    ctx = mp.get_context("spawn")
    results = []
    with SnapshotBundle.publish(arrays) as bundle:
        total_kb = bundle.total_bytes // 1024
        for _ in range(num_workers):
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_rss_probe_worker,
                               args=(bundle.manifest, child))
            proc.start()
            child.close()
            results.append(parent.recv())
            parent.close()
            proc.join(timeout=60)
    attach_deltas = [r["attach_private_delta_kb"] for r in results]
    copy_deltas = [r["copy_private_delta_kb"] for r in results]
    point = {
        "bundle_bytes": bundle.total_bytes,
        "workers": num_workers,
        "attach_private_delta_kb": attach_deltas,
        "copy_private_delta_kb": copy_deltas,
        "total_attach_private_kb": sum(attach_deltas),
        "o1_claim": "N attached workers share ONE snapshot copy: their "
                    "combined private delta stays a small fraction of the "
                    "bundle, while one explicit copy costs the full bundle",
    }
    if all(delta >= 0 for delta in attach_deltas + copy_deltas):
        # All N workers together must cost well under one bundle ...
        if sum(attach_deltas) > total_kb * 0.25:
            raise AssertionError(
                f"attached workers privately consumed "
                f"{sum(attach_deltas)} kB of a {total_kb} kB bundle; "
                "snapshot views are not zero-copy")
        # ... while a single explicit copy costs about the whole bundle.
        if max(copy_deltas) < total_kb * 0.5:
            raise AssertionError(
                f"explicit-copy control measured only {max(copy_deltas)} kB "
                f"against a {total_kb} kB bundle; the probe is broken")
        point["o1_rss_verified"] = True
    else:  # pragma: no cover - /proc-less platform
        point["o1_rss_verified"] = False
    return point


def run_chaos_point(num_requests: int, seed: int) -> dict:
    """The robustness point: zero-drop + bitwise under injected faults.

    Runs the seeded chaos loadtest (worker crashes, hangs, typed model
    errors, per-request deadlines on a fraction of the set) against the
    supervised service and records the guarantees as booleans alongside
    the fault/restart accounting.  ``zero_drop`` and
    ``bitwise_identical_to_solo`` are hard assertions here -- a bench run
    that drops a request is a failure, not a data point.
    """
    from repro.serving.loadtest import run_chaos_loadtest

    payload = run_chaos_loadtest(
        num_requests=num_requests, batch_size=4, crash_rate=0.10,
        hang_rate=0.10, error_rate=0.04, hang_seconds=0.5,
        hang_timeout_s=0.12, deadline_ms=150.0, deadline_fraction=0.3,
        seed=seed)
    if not payload["zero_drop"]:
        raise AssertionError(
            f"chaos loadtest dropped requests: {payload['outcomes']}")
    if not payload["bitwise_identical_to_solo"]:
        raise AssertionError(
            "chaos responses diverged bitwise from solo inference")
    return payload


def check_against_baseline(payload: dict, baseline_path: Path,
                           tolerance: float = BASELINE_TOLERANCE) -> list:
    """Warn-only diff against the recorded serving trajectory."""
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    warnings = []
    recorded = baseline.get("speedup_vs_sequential", {})
    measured = payload.get("speedup_vs_sequential", {})
    for key in sorted(set(recorded) & set(measured)):
        if recorded[key] and measured[key] < recorded[key] * tolerance:
            warnings.append(
                f"serving speedup at {key} fell to {measured[key]}x "
                f"(recorded {recorded[key]}x, tolerance {tolerance:.0%})")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs (no JSON "
                             "rewrite, warn-only baseline diff)")
    parser.add_argument("--requests", type=int, default=512)
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=list(CURVE_BATCH_SIZES))
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output",
                        default=str(RESULTS_DIR / "BENCH_serving.json"))
    args = parser.parse_args(argv)

    check_bit_transparency()
    print("bit-transparency check passed (batched == solo, bitwise)")

    if args.quick:
        payload = run_curve(num_requests=128, batch_sizes=(1, 32),
                            max_wait_ms=args.max_wait_ms, seed=args.seed)
    else:
        payload = run_curve(num_requests=args.requests,
                            batch_sizes=tuple(args.batch_sizes),
                            max_wait_ms=args.max_wait_ms, seed=args.seed)
        payload["cached_point"] = run_cached_point(args.requests, args.seed)
        payload["chaos_point"] = run_chaos_point(96, args.seed + 2)
        chaos = payload["chaos_point"]
        print(f"chaos point: {chaos['resolved']}/{chaos['workload']['requests']} "
              f"resolved, {chaos['restarts']} restarts, "
              f"outcomes {chaos['outcomes']}, zero_drop={chaos['zero_drop']}, "
              f"bitwise={chaos['bitwise_identical_to_solo']}")
        payload["sharded_chaos_point"] = run_sharded_chaos_point(
            96, args.seed + 3)
        sharded = payload["sharded_chaos_point"]
        print(f"sharded chaos point (fault seed "
              f"{sharded['faults']['seed']}): "
              f"{sharded['resolved']}/{sharded['workload']['requests']} "
              f"resolved over {sharded['workload']['workers']} workers, "
              f"restarts by shard {sharded['restarts_by_shard']}, "
              f"events {sharded['events']}, zero_drop={sharded['zero_drop']}, "
              f"bitwise={sharded['bitwise_identical_to_solo']}")
        payload["workers_curve"] = run_workers_curve(
            96, (1, 2, 4), args.seed)
        for point in payload["workers_curve"]["points"]:
            print(f"sharded throughput @ {point['workers']} worker(s): "
                  f"{point['requests_per_second']:8.1f} req/s")
        payload["shared_snapshot_rss"] = run_shared_rss_point()
        rss = payload["shared_snapshot_rss"]
        print(f"snapshot RSS: {rss['workers']} spawned workers attached a "
              f"{rss['bundle_bytes'] // (1024 * 1024)} MB bundle for "
              f"{rss['total_attach_private_kb']} kB total private memory "
              f"(copy control: {max(rss['copy_private_delta_kb'])} kB "
              f"per worker); O(1) verified={rss['o1_rss_verified']}")

    for point in payload["results"]:
        print(f"batch {point['batch_size']:>3}: "
              f"{point['requests_per_second']:8.1f} req/s  "
              f"p50 {point['p50_ms']} ms  p99 {point['p99_ms']} ms")
    for key, value in sorted(payload["speedup_vs_sequential"].items()):
        print(f"{key:>8}: {value:5.2f}x vs sequential")
    headline = payload["speedup_batch32_vs_sequential"]
    if headline is not None:
        print(f"headline (batch 32 vs sequential): {headline:.2f}x")

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
