"""Serving benchmark: three closed-loop workloads against the public stack.

Run from the repository root::

    python3 perfbench/run.py --workload short-burst --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from a run whose second half
is traced (see ``perfbench/layers.json`` for what each layer metric means
and which end-to-end metric it should move).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment and the run's
request mix; the same record, and the trace spans, go to
``.perfbench_out/``.

Before anything is timed the ``softermax-native`` extension is built in
place (``python setup.py build_ext --inplace``, as CI does) unless it is
already there; the benchmark refuses to run if it still does not
register.  A failed bitwise check of the served responses exits 1 after
printing the result.  ``short-burst`` and ``daemon-sharded-dup`` pin the
benchmark, and with it the daemon, to one CPU (see ``ONE_CPU_WORKLOADS``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Workloads whose processes all share one CPU.  Their requests hop between
#: threads (short-burst: caller and service worker) or processes (the
#: daemon workload: client, daemon and shard).  On a 2-vCPU VM a pipe round
#: trip between processes on different vCPUs ran at 14-32k/s, varying from
#: second to second, against a steady 126k/s on one vCPU; pinned, short-burst
#: read 4600-4900 req/s over five seeds where unpinned it read 4300-6500.
#: long-closed stays on every CPU: its large matmuls use both BLAS threads,
#: and it hands off once per 15 ms forward.
ONE_CPU_WORKLOADS = ("short-burst", "daemon-sharded-dup")


class EnvironmentGateError(RuntimeError):
    """The checkout cannot run the benchmark as defined."""


def _native_built() -> bool:
    native_dir = ROOT / "src" / "repro" / "kernels" / "_native"
    return any(native_dir.glob("_softermax*.so"))


def prepare_environment() -> dict:
    """Build and import the native kernel; describe the environment."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "setup.py").is_file():
        raise EnvironmentGateError(
            f"{ROOT} holds no repro sources (src/repro, setup.py)")
    if os.environ.get("REPRO_DISABLE_NATIVE", "").strip() not in ("", "0"):
        raise EnvironmentGateError(
            "REPRO_DISABLE_NATIVE is set; the benchmark measures the "
            "softermax-native path")
    if not _native_built():
        build = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(ROOT / ".bench_build" / "native")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=600, check=False)
        if build.returncode != 0:
            sys.stderr.write(build.stdout.decode(errors="replace"))
            raise EnvironmentGateError("native extension build failed")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from repro.kernels import available_kernels, native_available

    native = native_available() and "softermax-native" in available_kernels()
    if not native:
        raise EnvironmentGateError(
            "softermax-native did not register after the build")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": native,
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
    }


def _git_rev() -> str:
    # Only a checkout's own .git counts: git would otherwise search the
    # directories above it.
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except OSError:
        return "unavailable"
    return rev.stdout.strip() if rev.returncode == 0 else "unavailable"


def _source_digest() -> str:
    """Digest of the sources under test (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def load_definition() -> dict:
    definition = ROOT / "BENCHMARK.json"
    if not definition.is_file():
        raise EnvironmentGateError(f"{definition} is missing")
    return json.loads(definition.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("short-burst", "long-closed",
                                 "daemon-sharded-dup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if args.workload in ONE_CPU_WORKLOADS:
        # Before numpy loads, so its BLAS sizes its thread pool to one CPU;
        # the daemon and its shard inherit the mask.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        definition = load_definition()
        environment = prepare_environment()
    except EnvironmentGateError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import RegimeError, workload

    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = workload(args.workload, ROOT).run(
            args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except RegimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    measured = result["layers"] if args.trace else result["metrics"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = result["failed"] == 0
    record = dict(result["record"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment, metrics=metrics)
    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))
    print("perfbench record: " + json.dumps(
        {k: record[k] for k in ("environment", "requests",
                                "length_histogram", "verified",
                                "latency_tail_percentile",
                                "latency_tail_samples_beyond")}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
