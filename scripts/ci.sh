#!/usr/bin/env bash
# CI entry point: tier-1 test suite plus kernel/serving benchmark smoke runs.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== native extension build (hard fail if a compiler is present but"
echo "   the build breaks; skipped cleanly on compiler-less boxes) =="
if command -v cc >/dev/null 2>&1 || command -v gcc >/dev/null 2>&1; then
    python setup.py build_ext --inplace
else
    echo "no C compiler found; skipping build (pure-Python fallback in play)"
fi

echo "== static analysis (repro lint, hard fail on new findings) =="
python -m repro.cli lint

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== tier-1 tests, extension disabled (REPRO_DISABLE_NATIVE=1; proves"
echo "   the pure-Python fallback keeps the suite green without the .so) =="
REPRO_DISABLE_NATIVE=1 python -m pytest -x -q

echo "== lockwatch serving pass (hard fail on lock-order cycles) =="
REPRO_LOCKWATCH=1 python -m pytest tests/serving -q

echo "== kernel benchmark smoke (warn-only baseline diff) =="
python -m benchmarks.bench_kernels --quick

echo "== encoder benchmark smoke (graph vs plan; asserts zero steady-state"
echo "   kernel-output allocations + arena misses on the ragged serving run;"
echo "   latency baseline diff stays warn-only) =="
python -m benchmarks.bench_encoder --quick

echo "== long-context benchmark smoke (chunked attention; asserts chunked"
echo "   plan == graph bitwise + zero steady-state allocations; latency"
echo "   baseline diff stays warn-only) =="
python -m benchmarks.bench_longseq --quick

echo "== serving smoke (serve CLI round trip) =="
printf '1 2 3 4 5\n1 2 3 4 5\nquit\n' \
    | python -m repro.cli serve --max-batch-size 4 --max-wait-ms 1

echo "== sharded serving smoke (2 worker processes on one shared-memory"
echo "   snapshot) =="
printf '1 2 3 4 5\n6 7 8\nquit\n' \
    | python -m repro.cli serve --workers 2 --max-batch-size 4 --max-wait-ms 1

echo "== daemon smoke (TCP round trip over a real socket; asserts wire"
echo "   responses bitwise identical to solo inference) =="
python -m repro.cli daemon --smoke 6 --max-batch-size 4 --max-wait-ms 1

echo "== chaos smoke (injected crashes/hangs under supervision; hard"
echo "   zero-drop + bitwise assertions, timing warn-only) =="
python -m repro.cli loadtest --chaos --quick --batch-size 4 \
    --deadline-ms 150 --deadline-fraction 0.3 --seed 2

echo "== sharded chaos smoke (SIGKILL/stall/corruption against 2 worker"
echo "   processes; hard zero-drop + bitwise assertions) =="
python -m repro.cli loadtest --chaos --quick --workers 2 --requests 64 \
    --batch-size 4 --max-wait-ms 0.5 --kill-rate 0.15 --stall-rate 0.05 \
    --corrupt-rate 0.05 --seed 2

echo "== serving benchmark smoke (warn-only baseline diff) =="
python -m benchmarks.bench_serving --quick

echo "== perfbench trace smoke (hard fail: a bitwise mismatch exits 1, a"
echo "   plan op the tracer cannot classify crashes, kernel calls leaving"
echo "   softermax-native exit 3, a broken shard spawn or daemon argv fails"
echo "   daemon-sharded-dup) =="
for workload in short-burst long-closed daemon-sharded-dup; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 \
        --trace 1
done
