"""Command-line interface for the Softermax reproduction.

Every paper experiment can be regenerated from the command line::

    python -m repro.cli table1
    python -m repro.cli table4
    python -m repro.cli figure1 --seq-lens 128 384 1024 2048
    python -m repro.cli figure5
    python -m repro.cli table3 --tasks sst2 rte --model tiny-base
    python -m repro.cli compare-softmax --seq-len 384 --kernel softermax-fused
    python -m repro.cli latency
    python -m repro.cli model-cost --model bert-large --seq-len 512
    python -m repro.cli kernels

Beyond the paper experiments, the serving layer is driven from here too::

    python -m repro.cli serve --max-batch-size 32 --max-wait-ms 2
    python -m repro.cli daemon --port 7777 --max-restarts 5
    python -m repro.cli loadtest --requests 512 --batch-size 32
    python -m repro.cli loadtest --chaos --quick --deadline-ms 120

Softermax commands take a ``--kernel`` selector (see ``repro.cli kernels``
for the registry); the default ``auto`` resolves to the native C engine
when it is built, else the fused NumPy kernel -- both bitwise-identical to
the slice-loop oracle.

(The Table III command trains real NumPy models and can take minutes for the
full task list; the default runs a single quick task.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core import (
    SoftermaxConfig,
    attention_score_batch,
    base2_softmax,
    compare_softmax,
    ibert_softmax,
    lut_exp_softmax,
    softmax_reference,
    split_exp_softmax,
)
from repro.kernels import (
    available_kernels,
    get_kernel,
    native_isa,
    resolve_kernel,
)
from repro.reporting import format_table, format_table1, format_table3, format_table4, series_to_csv


def _cmd_table1(args: argparse.Namespace) -> int:
    print(format_table1(SoftermaxConfig.paper_table1()))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.hardware import AttentionWorkload, PEConfig, compute_table4

    pe_config = PEConfig.wide32() if args.width == 32 else PEConfig.wide16()
    result = compute_table4(pe_config=pe_config,
                            workload=AttentionWorkload(seq_len=args.seq_len))
    print(format_table4(result))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.eval import runtime_fraction_series
    from repro.models import BertConfig

    config = (BertConfig.bert_large(max_seq_len=max(args.seq_lens))
              if args.model == "bert-large"
              else BertConfig.bert_base(max_seq_len=max(args.seq_lens)))
    series = runtime_fraction_series(config, tuple(args.seq_lens))
    print(series_to_csv("seq_len", series.seq_lens, series.fractions))
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.eval import energy_sweep_series

    for series in energy_sweep_series(seq_lens=tuple(args.seq_lens),
                                      vector_sizes=tuple(args.widths)):
        print(series_to_csv(
            "seq_len", series.seq_lens,
            {
                f"softermax_uJ_{series.vector_size}w": series.softermax_energy_uj,
                f"designware_uJ_{series.vector_size}w": series.baseline_energy_uj,
            },
        ))
        print()
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.data import GLUE_TASK_NAMES, make_glue_task, make_squad
    from repro.eval import run_accuracy_comparison
    from repro.models import BertConfig, FinetuneConfig

    tasks = []
    for name in args.tasks:
        if name == "squad":
            tasks.append(make_squad(num_train=args.num_train, num_dev=args.num_dev))
        elif name in GLUE_TASK_NAMES:
            tasks.append(make_glue_task(name, num_train=args.num_train,
                                        num_dev=args.num_dev))
        else:
            print(f"unknown task {name!r}; choose from {'squad', *GLUE_TASK_NAMES}",
                  file=sys.stderr)
            return 2

    model_config = (BertConfig.tiny_large() if args.model == "tiny-large"
                    else BertConfig.tiny_base())
    finetune_config = FinetuneConfig(pretrain_epochs=args.epochs,
                                     finetune_epochs=max(1, args.epochs // 3),
                                     seed=args.seed)
    if args.kernel != "auto":
        # Rebind the registered "softermax" variant to the requested kernel
        # so the whole fine-tuning stack picks it up.
        from repro.nn.functional import make_softermax_variant, register_softmax_variant

        _resolve_kernel_or_exit(args.kernel, bit_accurate_only=True)
        register_softmax_variant(make_softermax_variant(kernel=args.kernel))
    comparison = run_accuracy_comparison(tasks, model_config, finetune_config)
    print(format_table3({args.model: comparison}))
    print(f"\naverage delta (Softermax - baseline): {comparison.average_delta():+.2f}")
    return 0


def _zero_if_none(value):
    """Zero-request summaries print zeros, not ``None`` cells."""
    return 0.0 if value is None else value


def _add_serving_knobs(parser: argparse.ArgumentParser) -> None:
    """Serving-tier knobs shared by ``serve`` and ``daemon``."""
    parser.add_argument("--workers", type=int, default=0,
                        help="shard worker processes sharing one "
                             "shared-memory snapshot (0 = in-process "
                             "service; default: 0)")


def _resolve_kernel_or_exit(name: str, config=None,
                            bit_accurate_only: bool = False):
    """Resolve a kernel name, exiting with a clean message on a bad name.

    ``bit_accurate_only`` restricts the choice to the Softermax family:
    commands that label their output "Softermax" must not silently run a
    float reference under that name.
    """
    try:
        spec = get_kernel(name)
    except (KeyError, ValueError):
        print(f"unknown kernel {name!r}; available: "
              f"{', '.join(['auto', *available_kernels()])}", file=sys.stderr)
        raise SystemExit(2) from None
    if bit_accurate_only and not spec.bit_accurate:
        accurate = [k for k in available_kernels() if get_kernel(k).bit_accurate]
        print(f"kernel {name!r} is not a bit-accurate Softermax implementation; "
              f"choose from: {', '.join(['auto', *accurate])}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return resolve_kernel(name, config)
    except (TypeError, ValueError) as exc:
        # Unsupported option for this kernel, or an invalid option value
        # (e.g. lpw_method=bogus): a usage error, not a crash.
        print(str(exc), file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_compare_softmax(args: argparse.Namespace) -> int:
    scores = attention_score_batch(batch=args.batch, seq_len=args.seq_len,
                                   seed=args.seed)
    softermax_fn = _resolve_kernel_or_exit(args.kernel,
                                           SoftermaxConfig.paper_table1(),
                                           bit_accurate_only=True)
    variants = {
        "base-2 float": base2_softmax,
        "softermax (Table I)": softermax_fn,
        "i-bert polynomial": ibert_softmax,
        "LUT exp (64 entries)": lut_exp_softmax,
        "split high/low exp": split_exp_softmax,
    }
    rows = []
    for name, fn in variants.items():
        report = compare_softmax(fn, scores, reference_fn=softmax_reference)
        rows.append([name, report.max_abs_error, report.mean_abs_error,
                     report.argmax_agreement])
    print(format_table(
        ["variant", "max |err| vs base-e", "mean |err|", "argmax agreement"],
        rows, title=f"Softmax approximations on seq_len={args.seq_len} scores",
        float_digits=4))
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.reporting import format_table

    auto_pick = get_kernel("auto").name
    rows = []
    for name in available_kernels():
        spec = get_kernel(name)
        marker = " <- auto" if name == auto_pick else ""
        if spec.supports_out and spec.supports_scratch:
            inplace = "out+scratch"
        elif spec.supports_out:
            inplace = "out"
        else:
            inplace = "copy"
        rows.append([name + marker, "yes" if spec.bit_accurate else "no",
                     inplace, spec.description])
    print(format_table(
        ["kernel", "bit-accurate", "out=/scratch", "description"], rows,
        title="Registered softmax kernels"))
    print(f"\nauto resolves to: {auto_pick}  (native_isa: {native_isa()})")
    return 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from repro.eval import kernel_timing_sweep
    from repro.reporting import format_table

    for name in args.kernels:
        _resolve_kernel_or_exit(name)
    points = kernel_timing_sweep(kernels=tuple(args.kernels),
                                 seq_lens=tuple(args.seq_lens),
                                 batches=(args.batch,))
    rows = [[p.kernel, p.seq_len, p.batch, p.best_seconds * 1e3,
             p.rows_per_second,
             "-" if p.peak_mem_bytes is None else p.peak_mem_bytes / 1e6]
            for p in points]
    print(format_table(
        ["kernel", "seq_len", "batch", "best ms/call", "rows/s",
         "peak MB/call"], rows,
        title="Softmax kernel timing", float_digits=3))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Interactive stdin loop over the dynamic-batching inference service."""
    import numpy as np

    from repro.serving import (
        RestartPolicy,
        ServiceConfig,
        build_encoder_service,
    )

    config = ServiceConfig(max_batch_size=args.max_batch_size,
                           max_wait_ms=args.max_wait_ms,
                           max_queue_depth=args.queue_depth,
                           cache_size=args.cache_size,
                           engine=args.engine,
                           fuse_qkv=args.fuse_qkv,
                           block_kv=args.block_kv)
    # No policy for in-thread forwards: a long-context (--block-kv)
    # forward may take minutes, so it gets no hang deadline.
    policy = RestartPolicy(seed=args.seed) if args.workers > 0 else None
    try:
        service = build_encoder_service(
            model_name=args.model, kernel=args.kernel, seed=args.seed,
            config=config, policy=policy, workers=args.workers)
    except (KeyError, TypeError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    mode = (f"{args.workers} shard processes" if args.workers > 0
            else "in-process")
    print(f"serving {args.model} (engine={config.engine}, "
          f"kernel={args.kernel}, {mode}, "
          f"max_batch_size={config.max_batch_size}, "
          f"max_wait_ms={config.max_wait_ms}); enter whitespace-separated "
          "token ids, 'quit' to exit", flush=True)
    # SIGINT/SIGTERM shut down gracefully: drain, print the final stats
    # snapshot, exit 0 -- not a traceback.  SIGTERM is mapped onto the
    # KeyboardInterrupt path so both signals share one handler.
    import signal

    def _sigterm(signum, frame):  # pragma: no cover - exercised via tests
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    interrupted = False
    try:
        with service:
            # Settle the shard boot transient so the final snapshot line
            # reports steady-state worker health even for very short
            # sessions.
            service.wait_ready()
            try:
                for line in sys.stdin:
                    line = line.strip()
                    if not line:
                        continue
                    if line in ("quit", "exit"):
                        break
                    try:
                        tokens = [int(tok) for tok in line.split()]
                    except ValueError:
                        print(f"error: not a token-id line: {line!r}",
                              file=sys.stderr)
                        continue
                    try:
                        request = service.submit(tokens)
                        hidden = request.result(timeout=30.0)
                    except Exception as exc:  # noqa: BLE001 - user loop
                        print(f"error: {exc}", file=sys.stderr)
                        continue
                    pooled = np.round(hidden.mean(axis=0)[:4], 6).tolist()
                    print(f"ok tokens={len(tokens)} hidden={hidden.shape} "
                          f"cached={request.cached} pooled[:4]={pooled}",
                          flush=True)
            except KeyboardInterrupt:
                interrupted = True
            snap = service.snapshot()
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if interrupted:
        print("\ninterrupted; draining and shutting down gracefully",
              flush=True)
    # A zero-request session has no latency samples; report zeros, not None.
    p = {key: _zero_if_none(snap[key]) for key in
         ("p50_ms", "p99_ms", "queue_wait_p50_ms", "queue_wait_p99_ms",
          "forward_p50_ms", "forward_p99_ms")}
    print(f"served {snap['completed']} requests "
          f"(p50={p['p50_ms']} ms, p99={p['p99_ms']} ms, "
          f"cache hit rate {snap['cache']['hit_rate']:.0%})")
    print(f"latency split: queue wait p50={p['queue_wait_p50_ms']} ms "
          f"p99={p['queue_wait_p99_ms']} ms; model forward "
          f"p50={p['forward_p50_ms']} ms p99={p['forward_p99_ms']} ms")
    if snap.get("sharded"):
        bundle = snap.get("snapshot") or {}
        print(f"shards: {snap['live_workers']}/{snap['workers']} workers "
              f"live, restarts by shard {snap['restarts_by_shard']}, "
              f"degraded={snap['degraded'] is not None}; snapshot "
              f"v{bundle.get('version')} checksum {bundle.get('checksum')} "
              f"({bundle.get('total_bytes')} bytes shared)")
    return 0


def _cmd_loadtest_chaos(args: argparse.Namespace) -> int:
    """Chaos loadtest: injected crashes/hangs/errors under supervision.

    The zero-drop and bitwise-transparency guarantees are **hard**
    assertions (nonzero exit on violation); latency numbers are reported
    warn-only, since fault injection makes tail latency a function of the
    schedule, not the serving layer.  ``--workers N`` runs the same chaos
    against N shard processes, which can also fire the process-grade
    kinds (SIGKILL, heartbeat stall, snapshot corruption).
    """
    from repro.serving.loadtest import run_chaos_loadtest

    num_requests = min(args.requests, 96) if args.quick else args.requests
    try:
        payload = run_chaos_loadtest(
            num_requests=num_requests, batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms, workers=args.workers,
            crash_rate=args.crash_rate, hang_rate=args.hang_rate,
            error_rate=args.error_rate, kill_rate=args.kill_rate,
            stall_rate=args.stall_rate, corrupt_rate=args.corrupt_rate,
            hang_seconds=args.hang_seconds,
            hang_timeout_s=args.hang_timeout,
            stall_timeout_s=args.stall_timeout,
            max_restarts=args.max_restarts, deadline_ms=args.deadline_ms,
            deadline_fraction=args.deadline_fraction,
            model_name=args.model, kernel=args.kernel, seed=args.seed)
    except (KeyError, TypeError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    seed = payload["faults"]["seed"]
    outcomes = payload["outcomes"]
    rows = [[name, count] for name, count in outcomes.items() if count]
    executor = (f"{args.workers} shard processes" if args.workers > 0
                else "in-thread worker")
    print(format_table(
        ["outcome", "requests"], rows,
        title=f"Chaos loadtest: {num_requests} requests, {executor}, "
              f"{payload['restarts']} restarts (fault seed {seed})"))
    by_shard = payload["restarts_by_shard"]
    print(f"fault spec: {payload['faults']}; events: {payload['events']}")
    bundle = payload["snapshot"]
    snapshot = (f"; snapshot v{bundle['version']} checksum "
                f"{bundle['checksum']}" if bundle is not None else "")
    print(f"shards: {payload['live_workers']}/{len(by_shard)} live, "
          f"restarts by shard {by_shard}, "
          f"degraded={payload['degraded'] is not None}, "
          f"terminal={payload['terminal']}{snapshot}")
    print(f"latency (warn-only under faults): "
          f"p50={_zero_if_none(payload['p50_ms'])} ms "
          f"p99={_zero_if_none(payload['p99_ms'])} ms, "
          f"elapsed {payload['elapsed_seconds']}s")
    if args.output:
        import json
        from pathlib import Path

        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    failures = []
    if not payload["zero_drop"]:
        failures.append(
            f"zero-drop violated: {outcomes['lost']} lost, "
            f"{outcomes['hung']} hung, {payload['unresolved']} unresolved "
            f"of {num_requests}")
    if not payload["bitwise_identical_to_solo"]:
        failures.append("served responses diverged bitwise from solo "
                        "inference across restarts")
    if failures:
        # The fault-schedule seed makes every failure replayable:
        # rerun with the same seed to reproduce the exact schedule.
        for failure in failures:
            print(f"FAIL: {failure} [fault seed {seed}]", file=sys.stderr)
        return 1
    print(f"zero-drop holds: {payload['resolved']}/{num_requests} requests "
          f"resolved (result or typed error); "
          f"{payload['bitwise_checked']} responses verified bitwise "
          "against solo inference")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Synthetic open-loop client: batched vs sequential serving."""
    if args.chaos:
        return _cmd_loadtest_chaos(args)
    if args.workers > 0:
        print("--workers (shard processes) requires --chaos; the plain "
              "batched-vs-sequential loadtest is in-process only",
              file=sys.stderr)
        return 2
    from repro.serving.loadtest import batched_vs_sequential

    try:
        payload = batched_vs_sequential(
            num_requests=args.requests, batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms, min_tokens=args.min_tokens,
            max_tokens=args.max_tokens, model_name=args.model,
            kernel=args.kernel, engine=args.engine,
            block_kv=args.block_kv, seed=args.seed,
            duplicate_fraction=args.duplicate_fraction,
            cache_size=args.cache_size)
    except (KeyError, TypeError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    rows = []
    for label in ("sequential", "batched"):
        result = payload[label]
        # Sample-less columns (e.g. an all-cached run records no queue
        # waits) print as zeros rather than "None" cells.
        rows.append([label, result["batch_size"],
                     _zero_if_none(result["requests_per_second"]),
                     _zero_if_none(result["p50_ms"]),
                     _zero_if_none(result["p99_ms"]),
                     _zero_if_none(result["queue_wait_p50_ms"]),
                     _zero_if_none(result["forward_p50_ms"]),
                     result["mean_batch_size"] or 1.0])
    workload = payload["workload"]
    print(format_table(
        ["mode", "max batch", "req/s", "p50 ms", "p99 ms", "queue p50 ms",
         "fwd p50 ms", "mean batch"],
        rows,
        title=f"Serving loadtest: {workload['requests']} requests of "
              f"{workload['min_tokens']}-{workload['max_tokens']} tokens "
              f"({workload['model']}, engine={workload['engine']}, "
              f"kernel={workload['kernel']})",
        float_digits=2))
    print(f"\nbatched (batch {args.batch_size}) vs sequential throughput: "
          f"{payload['speedup_batched_vs_sequential']:.2f}x")
    print("cache hit rate: sequential "
          f"{payload['sequential']['cache_hit_rate']:.0%}, batched "
          f"{payload['batched']['cache_hit_rate']:.0%}")
    if args.output:
        import json
        from pathlib import Path

        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    """TCP serving daemon over the supervised inference service.

    ``--workers N`` swaps the in-process worker thread for N shard
    processes on one shared-memory snapshot; the TCP surface (protocol,
    deadlines, stats op) and the supervision are identical.
    """
    from repro.serving import (
        RestartPolicy,
        ServiceConfig,
        build_encoder_service,
    )
    from repro.serving.daemon import daemon_smoke, run_daemon

    config = ServiceConfig(max_batch_size=args.max_batch_size,
                           max_wait_ms=args.max_wait_ms,
                           max_queue_depth=args.queue_depth,
                           cache_size=args.cache_size,
                           engine=args.engine,
                           fuse_qkv=args.fuse_qkv,
                           block_kv=args.block_kv)
    try:
        policy = RestartPolicy(max_restarts=args.max_restarts,
                               hang_timeout_s=args.hang_timeout,
                               seed=args.seed)
        service = build_encoder_service(
            model_name=args.model, kernel=args.kernel, seed=args.seed,
            config=config, policy=policy, workers=args.workers)
    except (KeyError, TypeError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    if args.smoke:
        summary = daemon_smoke(service, num_requests=args.smoke)
        print(f"daemon smoke: {summary['ok']}/{summary['requests']} "
              f"requests ok over a real socket "
              f"({summary['connections_total']} connection(s)), "
              f"bitwise_identical_to_solo="
              f"{summary['bitwise_identical_to_solo']}")
        return 0 if (summary["ok"] == summary["requests"]
                     and summary["bitwise_identical_to_solo"]) else 1
    snap = run_daemon(service, host=args.host, port=args.port)
    print(f"daemon served {snap['daemon_requests_total']} requests over "
          f"{snap['connections_total']} connection(s); "
          f"restarts={snap['restarts']}/{snap['max_restarts']}, "
          f"p50={_zero_if_none(snap['p50_ms'])} ms "
          f"p99={_zero_if_none(snap['p99_ms'])} ms, "
          f"cache hit rate {snap['cache']['hit_rate']:.0%}")
    if snap.get("sharded"):
        bundle = snap.get("snapshot") or {}
        print(f"shards: {args.workers} workers, restarts by shard "
              f"{snap['restarts_by_shard']}, "
              f"degraded={snap['degraded'] is not None}; snapshot "
              f"v{bundle.get('version')} checksum {bundle.get('checksum')}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.hardware import latency_sweep

    rows = []
    for comparison in latency_sweep(seq_lens=tuple(args.seq_lens)):
        rows.append([comparison.seq_len, comparison.softermax_cycles,
                     comparison.baseline_cycles, comparison.speedup])
    print(format_table(
        ["seq_len", "softermax cycles/row", "baseline cycles/row", "speedup"],
        rows, title="Attention-row latency (single-pass online vs two-pass baseline)"))
    return 0


def _cmd_model_cost(args: argparse.Namespace) -> int:
    from repro.hardware import compare_model_attention
    from repro.models import BertConfig

    config = (BertConfig.bert_large(max_seq_len=args.seq_len)
              if args.model == "bert-large"
              else BertConfig.bert_base(max_seq_len=args.seq_len))
    comparison = compare_model_attention(config, args.seq_len)
    rows = [
        ["Softermax", comparison.softermax.energy_uj, comparison.softermax.cycles],
        ["DesignWare baseline", comparison.baseline.energy_uj, comparison.baseline.cycles],
        ["ratio (Softermax/baseline)", comparison.energy_ratio, comparison.cycle_ratio],
    ]
    print(format_table(
        ["design", "attention energy (uJ)", "attention cycles"],
        rows, title=f"{config.name} @ seq_len {args.seq_len}: SELF+Softmax cost",
        float_digits=3))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    import repro
    from repro.analysis import (
        LintEngine, default_rules, load_baseline, partition_findings,
        save_baseline,
    )

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    if args.rule:
        wanted = {r.upper() for r in args.rule}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(f"repro lint: unknown rule(s): {', '.join(sorted(unknown))} "
                  f"(known: {', '.join(sorted(known))})")
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]

    root = Path(args.root) if args.root else Path(repro.__file__).parent
    if not root.is_dir():
        print(f"repro lint: no such directory: {root}")
        return 2
    default_baseline = Path(__file__).resolve().parents[2] / "lint-baseline.json"
    baseline_path = Path(args.baseline) if args.baseline else default_baseline

    report = LintEngine(root, rules).run()

    if args.update_baseline:
        count = save_baseline(baseline_path, report.findings)
        print(f"repro lint: wrote {count} fingerprint(s) to {baseline_path}")
        return 0

    try:
        baseline = load_baseline(baseline_path)
    except ValueError as exc:
        print(f"repro lint: {exc}")
        return 2
    new, accepted, stale = partition_findings(report.findings, baseline)
    new_errors = [f for f in new if f.severity == "error"]

    if args.json:
        print(json.dumps({
            "modules_scanned": report.modules_scanned,
            "suppressed": report.suppressed,
            "new": [f.to_dict() for f in new],
            "accepted": [f.to_dict() for f in accepted],
            "stale_baseline": stale,
        }, indent=2))
    else:
        for finding in new:
            print(finding.format())
        summary = (f"repro lint: {report.modules_scanned} module(s), "
                   f"{len(new)} new finding(s) "
                   f"({len(new_errors)} error), {len(accepted)} baselined, "
                   f"{report.suppressed} suppressed inline")
        if stale:
            summary += (f"; {len(stale)} stale baseline entr"
                        f"{'y' if len(stale) == 1 else 'ies'} "
                        "(prune with --update-baseline)")
        print(summary)
    return 1 if new_errors else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of the Softermax paper (DAC 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Softermax bitwidths (Table I)")

    table4 = sub.add_parser("table4", help="area/energy ratios (Table IV)")
    table4.add_argument("--width", type=int, choices=(16, 32), default=32)
    table4.add_argument("--seq-len", type=int, default=384)

    figure1 = sub.add_parser("figure1", help="runtime breakdown vs seq len (Figure 1)")
    figure1.add_argument("--model", choices=("bert-base", "bert-large"),
                         default="bert-large")
    figure1.add_argument("--seq-lens", type=int, nargs="+",
                         default=[128, 256, 384, 512, 1024, 2048])

    figure5 = sub.add_parser("figure5", help="PE energy vs seq len (Figure 5)")
    figure5.add_argument("--seq-lens", type=int, nargs="+",
                         default=[128, 256, 384, 512, 1024, 2048, 4096])
    figure5.add_argument("--widths", type=int, nargs="+", default=[16, 32])

    table3 = sub.add_parser("table3", help="accuracy comparison (Table III)")
    table3.add_argument("--tasks", nargs="+", default=["sst2"])
    table3.add_argument("--model", choices=("tiny-base", "tiny-large"),
                        default="tiny-base")
    table3.add_argument("--num-train", type=int, default=512)
    table3.add_argument("--num-dev", type=int, default=128)
    table3.add_argument("--epochs", type=int, default=8)
    table3.add_argument("--seed", type=int, default=0)
    table3.add_argument("--kernel", default="auto",
                        help="Softermax kernel (see the 'kernels' command)")

    compare = sub.add_parser("compare-softmax",
                             help="numerical comparison of softmax approximations")
    compare.add_argument("--seq-len", type=int, default=384)
    compare.add_argument("--batch", type=int, default=16)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--kernel", default="auto",
                         help="Softermax kernel (see the 'kernels' command)")

    sub.add_parser("kernels",
                   help="list the registered softmax kernels and what "
                        "auto resolves to")

    bench = sub.add_parser("bench-kernels",
                           help="time registered kernels on batched rows")
    bench.add_argument("--kernels", nargs="+",
                       default=["softermax-bit-accurate", "softermax-fused",
                                "auto"])
    bench.add_argument("--seq-lens", type=int, nargs="+",
                       default=[64, 128, 256, 512, 1024])
    bench.add_argument("--batch", type=int, default=8)

    serve = sub.add_parser("serve",
                           help="interactive dynamic-batching inference "
                                "service (token-id lines on stdin)")
    serve.add_argument("--model",
                       choices=("tiny-base", "tiny-large", "tiny-long"),
                       default="tiny-base")
    serve.add_argument("--kernel", default="auto",
                       help="Softermax kernel (see the 'kernels' command)")
    serve.add_argument("--engine", choices=("plan", "graph"), default="plan",
                       help="encoder forward engine: the compiled graph-free "
                            "plan (default, bitwise-identical) or the "
                            "autograd graph")
    serve.add_argument("--fuse-qkv", action="store_true",
                       help="plan engine only: fuse the Q/K/V projections "
                            "into one GEMM (mathematically identical, not "
                            "bit-guaranteed)")
    serve.add_argument("--block-kv", type=int, default=None,
                       help="serve through chunked O(block)-memory "
                            "attention with this key/value block size "
                            "(long-context mode; see the README tolerance "
                            "contract)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="largest coalesced micro-batch")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="coalescing window after the first request")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="bounded request-queue depth (backpressure)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU response-cache entries (0 disables)")
    serve.add_argument("--seed", type=int, default=0)
    _add_serving_knobs(serve)

    loadtest = sub.add_parser("loadtest",
                              help="synthetic open-loop client: batched vs "
                                   "sequential serving throughput")
    loadtest.add_argument("--requests", type=int, default=512)
    loadtest.add_argument("--batch-size", type=int, default=32,
                          help="max_batch_size of the batched configuration")
    loadtest.add_argument("--max-wait-ms", type=float, default=2.0)
    loadtest.add_argument("--min-tokens", type=int, default=8)
    loadtest.add_argument("--max-tokens", type=int, default=16)
    loadtest.add_argument("--model",
                          choices=("tiny-base", "tiny-large", "tiny-long"),
                          default="tiny-base")
    loadtest.add_argument("--kernel", default="auto",
                          help="Softermax kernel (see the 'kernels' command)")
    loadtest.add_argument("--engine", choices=("plan", "graph"),
                          default="plan",
                          help="encoder forward engine for both "
                               "configurations (plan = graph-free fast "
                               "path, the default)")
    loadtest.add_argument("--block-kv", type=int, default=None,
                          help="chunked-attention key/value block size for "
                               "both configurations (long-context mode)")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--duplicate-fraction", type=float, default=0.0,
                          help="fraction of repeated requests (exercises "
                               "the cache and in-batch dedup)")
    loadtest.add_argument("--cache-size", type=int, default=0,
                          help="response-cache entries (default off so the "
                               "measured win is batching, not memoization)")
    loadtest.add_argument("--output", default=None,
                          help="also write the JSON payload to this path")
    loadtest.add_argument("--chaos", action="store_true",
                          help="run against a fault-injected supervised "
                               "service instead: injected crashes/hangs/"
                               "errors, hard zero-drop + bitwise "
                               "assertions, warn-only latency")
    loadtest.add_argument("--quick", action="store_true",
                          help="chaos mode: cap the request count for a "
                               "fast CI smoke")
    loadtest.add_argument("--crash-rate", type=float, default=0.08,
                          help="chaos: per-forward worker-crash "
                               "probability")
    loadtest.add_argument("--hang-rate", type=float, default=0.04,
                          help="chaos: per-forward hang probability")
    loadtest.add_argument("--error-rate", type=float, default=0.02,
                          help="chaos: per-forward typed model-error "
                               "probability (isolated, no restart)")
    loadtest.add_argument("--hang-seconds", type=float, default=0.4,
                          help="chaos: how long an injected hang sleeps")
    loadtest.add_argument("--hang-timeout", type=float, default=0.15,
                          help="chaos: supervisor hang-declaration "
                               "timeout (seconds)")
    loadtest.add_argument("--max-restarts", type=int, default=64,
                          help="chaos: supervisor restart budget")
    loadtest.add_argument("--deadline-ms", type=float, default=None,
                          help="chaos: attach this deadline to "
                               "--deadline-fraction of requests")
    loadtest.add_argument("--deadline-fraction", type=float, default=0.25,
                          help="chaos: fraction of requests carrying "
                               "--deadline-ms")
    loadtest.add_argument("--workers", type=int, default=0,
                          help="chaos: run against this many shard worker "
                               "processes on one shared-memory snapshot "
                               "(0 = in-thread worker); needed by the "
                               "kill/stall/corrupt rates")
    loadtest.add_argument("--kill-rate", type=float, default=0.0,
                          help="sharded chaos: per-forward SIGKILL "
                               "probability")
    loadtest.add_argument("--stall-rate", type=float, default=0.0,
                          help="sharded chaos: per-forward heartbeat-stall "
                               "probability")
    loadtest.add_argument("--corrupt-rate", type=float, default=0.0,
                          help="sharded chaos: per-forward probability of "
                               "a snapshot-corruption drill (worker "
                               "verifies a flipped copy, refuses, exits "
                               "typed)")
    loadtest.add_argument("--stall-timeout", type=float, default=0.3,
                          help="sharded chaos: idle-heartbeat timeout "
                               "before a worker is declared stalled")

    daemon = sub.add_parser("daemon",
                            help="asyncio TCP serving daemon (line-"
                                 "delimited JSON protocol) over the "
                                 "supervised inference service")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=0,
                        help="bind port (0 picks a free port, printed on "
                             "startup)")
    daemon.add_argument("--model",
                        choices=("tiny-base", "tiny-large", "tiny-long"),
                        default="tiny-base")
    daemon.add_argument("--kernel", default="auto",
                        help="Softermax kernel (see the 'kernels' command)")
    daemon.add_argument("--engine", choices=("plan", "graph"),
                        default="plan",
                        help="encoder forward engine (plan = graph-free "
                             "fast path, the default)")
    daemon.add_argument("--fuse-qkv", action="store_true",
                        help="plan engine only: fuse the Q/K/V "
                             "projections into one GEMM")
    daemon.add_argument("--block-kv", type=int, default=None,
                        help="chunked-attention key/value block size "
                             "(long-context mode)")
    daemon.add_argument("--max-batch-size", type=int, default=32)
    daemon.add_argument("--max-wait-ms", type=float, default=2.0)
    daemon.add_argument("--queue-depth", type=int, default=1024)
    daemon.add_argument("--cache-size", type=int, default=1024)
    daemon.add_argument("--max-restarts", type=int, default=5,
                        help="supervisor restart budget before the "
                             "service fails terminally")
    daemon.add_argument("--hang-timeout", type=float, default=2.0,
                        help="seconds a forward may run before the "
                             "supervisor declares the worker hung")
    daemon.add_argument("--seed", type=int, default=0)
    daemon.add_argument("--smoke", type=int, default=0, metavar="N",
                        help="instead of serving: bind a free port, "
                             "round-trip N requests over a real socket, "
                             "verify bitwise against solo inference, "
                             "exit (used by CI)")
    _add_serving_knobs(daemon)

    latency = sub.add_parser("latency", help="row-latency comparison")
    latency.add_argument("--seq-lens", type=int, nargs="+",
                         default=[128, 256, 384, 512, 1024, 2048])

    model_cost = sub.add_parser("model-cost",
                                help="full-model attention energy/latency")
    model_cost.add_argument("--model", choices=("bert-base", "bert-large"),
                            default="bert-large")
    model_cost.add_argument("--seq-len", type=int, default=512)

    lint = sub.add_parser("lint",
                          help="static checks of the repo's contracts "
                               "(R1-R6) against the committed baseline")
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON")
    lint.add_argument("--rule", action="append", metavar="ID",
                      help="run only this rule (repeatable, e.g. --rule R1)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings")
    lint.add_argument("--root", default=None,
                      help="package tree to lint (default: the installed "
                           "repro package)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: <repo>/lint-baseline.json)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the rule catalog and exit")

    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "table4": _cmd_table4,
    "figure1": _cmd_figure1,
    "figure5": _cmd_figure5,
    "table3": _cmd_table3,
    "compare-softmax": _cmd_compare_softmax,
    "kernels": _cmd_kernels,
    "bench-kernels": _cmd_bench_kernels,
    "serve": _cmd_serve,
    "daemon": _cmd_daemon,
    "loadtest": _cmd_loadtest,
    "latency": _cmd_latency,
    "model-cost": _cmd_model_cost,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
