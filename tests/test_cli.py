"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.kernels import native_available, native_isa

#: What the auto alias names on this box.
AUTO_TARGET = ("softermax-native" if native_available()
               else "softermax-fused")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table4", "figure1", "figure5", "table3",
                        "compare-softmax", "latency", "model-cost"):
            args = parser.parse_args([command] if command != "table3"
                                     else [command, "--tasks", "sst2"])
            assert args.command == command


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Q(6,2)" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Unnormed Softmax Unit" in out
        assert "Full PE" in out

    def test_table4_16_wide(self, capsys):
        assert main(["table4", "--width", "16", "--seq-len", "128"]) == 0
        assert "Normalization Unit" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1", "--seq-lens", "128", "512"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seq_len,")
        assert "512" in out

    def test_figure5(self, capsys):
        assert main(["figure5", "--seq-lens", "128", "384", "--widths", "32"]) == 0
        out = capsys.readouterr().out
        assert "softermax_uJ_32w" in out

    def test_compare_softmax(self, capsys):
        assert main(["compare-softmax", "--seq-len", "64", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "softermax (Table I)" in out
        assert "i-bert polynomial" in out

    def test_compare_softmax_with_engine_knobs(self, capsys):
        assert main(["compare-softmax", "--seq-len", "64", "--batch", "4",
                     "--kernel", "softermax-fused(lpw_method=lstsq)"]) == 0
        assert "softermax (Table I)" in capsys.readouterr().out

    def test_compare_softmax_rejects_float_kernel(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare-softmax", "--seq-len", "64", "--batch", "4",
                  "--kernel", "reference"])

    def test_kernels_lists_registry_and_auto_choice(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("softermax-bit-accurate", "softermax-fused",
                     f"{AUTO_TARGET} <- auto"):
            assert name in out
        assert f"auto resolves to: {AUTO_TARGET}" in out
        assert f"(native_isa: {native_isa()})" in out

    def test_bench_kernels_quick(self, capsys):
        assert main(["bench-kernels", "--kernels", "softermax-fused",
                     "auto(lpw_method=lstsq)", "--seq-lens", "64",
                     "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "peak MB/call" in out
        assert "auto(lpw_method=lstsq)" in out

    def test_invalid_kernel_option_value_is_a_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare-softmax", "--seq-len", "32", "--batch", "2",
                  "--kernel", "softermax-fused(lpw_method=bogus)"])
        assert excinfo.value.code == 2
        assert "unknown fit method" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", ["softermax-fused(lpw_method=bogus)",
                                        "auto(lpw_method=bogus)"])
    def test_bad_option_is_a_usage_error_for_auto_too(self, capsys, kernel):
        """"auto" resolves eagerly, so a bad option fails at startup with
        the same usage error as a concrete engine name -- not from the
        first softmax call."""
        with pytest.raises(SystemExit) as excinfo:
            main(["compare-softmax", "--seq-len", "32", "--batch", "2",
                  "--kernel", kernel])
        assert excinfo.value.code == 2
        assert "unknown fit method" in capsys.readouterr().err
        assert main(["serve", "--kernel", kernel]) == 2
        assert "unknown fit method" in capsys.readouterr().err

    def test_latency(self, capsys):
        assert main(["latency", "--seq-lens", "128", "512"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_model_cost(self, capsys):
        assert main(["model-cost", "--model", "bert-base", "--seq-len", "256"]) == 0
        out = capsys.readouterr().out
        assert "bert-base" in out
        assert "ratio" in out


class TestTable3Command:
    def test_single_quick_task(self, capsys):
        code = main(["table3", "--tasks", "sst2", "--num-train", "64",
                     "--num-dev", "32", "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Softermax" in out

    def test_unknown_task_is_an_error(self, capsys):
        code = main(["table3", "--tasks", "imagenet", "--num-train", "32",
                     "--num-dev", "16", "--epochs", "1"])
        assert code == 2


class TestServingCommands:
    def test_parser_registers_serve_and_loadtest(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--max-batch-size", "4"])
        assert args.command == "serve" and args.max_batch_size == 4
        assert args.engine == "plan" and args.fuse_qkv is False
        args = parser.parse_args(["serve", "--engine", "graph"])
        assert args.engine == "graph"
        args = parser.parse_args(["serve", "--fuse-qkv"])
        assert args.fuse_qkv is True
        args = parser.parse_args(["loadtest", "--requests", "16"])
        assert args.command == "loadtest" and args.requests == 16
        assert args.engine == "plan"
        args = parser.parse_args(["loadtest", "--engine", "graph"])
        assert args.engine == "graph"

    def test_serve_round_trip(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO("3 5 7\n3 5 7\nnot tokens\nquit\n"))
        assert main(["serve", "--max-batch-size", "4",
                     "--max-wait-ms", "1"]) == 0
        captured = capsys.readouterr()
        ok_lines = [line for line in captured.out.splitlines()
                    if line.startswith("ok ")]
        assert len(ok_lines) == 2
        assert "cached=False" in ok_lines[0]
        assert "cached=True" in ok_lines[1]
        # Identical request -> identical pooled output, cached or not.
        assert ok_lines[0].split("pooled")[1] == ok_lines[1].split("pooled")[1]
        assert "not a token-id line" in captured.err
        assert "served 2 requests" in captured.out
        assert "engine=plan" in captured.out
        assert "latency split: queue wait" in captured.out

    def test_serve_round_trip_graph_engine(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("3 5 7\nquit\n"))
        assert main(["serve", "--engine", "graph", "--max-batch-size", "2",
                     "--max-wait-ms", "1"]) == 0
        captured = capsys.readouterr()
        assert "engine=graph" in captured.out
        assert "served 1 requests" in captured.out

    def test_serve_rejects_unknown_kernel(self, capsys):
        assert main(["serve", "--kernel", "not-a-kernel"]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.slow
    def test_loadtest_reports_comparison(self, capsys, tmp_path):
        out_path = tmp_path / "loadtest.json"
        assert main(["loadtest", "--requests", "48", "--batch-size", "8",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "batched" in out
        assert "vs sequential throughput" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["batched"]["batch_size"] == 8
        assert payload["speedup_batched_vs_sequential"] > 0
        # The latency split and cache hit rate surface in the summary.
        assert "queue p50 ms" in out and "fwd p50 ms" in out
        assert "cache hit rate:" in out
        assert payload["workload"]["engine"] == "plan"
        assert payload["batched"]["forward_p50_ms"] is not None


class TestRobustnessCommands:
    def test_parser_registers_daemon_and_chaos_knobs(self):
        parser = build_parser()
        args = parser.parse_args(["daemon", "--smoke", "4"])
        assert args.command == "daemon" and args.smoke == 4
        assert args.port == 0 and args.max_restarts == 5
        args = parser.parse_args(["daemon", "--port", "7777",
                                  "--max-restarts", "2",
                                  "--hang-timeout", "0.5"])
        assert args.port == 7777 and args.max_restarts == 2
        assert args.hang_timeout == 0.5 and args.smoke == 0
        args = parser.parse_args(["loadtest", "--chaos", "--quick",
                                  "--crash-rate", "0.2",
                                  "--deadline-ms", "100"])
        assert args.chaos and args.quick
        assert args.crash_rate == 0.2 and args.deadline_ms == 100.0
        assert parser.parse_args(["loadtest"]).chaos is False

    def test_daemon_smoke_round_trips_over_a_real_socket(self, capsys):
        assert main(["daemon", "--smoke", "3", "--max-batch-size", "4",
                     "--max-wait-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "3/3 requests ok" in out
        assert "bitwise_identical_to_solo=True" in out

    def test_daemon_rejects_unknown_kernel(self, capsys):
        assert main(["daemon", "--kernel", "not-a-kernel",
                     "--smoke", "1"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_chaos_loadtest_asserts_zero_drop(self, capsys):
        assert main(["loadtest", "--chaos", "--quick", "--requests", "48",
                     "--batch-size", "4", "--seed", "2",
                     "--deadline-ms", "150"]) == 0
        out = capsys.readouterr().out
        assert "zero-drop holds" in out
        assert "verified bitwise against solo inference" in out
        assert "warn-only" in out

    def test_serve_interrupt_is_a_graceful_shutdown(self, capsys,
                                                    monkeypatch):
        """SIGINT/SIGTERM mid-session: drain, final stats, exit 0."""

        class _InterruptingStdin:
            def __init__(self, lines):
                self._lines = iter(lines)

            def __iter__(self):
                return self

            def __next__(self):
                try:
                    return next(self._lines)
                except StopIteration:
                    raise KeyboardInterrupt  # the signal handler's path

        monkeypatch.setattr("sys.stdin", _InterruptingStdin(["3 5 7\n"]))
        assert main(["serve", "--max-batch-size", "2",
                     "--max-wait-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "interrupted; draining and shutting down gracefully" in out
        assert "served 1 requests" in out


class TestShardedCommands:
    def test_parser_registers_sharded_knobs(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--workers", "2"])
        assert args.workers == 2
        assert parser.parse_args(["serve"]).workers == 0
        args = parser.parse_args(["daemon", "--workers", "4"])
        assert args.workers == 4
        args = parser.parse_args(["loadtest", "--chaos", "--workers", "2",
                                  "--kill-rate", "0.1",
                                  "--stall-rate", "0.05",
                                  "--corrupt-rate", "0.02",
                                  "--stall-timeout", "0.4"])
        assert args.workers == 2 and args.kill_rate == 0.1
        assert args.stall_rate == 0.05 and args.corrupt_rate == 0.02
        assert args.stall_timeout == 0.4

    def test_sharded_serve_round_trip(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("3 5 7\nquit\n"))
        assert main(["serve", "--workers", "2", "--max-batch-size", "4",
                     "--max-wait-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 shard processes" in out
        assert "served 1 requests" in out
        assert "shards: 2/2 workers live" in out
        assert "snapshot v1 checksum 0x" in out

    def test_plain_loadtest_rejects_workers(self, capsys):
        assert main(["loadtest", "--workers", "2", "--requests", "8"]) == 2
        assert "requires --chaos" in capsys.readouterr().err

    def test_chaos_process_fault_rate_needs_workers(self, capsys):
        assert main(["loadtest", "--chaos", "--quick", "--requests", "8",
                     "--kill-rate", "0.1"]) == 2
        assert "--kill-rate" in capsys.readouterr().err

    def test_sharded_chaos_loadtest_cli(self, capsys):
        assert main(["loadtest", "--chaos", "--quick", "--workers", "2",
                     "--requests", "32", "--batch-size", "4",
                     "--max-wait-ms", "0.5", "--kill-rate", "0.15",
                     "--stall-rate", "0", "--corrupt-rate", "0",
                     "--error-rate", "0", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 shard processes" in out
        assert "fault seed 2" in out
        assert "zero-drop holds" in out
        assert "shards:" in out and "restarts by shard" in out

    def test_sharded_daemon_smoke(self, capsys):
        assert main(["daemon", "--workers", "2", "--smoke", "3",
                     "--max-batch-size", "4", "--max-wait-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "3/3 requests ok" in out
        assert "bitwise_identical_to_solo=True" in out
