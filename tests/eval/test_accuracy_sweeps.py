"""Tests for the accuracy pipeline and the sweep drivers."""

import numpy as np
import pytest

from repro.data import make_sst2, make_squad
from repro.eval import (
    AccuracyComparison,
    energy_sweep_series,
    evaluate_model,
    evaluate_squad_detailed,
    predict,
    results_to_rows,
    run_accuracy_comparison,
    runtime_fraction_series,
    softermax_error_sweep,
)
from repro.models import BertConfig, FinetuneConfig, TaskModel


class TestPredictAndEvaluate:
    def test_classification_predictions_are_class_ids(self):
        task = make_sst2(num_train=16, num_dev=8)
        model = TaskModel(BertConfig.tiny_base(vocab_size=task.vocab_size,
                                               max_seq_len=task.seq_len), task, seed=0)
        preds = predict(model, task)
        assert preds.shape == (8,)
        assert set(np.unique(preds)) <= {0, 1}

    def test_span_predictions_are_valid_spans(self):
        task = make_squad(num_train=16, num_dev=8)
        model = TaskModel(BertConfig.tiny_base(vocab_size=task.vocab_size,
                                               max_seq_len=task.seq_len), task, seed=0)
        preds = predict(model, task)
        assert preds.shape == (8, 2)
        assert np.all(preds[:, 1] >= preds[:, 0])

    def test_evaluate_model_returns_percentage(self):
        task = make_sst2(num_train=16, num_dev=8)
        model = TaskModel(BertConfig.tiny_base(vocab_size=task.vocab_size,
                                               max_seq_len=task.seq_len), task, seed=0)
        score = evaluate_model(model, task)
        assert 0.0 <= score <= 100.0

    def test_evaluate_squad_detailed(self):
        task = make_squad(num_train=16, num_dev=8)
        model = TaskModel(BertConfig.tiny_base(vocab_size=task.vocab_size,
                                               max_seq_len=task.seq_len), task, seed=0)
        detail = evaluate_squad_detailed(model, task)
        assert set(detail) == {"exact_match", "f1"}

    def test_evaluate_squad_detailed_requires_span_task(self):
        task = make_sst2(num_train=16, num_dev=8)
        model = TaskModel(BertConfig.tiny_base(vocab_size=task.vocab_size,
                                               max_seq_len=task.seq_len), task, seed=0)
        with pytest.raises(ValueError):
            evaluate_squad_detailed(model, task)


class TestAccuracyComparison:
    def test_delta_and_summaries(self):
        comparison = AccuracyComparison(
            model_name="tiny",
            baseline={"sst2": 90.0, "rte": 70.0},
            softermax={"sst2": 91.0, "rte": 69.0},
        )
        assert comparison.delta() == {"sst2": 1.0, "rte": -1.0}
        assert comparison.average_delta() == pytest.approx(0.0)
        assert comparison.worst_drop() == pytest.approx(-1.0)
        assert comparison.tasks == ["sst2", "rte"]

    def test_results_to_rows(self):
        comparison = AccuracyComparison(model_name="tiny",
                                        baseline={"sst2": 90.0},
                                        softermax={"sst2": 91.0})
        rows = results_to_rows(comparison)
        assert rows[0]["variant"] == "Baseline"
        assert rows[1]["sst2"] == 91.0

    def test_run_accuracy_comparison_single_small_task(self):
        task = make_sst2(num_train=64, num_dev=32)
        config = BertConfig.tiny_base(vocab_size=task.vocab_size, max_seq_len=task.seq_len)
        fast = FinetuneConfig(pretrain_epochs=3, finetune_epochs=1, batch_size=16,
                              calibration_batches=1, seed=0)
        comparison = run_accuracy_comparison([task], config, fast)
        assert set(comparison.baseline) == {"sst2"}
        assert set(comparison.softermax) == {"sst2"}
        assert comparison.baseline["sst2"] > 60.0


class TestSweepDrivers:
    def test_runtime_fraction_series_shape(self):
        series = runtime_fraction_series(seq_lens=(128, 512))
        assert series.seq_lens == [128, 512]
        assert set(series.fractions) == {"matmul", "softmax", "dropout", "norm_act_other"}
        assert len(series.series("softmax")) == 2

    def test_energy_sweep_series(self):
        series = energy_sweep_series(seq_lens=(128, 384), vector_sizes=(16, 32))
        assert len(series) == 2
        for s in series:
            assert len(s.seq_lens) == 2
            assert all(r < 1.0 for r in s.ratios())

    def test_softermax_error_sweep(self):
        points = softermax_error_sweep(seq_lens=(32, 64), batch=4)
        assert len(points) == 2
        for point in points:
            assert point.max_abs_error < 0.05
            assert 0.0 <= point.argmax_agreement <= 1.0

    def test_softermax_error_sweep_accepts_kernel_names(self):
        base = softermax_error_sweep(seq_lens=(32,), batch=4,
                                     kernel="softermax-bit-accurate")
        for kernel in ("softermax-fused", "auto"):
            points = softermax_error_sweep(seq_lens=(32,), batch=4,
                                           kernel=kernel)
            # Bit-accurate family: identical numbers regardless of engine.
            assert points[0] == base[0], kernel
        lstsq = softermax_error_sweep(seq_lens=(32,), batch=4,
                                      kernel="auto(lpw_method=lstsq)")
        assert lstsq[0] != base[0]

    def test_kernel_timing_sweep_records_memory_and_options(self):
        from repro.eval import kernel_timing_sweep

        points = kernel_timing_sweep(
            kernels=("softermax-fused", "auto(lpw_method=lstsq)"),
            seq_lens=(64,), batches=(4,), repeats=1, min_calls=1)
        assert len(points) == 2
        for point in points:
            assert point.best_seconds > 0
            assert point.peak_mem_bytes is None or point.peak_mem_bytes > 0
            assert "peak_mem_bytes" in vars(point)
