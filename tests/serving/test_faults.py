"""Deterministic fault injection: seeded schedules and the faulty model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.faults import (
    FAULT_KINDS,
    Fault,
    FaultSchedule,
    FaultyModel,
    InjectedModelError,
    InjectedWorkerCrash,
)


def _schedule_fingerprint(schedule: FaultSchedule):
    return [(f.call_index, f.kind, f.seconds) for f in schedule.faults()]


# --------------------------------------------------------------------------- #
# schedule determinism (the property chaos reproducibility rests on)
# --------------------------------------------------------------------------- #
def test_same_seed_same_schedule():
    kwargs = dict(num_calls=200, crash_rate=0.1, hang_rate=0.05,
                  error_rate=0.03, hang_seconds=0.2)
    first = FaultSchedule.from_seed(42, **kwargs)
    second = FaultSchedule.from_seed(42, **kwargs)
    assert len(first) > 0
    assert _schedule_fingerprint(first) == _schedule_fingerprint(second)
    assert _schedule_fingerprint(first) != _schedule_fingerprint(
        FaultSchedule.from_seed(43, **kwargs))


def test_changing_one_rate_never_moves_another_kinds_faults():
    """One uniform draw per call index: raising ``hang_rate`` adds hangs
    but must not move any crash to a different call."""
    base = FaultSchedule.from_seed(7, num_calls=300, crash_rate=0.1)
    more_hangs = FaultSchedule.from_seed(7, num_calls=300, crash_rate=0.1,
                                         hang_rate=0.2)
    crashes = lambda s: [f.call_index for f in s.faults()  # noqa: E731
                         if f.kind == "crash"]
    assert crashes(base) == crashes(more_hangs)
    assert any(f.kind == "hang" for f in more_hangs.faults())


#: ``FaultSchedule.from_seed(...).summary()["faults"]`` for the two chaos
#: smokes of ``scripts/ci.sh``, as (call_index, kind) pairs -- the
#: schedule of each run's first worker (slot 0, generation 1).  The
#: in-thread smoke is
#:
#:     python -m repro.cli loadtest --chaos --quick --batch-size 4 \
#:         --deadline-ms 150 --deadline-fraction 0.3 --seed 2
#:
#: (96 requests -> 208 call slots, default crash/hang/error rates); the
#: sharded smoke is
#:
#:     python -m repro.cli loadtest --chaos --quick --workers 2 \
#:         --requests 64 --batch-size 4 --max-wait-ms 0.5 --crash-rate 0 \
#:         --hang-rate 0 --kill-rate 0.15 --stall-rate 0.05 \
#:         --corrupt-rate 0.05 --seed 2
#:
#: (144 call slots, default error rate).  Removing a zero-rate kind from
#: FAULT_KINDS must leave both unchanged.
CI_CHAOS_SCHEDULE = [
    (3, "hang"), (7, "crash"), (28, "hang"), (29, "hang"), (48, "hang"),
    (49, "crash"), (63, "hang"), (64, "crash"), (66, "hang"), (80, "crash"),
    (84, "crash"), (86, "crash"), (88, "hang"), (89, "crash"), (93, "crash"),
    (97, "crash"), (106, "crash"), (110, "crash"), (117, "crash"),
    (120, "hang"), (133, "crash"), (140, "hang"), (141, "crash"),
    (148, "hang"), (155, "hang"), (182, "hang"), (184, "crash"),
    (187, "crash"), (194, "crash"), (196, "crash"),
]
CI_SHARDED_CHAOS_SCHEDULE = [
    (3, "kill"), (6, "stall"), (7, "kill"), (11, "kill"), (19, "stall"),
    (28, "kill"), (29, "kill"), (30, "stall"), (47, "stall"), (48, "kill"),
    (49, "kill"), (59, "stall"), (60, "stall"), (61, "stall"), (63, "kill"),
    (64, "error"), (66, "kill"), (77, "corrupt"), (80, "kill"),
    (84, "error"), (86, "error"), (88, "kill"), (89, "kill"), (93, "kill"),
    (97, "error"), (98, "kill"), (99, "stall"), (106, "kill"),
    (107, "stall"), (110, "kill"), (111, "stall"), (117, "kill"),
    (120, "kill"), (121, "corrupt"), (133, "kill"), (137, "stall"),
    (140, "kill"), (141, "error"),
]


def test_ci_chaos_schedules_are_pinned():
    chaos = FaultSchedule.from_seed(
        2, 208, crash_rate=0.08, hang_rate=0.04, error_rate=0.02,
        hang_seconds=0.4, skip_first=2).summary()["faults"]
    assert chaos == [
        {"call_index": index, "kind": kind,
         "seconds": 0.4 if kind == "hang" else 0.0}
        for index, kind in CI_CHAOS_SCHEDULE]
    sharded = FaultSchedule.from_seed(
        2, 144, kill_rate=0.15, stall_rate=0.05, corrupt_rate=0.05,
        error_rate=0.02, skip_first=2).summary()["faults"]
    assert sharded == [
        {"call_index": index, "kind": kind, "seconds": 0.0}
        for index, kind in CI_SHARDED_CHAOS_SCHEDULE]


def test_for_spawn_offsets_the_seed_per_slot_and_generation():
    spec = dict(seed=2, num_calls=200, crash_rate=0.1, hang_rate=0.05,
                skip_first=2)
    first = FaultSchedule.for_spawn(spec, 0, 1)
    # The first worker of slot 0 keeps the base seed ...
    assert _schedule_fingerprint(first) == _schedule_fingerprint(
        FaultSchedule.from_seed(2, 200, crash_rate=0.1, hang_rate=0.05,
                                skip_first=2))
    assert first.seed == 2
    # ... every other (slot, generation) draws its own, reproducibly.
    spawns = {(slot, gen): _schedule_fingerprint(
                  FaultSchedule.for_spawn(spec, slot, gen))
              for slot in range(2) for gen in range(1, 4)}
    assert len(set(map(tuple, spawns.values()))) == len(spawns)
    assert spawns[(1, 2)] == _schedule_fingerprint(
        FaultSchedule.for_spawn(spec, 1, 2))


def test_skip_first_leaves_warmup_fault_free():
    schedule = FaultSchedule.from_seed(0, num_calls=100, crash_rate=0.5,
                                       skip_first=5)
    assert all(f.call_index >= 5 for f in schedule.faults())


def test_schedule_validation():
    with pytest.raises(ValueError, match="crash_rate"):
        FaultSchedule.from_seed(0, 10, crash_rate=1.5)
    with pytest.raises(ValueError, match="sum"):
        FaultSchedule.from_seed(0, 10, crash_rate=0.6, hang_rate=0.6)
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault(call_index=0, kind="meltdown")
    with pytest.raises(ValueError, match="two faults"):
        FaultSchedule([Fault(1, "crash"), Fault(1, "error")])


def test_summary_is_json_friendly():
    schedule = FaultSchedule.from_seed(3, num_calls=100, crash_rate=0.1,
                                       hang_rate=0.05)
    summary = schedule.summary()
    assert summary["seed"] == 3
    assert summary["total"] == len(schedule)
    assert sum(summary["counts"].values()) == summary["total"]
    assert all(f["kind"] in FAULT_KINDS for f in summary["faults"])


# --------------------------------------------------------------------------- #
# FaultyModel behavior
# --------------------------------------------------------------------------- #
class _StubModel:
    config = None

    def __init__(self):
        self.calls = []

    def eval(self):
        return self

    def encode_ragged(self, sequences, pad_id=0, **kwargs):
        self.calls.append([tuple(s) for s in sequences])
        return [np.full((len(s), 2), float(sum(s))) for s in sequences]


def test_faulty_model_fires_scheduled_faults_in_order():
    slept = []
    schedule = FaultSchedule([Fault(1, "crash"), Fault(2, "error"),
                              Fault(3, "hang", seconds=0.05)])
    model = FaultyModel(_StubModel(), schedule, sleep=slept.append)

    # Call 0: unscheduled, delegates straight through.
    out = model.encode_ragged([[1, 2]])
    assert np.array_equal(out[0], np.full((2, 2), 3.0))
    # Call 1: worker-fatal crash, nothing reaches the inner model.
    with pytest.raises(InjectedWorkerCrash):
        model.encode_ragged([[1, 2]])
    # Call 2: plain model error (isolation path, not a crash).
    with pytest.raises(InjectedModelError):
        model.encode_ragged([[1, 2]])
    assert not isinstance(InjectedModelError("x"), InjectedWorkerCrash)
    # Call 3: hang sleeps, then computes normally.
    out = model.encode_ragged([[4]])
    assert slept == [0.05]
    assert np.array_equal(out[0], np.full((1, 2), 4.0))

    assert model.calls == 4
    assert [f.kind for f in model.injected] == ["crash", "error", "hang"]
    # Crashed/errored calls never reached the inner model.
    assert len(model.inner.calls) == 2


def test_faulty_model_duck_types_the_service_surface():
    inner = _StubModel()
    model = FaultyModel(inner, FaultSchedule())
    assert model.eval() is model
    assert model.config is None
    out = model.encode_ragged([[1], [2, 3]], pad_id=0)
    assert len(out) == 2
