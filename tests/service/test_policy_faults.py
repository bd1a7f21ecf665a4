"""Units for the batch policy, fault taxonomy, and chaos schedules."""

import pytest

from repro.service import (
    BatchPolicy,
    CHAOS_KINDS,
    FAULT_CRASH,
    FAULT_DEADLINE,
    FAULT_WORKER_LOST,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    WorkerKillSpec,
    is_retryable,
)


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_exponential(self):
        policy = RetryPolicy(max_retries=4, backoff_base_ms=10.0)
        delays = [policy.backoff_ms(k) for k in range(4)]
        assert delays == [10.0, 20.0, 40.0, 80.0]
        assert delays == [policy.backoff_ms(k) for k in range(4)]

    def test_backoff_cap(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base_ms=100.0, backoff_cap_ms=250.0
        )
        assert policy.backoff_ms(9) == 250.0

    def test_zero_base_means_immediate_retry(self):
        assert RetryPolicy(max_retries=3).backoff_ms(2) == 0.0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestTaxonomy:
    def test_transient_faults_are_retryable(self):
        assert is_retryable(FAULT_DEADLINE)
        assert is_retryable(FAULT_CRASH)
        # A lost pool worker is transient: the replacement usually
        # completes the retry.
        assert is_retryable(FAULT_WORKER_LOST)

    def test_diagnosed_programs_are_not_faults(self):
        # A type error is a result, not a fault: never retried.
        assert not is_retryable(None)
        assert not is_retryable("diagnostics")


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(jobs=0)
        with pytest.raises(ValueError):
            BatchPolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            BatchPolicy(isolate="container")
        with pytest.raises(ValueError):
            BatchPolicy(isolate="subprocess")  # retired; the pool replaces it
        with pytest.raises(ValueError):
            BatchPolicy(deadline_ms=0)
        with pytest.raises(ValueError):
            BatchPolicy(pool_workers=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_respawns=-1)
        with pytest.raises(ValueError):
            BatchPolicy(heartbeat_ms=0)

    def test_effective_limits_fold_in_the_deadline(self):
        policy = BatchPolicy(deadline_ms=250.0)
        assert policy.effective_limits().deadline_ms == 250.0
        assert BatchPolicy().effective_limits().deadline_ms is None

    def test_policy_echo_is_json_stable(self):
        import json

        policy = BatchPolicy(jobs=4, deadline_ms=100.0, isolate="pool")
        assert json.dumps(policy.to_json()) == json.dumps(policy.to_json())

    def test_policy_echo_projects_every_field(self):
        """Regression: to_json used to hand-pick keys and silently dropped
        ``Limits.deadline_ms``; the echo must pin the full configuration."""
        from dataclasses import fields

        from repro.diagnostics.limits import Limits

        policy = BatchPolicy(
            isolate="pool", pool_workers=3, max_respawns=7,
            limits=Limits(deadline_ms=123.0),
        )
        blob = policy.to_json()
        assert set(blob) == {f.name for f in fields(BatchPolicy)}
        assert set(blob["limits"]) == {f.name for f in fields(Limits)}
        assert blob["limits"]["deadline_ms"] == 123.0
        assert blob["pool_workers"] == 3
        assert blob["max_respawns"] == 7


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(0, "nope", "crash")
        with pytest.raises(ValueError):
            FaultSpec(0, "check", "meteor")
        with pytest.raises(ValueError):
            FaultSpec(-1, "check", "crash")

    def test_applies_respects_index_and_attempts(self):
        every = FaultSpec(2, "check", "crash")
        first = FaultSpec(2, "check", "crash", attempts=frozenset({0}))
        assert every.applies(2, 0) and every.applies(2, 5)
        assert not every.applies(1, 0)
        assert first.applies(2, 0) and not first.applies(2, 1)

    def test_json_round_trip(self):
        spec = FaultSpec(3, "parse", "hang", attempts=frozenset({0, 2}))
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_kinds_stable(self):
        assert CHAOS_KINDS == ("crash", "hang", "kill", "noise", "memhog")


class TestWorkerKillSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerKillSpec(index=-1)
        with pytest.raises(ValueError):
            WorkerKillSpec(index=0, attempt=-1)

    def test_applies_is_keyed_to_file_and_attempt(self):
        spec = WorkerKillSpec(index=3, attempt=1)
        assert spec.applies(3, 1)
        assert not spec.applies(3, 0)
        assert not spec.applies(2, 1)

    def test_json_round_trip(self):
        spec = WorkerKillSpec(index=2, attempt=1, worker=0)
        assert WorkerKillSpec.from_json(spec.to_json()) == spec

    def test_parse_cli_forms(self):
        assert WorkerKillSpec.parse("4") == WorkerKillSpec(index=4)
        assert WorkerKillSpec.parse("4:1") == WorkerKillSpec(4, attempt=1)
        assert WorkerKillSpec.parse("4:1:0") == WorkerKillSpec(4, 1, 0)
        with pytest.raises(ValueError):
            WorkerKillSpec.parse("a:b")
        with pytest.raises(ValueError):
            WorkerKillSpec.parse("1:2:3:4")

    def test_schedule_round_trip_with_kills(self):
        schedule = FaultSchedule(
            specs=(FaultSpec(0, "check", "crash"),),
            kills=(WorkerKillSpec(index=1), WorkerKillSpec(2, 1, 0)),
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule


class TestScheduleParsing:
    def test_parse_cli_form(self):
        schedule = FaultSchedule.parse("1:check:crash,2:parse:hang:0")
        assert len(schedule.specs) == 2
        assert schedule.specs[0] == FaultSpec(1, "check", "crash")
        assert schedule.specs[1] == FaultSpec(
            2, "parse", "hang", attempts=frozenset({0})
        )

    def test_parse_range_and_star(self):
        schedule = FaultSchedule.parse("0:check:kill:1-3,4:check:crash:*")
        assert schedule.specs[0].attempts == frozenset({1, 2, 3})
        assert schedule.specs[1].attempts is None

    @pytest.mark.parametrize("bad", [
        "1:check", "x:check:crash", "1:nowhere:crash", "1:check:meteor",
        "1:check:crash:q",
    ])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.parse(bad)

    def test_schedule_json_round_trip(self):
        schedule = FaultSchedule.parse("1:check:crash,2:parse:hang:0",
                                       hang_s=1.25)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_for_attempt_is_stage_ordered(self):
        schedule = FaultSchedule(specs=(
            FaultSpec(0, "parse", "hang"), FaultSpec(0, "check", "crash"),
        ))
        tags = [s.tag for s in schedule.for_attempt(0, 0)]
        assert tags == ["check:crash", "parse:hang"]
