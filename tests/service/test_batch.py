"""The batch coordinator: containment, aggregation, determinism, metrics.

The containment proof demanded by the acceptance criteria lives in
``TestContainment``: one input crashes, one input hangs, and every other
input still yields a complete result, with the partial-failure exit code
and both failures named in the report.
"""

import json

import pytest

from repro.observability import Instrumentation
from repro.pipeline import inject_fault
from repro.service import (
    BatchPolicy,
    ChaosCrash,
    EXIT_DEADLINE,
    EXIT_PARTIAL,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    check_batch,
)
from repro.testing import FUZZ_SEEDS

GOOD = [(f"<good{i}>", src) for i, src in enumerate(FUZZ_SEEDS[:4])]
BROKEN = ("<broken>", "let x = iadd(1, true) in } in {")


class TestAggregation:
    def test_all_ok(self):
        report = check_batch(GOOD, BatchPolicy(jobs=2))
        assert report.ok and report.exit_code == 0
        assert [o.status for o in report.files] == ["ok"] * 4
        assert report.rollup()["ok"] == 4

    def test_results_stay_in_input_order_under_concurrency(self):
        report = check_batch(GOOD, BatchPolicy(jobs=4))
        assert [o.file for o in report.files] == [name for name, _ in GOOD]
        assert [o.index for o in report.files] == [0, 1, 2, 3]

    def test_diagnosed_file_does_not_stop_the_batch(self):
        report = check_batch([GOOD[0], BROKEN, GOOD[1]], BatchPolicy(jobs=2))
        assert report.exit_code == 1
        statuses = [o.status for o in report.files]
        assert statuses == ["ok", "diagnostics", "ok"]
        broken = report.files[1]
        assert broken.severities["error"] >= 1
        assert broken.diagnostics and broken.rendered

    def test_empty_batch(self):
        report = check_batch([], BatchPolicy())
        assert report.exit_code == 0 and len(report) == 0
        assert report.rollup()["files"] == 0

    def test_severity_rollup_totals(self):
        single = check_batch([BROKEN], BatchPolicy())
        errors = single.files[0].severities.get("error", 0)
        assert errors >= 1
        double = check_batch([BROKEN, BROKEN], BatchPolicy())
        assert double.rollup()["severities"]["error"] == 2 * errors


class TestContainment:
    def test_crash_and_hang_leave_the_rest_of_the_batch_complete(self):
        # The acceptance-criteria containment proof: file 1 crashes, file 2
        # hangs past the deadline; files 0 and 3 still check clean; the
        # exit code says partial failure; the report names both failures.
        schedule = FaultSchedule(specs=(
            FaultSpec(1, "check", "crash"),
            FaultSpec(2, "check", "hang"),
        ), hang_s=1.0)
        report = check_batch(
            GOOD,
            BatchPolicy(jobs=2, deadline_ms=200.0),
            fault_schedule=schedule,
        )
        assert report.exit_code == EXIT_PARTIAL
        assert [o.status for o in report.files] == [
            "ok", "crash", "timeout", "ok",
        ]
        crashed = report.files[1]
        assert crashed.crash is not None
        assert crashed.crash.exc_type == "ChaosCrash"
        assert "injected crash at check" in crashed.crash.message
        assert crashed.crash.traceback  # trimmed frames present
        assert report.files[2].crash is None  # a hang is not a crash

    def test_deadline_exhaustion_is_distinguishable_from_partial_failure(
        self,
    ):
        schedule = FaultSchedule(
            specs=(FaultSpec(1, "check", "hang"),), hang_s=1.0
        )
        report = check_batch(
            GOOD, BatchPolicy(jobs=2, deadline_ms=150.0),
            fault_schedule=schedule,
        )
        assert report.exit_code == EXIT_DEADLINE

    def test_ambient_inject_fault_propagates_into_workers(self):
        # Thread-local fault state crosses into the pool on purpose.
        with inject_fault("check", ChaosCrash("ambient boom")):
            report = check_batch(GOOD[:2], BatchPolicy(jobs=2))
        assert all(o.status == "crash" for o in report.files)
        assert all(
            "ambient boom" in o.crash.message for o in report.files
        )

    def test_worker_level_type_error_is_contained(self):
        # Garbage *inside* an attempt (text=None blows up in the lexer) is
        # a worker crash, contained like any other.
        report = check_batch([("<x>", None)], BatchPolicy())
        assert report.files[0].status == "crash"
        assert report.files[0].crash.exc_type == "TypeError"

    def test_coordinator_bug_is_not_contained(self):
        # An exception out of the coordinator itself must propagate (the
        # CLI maps it to exit 3 — total failure, not partial): a source
        # that is not a (filename, text) pair breaks the fan-out loop.
        with pytest.raises(ValueError):
            check_batch([("<only-a-name>",)], BatchPolicy())

    @pytest.mark.parametrize("cap", [0, -3])
    def test_error_cap_below_one_is_refused(self, cap):
        # Refused when the policy is built, before any file is checked.
        with pytest.raises(ValueError, match="max_errors"):
            check_batch(GOOD[:1], BatchPolicy(max_errors=cap))


class TestDeterminism:
    def test_byte_identical_reports_modulo_timing(self):
        schedule = FaultSchedule(specs=(
            FaultSpec(1, "check", "crash"),
            FaultSpec(2, "check", "hang", attempts=frozenset({0})),
        ), hang_s=0.6)
        policy = BatchPolicy(
            jobs=3, deadline_ms=150.0, retry=RetryPolicy(max_retries=1),
        )
        runs = [
            check_batch(GOOD, policy, fault_schedule=schedule)
            for _ in range(3)
        ]
        canonicals = {r.canonical_json() for r in runs}
        assert len(canonicals) == 1
        # Retry and injection records are part of the canonical surface.
        blob = json.loads(runs[0].canonical_json())
        attempts = blob["files"][1]["attempts"]
        assert [a["injected"] for a in attempts] == [["check:crash"]] * 2

    def test_canonical_json_strips_only_timing_fields(self):
        report = check_batch(GOOD[:1], BatchPolicy())
        full = report.to_json()
        canonical = json.loads(report.canonical_json())
        assert "elapsed_ms" in full and "elapsed_ms" not in canonical
        assert "duration_ms" in full["files"][0]["attempts"][0]
        assert "duration_ms" not in canonical["files"][0]["attempts"][0]
        assert canonical["schema"] == full["schema"]
        assert canonical["rollup"] == full["rollup"]

    def test_jobs_do_not_change_the_report(self):
        for jobs in (1, 2, 4):
            report = check_batch(GOOD, BatchPolicy(jobs=jobs))
            assert report.canonical_json() == check_batch(
                GOOD, BatchPolicy(jobs=jobs)
            ).canonical_json()
        # Only the policy echo differs across jobs values.
        one = json.loads(check_batch(GOOD, BatchPolicy(jobs=1))
                         .canonical_json())
        four = json.loads(check_batch(GOOD, BatchPolicy(jobs=4))
                          .canonical_json())
        assert one["files"] == four["files"]

    def test_canonical_tracebacks_are_layout_free(self):
        from repro.service.report import BatchReport, CrashReport, FileOutcome

        def crashed(root, line):
            crash = CrashReport(
                exc_type="ChaosCrash", message="boom", traceback=(
                    "Traceback (most recent call last):",
                    f'  File "{root}/repro/pipeline.py", line {line}, '
                    "in _run_stages",
                    '    _maybe_fault("check")',
                    f'  File "{root}/repro/pipeline.py", line {line - 150}, '
                    "in _maybe_fault",
                    "    raise fault",
                    "repro.service.faults.ChaosCrash: boom",
                ),
            )
            return BatchReport(files=(FileOutcome(
                file="a.fg", index=0, status="crash", ok=False, crash=crash,
            ),))

        here, there = crashed("/srv/a/src", 260), crashed("/home/b/src", 231)
        assert here.to_json() != there.to_json()
        assert here.canonical_json() == there.canonical_json()
        canonical = json.loads(here.canonical_json())
        assert canonical["files"][0]["crash"]["traceback"] == [
            "pipeline.py in _run_stages", "pipeline.py in _maybe_fault",
        ]


class TestObservability:
    def test_batch_counters_and_spans(self):
        schedule = FaultSchedule(
            specs=(FaultSpec(1, "check", "crash"),), hang_s=0.2
        )
        inst = Instrumentation.enabled(trace=True)
        report = check_batch(
            [GOOD[0], GOOD[1], BROKEN],
            BatchPolicy(jobs=2, retry=RetryPolicy(max_retries=1)),
            instrumentation=inst,
            fault_schedule=schedule,
        )
        metrics = inst.metrics
        assert metrics.counter("batch.files") == 3
        assert metrics.counter("batch.ok") == 1
        assert metrics.counter("batch.crash") == 1
        assert metrics.counter("batch.diagnostics") == 1
        # One file crashed on both of its attempts: two attempts, one retry.
        assert metrics.counter("batch.retries") == 1
        assert metrics.histogram("batch.attempts").count == 3
        names = [span.name for span in inst.tracer.spans]
        assert names.count("service.check_batch") == 1
        assert names.count("service.file") == 3
        file_spans = [
            s for s in inst.tracer.spans if s.name == "service.file"
        ]
        assert [s.attrs["status"] for s in file_spans] == [
            "ok", "crash", "diagnostics",
        ]
        assert report.exit_code == EXIT_PARTIAL
