"""The resource governor: memhog containment, recycling, digest parity.

Three contracts from the hardening work are pinned here:

- a runaway allocation ("memhog") is contained as a retryable
  ``"memory"`` fault with a CrashReport, never a lost result;
- graceful recycling never loses or duplicates an outcome, even when it
  fires between every task;
- the governor knobs are operational, not semantic — canonical report
  bytes are identical governor-on vs governor-off.
"""

import os

import pytest

from repro.observability import flightrec, read_bundle, validate_bundle
from repro.service import (
    BatchPolicy,
    EXIT_PARTIAL,
    FAULT_MEMORY,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    check_batch,
    is_retryable,
)
from repro.testing import FUZZ_SEEDS, run_chaos

GOOD = [(f"<mem{i}>", src) for i, src in enumerate(FUZZ_SEEDS[:4])]
MEMHOG_FIRST_ATTEMPT = FaultSchedule(specs=(
    FaultSpec(1, "check", "memhog", attempts=frozenset({0})),
))
MEMHOG_EVERY_ATTEMPT = FaultSchedule(specs=(
    FaultSpec(1, "check", "memhog"),
))


class TestTaxonomy:
    def test_memory_fault_is_retryable(self):
        # A budget trip dies with the worker's heap, not with the input:
        # the retry runs on a fresh seat and usually lands clean.
        assert is_retryable(FAULT_MEMORY)

    def test_governor_knob_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_worker_mem_mb=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_worker_mem_mb=-64)
        with pytest.raises(ValueError):
            BatchPolicy(recycle_rss_mb=0)
        with pytest.raises(ValueError):
            BatchPolicy(recycle_after_tasks=0)

    def test_policy_echo_carries_the_governor(self):
        policy = BatchPolicy(
            max_worker_mem_mb=512.0, recycle_rss_mb=256.0,
            recycle_after_tasks=8,
        )
        blob = policy.to_json()
        assert blob["max_worker_mem_mb"] == 512.0
        assert blob["recycle_rss_mb"] == 256.0
        assert blob["recycle_after_tasks"] == 8


class TestInProcessContainment:
    def test_memhog_is_contained_as_a_memory_outcome(self):
        report = check_batch(
            GOOD, BatchPolicy(), fault_schedule=MEMHOG_EVERY_ATTEMPT,
        )
        assert report.exit_code == EXIT_PARTIAL
        statuses = [o.status for o in report.files]
        assert statuses == ["ok", "memory", "ok", "ok"]
        hit = report.files[1]
        assert hit.crash is not None
        assert hit.crash.exc_type == "MemoryError"
        assert hit.attempts[0].fault == FAULT_MEMORY
        assert hit.attempts[0].retryable is True
        assert report.rollup()["memory"] == 1

    def test_a_retry_outruns_a_transient_memhog(self):
        report = check_batch(
            GOOD,
            BatchPolicy(retry=RetryPolicy(max_retries=1)),
            fault_schedule=MEMHOG_FIRST_ATTEMPT,
        )
        assert report.exit_code == 0
        hit = report.files[1]
        assert hit.status == "ok"
        assert [a.status for a in hit.attempts] == ["memory", "ok"]
        # The rollup counts final statuses: the outrun trip vanishes.
        assert report.rollup()["memory"] == 0
        assert report.rollup()["retries"] == 1

    def test_memory_trip_writes_its_own_bundle_kind(self, tmp_path):
        flightrec.configure(str(tmp_path))
        try:
            check_batch(
                GOOD, BatchPolicy(), fault_schedule=MEMHOG_EVERY_ATTEMPT,
            )
        finally:
            flightrec.configure(None)
        bundles = [p for p in flightrec.find_bundles(str(tmp_path))
                   if os.path.basename(p).startswith("crash-memory-")]
        assert len(bundles) == 1
        bundle = read_bundle(bundles[0])
        assert validate_bundle(bundle) == []
        assert bundle["fault"]["kind"] == "memory"
        assert bundle["fault"]["detail"]["files"] == ["<mem1>"]


@pytest.mark.slow
def test_memory_bundle_reports_the_borrowed_pools_budget(tmp_path):
    # A borrowed pool spawns its workers under its own policy, so the
    # budget that tripped is the pool's, not the request's.
    from repro.service.pool import PersistentPool

    flightrec.configure(str(tmp_path))
    try:
        with PersistentPool(BatchPolicy(isolate="pool", pool_workers=1,
                                        max_worker_mem_mb=512.0)) as pool:
            report = check_batch(
                GOOD, BatchPolicy(isolate="pool", max_worker_mem_mb=2048.0),
                fault_schedule=MEMHOG_EVERY_ATTEMPT, pool=pool,
            )
    finally:
        flightrec.configure(None)
    assert report.files[1].status == "memory"
    batch = [
        bundle for bundle in map(read_bundle, flightrec.find_bundles(
            str(tmp_path)))
        if bundle["fault"]["kind"] == "memory"
        and "files" in bundle["fault"]["detail"]
    ]
    assert len(batch) == 1
    assert batch[0]["fault"]["detail"]["max_worker_mem_mb"] == 512.0


class TestDigestParity:
    def test_canonical_bytes_ignore_the_governor_knobs(self):
        plain = check_batch(
            GOOD, BatchPolicy(), fault_schedule=MEMHOG_FIRST_ATTEMPT,
        )
        governed = check_batch(
            GOOD,
            BatchPolicy(max_worker_mem_mb=512.0, recycle_rss_mb=256.0,
                        recycle_after_tasks=4),
            fault_schedule=MEMHOG_FIRST_ATTEMPT,
        )
        assert governed.canonical_json() == plain.canonical_json()
        # ...while the policy echo itself still records the knobs.
        assert governed.to_json()["policy"]["max_worker_mem_mb"] == 512.0

    def test_chaos_digest_invariance_in_process(self):
        plain = run_chaos(rounds=1, seed=0, memhogs=2)
        governed = run_chaos(
            rounds=1, seed=0, memhogs=2,
            max_worker_mem_mb=4096.0, recycle_after_tasks=2,
        )
        assert governed["report_digest"] == plain["report_digest"]


@pytest.mark.slow
class TestPoolGovernor:
    def test_recycling_between_every_task_loses_nothing(self):
        files = [(f"<spin{i}>", FUZZ_SEEDS[i % len(FUZZ_SEEDS)])
                 for i in range(6)]
        report = check_batch(
            files,
            BatchPolicy(isolate="pool", pool_workers=2,
                        recycle_after_tasks=1),
        )
        assert [o.file for o in report.files] == [name for name, _ in files]
        assert [o.status for o in report.files] == ["ok"] * 6
        assert report.pool["recycles"] >= 1
        # Recycling is graceful — it must never burn the respawn budget.
        assert report.pool["respawns"] == 0

    def test_pool_memhog_trips_the_rlimit_and_recycles_the_seat(self):
        report = check_batch(
            GOOD,
            BatchPolicy(isolate="pool", pool_workers=2,
                        max_worker_mem_mb=512.0,
                        retry=RetryPolicy(max_retries=1)),
            fault_schedule=MEMHOG_FIRST_ATTEMPT,
        )
        hit = report.files[1]
        assert hit.status == "ok"
        assert hit.attempts[0].status == "memory"
        assert hit.attempts[0].fault == FAULT_MEMORY
        assert report.pool["recycles"] >= 1
        assert report.pool["respawns"] == 0

    def test_chaos_digest_invariance_under_real_rlimits(self):
        # The acceptance pin: a pool run with real 512 MiB rlimits,
        # recycling, and injected memhogs hashes identically to the same
        # schedule with the governor off entirely.
        governed = run_chaos(
            rounds=1, seed=3, isolate="pool", pool_workers=2,
            memhogs=2, max_worker_mem_mb=512.0, recycle_after_tasks=2,
            deadline_ms=2000.0,
        )
        plain = run_chaos(
            rounds=1, seed=3, isolate="pool", pool_workers=2,
            memhogs=2, deadline_ms=2000.0,
        )
        assert governed["report_digest"] == plain["report_digest"]
        assert governed["memory"] == 0  # transient: outrun by the retry
