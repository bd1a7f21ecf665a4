"""The supervised worker pool: containment, respawn, degradation, chaos.

Everything here spawns real worker processes, so the corpus stays tiny and
the heavier scenarios are marked slow.  The invariants under test are the
ISSUE's acceptance criteria: the batch always terminates, every task is
reported exactly once, worker kills become ``worker-lost`` retries with
respawns recorded, budget exhaustion degrades to in-process execution
instead of hanging, and canonical digests are byte-identical across
rounds.
"""

import os
import sys

import pytest

from repro.service import (
    BatchPolicy,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    WorkerKillSpec,
    check_batch,
)
from repro.testing import run_chaos

TINY = "iadd(1, 2)"
BROKEN = "iadd(1, true)"


def pool_policy(**overrides):
    defaults = dict(
        isolate="pool", pool_workers=2, deadline_ms=30_000.0,
        retry=RetryPolicy(max_retries=2),
    )
    defaults.update(overrides)
    return BatchPolicy(**defaults)


@pytest.mark.slow
class TestPoolBasics:
    def test_clean_batch_round_trips_every_file(self):
        items = [(f"f{i}.fg", TINY) for i in range(5)] + [("bad.fg", BROKEN)]
        report = check_batch(items, pool_policy())
        assert [f.status for f in report.files] == ["ok"] * 5 + [
            "diagnostics"
        ]
        # The diagnosed file's report survives the trip through a worker.
        bad = report.files[5]
        assert bad.severities.get("error", 0) >= 1
        assert bad.diagnostics and bad.rendered
        assert bad.crash is None
        assert report.pool is not None
        assert report.pool["workers"] == 2
        assert report.pool["respawns"] == 0
        assert not report.pool["degraded"]

    def test_pool_caps_workers_at_the_task_count(self):
        report = check_batch([("one.fg", TINY)], pool_policy(pool_workers=8))
        assert report.pool["workers"] == 1

    def test_empty_batch(self):
        report = check_batch([], pool_policy())
        assert len(report.files) == 0
        assert report.exit_code == 0
        # No pool is opened for nothing; the canonical digest holds the 0.
        assert report.pool["workers"] == 0

    def test_worker_crash_fault_is_contained_in_the_worker(self):
        # A mere exception must not cost a worker: the pool contains it as
        # a structured crash result and the same process serves the retry.
        schedule = FaultSchedule(specs=(
            FaultSpec(0, "check", "crash", attempts=frozenset({0})),
        ))
        report = check_batch(
            [("f0.fg", TINY), ("f1.fg", TINY)], pool_policy(),
            fault_schedule=schedule,
        )
        assert report.files[0].status == "ok"
        assert [a.status for a in report.files[0].attempts] == [
            "crash", "ok",
        ]
        assert report.pool["worker_lost"] == 0
        assert report.pool["respawns"] == 0


@pytest.mark.slow
class TestWorkerLoss:
    def test_sigkilled_worker_is_respawned_and_task_retried(self):
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=1),))
        report = check_batch(
            [(f"f{i}.fg", TINY) for i in range(4)], pool_policy(),
            fault_schedule=schedule,
        )
        assert [f.status for f in report.files] == ["ok"] * 4
        victim = report.files[1]
        assert [(a.status, a.fault) for a in victim.attempts] == [
            ("crash", "worker-lost"), ("ok", None),
        ]
        assert victim.attempts[0].retryable
        assert report.pool["worker_lost"] == 1
        assert report.pool["respawns"] == 1
        assert report.exit_code == 0

    def test_worker_lost_crash_report_names_the_pool_wall(self):
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=0),))
        report = check_batch(
            [("f0.fg", TINY)],
            pool_policy(retry=RetryPolicy(max_retries=0)),
            fault_schedule=schedule,
        )
        outcome = report.files[0]
        assert outcome.status == "crash"
        assert outcome.crash.exc_type == "WorkerLost"
        assert outcome.crash.where == "pool"
        assert outcome.crash.returncode == -9  # SIGKILL wait status

    def test_os_exit_inside_a_task_is_worker_lost(self):
        # The "kill" chaos kind calls os._exit(13) inside the worker; only
        # the supervisor's process wall can catch that.  File 2 dies on
        # every attempt, so its final crash report keeps the wait status.
        schedule = FaultSchedule(specs=(
            FaultSpec(0, "check", "kill", attempts=frozenset({0})),
            FaultSpec(2, "check", "kill"),
        ))
        report = check_batch(
            [("f0.fg", TINY), ("f1.fg", TINY), ("f2.fg", TINY)],
            pool_policy(max_respawns=6),
            fault_schedule=schedule,
        )
        assert [f.status for f in report.files] == ["ok", "ok", "crash"]
        first = report.files[0].attempts[0]
        assert (first.status, first.fault) == ("crash", "worker-lost")
        doomed = report.files[2]
        assert [a.fault for a in doomed.attempts] == ["worker-lost"] * 3
        assert doomed.crash.where == "pool"
        assert doomed.crash.returncode == 13
        assert report.pool["respawns"] >= 4

    def test_budget_exhaustion_degrades_to_in_process(self):
        schedule = FaultSchedule(kills=(
            WorkerKillSpec(index=1), WorkerKillSpec(index=2),
        ))
        report = check_batch(
            [(f"f{i}.fg", TINY) for i in range(6)],
            pool_policy(max_respawns=0),
            fault_schedule=schedule,
        )
        # Both workers die, no respawn budget: the batch must still
        # complete every file via the in-process drain.
        assert [f.status for f in report.files] == ["ok"] * 6
        assert report.pool["degraded"]
        assert report.pool["retired"] == 2
        assert report.exit_code == 0

    def test_exhaustion_with_unretryable_kills_is_partial_failure(self):
        # No retries at all: the killed tasks stay crashes, but the batch
        # still terminates with the partial-failure exit code, not a hang.
        schedule = FaultSchedule(kills=(
            WorkerKillSpec(index=0), WorkerKillSpec(index=1),
        ))
        report = check_batch(
            [(f"f{i}.fg", TINY) for i in range(4)],
            pool_policy(max_respawns=0, retry=RetryPolicy(max_retries=0)),
            fault_schedule=schedule,
        )
        statuses = [f.status for f in report.files]
        assert statuses == ["crash", "crash", "ok", "ok"]
        assert report.exit_code == 5


@pytest.mark.slow
class TestPoolDeadlines:
    def test_hung_worker_is_killed_and_the_attempt_is_a_timeout(self):
        schedule = FaultSchedule(
            specs=(FaultSpec(0, "check", "hang", attempts=frozenset({0})),),
            hang_s=2.0,
        )
        report = check_batch(
            [("hang.fg", TINY), ("ok.fg", TINY)],
            pool_policy(deadline_ms=400.0),
            fault_schedule=schedule,
        )
        assert report.files[0].status == "ok"
        first = report.files[0].attempts[0]
        assert (first.status, first.fault) == ("timeout", "deadline")
        assert report.files[1].status == "ok"
        assert report.pool["deadline_kills"] == 1
        assert report.pool["respawns"] == 1


@pytest.mark.slow
class TestPoolChaos:
    def test_worker_kill_chaos_is_deterministic_across_rounds(self):
        # The acceptance criterion: kill >= 2 workers mid-batch, assert
        # termination, exactly-once results, recorded respawns, and
        # byte-identical canonical digests across rounds (run_chaos raises
        # on any violation).
        out = run_chaos(
            rounds=3, seed=7, isolate="pool", worker_kills=2,
            retries=2, max_respawns=6,
        )
        assert out["files"] == 5
        assert out["injected_kills"] == 2
        assert out["pool"]["worker_lost"] >= 2
        assert out["pool"]["respawns"] >= 2
        assert not out["pool"]["degraded"]

    def test_chaos_rejects_kills_outside_pool_mode(self):
        with pytest.raises(ValueError):
            run_chaos(isolate="none", worker_kills=1)

    def test_stray_stdout_noise_is_harmless_under_pool(self):
        # Regression companion to the framed-channel fix: a worker that
        # prints mid-check must still deliver a parseable framed result.
        schedule = FaultSchedule(specs=(FaultSpec(0, "check", "noise"),))
        report = check_batch(
            [("noisy.fg", TINY), ("quiet.fg", TINY)], pool_policy(),
            fault_schedule=schedule,
        )
        assert [f.status for f in report.files] == ["ok", "ok"]
        assert report.files[0].attempts[0].injected == ("check:noise",)

    def test_canonical_json_strips_volatile_pool_counters(self):
        import json

        report = check_batch(
            [("f0.fg", TINY), ("f1.fg", TINY)], pool_policy(),
        )
        canonical = json.loads(report.canonical_json())
        assert "steals" not in canonical["pool"]
        assert "heartbeat_misses" not in canonical["pool"]
        assert "warm_ms" not in canonical["pool"]
        assert "respawns" in canonical["pool"]  # deterministic, stays


# ---------------------------------------------------------------------------
# Warm-up failure paths: a spawn that dies halfway must not leak
# ---------------------------------------------------------------------------

def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_spawn_process_failure_releases_every_fd(monkeypatch):
    """``Popen`` blowing up after the pipes exist must close all four
    pipe ends before the exception propagates."""
    from repro.service import pool as pool_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected: fork failed")

    monkeypatch.setattr(pool_mod.subprocess, "Popen", boom)
    slot = pool_mod._WorkerSlot(0)
    before = _open_fds()
    with pytest.raises(RuntimeError, match="injected"):
        pool_mod._spawn_process(slot, pool_policy())
    assert _open_fds() == before
    assert slot.proc is None
    assert slot.task_w == -1
    assert slot.result_r == -1


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_mid_spawn_failure_reaps_already_spawned_workers(monkeypatch):
    """If spawn k of n fails, the seat stays empty and the batch runs on
    the workers that did spawn; closing the batch's pool reaps them and
    leaves no pipe open."""
    from repro.service import pool as pool_mod

    real = pool_mod._spawn_process
    spawned = []

    def flaky(slot, policy):
        if spawned:  # first spawn succeeds, second dies mid-warm-up
            raise OSError("injected: out of file descriptors")
        real(slot, policy)
        spawned.append(slot.proc)

    monkeypatch.setattr(pool_mod, "_spawn_process", flaky)
    items = [(f"f{i}.fg", TINY) for i in range(4)]
    before = _open_fds()
    report = check_batch(items, pool_policy())
    assert [f.file for f in report.files] == [name for name, _ in items]
    assert [f.status for f in report.files] == ["ok"] * 4
    assert report.pool["workers"] == 2
    assert report.pool["spawned"] == 1
    assert not report.pool["degraded"]
    (proc,) = spawned
    assert proc.poll() is not None, "worker 0 outlived the batch"
    assert _open_fds() == before


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_every_spawn_failing_degrades_to_in_process(monkeypatch):
    """No seat can spawn: the batch still gives every file one outcome,
    in-process, with ``degraded`` set."""
    from repro.service import pool as pool_mod

    def down(slot, policy):
        raise OSError("injected: out of file descriptors")

    monkeypatch.setattr(pool_mod, "_spawn_process", down)
    items = [(f"f{i}.fg", TINY) for i in range(3)] + [("bad.fg", BROKEN)]
    before = _open_fds()
    report = check_batch(items, pool_policy())
    assert [f.status for f in report.files] == ["ok"] * 3 + ["diagnostics"]
    assert report.pool["degraded"]
    assert report.pool["spawned"] == 0
    assert _open_fds() == before


@pytest.mark.slow
def test_persistent_pool_ensure_tolerates_spawn_failure(monkeypatch):
    """The serve daemon's pool: a seat whose spawn fails stays empty (the
    next ``ensure`` retries it) instead of wedging the daemon."""
    from repro.service import PersistentPool
    from repro.service import pool as pool_mod

    real = pool_mod._spawn_process

    def down(slot, policy):
        raise OSError("injected: resource exhaustion")

    pool = PersistentPool(pool_policy())
    try:
        monkeypatch.setattr(pool_mod, "_spawn_process", down)
        assert pool.ensure() == 0
        # The outage clears; the same seats fill on the next ensure.
        monkeypatch.setattr(pool_mod, "_spawn_process", real)
        assert pool.ensure() == 2
        assert pool.alive_workers == 2
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# What ``pool.spawned`` counts, and the empty-batch seat counts
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_one_shot_batch_counts_every_process_it_launches():
    schedule = FaultSchedule(kills=(WorkerKillSpec(index=1),))
    report = check_batch(
        [(f"f{i}.fg", TINY) for i in range(6)],
        pool_policy(recycle_after_tasks=2),
        fault_schedule=schedule,
    )
    pool = report.pool
    assert [f.status for f in report.files] == ["ok"] * 6
    assert pool["respawns"] == 1
    assert pool["spawned"] == (
        pool["workers"] + pool["respawns"] + pool["recycles"]
    )


@pytest.mark.slow
def test_warm_pool_batch_counts_only_its_own_spawns():
    from repro.service import PersistentPool

    items = [(f"f{i}.fg", TINY) for i in range(4)]
    with PersistentPool(pool_policy()) as pool:
        assert pool.ensure() == 2  # the daemon's eager warm-up
        clean = check_batch(items, pool_policy(), pool=pool)
        assert clean.pool["spawned"] == 0
        killed = check_batch(
            items, pool_policy(), pool=pool,
            fault_schedule=FaultSchedule(kills=(WorkerKillSpec(index=1),)),
        )
        assert killed.pool["respawns"] == 1
        assert killed.pool["spawned"] == 1
        # A worker that dies between batches is revived by the next
        # batch, and that launch is the next batch's.
        victim = pool.slots[0].proc
        victim.kill()
        victim.wait()
        revived = check_batch(items, pool_policy(), pool=pool)
        assert revived.pool["respawns"] == 0
        assert revived.pool["spawned"] == 1
        assert [f.status for f in revived.files] == ["ok"] * 4


def test_empty_batch_on_a_persistent_pool_reports_its_seats():
    from repro.service import PersistentPool

    with PersistentPool(pool_policy(pool_workers=3)) as pool:
        report = check_batch([], pool_policy(), pool=pool)
        assert report.pool["workers"] == 3
        assert pool.alive_workers == 0  # nothing spawned for nothing


# ---------------------------------------------------------------------------
# Spawn settings and ending a worker
# ---------------------------------------------------------------------------

def _flag(args, name):
    return args[args.index(name) + 1] if name in args else None


@pytest.mark.slow
def test_respawns_take_the_pools_spawn_settings_not_the_batchs():
    """A request's process settings must not outlive it: the worker that
    replaces one lost mid-batch is spawned under the pool's policy, so the
    next batch does not run on a worker with the request's rlimit and
    heartbeat period."""
    from repro.service import PersistentPool

    with PersistentPool(pool_policy(pool_workers=1)) as pool:
        report = check_batch(
            [("f0.fg", TINY)],
            pool_policy(pool_workers=1, max_worker_mem_mb=512,
                        heartbeat_ms=250),
            pool=pool,
            fault_schedule=FaultSchedule(kills=(WorkerKillSpec(index=0),)),
        )
        assert report.pool["respawns"] == 1
        (slot,) = pool.slots
        assert slot.alive
        assert _flag(slot.proc.args, "--heartbeat-ms") == "100.0"
        assert _flag(slot.proc.args, "--max-mem-mb") is None
        after = check_batch([("f1.fg", TINY)], pool_policy(), pool=pool)
        assert [f.status for f in after.files] == ["ok"]


@pytest.mark.slow
def test_a_garbled_result_frame_costs_one_attempt_not_a_stop_wait(
        monkeypatch):
    """A live worker whose result stream garbles is declared lost and
    killed at once: the supervisor must not wait on a process that is
    still blocked reading its task pipe."""
    import time

    from repro.service import PersistentPool, proto
    from repro.service.pool import STOP_WAIT_S

    real_feed = proto.FrameReader.feed
    garbled = []

    def feed(self, data):
        if not garbled and b'"type":"result"' in data:
            garbled.append(data)
            raise proto.FrameError("injected: garbled result frame")
        return real_feed(self, data)

    with PersistentPool(pool_policy(pool_workers=1)) as pool:
        assert pool.ensure() == 1
        monkeypatch.setattr(proto.FrameReader, "feed", feed)
        start = time.monotonic()
        report = check_batch([("f0.fg", TINY)], pool_policy(), pool=pool)
        elapsed = time.monotonic() - start
    assert garbled
    outcome = report.files[0]
    assert outcome.status == "ok"
    assert [(a.status, a.fault) for a in outcome.attempts] == [
        ("crash", "worker-lost"), ("ok", None),
    ]
    assert report.pool["worker_lost"] == 1
    assert report.pool["respawns"] == 1
    assert elapsed < STOP_WAIT_S
