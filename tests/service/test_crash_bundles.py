"""Crash bundles end to end: real faults produce schema-valid forensics.

Each test arms a temporary crash directory, drives a real fault through
the batch/pool/daemon stack — SIGKILLed workers, deadline kills,
contained crashes, a live daemon's debug request and blackbox — and
checks the resulting ``repro/crash-bundle v1`` names the fault and holds
the dead process's last recorded activity.
"""

import collections
import json
import os
import tempfile
import threading
import time

import pytest

from repro.observability import Instrumentation, Tracer, flightrec
from repro.service import (
    BatchPolicy,
    FaultSchedule,
    FaultSpec,
    ServeOptions,
    Server,
    WorkerKillSpec,
    check_batch,
    check_remote,
    debug_bundle,
    events,
    health,
    request_shutdown,
)

GOOD = "let id = \\x : int. x in id(41)"


@pytest.fixture
def crash_dir(tmp_path):
    """A configured bundle directory, unconfigured again afterwards."""
    target = tmp_path / "crash"
    flightrec.configure(str(target))
    try:
        yield str(target)
    finally:
        flightrec.configure(None)


def _bundles_by_kind(directory):
    by_kind = {}
    for path in flightrec.find_bundles(directory):
        bundle = flightrec.read_bundle(path)
        by_kind.setdefault(bundle["fault"]["kind"], []).append(bundle)
    return by_kind


class TestPoolBundles:
    def test_worker_kill_dumps_schema_valid_bundle(self, crash_dir):
        # The worker completes file 0 (the supervisor keeps that
        # attempt), then dies at the dispatch of file 1.
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=1),))
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch(
            [("a.fg", GOOD), ("b.fg", GOOD)], policy,
            fault_schedule=schedule,
        )
        assert report.files[0].ok
        by_kind = _bundles_by_kind(crash_dir)
        assert "worker-lost" in by_kind
        bundle = by_kind["worker-lost"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["file"] == "b.fg"
        assert bundle["pool"] is not None
        # The dead worker's last completed task, recorded by the
        # supervisor on its own clock and tagged with the worker pid.  The
        # ring is process-global recent history, so earlier pool runs in
        # the same process may contribute older worker spans too — the
        # span from *this* run must be among them.
        spans = bundle["rings"]["spans"]
        worker_files = [
            (s.get("attrs") or {}).get("file")
            for s in spans
            if s["name"] == "worker.task"
            and (s.get("attrs") or {}).get("worker_pid")
        ]
        assert "a.fg" in worker_files, spans

    def test_traced_worker_kill_bundle_holds_each_worker_span_once(
            self, crash_dir):
        # Under a trace the worker's spans reach this process only by
        # being grafted from the result frame (tagged ``pid``); the
        # bundle must not hold a second copy of any of them.
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=1),))
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch(
            [("a.fg", GOOD), ("b.fg", GOOD)], policy,
            fault_schedule=schedule,
            instrumentation=Instrumentation(tracer=Tracer()),
        )
        assert report.files[0].ok
        (bundle,) = _bundles_by_kind(crash_dir)["worker-lost"]
        pid = bundle["fault"]["detail"]["pid"]
        spans = [
            s for s in bundle["rings"]["spans"]
            if pid in ((s.get("attrs") or {}).get("pid"),
                       (s.get("attrs") or {}).get("worker_pid"))
        ]
        assert any(s["name"] == "pipeline.parse"
                   and s["attrs"].get("pid") == pid for s in spans), spans
        names = collections.Counter(s["name"] for s in spans)
        assert all(count == 1 for count in names.values()), names
        assert [s["attrs"]["file"] for s in spans
                if s["name"] == "worker.task"
                and s["attrs"].get("worker_pid") == pid] == ["a.fg"], spans

    def test_deadline_kill_dumps_bundle(self, crash_dir):
        schedule = FaultSchedule(
            specs=(FaultSpec(index=0, stage="check", kind="hang"),),
            hang_s=2.0,
        )
        policy = BatchPolicy(
            isolate="pool", pool_workers=1, deadline_ms=200.0,
        )
        report = check_batch([("hang.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].status == "timeout"
        by_kind = _bundles_by_kind(crash_dir)
        assert "deadline-kill" in by_kind
        bundle = by_kind["deadline-kill"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["file"] == "hang.fg"
        assert bundle["fault"]["detail"]["deadline_ms"] == 200.0

    def test_contained_crash_dumps_crash_report_bundle(self, crash_dir):
        schedule = FaultSchedule(
            specs=(FaultSpec(index=0, stage="check", kind="crash"),),
        )
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch([("boom.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].crash is not None
        by_kind = _bundles_by_kind(crash_dir)
        assert "crash-report" in by_kind
        bundle = by_kind["crash-report"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["files"] == ["boom.fg"]
        assert bundle["policy"]["isolate"] == "pool"

    def test_no_crash_dir_means_no_dump_and_no_failure(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.delenv(flightrec.ENV_CRASH_DIR, raising=False)
        flightrec.configure(None)
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=0),))
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch([("a.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].crash is not None
        assert list(tmp_path.iterdir()) == []


class _Daemon:
    """A live in-process daemon for bundle tests."""

    def __init__(self, **options):
        self.tmp = tempfile.TemporaryDirectory(prefix="fgcb", dir="/tmp")
        self.socket_path = os.path.join(self.tmp.name, "fg.sock")
        self.options = ServeOptions(socket_path=self.socket_path, **options)
        self.server = Server(
            BatchPolicy(isolate="pool", pool_workers=1), self.options,
        )
        self._thread = threading.Thread(
            target=self.server.serve, daemon=True,
        )

    def __enter__(self):
        self._thread.start()
        assert self.server.ready.wait(20.0), "daemon never became ready"
        return self

    def __exit__(self, *exc):
        try:
            if self._thread.is_alive():
                try:
                    request_shutdown(self.socket_path)
                except Exception:  # noqa: BLE001
                    pass
                self._thread.join(timeout=30.0)
        finally:
            self.tmp.cleanup()


class TestDaemonBundles:
    def test_debug_bundle_request_returns_and_writes_manual(self):
        with _Daemon(blackbox_interval_s=60.0) as daemon:
            response = debug_bundle(daemon.socket_path)
            assert response["type"] == "debug-bundle"
            bundle = response["bundle"]
            assert flightrec.validate_bundle(bundle) == []
            assert bundle["fault"]["kind"] == "manual"
            assert bundle["health"]["type"] == "health"
            assert bundle["policy"]["isolate"] == "pool"
            path = response["path"]
            assert path is not None and os.path.exists(path)
            on_disk = flightrec.read_bundle(path)
            assert on_disk["fault"]["kind"] == "manual"

    def test_debug_bundle_carries_the_journal_tail(self):
        """The tail is read with the journal's own framing: after three
        answered requests it ends with the third's begin and done."""
        with _Daemon(blackbox_interval_s=60.0) as daemon:
            responses = [
                check_remote(daemon.socket_path, [(f"r{i}.fg", GOOD)])
                for i in range(3)
            ]
            bundle = debug_bundle(daemon.socket_path)["bundle"]
        last = responses[-1]
        assert last["type"] == "report"
        begin, done = bundle["journal_tail"][-2:]
        assert begin["op"] == "begin" and done["op"] == "done"
        assert begin["request"] == done["request"] == last["request"]
        assert begin["sources"] == [["r2.fg", GOOD]]
        assert done["digest"] == last["digest"]
        assert [r["op"] for r in bundle["journal_tail"]] == [
            "begin", "done"] * 3

    def test_blackbox_written_live_and_removed_on_clean_exit(self):
        with _Daemon(blackbox_interval_s=0.05) as daemon:
            crash = daemon.options.effective_crash_dir()
            live = os.path.join(
                crash, f"live-{os.getpid()}.bundle.json"
            )
            deadline = time.monotonic() + 10.0
            while not os.path.exists(live):
                assert time.monotonic() < deadline, "no blackbox bundle"
                time.sleep(0.02)
            bundle = flightrec.read_bundle(live)
            assert flightrec.validate_bundle(bundle) == []
            assert bundle["fault"]["kind"] == "hard-death"
            request_shutdown(daemon.socket_path)
            daemon._thread.join(timeout=30.0)
            # Clean drain retracts the blackbox: if the file is still
            # there after the process is gone, it *is* the crash.
            assert not os.path.exists(live)

    def test_health_reports_unwritable_ops_log(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "ops.jsonl"
        with _Daemon(ops_log_path=str(missing),
                     blackbox_interval_s=60.0) as daemon:
            payload = health(daemon.socket_path)
            assert payload["ops_log_writable"] is False
            tail = events(daemon.socket_path, tail=50)["events"]
            warnings = [e for e in tail
                        if e["event"] == "ops-log-unwritable"]
            assert warnings and warnings[0]["path"] == str(missing)

    def test_health_reports_writable_ops_log(self):
        with _Daemon(blackbox_interval_s=60.0) as daemon:
            assert health(daemon.socket_path)["ops_log_writable"] is True
