"""The ``fg serve`` daemon: admission, deadlines, drain, and resume.

Every test stands up a real in-process :class:`~repro.service.Server` on a
Unix socket under a short tmp dir (AF_UNIX paths are length-capped) and
talks to it through the real client.  The executor and the select loop run
exactly as in production; only the process boundary is folded away.
"""

import os
import tempfile
import threading
import time

import pytest

from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    OpsLog,
    Tracer,
)
from repro.service import (
    BatchPolicy,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    ServeError,
    ServeOptions,
    Server,
    WorkerKillSpec,
    check_batch,
    check_remote,
    health,
    proto,
    replay,
    request_shutdown,
    resolve_policy,
)
from repro.service.client import connect, read_response
from repro.service.journal import Journal, begin_record, report_digest

GOOD = "let id = \\x : int. x in id(41)"
SLOW_DEADLINE_MS = 300.0


def _hang_schedule(deadline_ms=SLOW_DEADLINE_MS, index=0):
    # Pool workers only die by the supervisor's hard kill at
    # deadline + grace, so the hang must outlast both.
    return FaultSchedule(
        specs=(FaultSpec(index=index, stage="check", kind="hang"),),
        hang_s=deadline_ms * 3 / 1000.0,
    )


class _Daemon:
    """A live in-process daemon plus its exit summary."""

    def __init__(self, policy=None, metrics=False, **options):
        self.tmp = tempfile.TemporaryDirectory(prefix="fgsrv", dir="/tmp")
        self.socket_path = os.path.join(self.tmp.name, "fg.sock")
        self.policy = policy if policy is not None else BatchPolicy(
            isolate="pool", pool_workers=1,
        )
        self.options = ServeOptions(socket_path=self.socket_path, **options)
        self.metrics = MetricsRegistry() if metrics else None
        instrumentation = (
            Instrumentation(tracer=Tracer(), metrics=self.metrics)
            if metrics else None
        )
        self.server = Server(self.policy, self.options, instrumentation)
        self.summary = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.summary = self.server.serve()

    def __enter__(self):
        self._thread.start()
        assert self.server.ready.wait(20.0), "daemon never became ready"
        return self

    def __exit__(self, *exc):
        try:
            if self._thread.is_alive():
                try:
                    request_shutdown(self.socket_path)
                except Exception:
                    self.server.draining = True
                    self.server._wake()
                self._thread.join(timeout=30.0)
                assert not self._thread.is_alive(), "daemon failed to drain"
        finally:
            self.tmp.cleanup()

    def settle(self, timeout=30.0):
        """Wait until nothing is queued or in flight."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            snap = health(self.socket_path)
            if not snap["queued"] and not snap["in_flight"]:
                return snap
            time.sleep(0.02)
        raise AssertionError("daemon never settled")


# ---------------------------------------------------------------------------
# resolve_policy: the deadline-composition contract
# ---------------------------------------------------------------------------

def test_resolve_policy_overrides_fieldwise():
    base = BatchPolicy(jobs=2, verify=False)
    policy, echo = resolve_policy(base, {"verify": True, "max_errors": 3})
    assert policy.verify is True
    assert policy.max_errors == 3
    assert policy.jobs == 2
    assert echo == policy.to_json()


def test_resolve_policy_deadline_composes_as_minimum():
    base = BatchPolicy(deadline_ms=500.0)
    tightened, _ = resolve_policy(base, {"deadline_ms": 200.0})
    assert tightened.deadline_ms == 200.0
    # A client cannot *loosen* the server's deadline.
    loosened, _ = resolve_policy(base, {"deadline_ms": 5000.0})
    assert loosened.deadline_ms == 500.0


def test_resolve_policy_without_overrides_echoes_base():
    base = BatchPolicy(deadline_ms=750.0, isolate="pool")
    policy, echo = resolve_policy(base, None)
    assert echo == base.to_json()
    assert policy.deadline_ms == 750.0


def test_resolve_policy_rejects_unknown_keys_and_bad_shapes():
    base = BatchPolicy()
    with pytest.raises(ValueError):
        resolve_policy(base, {"no_such_knob": 1})
    with pytest.raises(ValueError):
        resolve_policy(base, ["not", "a", "dict"])
    # Only journal replay reads the retired "subprocess" mode as "pool".
    with pytest.raises(ValueError):
        resolve_policy(base, {"isolate": "subprocess"})
    with pytest.raises(ValueError, match="max_errors"):
        resolve_policy(base, {"max_errors": -3})


@pytest.mark.parametrize("field,value", [
    ("pool_workers", 3), ("heartbeat_ms", 50.0), ("max_worker_mem_mb", 512.0),
])
def test_resolve_policy_refuses_what_the_pool_fixes(field, value):
    # The pool spawns every worker under the server's policy: a request's
    # value would shape nothing, yet be echoed (and digested) as applied.
    with pytest.raises(ValueError, match=field):
        resolve_policy(BatchPolicy(isolate="pool"), {field: value})


@pytest.mark.parametrize("field,value", [
    ("max_queue", 0), ("max_queue", -1), ("retry_after_base_ms", -1),
    ("idle_timeout_s", 0.0), ("idle_timeout_s", -1.0),
    ("metrics_interval_s", 0.0), ("blackbox_interval_s", 0.0),
    ("max_rss_mb", 0.0), ("max_rss_mb", -5.0), ("ops_log_max_bytes", 0),
])
def test_serve_options_reject_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        ServeOptions(socket_path="fg.sock", **{field: value})


def test_serve_options_accept_their_bounds():
    options = ServeOptions(
        socket_path="fg.sock", max_queue=1, retry_after_base_ms=0,
        idle_timeout_s=0.001, metrics_interval_s=0.001,
        blackbox_interval_s=0.001, max_rss_mb=0.5, ops_log_max_bytes=1,
    )
    assert options.max_queue == 1 and options.retry_after_base_ms == 0
    # ``None`` switches the memory budget and log rotation off.
    assert ServeOptions(socket_path="fg.sock").max_rss_mb is None


# ---------------------------------------------------------------------------
# The live daemon
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_batch_round_trip_and_digest_matches_local_run():
    with _Daemon() as daemon:
        response = check_remote(
            daemon.socket_path, [("good.fg", GOOD)], timeout=60.0,
        )
        assert response["type"] == "report"
        assert response["exit_code"] == 0
        # The daemon's digest is the canonical digest of the same batch
        # run locally under the resolved policy — remote execution is
        # invisible in the report.
        local = check_batch([("good.fg", GOOD)], daemon.policy)
        assert response["digest"] == report_digest(local.canonical_json())


@pytest.mark.slow
def test_warm_requests_are_byte_identical():
    with _Daemon() as daemon:
        first = check_remote(
            daemon.socket_path, [("good.fg", GOOD)], timeout=60.0,
        )
        second = check_remote(
            daemon.socket_path, [("good.fg", GOOD)], timeout=60.0,
        )
        assert first["digest"] == second["digest"]
        # The wire report keeps its timing fields; identity is canonical.
        from repro.service import canonicalize

        assert canonicalize(first["report"]) == canonicalize(
            second["report"]
        )


@pytest.mark.slow
def test_health_reports_workers_and_served():
    with _Daemon(policy=BatchPolicy(isolate="pool", pool_workers=2)) \
            as daemon:
        snap = health(daemon.socket_path)
        assert snap["status"] == "ok"
        assert snap["workers"] == 2  # eagerly warmed before first request
        assert snap["served"] == 0
        check_remote(daemon.socket_path, [("good.fg", GOOD)], timeout=60.0)
        assert health(daemon.socket_path)["served"] == 1


@pytest.mark.slow
def test_empty_request_reports_the_daemon_seat_count():
    with _Daemon(policy=BatchPolicy(isolate="pool", pool_workers=2)) \
            as daemon:
        response = check_remote(daemon.socket_path, [], timeout=60.0)
        assert response["type"] == "report"
        assert response["report"]["pool"]["workers"] == 2


@pytest.mark.slow
def test_warm_daemon_batch_counts_only_its_own_spawns():
    policy = BatchPolicy(
        isolate="pool", pool_workers=2, retry=RetryPolicy(max_retries=2),
    )
    with _Daemon(policy=policy) as daemon:
        files = [(f"f{i}.fg", GOOD) for i in range(3)]
        clean = check_remote(daemon.socket_path, files, timeout=60.0)
        assert clean["report"]["pool"]["spawned"] == 0
        kill = FaultSchedule(kills=(WorkerKillSpec(index=1),))
        killed = check_remote(
            daemon.socket_path, files, schedule_json=kill.to_json(),
            timeout=60.0,
        )
        pool = killed["report"]["pool"]
        assert killed["exit_code"] == 0
        assert pool["respawns"] == 1
        assert pool["spawned"] == 1


@pytest.mark.slow
def test_overload_sheds_with_deterministic_retry_after():
    policy = BatchPolicy(
        isolate="pool", pool_workers=1, deadline_ms=SLOW_DEADLINE_MS,
    )
    with _Daemon(policy=policy, metrics=True, max_queue=1,
                 retry_after_base_ms=100) as daemon:
        hang = _hang_schedule().to_json()
        # Occupy the executor, then fill the queue's single seat — in
        # sequence, so neither step races the executor's pop.
        socks = []
        try:
            for want_queued in (0, 1):
                sock = connect(daemon.socket_path)
                sock.sendall(proto.encode_frame({
                    "type": "batch",
                    "sources": [["slow.fg", GOOD]],
                    "schedule": hang,
                }))
                socks.append(sock)
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    snap = health(daemon.socket_path)
                    if snap["in_flight"] and snap["queued"] == want_queued:
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError(
                        f"daemon never reached queued={want_queued}"
                    )
            shed = check_remote(
                daemon.socket_path, [("late.fg", GOOD)], timeout=10.0,
            )
            assert shed["type"] == "overload"
            # retry_after = base * (queued + in_flight) = 100 * 2.
            assert shed["retry_after_ms"] == 200
            assert daemon.metrics.counter("server.overload") == 1
            # The in-flight request reports; the queued one outwaited its
            # own 300ms deadline behind ~450ms of hang and is shed.
            assert read_response(socks[0])["type"] == "report"
            assert read_response(socks[1])["type"] == "shed"
        finally:
            for sock in socks:
                sock.close()


@pytest.mark.slow
def test_request_deadline_bounds_queue_wait():
    """A request whose own deadline expires while queued is shed, never
    run — the work would be wasted on a caller that stopped waiting."""
    policy = BatchPolicy(
        isolate="pool", pool_workers=1, deadline_ms=SLOW_DEADLINE_MS,
    )
    with _Daemon(policy=policy, metrics=True) as daemon:
        sock = connect(daemon.socket_path)
        try:
            sock.sendall(proto.encode_frame({
                "type": "batch",
                "sources": [["slow.fg", GOOD]],
                "schedule": _hang_schedule().to_json(),
            }))
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if health(daemon.socket_path)["in_flight"]:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("hang request never went in flight")
            # Queued behind ~deadline+grace of hang with a 50ms budget.
            shed = check_remote(
                daemon.socket_path, [("late.fg", GOOD)],
                policy_overrides={"deadline_ms": 50.0}, timeout=30.0,
            )
            assert shed["type"] == "shed"
            assert shed["reason"] == "queue-deadline"
            response = read_response(sock)
            assert response["type"] == "report"
        finally:
            sock.close()


@pytest.mark.slow
def test_disconnect_cancels_queued_requests():
    policy = BatchPolicy(
        isolate="pool", pool_workers=1, deadline_ms=SLOW_DEADLINE_MS,
    )
    with _Daemon(policy=policy, metrics=True) as daemon:
        ghost = connect(daemon.socket_path)
        payload = proto.encode_frame({
            "type": "batch",
            "sources": [["slow.fg", GOOD]],
            "schedule": _hang_schedule().to_json(),
        })
        # Two slow requests: the serial executor guarantees the second is
        # still queued when the client vanishes.
        ghost.sendall(payload + payload)
        reader = proto.FrameReader()
        accepted = []
        while len(accepted) < 2:
            chunk = ghost.recv(65536)
            assert chunk, "daemon closed before accepting"
            accepted += [f for f in reader.feed(chunk)
                         if f.get("type") == "accepted"]
        ghost.close()
        daemon.settle()
        assert daemon.metrics.counter("server.disconnects") >= 1
        assert daemon.metrics.counter("server.cancelled") >= 1
        # The daemon survived: the pool still answers.
        after = check_remote(
            daemon.socket_path, [("good.fg", GOOD)], timeout=60.0,
        )
        assert after["type"] == "report"
        assert after["exit_code"] == 0
        # The cancelled request is journaled as such.
        journal = replay(daemon.options.effective_journal_path())
        cancelled = [r for r in journal.records if r["op"] == "cancel"]
        assert any(
            r["reason"] == "client-disconnected" for r in cancelled
        )


@pytest.mark.slow
def test_slow_loris_connection_is_idle_closed():
    with _Daemon(metrics=True, idle_timeout_s=0.3) as daemon:
        loris = connect(daemon.socket_path)
        try:
            loris.sendall(proto.encode_frame({"type": "health"})[:5])
            loris.settimeout(15.0)
            assert loris.recv(65536) == b"", "stalled conn never closed"
        finally:
            loris.close()
        assert daemon.metrics.counter("server.idle_closed") == 1
        # Still serving afterwards.
        assert health(daemon.socket_path)["status"] == "ok"


@pytest.mark.slow
def test_shutdown_request_drains_and_sheds_newcomers():
    policy = BatchPolicy(
        isolate="pool", pool_workers=1, deadline_ms=SLOW_DEADLINE_MS,
    )
    with _Daemon(policy=policy, metrics=True) as daemon:
        # An in-flight hang holds the drain open long enough for the late
        # request to be shed by a daemon that is provably still alive.
        sock = connect(daemon.socket_path)
        try:
            sock.sendall(proto.encode_frame({
                "type": "batch",
                "sources": [["slow.fg", GOOD]],
                "schedule": _hang_schedule().to_json(),
            }))
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if health(daemon.socket_path)["in_flight"]:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("hang request never went in flight")
            response = request_shutdown(daemon.socket_path)
            assert response == {"type": "shutdown", "draining": True}
            late = check_remote(
                daemon.socket_path, [("late.fg", GOOD)], timeout=10.0,
            )
            assert late["type"] == "draining"
            assert "retry_after_ms" in late
            # The in-flight request still gets its report: drain finishes
            # admitted work, it only refuses new work.
            report = read_response(sock)
            assert report["type"] == "report"
        finally:
            sock.close()
    assert daemon.summary is not None
    assert daemon.summary["served"] == 1
    assert daemon.metrics.counter("server.shed") == 1


@pytest.mark.slow
def test_malformed_requests_get_error_responses_not_death():
    with _Daemon() as daemon:
        bad_sources = check_remote(daemon.socket_path, [], timeout=10.0)
        assert bad_sources["type"] == "report"  # empty batch is legal
        from repro.service.client import roundtrip

        for payload in (
            {"type": "batch", "sources": "not-a-list"},
            {"type": "batch", "sources": [["one"]]},
            {"type": "batch", "sources": [["a.fg", GOOD]],
             "policy": {"bogus_knob": 1}},
            {"type": "batch", "sources": [["a.fg", GOOD]],
             "policy": {"isolate": "subprocess"}},
            {"type": "no-such-type"},
        ):
            response = roundtrip(daemon.socket_path, payload, timeout=10.0)
            assert response["type"] == "error", payload
        for field, value in (("pool_workers", 3), ("heartbeat_ms", 50.0),
                             ("max_worker_mem_mb", 512.0)):
            response = roundtrip(daemon.socket_path, {
                "type": "batch", "sources": [["a.fg", GOOD]],
                "policy": {field: value},
            }, timeout=10.0)
            assert response["type"] == "error", field
            assert field in response["message"], response
        # And the daemon is still alive and serving.
        assert health(daemon.socket_path)["status"] == "ok"
        after = check_remote(daemon.socket_path, [("good.fg", GOOD)],
                             timeout=60.0)
        assert after["type"] == "report" and after["exit_code"] == 0


@pytest.mark.slow
def test_two_daemons_cannot_share_a_socket():
    with _Daemon() as daemon:
        clash = Server(BatchPolicy(isolate="pool", pool_workers=1),
                       ServeOptions(socket_path=daemon.socket_path))
        with pytest.raises(ServeError):
            clash.serve()


# ---------------------------------------------------------------------------
# Resume: the journal replay path without a process kill
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_resume_only_reruns_unfinished_to_identical_digest(tmp_path):
    """A hand-written begin-without-done journal (what a SIGKILLed daemon
    leaves behind) replays to the digest of an uninterrupted run."""
    policy = BatchPolicy(isolate="pool", pool_workers=1)
    resolved, echo = resolve_policy(policy, None)
    journal_path = str(tmp_path / "fg.journal")
    with Journal(journal_path) as journal:
        journal.append(begin_record(1, [("good.fg", GOOD)], echo, None))
    summary = Server(policy, ServeOptions(
        socket_path=str(tmp_path / "unused.sock"),
        journal_path=journal_path,
        resume_only=True,
    )).serve()
    assert list(summary["resumed"]) == ["1"]
    expected = report_digest(
        check_batch([("good.fg", GOOD)], resolved).canonical_json()
    )
    assert summary["resumed"]["1"] == expected
    # The journal now carries the done record: a second resume is a no-op.
    again = Server(policy, ServeOptions(
        socket_path=str(tmp_path / "unused.sock"),
        journal_path=journal_path,
        resume_only=True,
    )).serve()
    assert again["resumed"] == {}
    assert again["served"] == 0


@pytest.mark.slow
def test_resume_replays_a_begin_record_that_overrode_the_pool(tmp_path):
    # Daemons before admission refused them journaled requests whose echo
    # carried pool_workers/heartbeat_ms/max_worker_mem_mb overrides.
    # Replay reads the echo as written: it does not go through admission.
    policy = BatchPolicy(isolate="pool", pool_workers=1)
    old = dict(policy.to_json(), pool_workers=3, heartbeat_ms=50.0,
               max_worker_mem_mb=512.0)
    journal_path = str(tmp_path / "fg.journal")
    with Journal(journal_path) as journal:
        journal.append(begin_record(1, [("good.fg", GOOD)], old, None))
    summary = Server(policy, ServeOptions(
        socket_path=str(tmp_path / "unused.sock"),
        journal_path=journal_path,
        resume_only=True,
    )).serve()
    expected = report_digest(check_batch(
        [("good.fg", GOOD)], BatchPolicy.from_json(old),
    ).canonical_json())
    assert summary["resumed"] == {"1": expected}


@pytest.mark.slow
def test_resume_only_repairs_a_torn_tail(tmp_path):
    policy = BatchPolicy(isolate="pool", pool_workers=1)
    _, echo = resolve_policy(policy, None)
    journal_path = str(tmp_path / "fg.journal")
    with Journal(journal_path) as journal:
        journal.append(begin_record(1, [("good.fg", GOOD)], echo, None))
    with open(journal_path, "ab") as handle:
        handle.write(b"\xabFGJ\x00\x00")  # torn mid-header
    summary = Server(policy, ServeOptions(
        socket_path=str(tmp_path / "unused.sock"),
        journal_path=journal_path,
        resume_only=True,
    )).serve()
    assert summary["truncated_bytes"] == 6
    assert list(summary["resumed"]) == ["1"]


# ---------------------------------------------------------------------------
# Resource-pressure degradation (unit level: no daemon thread, no socket
# bind — a bare Server plus a ring-only ops log)
# ---------------------------------------------------------------------------

def _bare_server(tmp_path, **options):
    server = Server(BatchPolicy(), ServeOptions(
        socket_path=os.path.join(str(tmp_path), "fg.sock"), **options,
    ))
    server.ops = OpsLog()  # ring only: events observable, nothing on disk
    return server


class _FakePool:
    """Stands in for PersistentPool where only the RSS view matters."""

    alive_workers = 1
    idle_respawns = 0

    def __init__(self, rss):
        self._rss = rss
        self.flushes = 0

    def rss_bytes(self):
        return self._rss

    def flush(self):
        self.flushes += 1

    def worker_status(self):
        return []


def _ops_events(server):
    return [r["event"] for r in server.ops.tail(50)]


def test_health_payload_carries_the_resource_flags(tmp_path):
    server = _bare_server(tmp_path)
    snap = server._health_payload()
    assert snap["metrics_file_writable"] is True
    assert snap["journal_writable"] is True
    assert snap["disk_headroom"] is True
    assert snap["memory_pressure"] is False
    assert snap["rss_bytes"] == 0
    assert snap["recycles"] == 0
    stats = server._stats_payload()
    assert stats["shed_memory"] == 0
    assert stats["recycles"] == 0
    assert stats["rss_bytes"] == 0


#: The live state ``health`` and ``stats`` both carry (fgbench reads
#: ``status`` and ``workers`` from ``health``).
SNAPSHOT_FIELDS = {
    "status", "queued", "in_flight", "workers", "workers_detail", "served",
    "uptime_ms", "shed_total", "respawns", "recycles", "rss_bytes",
}


def test_health_and_stats_carry_one_snapshot(tmp_path):
    server = _bare_server(tmp_path)
    server.pool = _FakePool(rss=3 * 1024)
    health, stats = server._health_payload(), server._stats_payload()
    assert set(health) == SNAPSHOT_FIELDS | {
        "type", "queue_wait_ms_p95", "memory_pressure", "ops_log_writable",
        "metrics_file_writable", "journal_writable", "disk_headroom",
    }
    assert set(stats) == SNAPSHOT_FIELDS | {
        "type", "latency_ms", "queue_wait_ms", "worker_utilization",
        "shed_memory", "ops_seq",
    }
    for key in SNAPSHOT_FIELDS - {"uptime_ms"}:
        assert health[key] == stats[key], key
    assert (health["type"], stats["type"]) == ("health", "stats")
    assert health["status"] == "ok" and health["workers"] == 1
    assert health["rss_bytes"] == 3 * 1024


def test_memory_pressure_is_visible_before_it_sheds(tmp_path):
    server = _bare_server(tmp_path, max_rss_mb=1.0)
    server.pool = _FakePool(rss=2 * 1024 * 1024)
    snap = server._health_payload()
    assert snap["memory_pressure"] is True
    assert snap["rss_bytes"] == 2 * 1024 * 1024


def test_memory_pressure_sheds_at_admission(tmp_path):
    import selectors
    import socket

    from repro.service.server import _Conn

    server = _bare_server(tmp_path, max_rss_mb=1.0,
                          retry_after_base_ms=100)
    server.pool = _FakePool(rss=2 * 1024 * 1024)
    server.sel = selectors.DefaultSelector()
    ours, theirs = socket.socketpair()
    try:
        conn = _Conn(ours)
        server.sel.register(ours, selectors.EVENT_READ, conn)
        server._admit(conn, {
            "type": "batch", "sources": [["good.fg", GOOD]],
        })
        response = read_response(theirs)
    finally:
        server.sel.close()
        ours.close()
        theirs.close()
    assert response["type"] == "shed"
    assert response["reason"] == "memory-pressure"
    # Deterministic hint: base * (queued + in_flight); the bare server
    # is idle, so the client may retry immediately.
    assert response["retry_after_ms"] == 0
    assert server.shed_memory == 1
    # The idle daemon flushed heartbeat chatter before judging RSS.
    assert server.pool.flushes == 1
    shed = [r for r in server.ops.tail(10) if r["event"] == "shed"]
    assert shed and shed[0]["reason"] == "memory-pressure"
    assert shed[0]["rss_bytes"] == 2 * 1024 * 1024


def test_admission_is_not_shed_below_the_rss_budget(tmp_path):
    import selectors
    import socket

    from repro.service.server import _Conn

    server = _bare_server(tmp_path, max_rss_mb=1024.0)
    server.pool = _FakePool(rss=1024)
    server.sel = selectors.DefaultSelector()
    ours, theirs = socket.socketpair()
    try:
        conn = _Conn(ours)
        server.sel.register(ours, selectors.EVENT_READ, conn)
        server._admit(conn, {
            "type": "batch", "sources": [["good.fg", GOOD]],
        })
        reader = proto.FrameReader()
        frames = list(reader.feed(theirs.recv(65536)))
    finally:
        server.sel.close()
        ours.close()
        theirs.close()
    # Below budget: the request was accepted and queued, nothing shed.
    assert server.shed_memory == 0
    assert len(server.queue) == 1
    assert frames and frames[0]["type"] == "accepted"


def test_error_cap_below_one_is_refused_before_the_journal(tmp_path):
    import selectors
    import socket

    from repro.service.server import _Conn

    server = _bare_server(tmp_path)
    journal_path = str(tmp_path / "fg.journal")
    server.journal = Journal(journal_path)
    server.sel = selectors.DefaultSelector()
    ours, theirs = socket.socketpair()
    try:
        conn = _Conn(ours)
        server.sel.register(ours, selectors.EVENT_READ, conn)
        server._admit(conn, {
            "type": "batch", "sources": [["good.fg", GOOD]],
            "policy": {"max_errors": 0},
        })
        theirs.settimeout(10.0)
        (response,) = proto.FrameReader().feed(theirs.recv(65536))
    finally:
        server.sel.close()
        server.journal.close()
        ours.close()
        theirs.close()
    assert response["type"] == "error"
    assert "max_errors" in response["message"]
    assert not server.queue
    assert replay(journal_path).records == []


def test_metrics_file_unwritable_degrades_loudly_and_recovers(tmp_path):
    from dataclasses import replace

    bad = os.path.join(str(tmp_path), "no-such-dir", "metrics.prom")
    server = _bare_server(tmp_path, metrics_file=bad,
                          metrics_interval_s=0.1)
    server._metrics_due = 0.0
    server._maybe_write_metrics()
    assert server.metrics_file_writable is False
    assert "metrics-file-unwritable" in _ops_events(server)
    assert server._health_payload()["metrics_file_writable"] is False
    # Only the transition is an event: a second failure stays quiet.
    server._metrics_due = 0.0
    server._maybe_write_metrics()
    assert _ops_events(server).count("metrics-file-unwritable") == 1
    # Retarget somewhere writable: the next snapshot recovers the flag.
    good_path = os.path.join(str(tmp_path), "metrics.prom")
    server.options = replace(server.options, metrics_file=good_path)
    server._metrics_due = 0.0
    server._maybe_write_metrics()
    assert server.metrics_file_writable is True
    assert "metrics-file-recovered" in _ops_events(server)
    with open(good_path, encoding="utf-8") as fh:
        assert "fg_shed_memory" in fh.read()


def test_journal_append_failure_degrades_loudly_and_recovers(tmp_path):
    class _BrokenJournal:
        def __init__(self):
            self.works = False

        def append(self, record):
            if not self.works:
                raise OSError(28, "No space left on device")

    server = _bare_server(tmp_path)
    server.journal = _BrokenJournal()
    server._journal_append({"kind": "begin"})
    assert server.journal_writable is False
    assert "journal-unwritable" in _ops_events(server)
    # One event per outage, not one per append.
    server._journal_append({"kind": "begin"})
    assert _ops_events(server).count("journal-unwritable") == 1
    server.journal.works = True
    server._journal_append({"kind": "done"})
    assert server.journal_writable is True
    assert "journal-recovered" in _ops_events(server)


def test_disk_pressure_probe_flips_the_flag_on_transition(tmp_path,
                                                          monkeypatch):
    from repro.observability import diskguard

    server = _bare_server(tmp_path)
    headroom = {"value": False}
    monkeypatch.setattr(diskguard, "has_headroom",
                        lambda path, need_bytes=0: headroom["value"])
    server._disk_due = 0.0
    server._maybe_check_disk()
    assert server.disk_headroom is False
    assert "disk-pressure" in _ops_events(server)
    # Cadence: an immediate re-probe is skipped entirely.
    server._maybe_check_disk()
    assert _ops_events(server).count("disk-pressure") == 1
    headroom["value"] = True
    server._disk_due = 0.0
    server._maybe_check_disk()
    assert server.disk_headroom is True
    assert "disk-recovered" in _ops_events(server)
