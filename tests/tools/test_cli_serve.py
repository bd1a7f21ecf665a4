"""``fg serve`` / ``fg client``: the CLI surface of the daemon.

The daemon's own semantics live in ``tests/service/test_server.py``; here
the contract under test is the command-line mapping — flags to policy,
responses to exit codes (0/1 report, 2 usage, 4 shed, 6 overload), and
the ``--resume-only`` crash-recovery entry point CI drives.
"""

import json
import os
import tempfile
import threading
import time

import pytest

from repro.service import (
    BatchPolicy,
    EXIT_OVERLOAD,
    FaultSchedule,
    FaultSpec,
    ServeOptions,
    Server,
    check_batch,
    health,
    proto,
    resolve_policy,
)
from repro.service.client import connect, read_response
from repro.service.journal import Journal, begin_record, report_digest
from repro.tools.cli import EXIT_OK, EXIT_USAGE, main

GOOD = "let id = \\x : int. x in id(41)"
BROKEN = "iadd(1, true)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def daemon():
    """An in-process daemon matching ``fg serve`` defaults, plus its
    socket path (kept short for AF_UNIX)."""
    with tempfile.TemporaryDirectory(prefix="fgcli", dir="/tmp") as tmp:
        policy = BatchPolicy(
            isolate="pool", pool_workers=1, deadline_ms=300.0,
        )
        server = Server(policy, ServeOptions(
            socket_path=os.path.join(tmp, "fg.sock"),
        ))
        thread = threading.Thread(target=server.serve, daemon=True)
        thread.start()
        assert server.ready.wait(20.0)
        try:
            yield server
        finally:
            if thread.is_alive():
                server.draining = True
                server._wake()
                thread.join(timeout=30.0)


@pytest.mark.slow
class TestClientExitCodes:
    def test_clean_file_reports_exit_zero(self, capsys, daemon, tmp_path):
        (tmp_path / "good.fg").write_text(GOOD)
        code, out, _ = run_cli(
            capsys, "client", str(tmp_path / "good.fg"),
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        assert "ok" in out

    def test_diagnostics_exit_one(self, capsys, daemon, tmp_path):
        (tmp_path / "bad.fg").write_text(BROKEN)
        code, out, _ = run_cli(
            capsys, "client", str(tmp_path / "bad.fg"),
            "--socket", daemon.options.socket_path, "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["digest"]
        assert payload["files"][0]["status"] == "diagnostics"

    def test_no_daemon_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "good.fg").write_text(GOOD)
        code, _, err = run_cli(
            capsys, "client", str(tmp_path / "good.fg"),
            "--socket", str(tmp_path / "nowhere.sock"),
        )
        assert code == EXIT_USAGE
        assert "no daemon" in err

    def test_files_required_without_probe_flags(self, capsys, daemon):
        code, _, err = run_cli(
            capsys, "client", "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_USAGE
        assert "FILES are required" in err

    def test_health_probe(self, capsys, daemon):
        code, out, _ = run_cli(
            capsys, "client", "--socket", daemon.options.socket_path,
            "--health",
        )
        assert code == EXIT_OK
        snap = json.loads(out)
        assert snap["status"] == "ok"
        assert snap["workers"] == 1

    def test_chaos_hang_maps_to_deadline_exit(self, capsys, daemon,
                                              tmp_path):
        (tmp_path / "good.fg").write_text(GOOD)
        code, _, _ = run_cli(
            capsys, "client", str(tmp_path / "good.fg"),
            "--socket", daemon.options.socket_path,
            "--chaos", "0:check:hang", "--deadline-ms", "250",
        )
        from repro.service import EXIT_DEADLINE

        assert code == EXIT_DEADLINE

    def test_draining_daemon_sheds_with_exit_six(self, capsys, daemon,
                                                 tmp_path):
        (tmp_path / "good.fg").write_text(GOOD)
        socket_path = daemon.options.socket_path
        # Hold the drain open with an in-flight hang, then drain.
        hang = FaultSchedule(
            specs=(FaultSpec(0, "check", "hang"),), hang_s=0.9,
        )
        sock = connect(socket_path)
        try:
            sock.sendall(proto.encode_frame({
                "type": "batch", "sources": [["slow.fg", GOOD]],
                "schedule": hang.to_json(),
            }))
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if health(socket_path)["in_flight"]:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("request never went in flight")
            code, _, err = run_cli(
                capsys, "client", "--socket", socket_path, "--shutdown",
            )
            assert code == EXIT_OK
            assert "draining" in err
            code, _, err = run_cli(
                capsys, "client", str(tmp_path / "good.fg"),
                "--socket", socket_path,
            )
            assert code == EXIT_OVERLOAD
            assert "retry after" in err
            assert read_response(sock)["type"] == "report"
        finally:
            sock.close()


@pytest.mark.slow
class TestServeCli:
    def test_resume_only_prints_digest_summary(self, capsys, tmp_path):
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        _, echo = resolve_policy(policy, None)
        journal_path = str(tmp_path / "fg.journal")
        with Journal(journal_path) as journal:
            journal.append(
                begin_record(1, [("good.fg", GOOD)], echo, None)
            )
        code, out, _ = run_cli(
            capsys, "serve",
            "--socket", str(tmp_path / "unused.sock"),
            "--journal", journal_path,
            "--pool-workers", "1",
            "--resume-only",
        )
        assert code == EXIT_OK
        summary = json.loads(out)
        expected = report_digest(
            check_batch([("good.fg", GOOD)], policy).canonical_json()
        )
        assert summary["resumed"] == {"1": expected}

    def test_socket_collision_is_usage_error(self, capsys, daemon):
        code, _, err = run_cli(
            capsys, "serve", "--socket", daemon.options.socket_path,
            "--pool-workers", "1",
        )
        assert code == EXIT_USAGE
        assert "already serving" in err

    def test_bad_policy_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "serve", "--socket", str(tmp_path / "fg.sock"),
            "--pool-workers", "0",
        )
        assert code == EXIT_USAGE
        assert "fg serve:" in err


@pytest.mark.parametrize("flag,value,field", [
    ("--max-queue", "0", "max_queue"),
    ("--retry-after-ms", "-1", "retry_after_base_ms"),
    ("--idle-timeout-ms", "0", "idle_timeout_s"),
    ("--metrics-interval-ms", "-5", "metrics_interval_s"),
    ("--max-rss-mb", "0", "max_rss_mb"),
    ("--ops-log-max-bytes", "0", "ops_log_max_bytes"),
])
def test_bad_serve_option_is_usage_error(capsys, tmp_path, flag, value,
                                         field):
    # Refused before any socket or worker exists: no daemon that would
    # shed every request (``--max-queue 0``) or spin on a zero interval.
    socket_path = tmp_path / "fg.sock"
    code, out, err = run_cli(
        capsys, "serve", "--socket", str(socket_path),
        "--pool-workers", "1", flag, value,
    )
    assert code == EXIT_USAGE
    assert err.startswith("fg serve: ") and field in err
    assert "serving on" not in err and out == ""
    assert not socket_path.exists()


@pytest.mark.slow
class TestClientTelemetryCli:
    """``fg client stats`` / ``fg client events``: the live-telemetry CLI."""

    def _serve_one(self, capsys, daemon, tmp_path):
        (tmp_path / "good.fg").write_text(GOOD)
        code, _, _ = run_cli(
            capsys, "client", str(tmp_path / "good.fg"),
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK

    def test_stats_human_rendering(self, capsys, daemon, tmp_path):
        self._serve_one(capsys, daemon, tmp_path)
        code, out, _ = run_cli(
            capsys, "client", "stats",
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        assert "served=1" in out
        assert "latency_ms" in out and "queue_wait_ms" in out
        assert "worker[0]" in out

    def test_stats_json_schema(self, capsys, daemon, tmp_path):
        self._serve_one(capsys, daemon, tmp_path)
        code, out, _ = run_cli(
            capsys, "client", "stats", "--json",
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        snap = json.loads(out)
        assert snap["type"] == "stats"
        assert snap["served"] == 1
        for window in ("latency_ms", "queue_wait_ms"):
            assert set(snap[window]) >= {"count", "p50", "p95", "p99",
                                         "max"}
        assert 0.0 <= snap["worker_utilization"] <= 1.0
        assert snap["workers_detail"][0]["alive"] is True

    def test_events_tail(self, capsys, daemon, tmp_path):
        self._serve_one(capsys, daemon, tmp_path)
        code, out, _ = run_cli(
            capsys, "client", "events", "--tail", "5",
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        assert "worker-spawn" in out

    def test_events_json(self, capsys, daemon):
        code, out, _ = run_cli(
            capsys, "client", "events", "--json",
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["type"] == "events"
        seqs = [r["seq"] for r in payload["events"]]
        assert seqs == sorted(seqs)

    def test_keyword_yields_to_a_real_file(self, capsys, daemon, tmp_path,
                                           monkeypatch):
        # A file literally named "stats" must still be checked as a file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stats").write_text(GOOD)
        code, out, _ = run_cli(
            capsys, "client", "stats",
            "--socket", daemon.options.socket_path,
        )
        assert code == EXIT_OK
        assert "ok" in out and "stats" in out  # a report row, not a probe

    def test_stats_without_daemon_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "client", "stats",
            "--socket", str(tmp_path / "nowhere.sock"),
        )
        assert code == EXIT_USAGE
        assert "no daemon" in err


def _eventful_report():
    """A report with every line the human view can print: retries, a
    contained crash, a quarantined file, diagnostics and pool stats."""
    from repro.service import (
        AttemptRecord, BatchReport, CrashReport, FileOutcome, PoolStats,
    )

    crashed = [
        AttemptRecord(attempt=i, status="crash", fault="crash",
                      retryable=True, injected=("check:crash",))
        for i in range(3)
    ]
    return BatchReport(
        files=(
            FileOutcome(
                file="boom.fg", index=0, status="crash", ok=False,
                quarantined=True, attempts=tuple(crashed),
                crash=CrashReport(exc_type="RuntimeError", message="boom"),
            ),
            FileOutcome(
                file="bad.fg", index=1, status="diagnostics", ok=False,
                attempts=(AttemptRecord(attempt=0, status="diagnostics"),),
                severities={"error": 2},
            ),
            FileOutcome(
                file="good.fg", index=2, status="ok", ok=True,
                attempts=(
                    AttemptRecord(attempt=0, status="timeout",
                                  fault="deadline", retryable=True),
                    AttemptRecord(attempt=1, status="ok"),
                ),
            ),
        ),
        pool=PoolStats(workers=2, respawns=1, worker_lost=1).to_json(),
    )


def test_client_prints_the_batch_report(capsys, monkeypatch, tmp_path):
    """``fg client`` renders the daemon's report JSON exactly as ``fg
    batch`` renders its own report."""
    import repro.service as service

    report = _eventful_report()
    program = tmp_path / "good.fg"
    program.write_text(GOOD)
    monkeypatch.setattr(service, "check_batch", lambda *a, **k: report)
    monkeypatch.setattr(service, "check_remote", lambda *a, **k: {
        "type": "report", "exit_code": report.exit_code,
        "report": json.loads(json.dumps(report.to_json())),
    })
    batch = run_cli(capsys, "batch", str(program))
    client = run_cli(capsys, "client", str(program), "--socket",
                     str(tmp_path / "s.sock"))
    assert client == batch
    code, out, _ = batch
    assert code == 5
    for line in ("boom.fg  [attempts=3, quarantined]",
                 "contained worker crash: RuntimeError: boom",
                 "good.fg  [attempts=2]",
                 "-- pool: workers=2 respawns=1 worker_lost=1",
                 "-- quarantine: boom.fg"):
        assert line in out
