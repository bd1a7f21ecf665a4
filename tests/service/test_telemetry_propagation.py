"""Telemetry across the isolation walls: the PR-8 tentpole invariants.

``--trace``/``--stats``/``--explain`` used to go silently empty under
``--isolate=pool`` — the instruments lived in the coordinator
while the work happened in a worker process.  These tests pin the fix:
workers ship their span trees, metrics deltas, and explain entries back in
the result frame, and the coordinator stitches them into one well-formed,
clock-normalized tree.  They also pin the safety half: telemetry must
never perturb canonical report digests (batch or serve).
"""

import os
import tempfile
import threading

import pytest

from repro.observability import (
    ExplainLog,
    Instrumentation,
    MetricsRegistry,
    Tracer,
)
from repro.service import (
    BatchPolicy,
    FaultSchedule,
    RetryPolicy,
    ServeOptions,
    Server,
    WorkerKillSpec,
    canonicalize,
    check_batch,
    check_remote,
    events,
    health,
    request_shutdown,
    stats,
)

#: Resolves a model, so the explain log and ``model_lookup.*`` metrics
#: have something to record inside the worker.
EQ = (
    "concept Eq<t> { eq : fn(t, t) -> bool; } in\n"
    "model Eq<int> { eq = ieq; } in\n"
    "Eq<int>.eq(1, 2)"
)
GOOD = "let id = \\x : int. x in id(41)"


def full_instrumentation():
    return Instrumentation(
        tracer=Tracer(), metrics=MetricsRegistry(), explain=ExplainLog(),
    )


def _assert_well_formed(tracer):
    """Every span closed, children inside their parents, links consistent."""
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        assert span.end_ns is not None, f"open span {span.name}"
        assert span.end_ns >= span.start_ns
        for child in span.children:
            assert child.parent_id == span.id
            assert child.start_ns >= span.start_ns
            assert child.end_ns <= span.end_ns
        if span.parent_id is not None:
            assert span in by_id[span.parent_id].children


def _find(tracer, name):
    return [span for span in tracer.spans if span.name == name]


# ---------------------------------------------------------------------------
# The thread wall (isolate="none") — fast, no processes
# ---------------------------------------------------------------------------

class TestThreadWall:
    def test_explain_and_spans_cross_the_thread_wall(self):
        inst = full_instrumentation()
        report = check_batch([("eq.fg", EQ)], BatchPolicy(),
                             instrumentation=inst)
        assert report.files[0].ok
        assert len(inst.explain.entries) > 0
        attempts = _find(inst.tracer, "service.attempt")
        assert len(attempts) == 1
        assert attempts[0].attrs["pid"] == os.getpid()
        names = {c.name for c in attempts[0].children}
        assert "pipeline.check_source" in names
        _assert_well_formed(inst.tracer)

    def test_parallel_jobs_merge_under_the_lock(self):
        inst = full_instrumentation()
        sources = [(f"eq{i}.fg", EQ) for i in range(6)]
        report = check_batch(sources, BatchPolicy(jobs=3),
                             instrumentation=inst)
        assert all(f.ok for f in report.files)
        assert len(_find(inst.tracer, "service.attempt")) == 6
        counters = inst.metrics.snapshot()["counters"]
        # Worker-side lookups from every attempt accumulated.
        assert counters["model_lookup.attempts"] == 6 * 2
        _assert_well_formed(inst.tracer)


# ---------------------------------------------------------------------------
# The pool wall
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestPoolWall:
    def test_explain_is_not_empty_through_the_pool(self):
        # The satellite regression: ExplainLog alone (no tracer/metrics).
        inst = Instrumentation(explain=ExplainLog())
        report = check_batch(
            [("eq.fg", EQ)],
            BatchPolicy(isolate="pool", pool_workers=1),
            instrumentation=inst,
        )
        assert report.files[0].ok
        resolutions = inst.explain.resolutions
        assert resolutions, "explain must cross the pool wall"
        assert any(r.concept == "Eq" for r in resolutions)

    def test_worker_spans_graft_under_pool_attempt(self):
        inst = full_instrumentation()
        report = check_batch(
            [("eq.fg", EQ), ("good.fg", GOOD)],
            BatchPolicy(isolate="pool", pool_workers=2),
            instrumentation=inst,
        )
        assert all(f.ok for f in report.files)
        attempts = _find(inst.tracer, "pool.attempt")
        assert len(attempts) == 2
        for attempt in attempts:
            assert attempt.attrs["pid"] != os.getpid()
            assert [c.name for c in attempt.children] == \
                ["pipeline.check_source"]
        # The stitched tree hangs off the supervisor span.
        supervise = _find(inst.tracer, "pool.supervise")
        assert supervise and all(
            a.parent_id == supervise[0].id for a in attempts
        )
        counters = inst.metrics.snapshot()["counters"]
        assert counters["model_lookup.attempts"] >= 2
        _assert_well_formed(inst.tracer)

    def test_trace_well_formed_under_worker_kill(self):
        inst = full_instrumentation()
        report = check_batch(
            [("eq.fg", EQ), ("good.fg", GOOD)],
            BatchPolicy(
                isolate="pool", pool_workers=2,
                retry=RetryPolicy(max_retries=2),
            ),
            instrumentation=inst,
            fault_schedule=FaultSchedule(
                kills=(WorkerKillSpec(index=0),),
            ),
        )
        assert all(f.ok for f in report.files)
        # The killed dispatch shipped no telemetry, but the retry did —
        # and metrics from completed tasks survived the worker death.
        assert inst.metrics.snapshot()["counters"][
            "model_lookup.attempts"] >= 2
        assert len(inst.explain.entries) > 0
        _assert_well_formed(inst.tracer)


# ---------------------------------------------------------------------------
# Tracing invariance: telemetry never touches canonical reports
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTracingInvariance:
    def test_batch_digest_identical_with_and_without_telemetry(self):
        sources = [("eq.fg", EQ), ("good.fg", GOOD)]
        policy = BatchPolicy(isolate="pool", pool_workers=2)
        plain = check_batch(sources, policy)
        traced = check_batch(sources, policy,
                             instrumentation=full_instrumentation())
        assert canonicalize(plain.to_json()) == \
            canonicalize(traced.to_json())


# ---------------------------------------------------------------------------
# The daemon's stats / events / health telemetry surface
# ---------------------------------------------------------------------------

class _Daemon:
    """A live in-process daemon (mirrors tests/service/test_server.py)."""

    def __init__(self, instrumentation=None, **options):
        self.tmp = tempfile.TemporaryDirectory(prefix="fgtel", dir="/tmp")
        self.socket_path = os.path.join(self.tmp.name, "fg.sock")
        self.options = ServeOptions(socket_path=self.socket_path, **options)
        self.server = Server(
            BatchPolicy(isolate="pool", pool_workers=1),
            self.options, instrumentation,
        )
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


@pytest.mark.slow
class TestDaemonTelemetry:
    def test_stats_reports_rolling_percentiles(self):
        with _Daemon() as daemon:
            for _ in range(2):
                response = check_remote(
                    daemon.socket_path, [("good.fg", GOOD)],
                )
                assert response["type"] == "report"
            snap = stats(daemon.socket_path)
        assert snap["type"] == "stats"
        assert snap["served"] == 2
        latency = snap["latency_ms"]
        assert latency["count"] == 2
        assert latency["p50"] is not None
        assert latency["p95"] >= latency["p50"] > 0
        assert 0.0 <= snap["worker_utilization"] <= 1.0
        assert snap["shed_total"] == 0
        assert snap["ops_seq"] >= 1
        detail = snap["workers_detail"]
        assert len(detail) == 1 and detail[0]["alive"]

    def test_events_tail_with_monotonic_seq(self):
        with _Daemon() as daemon:
            check_remote(daemon.socket_path, [("good.fg", GOOD)])
            payload = events(daemon.socket_path, tail=50)
        assert payload["type"] == "events"
        records = payload["events"]
        assert any(r["event"] == "worker-spawn" for r in records)
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_health_gains_telemetry_fields(self):
        with _Daemon() as daemon:
            check_remote(daemon.socket_path, [("good.fg", GOOD)])
            snap = health(daemon.socket_path)
        assert snap["queue_wait_ms_p95"] is not None
        assert snap["shed_total"] == 0
        assert snap["respawns"] == 0
        assert snap["workers_detail"][0]["slot"] == 0

    def test_ops_log_file_and_metrics_file_written(self, tmp_path):
        metrics_path = str(tmp_path / "metrics.prom")
        ops_path = str(tmp_path / "ops.jsonl")
        with _Daemon(metrics_interval_s=0.05, metrics_file=metrics_path,
                     ops_log_path=ops_path) as daemon:
            check_remote(daemon.socket_path, [("good.fg", GOOD)])
            stats(daemon.socket_path)
        from repro.observability import read_ops_log

        records = read_ops_log(ops_path)
        assert any(r["event"] == "worker-spawn" for r in records)
        assert any(r["event"] == "drain" for r in records)
        with open(metrics_path) as fh:
            text = fh.read()
        assert "fg_served 1" in text
        assert "# TYPE fg_latency_ms gauge" in text

    def test_serve_digest_invariant_under_tracing(self):
        digests = []
        for instrumentation in (None, full_instrumentation()):
            with _Daemon(instrumentation) as daemon:
                response = check_remote(
                    daemon.socket_path, [("eq.fg", EQ), ("good.fg", GOOD)],
                )
                assert response["type"] == "report"
                digests.append(response["digest"])
        assert digests[0] == digests[1]
