"""Experiment ISO: isolation-wall overhead, pool vs daemon.

Times the same ``check_batch`` run over the ``examples/fg`` corpus under
pool isolation, plus the same corpus through a warm ``fg serve`` daemon.
The pool spawns ``pool_workers`` prelude-warmed processes once per batch
and reuses them; the daemon keeps that pool alive *across* batches, so
``test_serve_warm_request`` measures the fully amortized steady-state cost
(``fg bench --compare`` pairs rows by name across records).

Two rows price the daemon's telemetry: ``test_serve_warm_request_traced``
repeats the round trip against a fully instrumented daemon (span
shipping, clock normalization, grafting), and ``test_serve_stats_request``
times the memory-only live-stats probe, which is served on the accept
loop and must stay far below a batch round trip.

Rounds are pinned low via ``pedantic`` — every round forks real
processes, and the medians differ by integer factors, not jitter.
Every test runs at least one unmeasured warm-up round.
"""

import contextlib
import os
import tempfile
import threading
from pathlib import Path

from repro.observability import Instrumentation, MetricsRegistry, Tracer
from repro.service import (
    BatchPolicy,
    RetryPolicy,
    ServeOptions,
    Server,
    check_batch,
    check_remote,
    request_shutdown,
    stats,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "fg"


def _corpus():
    return [
        (path.name, path.read_text())
        for path in sorted(EXAMPLES.glob("*.fg"))
    ]


def _policy(**overrides):
    return BatchPolicy(
        jobs=2, deadline_ms=30_000.0,
        retry=RetryPolicy(max_retries=0), **overrides,
    )


class TestIsolationWall:
    def test_batch_isolate_pool(self, benchmark):
        items = _corpus()
        report = benchmark.pedantic(
            check_batch, args=(items, _policy(isolate="pool",
                                              pool_workers=2)),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        assert report.exit_code == 0
        assert report.pool["respawns"] == 0

    def test_batch_pool_governed(self, benchmark):
        # Same pool batch with the memory governor armed: rlimit applied
        # at spawn, RSS sampled on every heartbeat, recycle thresholds
        # set far above real usage so no recycle fires.  The delta
        # against ``test_batch_isolate_pool`` is pure governor overhead.
        items = _corpus()
        report = benchmark.pedantic(
            check_batch,
            args=(items, _policy(
                isolate="pool", pool_workers=2,
                max_worker_mem_mb=1024.0, recycle_rss_mb=4096.0,
            )),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        assert report.exit_code == 0
        assert report.pool["recycles"] == 0
        assert report.pool["respawns"] == 0

    def test_serve_warm_request(self, benchmark):
        _bench_warm_request(benchmark)

    def test_serve_warm_request_traced(self, benchmark):
        _bench_warm_request(benchmark, Instrumentation(
            tracer=Tracer(), metrics=MetricsRegistry(),
        ))

    def test_serve_stats_request(self, benchmark):
        with _daemon() as socket_path:
            check_remote(socket_path, _corpus())

            def probe():
                snapshot = stats(socket_path, timeout=30.0)
                assert snapshot["type"] == "stats"

            benchmark.pedantic(probe, rounds=50, iterations=1,
                               warmup_rounds=5)


@contextlib.contextmanager
def _daemon(instrumentation=None):
    """A pool-backed daemon on a fresh socket; yields the socket path."""
    # Short /tmp prefix: AF_UNIX paths are length-limited.
    with tempfile.TemporaryDirectory(prefix="fgbp", dir="/tmp") as tmp:
        server = Server(
            _policy(isolate="pool", pool_workers=2),
            ServeOptions(socket_path=os.path.join(tmp, "fg.sock")),
            instrumentation,
        )
        thread = threading.Thread(target=server.serve, daemon=True)
        thread.start()
        assert server.ready.wait(30.0)
        try:
            yield server.options.socket_path
        finally:
            request_shutdown(server.options.socket_path)
            thread.join(timeout=30.0)


def _bench_warm_request(benchmark, instrumentation=None):
    items = _corpus()
    with _daemon(instrumentation) as socket_path:
        def request():
            response = check_remote(socket_path, items)
            assert response["type"] == "report"
            return response

        response = benchmark.pedantic(
            request, rounds=5, iterations=1, warmup_rounds=1,
        )
        assert response["exit_code"] == 0
