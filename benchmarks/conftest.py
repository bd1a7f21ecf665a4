"""Benchmark fixtures: pre-parsed programs shared across benchmark files.

After a benchmark session, :func:`pytest_sessionfinish` writes a versioned
bench record (``BENCH_<tag>.json``, tag from ``$BENCH_TAG`` or today's
date) at the repo root via :mod:`repro.observability.regress`.  This
session is the only producer of bench records, and it times nothing
itself: every row comes from a pytest-benchmark test (median, IQR, mean,
stddev, min and max, in seconds).  Rows timed with ``benchmark(...)`` get a warm-up
only under ``--benchmark-warmup=on``, which the CI perf gate passes; the
``pedantic`` rows set ``warmup_rounds`` themselves.  The record also
holds one instrumented ``check_source`` run of the Figure 5 program:
its metrics snapshot records what the pipeline *did* (model lookups,
congruence work, eval steps), the profiler records where the time went,
and the memory accountant records peak bytes per stage.  ``fg bench
--compare OLD NEW`` turns two such records into a regression verdict (the
CI perf gate).

Recursion headroom is scoped (``resource_scope``), never a module-level
``sys.setrecursionlimit`` — PR 1 removed every permanent limit bump.

The session runs on one CPU, as fgbench does: a host that moves work
between CPUs of different speed moves the rows with it.  The pin holds
for every child process the benchmarks start.
"""

import os
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.fixture(autouse=True)
def _recursion_headroom():
    """Scoped stack headroom for deep-input benchmarks (512-element cons
    chains recurse through the parser); restored after every test."""
    from repro.diagnostics.limits import scoped_recursion_limit

    with scoped_recursion_limit(50_000):
        yield


@pytest.fixture(scope="session")
def prelude_source():
    from repro.prelude import PRELUDE

    return PRELUDE


def _benchmark_rows(session):
    """Per-benchmark wall-time stats, defensively extracted."""
    rows = []
    bench_session = getattr(session.config, "_benchmarksession", None)
    for bench in getattr(bench_session, "benchmarks", ()) or ():
        try:
            stats = bench.stats
            rows.append({
                "name": bench.name,
                "group": bench.group,
                "rounds": stats.rounds,
                "mean_s": stats.mean,
                "median_s": stats.median,
                "stddev_s": stats.stddev,
                "min_s": stats.min,
                "max_s": stats.max,
                "iqr_s": stats.iqr,
            })
        except Exception:  # noqa: BLE001 — stats shape varies by plugin
            continue
    return rows


def _instrumented_snapshot():
    """One fully observed Figure 5 run: metrics + profile + peak memory."""
    from repro.diagnostics.limits import resource_scope
    from repro.observability import (
        ExplainLog, Instrumentation, MemoryAccountant, MetricsRegistry,
        Tracer, profile_tracer,
    )
    from repro.pipeline import check_source

    from bench_fig5_accumulate import figure5

    inst = Instrumentation(
        tracer=Tracer(), metrics=MetricsRegistry(), explain=ExplainLog(),
        memory=MemoryAccountant(),
    )
    # Scoped recursion headroom for the deep cons chain (no process-wide
    # setrecursionlimit side effect).
    with resource_scope():
        outcome = check_source(
            figure5(64), evaluate=True, verify=True, instrumentation=inst
        )
    return {
        "ok": outcome.ok,
        "metrics": outcome.stats,
        "profile": profile_tracer(inst.tracer).to_json(),
        "memory_peak_kb": inst.memory.peaks_kb(),
        "spans": len(inst.tracer),
        "model_resolutions": len(outcome.explain),
    }


def pytest_sessionfinish(session, exitstatus):
    from repro.observability.regress import (
        build_record, default_tag, record_path, write_record,
    )

    tag = default_tag()
    try:
        snapshot = _instrumented_snapshot()
        record = build_record(
            tag,
            _benchmark_rows(session),
            metrics=snapshot["metrics"],
            profile=snapshot["profile"],
            memory_peak_kb=snapshot["memory_peak_kb"],
            extra={
                "instrumented_run": {
                    "program": "figure5(n=64)",
                    "ok": snapshot["ok"],
                    "spans": snapshot["spans"],
                    "model_resolutions": snapshot["model_resolutions"],
                },
            },
        )
        write_record(record, record_path(tag, _ROOT))
    except Exception as err:  # noqa: BLE001 — never fail the session
        print(
            f"benchmarks/conftest: could not write BENCH_{tag}.json: {err}",
            file=sys.stderr,
        )
