"""The ``fg`` command-line driver.

Subcommands::

    fg run FILE          typecheck, translate, and evaluate an F_G program
    fg check FILE        typecheck only; print the program's type
    fg translate FILE    print the System F translation
    fg verify FILE       run the executable Theorem 1/2 check
    fg runf FILE         typecheck and evaluate a *System F* program
    fg profile FILE      hot-path profile + per-stage peak memory for a run
    fg bench             run the built-in benchmark suite; write/compare
                         versioned BENCH_<tag>.json records
    fg batch FILES...    check many files under the fault-isolated batch
                         service: worker pool, deadlines, retries,
                         crash containment, quarantine
    fg serve             long-lived Unix-socket daemon fronting a warm
                         worker pool: bounded admission, graceful drain
                         on SIGTERM, crash-safe request journal
                         (--resume replays unfinished requests)
    fg client FILES...   submit a batch to a running daemon (or --health
                         / --shutdown); 'fg client stats' prints the
                         daemon's live latency/queue-wait percentiles and
                         'fg client events' tails its operational log
    fg doctor BUNDLE     triage a repro/crash-bundle v1: what died, its
                         last spans/ops events, metric anomalies, and
                         the traceback (--serve-socket pulls a live one)
    fg debug bundle      force a crash bundle out of a live daemon

``--prelude`` wraps the program with the standard concept library and ``-e``
takes the program from the command line instead of a file.

The driver is fault-tolerant: parse and type errors are collected (up to
``--max-errors``) instead of stopping at the first one, ``--fuel``/``--depth``
bound runaway programs, and ``--json`` emits machine-readable diagnostics.

Observability (see docs/OBSERVABILITY.md): ``--trace[=FILE]`` records a span
tree for the run (printed as text, or written as Chrome ``trace_event`` JSON
for ``.json`` files / compact JSONL for ``.jsonl``), ``--stats`` reports
stage timings and checker/evaluator counters, and ``--explain`` prints the
model-resolution log — every candidate model per scope and why it was
rejected.  ``--profile`` (or the ``fg profile`` subcommand) aggregates the
span stream into a deterministic time-per-callsite table and accounts peak
memory per pipeline stage.  Under ``--json`` the envelope gains
``"stats"``, ``"explain"``, and ``"profile"`` keys (schema in
docs/DIAGNOSTICS.md).  For ``fg batch`` and ``fg serve`` these flags cross
the isolation wall: workers record their own spans, metrics, and explain
entries, ship them back in the result frame, and the coordinator stitches
them into one merged clock-normalized trace (one Chrome pid lane per
worker process).

``fg bench`` writes a versioned run record (benchmark medians, metrics,
profile, memory — ``BENCH_<tag>.json``) and ``fg bench --compare OLD.json
[NEW.json]`` renders a verdict table (ok/regressed/improved/new/missing),
exiting 1 on regression — the CI perf gate.

``fg batch`` (see docs/DIAGNOSTICS.md for the report schema) runs many
checks under ``repro.service``: ``--jobs N`` workers, ``--deadline-ms T``
per-task watchdog, ``--retries K`` with a deterministic backoff schedule,
``--isolate`` for worker processes that contain interpreter-killing
failures (a supervised pool of persistent prelude-warmed workers with
heartbeats, respawn, and work stealing — ``--pool-workers``/
``--max-respawns``; ``--isolate``, ``--isolate=pool`` and the older
``--isolate=subprocess`` all select it), and a circuit breaker
(``--quarantine-after N``).  ``--chaos`` injects a
deterministic fault schedule and ``--kill-worker`` SIGKILLs pool workers
mid-batch (the CI chaos-smoke hooks).

Exit codes: **0** success, **1** the program has diagnostics, **2** usage
error (bad flags, unreadable file), **3** internal error (a bug in this
implementation — never the input program's fault), **4** deadline exceeded
(only with ``--deadline-ms``; for ``fg batch``, deadline exhaustion — at
least one file timed out and none crashed; for ``fg client``, the request
was shed because its deadline expired while queued), **5** partial failure
(``fg batch`` only: crash containment engaged for at least one file while
the rest of the batch completed), **6** overload (``fg client`` only: the
daemon shed the request at admission — queue full or draining — with a
deterministic ``retry_after_ms`` hint), **130** interrupted (``fg batch``:
SIGTERM/SIGINT arrived; workers were killed and reaped before exit).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.diagnostics.errors import Diagnostic
from repro.diagnostics.limits import DEFAULT_LIMITS, Limits
from repro.diagnostics.reporter import DiagnosticReport, diagnostic_to_dict
from repro.fg import pretty_type as fg_pretty_type
from repro.syntax import parse_f
from repro.systemf import evaluate as f_evaluate
from repro.systemf import pretty_term as f_pretty_term
from repro.systemf import pretty_type as f_pretty_type
from repro.systemf import type_of as f_type_of

#: Exit codes of the ``fg`` driver (documented contract).  4 and 5 extend
#: the original 0–3 contract for deadlines and batch partial failure; they
#: are defined next to the batch report so the service and the CLI agree.
EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
#: ``fg batch``/``fg serve``: a termination signal arrived and the worker
#: pool was shut down cleanly before exit (128 + SIGINT, the shell idiom).
EXIT_INTERRUPTED = 130
from repro.service.report import (  # noqa: E402
    EXIT_DEADLINE, EXIT_OVERLOAD, EXIT_PARTIAL,
)

_INTERNAL_BANNER = (
    "fg: internal error — this is a bug in the F_G implementation, "
    "not in your program"
)


def _read_program(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    if args.file == "-":
        return sys.stdin.read()
    with open(args.file) as handle:
        return handle.read()


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(
        max_check_depth=(
            args.depth if args.depth is not None
            else DEFAULT_LIMITS.max_check_depth
        ),
        max_eval_steps=args.fuel,
        deadline_ms=getattr(args, "deadline_ms", None),
    )


def _wants_profile(args: argparse.Namespace) -> bool:
    return getattr(args, "profile", False) or args.command == "profile"


def _instrumentation(args: argparse.Namespace):
    """Build an Instrumentation from the observability flags (or None).

    ``--profile`` (and the ``profile`` subcommand) needs the full span
    stream plus the memory accountant; ``--trace``/``--stats``/``--explain``
    each switch on exactly their own instrument.
    """
    profiling = _wants_profile(args)
    if (args.trace is None and not args.stats and not args.explain
            and not profiling):
        return None
    from repro.observability import (
        ExplainLog, Instrumentation, MemoryAccountant, MetricsRegistry,
        NULL_TRACER, Tracer,
    )

    return Instrumentation(
        tracer=(Tracer() if args.trace is not None or profiling
                else NULL_TRACER),
        metrics=MetricsRegistry() if args.stats or profiling else None,
        explain=ExplainLog() if args.explain else None,
        memory=MemoryAccountant() if profiling else None,
    )


def _write_trace(inst, args: argparse.Namespace) -> None:
    if inst is None or args.trace is None:
        return
    from repro.observability.exporters import (
        chrome_trace_json, render_tree, to_jsonl,
    )

    dest = args.trace
    if dest == "-":
        print(render_tree(inst.tracer), file=sys.stderr)
        return
    if dest.endswith(".jsonl"):
        payload = to_jsonl(inst.tracer)
    elif dest.endswith(".json"):
        payload = chrome_trace_json(inst.tracer)
    else:
        payload = render_tree(inst.tracer)
    with open(dest, "w") as handle:
        handle.write(payload + "\n")


def _render_stats(stats) -> str:
    lines = []
    timings = stats.get("timings_ms", {})
    if timings:
        lines.append("-- timings (ms):")
        for stage, ms in timings.items():
            lines.append(f"   {stage:<12} {ms}")
    counters = stats.get("counters", {})
    if counters:
        lines.append("-- counters:")
        for name, value in counters.items():
            lines.append(f"   {name:<32} {value}")
    histograms = stats.get("histograms", {})
    if histograms:
        lines.append("-- histograms:")
        for name, h in histograms.items():
            lines.append(
                f"   {name:<32} count={h['count']} min={h['min']} "
                f"max={h['max']} mean={h['mean']:.2f}"
            )
    return "\n".join(lines) if lines else "-- no stats recorded"


def _profile_payload(inst) -> dict:
    """The ``"profile"`` envelope value: hotspot table + per-stage memory."""
    from repro.observability import profile_tracer

    payload = profile_tracer(inst.tracer).to_json()
    if inst.memory is not None:
        payload["memory_peak_kb"] = inst.memory.peaks_kb()
    return payload


def _json_extras(args: argparse.Namespace, stats, explain, inst=None):
    extras = {}
    if args.stats and stats is not None:
        extras["stats"] = stats
    if args.explain and explain is not None:
        extras["explain"] = explain.to_json()
    if inst is not None and _wants_profile(args):
        extras["profile"] = _profile_payload(inst)
    return extras


def _emit_observability(args: argparse.Namespace, stats, explain,
                        inst=None) -> None:
    """Human-readable --stats/--explain/--profile output, on stderr."""
    if args.json:
        return
    if args.explain and explain is not None:
        print("-- model resolution log:", file=sys.stderr)
        print(explain.render(), file=sys.stderr)
    if args.stats and stats is not None:
        print(_render_stats(stats), file=sys.stderr)
    if inst is not None and _wants_profile(args) and args.command != "profile":
        from repro.observability import format_profile, profile_tracer

        print(format_profile(profile_tracer(inst.tracer), inst.memory),
              file=sys.stderr)


def _emit_report(
    report: DiagnosticReport, args: argparse.Namespace, extras=None
) -> None:
    if args.json:
        envelope = {"diagnostics": [diagnostic_to_dict(d) for d in report]}
        envelope.update(extras or {})
        print(json.dumps(envelope, indent=2))
    else:
        rendered = report.render()
        if rendered:
            print(rendered, file=sys.stderr)


def _deadline_tripped(report) -> bool:
    return any(getattr(d, "limit", None) == "deadline" for d in report)


def _run_fg_command(args: argparse.Namespace) -> int:
    from repro.pipeline import check_source

    inst = _instrumentation(args)
    text = _read_program(args)

    def run_check():
        return check_source(
            text,
            args.file or "<cmdline>",
            prelude=args.prelude,
            ext=args.ext,
            max_errors=args.max_errors,
            limits=_limits(args),
            evaluate=(args.command in ("run", "profile")),
            verify=(args.command == "verify"),
            instrumentation=inst,
        )

    if args.deadline_ms is not None:
        # The same watchdog the batch service uses: the check runs on an
        # abandoned-on-expiry worker thread, with the cooperative deadline
        # (folded into the limits above) cancelling metered work in-band.
        from repro.service import run_with_deadline

        kind, value = run_with_deadline(run_check, args.deadline_ms)
        if kind == "timeout":
            print(
                f"fg: deadline exceeded after {args.deadline_ms}ms",
                file=sys.stderr,
            )
            return EXIT_DEADLINE
        if kind == "error":
            raise value
        outcome = value
    else:
        outcome = run_check()
    _write_trace(inst, args)
    extras = _json_extras(args, outcome.stats, outcome.explain, inst)
    if not outcome.ok:
        _emit_report(outcome.report, args, extras)
        _emit_observability(args, outcome.stats, outcome.explain, inst)
        if args.deadline_ms is not None and _deadline_tripped(outcome.report):
            return EXIT_DEADLINE
        return EXIT_DIAGNOSTICS
    if args.command == "profile":
        from repro.observability import format_profile, profile_tracer

        if args.json:
            envelope = {"diagnostics": []}
            envelope.update(extras)
            print(json.dumps(envelope, indent=2))
        else:
            print(format_profile(profile_tracer(inst.tracer), inst.memory))
            if outcome.stats is not None:
                timings = outcome.stats.get("timings_ms", {})
                if timings:
                    print("-- timings (ms):")
                    for stage, ms in timings.items():
                        print(f"   {stage:<12} {ms}")
        return EXIT_OK
    if args.command == "check":
        if args.json:
            envelope = {
                "diagnostics": [],
                "type": fg_pretty_type(outcome.type_),
            }
            envelope.update(extras)
            print(json.dumps(envelope, indent=2))
        else:
            print(fg_pretty_type(outcome.type_))
    elif args.command == "translate":
        print(f_pretty_term(outcome.translation))
    elif args.command == "verify":
        print(f"F_G type:      {fg_pretty_type(outcome.type_)}")
        print("translation preserves typing: OK")
    else:  # run
        if args.json:
            envelope = {"diagnostics": [], "value": _render(outcome.value)}
            envelope.update(extras)
            print(json.dumps(envelope, indent=2))
        else:
            print(_render(outcome.value))
    _emit_observability(args, outcome.stats, outcome.explain, inst)
    return EXIT_OK


def _run_runf(args: argparse.Namespace) -> int:
    import time

    from repro.diagnostics.limits import Budget

    inst = _instrumentation(args)
    text = _read_program(args)
    if inst is None:
        term = parse_f(text, args.file or "<cmdline>")
        f_type_of(term)
        print(_render(f_evaluate(term, limits=_limits(args))))
        return EXIT_OK
    # System F programs have no models, so --explain has nothing to record;
    # stage spans, timings, and eval.steps still apply.
    timings = {}
    tracer = inst.tracer
    budget = Budget(_limits(args))
    total_start = time.perf_counter_ns()
    with tracer.span("pipeline.runf", filename=args.file or "<cmdline>"):
        for stage, work in [
            ("parse", lambda: parse_f(text, args.file or "<cmdline>")),
        ]:
            start = time.perf_counter_ns()
            with tracer.span(f"pipeline.{stage}"):
                term = work()
            timings[stage] = round((time.perf_counter_ns() - start) / 1e6, 3)
        start = time.perf_counter_ns()
        with tracer.span("pipeline.check"):
            f_type_of(term)
        timings["check"] = round((time.perf_counter_ns() - start) / 1e6, 3)
        start = time.perf_counter_ns()
        with tracer.span("pipeline.evaluate"):
            value = f_evaluate(term, budget=budget)
        timings["evaluate"] = round(
            (time.perf_counter_ns() - start) / 1e6, 3
        )
    timings["total"] = round((time.perf_counter_ns() - total_start) / 1e6, 3)
    stats = {"timings_ms": timings}
    if inst.metrics is not None:
        inst.metrics.inc("eval.steps", budget.steps_taken)
        stats.update(inst.metrics.snapshot())
    print(_render(value))
    _write_trace(inst, args)
    _emit_observability(args, stats, inst.explain, inst)
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    """``fg bench``: run/record the built-in suite and gate on trajectory."""
    from pathlib import Path

    from repro.observability import regress

    compare = args.compare or []
    if len(compare) > 2:
        print("fg bench: --compare takes at most two records "
              "(OLD.json [NEW.json])", file=sys.stderr)
        return EXIT_USAGE
    try:
        old = regress.load_record(compare[0]) if compare else None
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"fg bench: cannot load {compare[0]}: {err}", file=sys.stderr)
        return EXIT_USAGE

    if len(compare) == 2:
        # Pure file-vs-file comparison: no benchmarks run.
        try:
            new = regress.load_record(compare[1])
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"fg bench: cannot load {compare[1]}: {err}",
                  file=sys.stderr)
            return EXIT_USAGE
        comparison = regress.compare_records(
            old, new, threshold=args.threshold
        )
        if args.json:
            print(json.dumps(comparison.to_json(), indent=2))
        else:
            print(comparison.render())
        return comparison.exit_code

    tag = args.tag or regress.default_tag()
    progress = None if args.json else (
        lambda msg: print(f"-- {msg}", file=sys.stderr)
    )
    rows, instrumented = regress.run_bench_suite(
        rounds=args.rounds, fuzz_mutants=args.fuzz_mutants,
        isolation_rounds=args.isolation_rounds,
        progress=progress,
    )
    record = regress.build_record(tag, rows, **instrumented)
    out_path = Path(args.out) if args.out else \
        regress.record_path(tag, Path.cwd())
    regress.write_record(record, out_path)

    payload = {"record": str(out_path), "tag": tag, "benchmarks": rows}
    comparison = None
    if old is not None:
        comparison = regress.compare_records(
            old, record, threshold=args.threshold
        )
        payload["comparison"] = comparison.to_json()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"-- wrote {out_path}")
        for row in rows:
            median = row.get("median_s")
            rendered = f"{median * 1e3:.3f}ms" if median else "-"
            print(f"   {row['name']:<42} median {rendered}")
        if comparison is not None:
            print(comparison.render())
    return comparison.exit_code if comparison is not None else EXIT_OK


def _collect_batch_files(paths) -> list:
    """Expand the FILES arguments: directories become their ``*.fg`` trees
    (sorted, so batch input order is deterministic)."""
    from pathlib import Path

    files = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(p for p in path.rglob("*.fg") if p.is_file())
            if not found:
                raise FileNotFoundError(f"no .fg files under {raw}")
            files.extend(str(p) for p in found)
        else:
            files.append(raw)
    return files


def _run_batch(args: argparse.Namespace) -> int:
    """``fg batch``: the fault-isolated batch checking service."""
    from dataclasses import replace

    from repro.service import (
        BatchPolicy, FaultSchedule, RetryPolicy, WorkerKillSpec, check_batch,
    )

    try:
        paths = _collect_batch_files(args.files)
    except (OSError, FileNotFoundError) as err:
        print(f"fg batch: {err}", file=sys.stderr)
        return EXIT_USAGE
    sources = []
    for path in paths:
        try:
            with open(path) as handle:
                sources.append((path, handle.read()))
        except OSError as err:
            print(
                f"fg batch: cannot read {path}: {err.strerror or err}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        except UnicodeDecodeError as err:
            print(
                f"fg batch: cannot read {path}: not valid UTF-8 ({err})",
                file=sys.stderr,
            )
            return EXIT_USAGE

    if args.kill_worker and not args.isolate:
        print(
            "fg batch: --kill-worker requires --isolate=pool "
            "(there are no workers to kill otherwise)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    schedule = None
    if args.chaos or args.kill_worker:
        hang_s = (
            args.deadline_ms * 3 / 1000.0
            if args.deadline_ms is not None else 0.5
        )
        try:
            schedule = FaultSchedule.parse(
                ",".join(args.chaos or ()), hang_s=hang_s
            )
            if args.kill_worker:
                schedule = replace(schedule, kills=tuple(
                    WorkerKillSpec.parse(spec) for spec in args.kill_worker
                ))
        except ValueError as err:
            print(f"fg batch: {err}", file=sys.stderr)
            return EXIT_USAGE
    try:
        policy = BatchPolicy(
            jobs=args.jobs,
            deadline_ms=args.deadline_ms,
            retry=RetryPolicy(
                max_retries=args.retries,
                backoff_base_ms=args.backoff_ms,
            ),
            quarantine_after=args.quarantine_after,
            isolate="pool" if args.isolate else "none",
            pool_workers=args.pool_workers,
            max_respawns=args.max_respawns,
            heartbeat_ms=args.heartbeat_ms,
            max_worker_mem_mb=args.max_worker_mem_mb,
            recycle_rss_mb=args.recycle_rss_mb,
            recycle_after_tasks=args.recycle_after_tasks,
            prelude=args.prelude,
            ext=args.ext,
            max_errors=args.max_errors,
            limits=Limits(
                max_check_depth=(
                    args.depth if args.depth is not None
                    else DEFAULT_LIMITS.max_check_depth
                ),
                max_eval_steps=args.fuel,
            ),
            verify=args.verify,
        )
    except ValueError as err:
        print(f"fg batch: {err}", file=sys.stderr)
        return EXIT_USAGE

    if args.crash_dir:
        # Forensics dumps (worker loss, deadline kills, contained
        # crashes) land here; workers inherit it via $FG_CRASH_DIR.
        from repro.observability import flightrec

        flightrec.configure(args.crash_dir)
    inst = _instrumentation(args)
    report = check_batch(
        sources, policy, instrumentation=inst, fault_schedule=schedule,
    )
    _write_trace(inst, args)
    stats = None
    if inst is not None and inst.metrics is not None:
        stats = inst.metrics.snapshot()
    explain = inst.explain if inst is not None else None
    if args.json:
        envelope = report.to_json()
        if args.stats and stats is not None:
            envelope["stats"] = stats
        if args.explain and explain is not None:
            envelope["explain"] = explain.to_json()
        print(json.dumps(envelope, indent=2))
    else:
        print(report.render())
        if args.explain and explain is not None:
            print("-- model resolution log:", file=sys.stderr)
            print(explain.render(), file=sys.stderr)
        if args.stats and stats is not None:
            print(_render_stats(stats), file=sys.stderr)
    return report.exit_code


def _run_serve(args: argparse.Namespace) -> int:
    """``fg serve``: the resilient socket daemon over a warm worker pool."""
    from repro.service import (
        BatchPolicy, RetryPolicy, ServeError, ServeOptions, Server,
    )

    try:
        policy = BatchPolicy(
            deadline_ms=args.deadline_ms,
            retry=RetryPolicy(
                max_retries=args.retries,
                backoff_base_ms=args.backoff_ms,
            ),
            quarantine_after=args.quarantine_after,
            isolate="pool",
            pool_workers=args.pool_workers,
            max_respawns=args.max_respawns,
            heartbeat_ms=args.heartbeat_ms,
            max_worker_mem_mb=args.max_worker_mem_mb,
            recycle_rss_mb=args.recycle_rss_mb,
            recycle_after_tasks=args.recycle_after_tasks,
            prelude=args.prelude,
            ext=args.ext,
            max_errors=args.max_errors,
            verify=args.verify,
        )
        options = ServeOptions(
            socket_path=args.socket,
            journal_path=args.journal,
            max_queue=args.max_queue,
            retry_after_base_ms=args.retry_after_ms,
            idle_timeout_s=args.idle_timeout_ms / 1000.0,
            resume=args.resume,
            resume_only=args.resume_only,
            metrics_file=args.metrics_file,
            metrics_interval_s=args.metrics_interval_ms / 1000.0,
            ops_log_path=args.ops_log,
            crash_dir=args.crash_dir,
            max_rss_mb=args.max_rss_mb,
            ops_log_max_bytes=args.ops_log_max_bytes,
        )
    except ValueError as err:
        print(f"fg serve: {err}", file=sys.stderr)
        return EXIT_USAGE
    inst = _instrumentation(args)
    if not args.resume_only:
        print(f"fg serve: serving on {args.socket}", file=sys.stderr)
    try:
        summary = Server(policy, options, instrumentation=inst).serve()
    except ServeError as err:
        print(f"fg serve: {err}", file=sys.stderr)
        return EXIT_USAGE
    _write_trace(inst, args)
    if args.json or args.resume_only:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"fg serve: drained after serving {summary['served']} "
            "request(s)",
            file=sys.stderr,
        )
    if args.stats and inst is not None and inst.metrics is not None:
        print(_render_stats(inst.metrics.snapshot()), file=sys.stderr)
    return EXIT_OK


def _client_keyword(args: argparse.Namespace):
    """``fg client stats|events`` keyword dispatch.

    A real file that happens to be named ``stats`` still gets checked:
    the keyword only wins when no such path exists.
    """
    import os

    if (len(args.files) == 1 and args.files[0] in ("stats", "events")
            and not os.path.exists(args.files[0])):
        return args.files[0]
    return None


def _render_server_stats(payload: dict) -> str:
    """Human view of a daemon ``stats`` snapshot."""
    lines = [
        "fg serve: {status}  served={served} queued={queued} "
        "in_flight={in_flight} uptime_ms={uptime}".format(
            status=payload.get("status", "?"),
            served=payload.get("served", 0),
            queued=payload.get("queued", 0),
            in_flight=payload.get("in_flight", 0),
            uptime=payload.get("uptime_ms", 0),
        )
    ]
    def ms(value) -> str:
        return f"{float(value or 0.0):.2f}"

    for key in ("latency_ms", "queue_wait_ms"):
        snap = payload.get(key) or {}
        lines.append(
            f"   {key:<16} p50={ms(snap.get('p50'))} "
            f"p95={ms(snap.get('p95'))} p99={ms(snap.get('p99'))} "
            f"max={ms(snap.get('max'))} (n={snap.get('count', 0)})"
        )
    lines.append(
        "   utilization      {:.1%}  shed={}  respawns={}".format(
            float(payload.get("worker_utilization", 0.0) or 0.0),
            payload.get("shed_total", 0),
            payload.get("respawns", 0),
        )
    )
    for worker in payload.get("workers_detail") or ():
        state = (
            "retired" if worker.get("retired")
            else "alive" if worker.get("alive") else "down"
        )
        lines.append(
            f"   worker[{worker.get('slot')}]  {state:<8} "
            f"pid={worker.get('pid')} tasks={worker.get('tasks_done', 0)}"
        )
    return "\n".join(lines)


def _run_client_stats(args: argparse.Namespace) -> int:
    """``fg client stats [--json|--watch]``."""
    import time as time_mod

    from repro.service import stats as remote_stats

    try:
        while True:
            payload = remote_stats(args.socket, timeout=args.timeout)
            if args.json:
                print(json.dumps(payload, indent=2))
            else:
                print(_render_server_stats(payload))
            if not args.watch:
                return EXIT_OK
            sys.stdout.flush()
            time_mod.sleep(args.interval_ms / 1000.0)
    except KeyboardInterrupt:
        return EXIT_OK


def _run_client_events(args: argparse.Namespace) -> int:
    """``fg client events [--tail N]``."""
    from repro.service import events as remote_events

    payload = remote_events(args.socket, tail=args.tail,
                            timeout=args.timeout)
    if args.json:
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    for event in payload.get("events", ()):
        extra = " ".join(
            f"{key}={value}" for key, value in sorted(event.items())
            if key not in ("seq", "ts_ms", "event")
        )
        line = f"[{event.get('seq'):>4}] {event.get('event')}"
        print(line + (f"  {extra}" if extra else ""))
    return EXIT_OK


def _run_client(args: argparse.Namespace) -> int:
    """``fg client``: submit to a daemon, or probe/drain it."""
    from repro.service import (
        ClientError, FaultSchedule, ServerUnavailable, check_remote,
        health, request_shutdown,
    )

    keyword = _client_keyword(args)
    try:
        if keyword == "stats":
            return _run_client_stats(args)
        if keyword == "events":
            return _run_client_events(args)
        if args.health:
            print(json.dumps(health(args.socket, timeout=args.timeout),
                             indent=2))
            return EXIT_OK
        if args.shutdown:
            request_shutdown(args.socket, timeout=args.timeout)
            print("fg client: daemon draining", file=sys.stderr)
            return EXIT_OK

        if not args.files:
            print("fg client: FILES are required (or --health/--shutdown/"
                  "stats/events)",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            paths = _collect_batch_files(args.files)
            sources = []
            for path in paths:
                with open(path) as handle:
                    sources.append((path, handle.read()))
        except (OSError, UnicodeDecodeError) as err:
            print(f"fg client: cannot read input: {err}", file=sys.stderr)
            return EXIT_USAGE
        overrides = {}
        if args.deadline_ms is not None:
            overrides["deadline_ms"] = args.deadline_ms
        if args.prelude:
            overrides["prelude"] = True
        if args.ext:
            overrides["ext"] = True
        if args.verify:
            overrides["verify"] = True
        if args.retries is not None:
            overrides["retry"] = {"max_retries": args.retries}
        schedule_json = None
        if args.chaos:
            # Same hang scaling as fg batch: an injected hang must outlast
            # the deadline (plus the supervisor's kill grace) to matter.
            hang_s = (
                args.deadline_ms * 3 / 1000.0
                if args.deadline_ms is not None else 0.5
            )
            try:
                schedule_json = FaultSchedule.parse(
                    ",".join(args.chaos), hang_s=hang_s
                ).to_json()
            except ValueError as err:
                print(f"fg client: {err}", file=sys.stderr)
                return EXIT_USAGE
        response = check_remote(
            args.socket, sources,
            policy_overrides=overrides or None,
            schedule_json=schedule_json,
            timeout=args.timeout,
        )
    except ServerUnavailable as err:
        print(f"fg client: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ClientError as err:
        print(f"fg client: {err}", file=sys.stderr)
        return EXIT_INTERNAL

    kind = response.get("type")
    if kind == "report":
        if args.json:
            envelope = dict(response["report"])
            envelope["digest"] = response.get("digest")
            print(json.dumps(envelope, indent=2))
        else:
            print(_render_remote_report(response["report"]))
        return int(response.get("exit_code", EXIT_INTERNAL))
    if kind in ("overload", "draining"):
        print(
            f"fg client: daemon {kind}; retry after "
            f"{response.get('retry_after_ms', 0)}ms",
            file=sys.stderr,
        )
        return EXIT_OVERLOAD
    if kind == "shed":
        print(
            f"fg client: request shed ({response.get('reason', 'unknown')})",
            file=sys.stderr,
        )
        return EXIT_DEADLINE
    if kind == "error":
        print(f"fg client: {response.get('message', 'error')}",
              file=sys.stderr)
        return (
            EXIT_INTERNAL if response.get("internal") else EXIT_USAGE
        )
    print(f"fg client: unexpected response {kind!r}", file=sys.stderr)
    return EXIT_INTERNAL


#: ``fg doctor``'s one-line reading of each fault kind in the taxonomy.
_DOCTOR_CLASSIFICATION = {
    "crash-report": "a checked file crashed its worker (contained: the "
                    "rest of the batch completed)",
    "worker-lost": "a pool worker process vanished mid-attempt "
                   "(killed externally or died hard)",
    "memory": "a worker tripped its per-worker memory budget (contained "
              "as a retryable 'memory' fault; the seat was recycled)",
    "deadline-kill": "the supervisor hard-killed a worker that ran past "
                     "its deadline",
    "respawn-exhausted": "the pool's respawn budget was spent and a "
                         "worker seat was retired",
    "daemon-exception": "an unhandled exception escaped a daemon request "
                        "(a bug in the server, not the input)",
    "drain-failure": "the daemon's graceful drain did not finish before "
                     "the shutdown timeout",
    "hard-death": "the process died without reaching a clean exit "
                  "(SIGKILL, native fault, or uncaught exception)",
    "manual": "bundle forced via fg debug bundle — not a fault",
}


def _doctor_metric_rows(samples: list) -> list:
    """Fold the bundle's metric ring into per-name summary rows, flagging
    names whose peak sits far above their own rolling median."""
    by_name: dict = {}
    for sample in samples:
        value = sample.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            by_name.setdefault(sample.get("name"), []).append(float(value))
    rows = []
    for name, values in sorted(by_name.items()):
        ordered = sorted(values)
        median = ordered[len(ordered) // 2]
        peak = ordered[-1]
        rows.append({
            "name": name,
            "count": len(ordered),
            "median": median,
            "max": peak,
            # With fewer than 4 samples "anomalous" is noise, not signal.
            "anomalous": (len(ordered) >= 4 and median > 0
                          and peak > 3.0 * median),
        })
    return rows


def _doctor_triage(bundle: dict, tail: int) -> dict:
    """The machine-readable triage: what died, its last activity, and
    which metrics look out of family."""
    from repro.observability import flightrec

    fault = bundle.get("fault") or {}
    kind = fault.get("kind", "unknown")
    rings = bundle.get("rings") or {}
    spans = []
    for span in (rings.get("spans") or [])[-tail:]:
        start = span.get("start_ns") or 0
        end = span.get("end_ns") or 0
        spans.append({
            "name": span.get("name"),
            "duration_ms": round((end - start) / 1e6, 3),
            "attrs": span.get("attrs"),
        })
    ops = bundle.get("ops_tail") or rings.get("ops") or []
    metrics = _doctor_metric_rows(rings.get("metrics") or [])
    return {
        "fault_kind": kind,
        "classification": _DOCTOR_CLASSIFICATION.get(
            kind, "unknown fault kind (not in the taxonomy)"
        ),
        "detail": fault.get("detail") or {},
        "pid": bundle.get("pid"),
        "created_ts_ms": bundle.get("created_ts_ms"),
        "argv": bundle.get("argv") or [],
        "last_spans": spans,
        "ops_tail": ops[-tail:],
        "metrics": metrics,
        "metric_anomalies": [r for r in metrics if r["anomalous"]],
        "traceback": bundle.get("traceback") or [],
        "schema_problems": flightrec.validate_bundle(bundle),
    }


def _render_triage(triage: dict, path) -> str:
    import time as time_mod

    lines = [
        f"fg doctor: {triage['fault_kind']} — {triage['classification']}"
    ]
    created = triage.get("created_ts_ms")
    when = (
        time_mod.strftime(
            "%Y-%m-%d %H:%M:%S", time_mod.localtime(created / 1000.0)
        )
        if isinstance(created, (int, float)) and created else "?"
    )
    lines.append(
        f"   bundle: {path or '<live daemon>'}  "
        f"pid={triage.get('pid')}  created={when}"
    )
    detail = triage.get("detail") or {}
    if detail:
        rendered = " ".join(
            f"{key}={value}" for key, value in sorted(detail.items())
        )
        lines.append(f"   detail: {rendered}")
    spans = triage.get("last_spans") or []
    lines.append(f"-- last {len(spans)} span(s):")
    for span in spans:
        attrs = span.get("attrs") or {}
        extra = " ".join(
            f"{k}={v}" for k, v in sorted(attrs.items()) if v is not None
        )
        lines.append(
            f"   {span.get('name'):<28} {span.get('duration_ms'):>10.3f}ms"
            + (f"  {extra}" if extra else "")
        )
    if not spans:
        lines.append("   (ring empty — recorder off or nothing ran)")
    ops = triage.get("ops_tail") or []
    if ops:
        lines.append(f"-- last {len(ops)} ops event(s):")
        for event in ops:
            extra = " ".join(
                f"{key}={value}" for key, value in sorted(event.items())
                if key not in ("seq", "ts_ms", "event")
            )
            lines.append(
                f"   [{event.get('seq', '?'):>4}] {event.get('event')}"
                + (f"  {extra}" if extra else "")
            )
    anomalies = triage.get("metric_anomalies") or []
    if anomalies:
        lines.append("-- metric anomalies (max > 3x median):")
        for row in anomalies:
            lines.append(
                f"   {row['name']:<32} median={row['median']:.3f} "
                f"max={row['max']:.3f} (n={row['count']})"
            )
    else:
        lines.append("-- metric anomalies: none")
    trace = triage.get("traceback") or []
    if trace:
        lines.append("-- traceback:")
        for chunk in trace[-10:]:
            for text in str(chunk).rstrip("\n").splitlines():
                lines.append(f"   {text}")
    problems = triage.get("schema_problems") or []
    if problems:
        lines.append("-- schema problems:")
        for problem in problems:
            lines.append(f"   {problem}")
    return "\n".join(lines)


def _run_doctor(args: argparse.Namespace) -> int:
    """``fg doctor``: render human triage from a crash bundle (a file, the
    newest bundle in a directory, or one pulled from a live daemon)."""
    import os

    from repro.observability import flightrec

    path = None
    if args.serve_socket:
        from repro.service import ClientError, debug_bundle

        try:
            response = debug_bundle(args.serve_socket, timeout=args.timeout)
        except ClientError as err:
            print(f"fg doctor: {err}", file=sys.stderr)
            return EXIT_USAGE
        bundle = response.get("bundle")
        path = response.get("path")
        if not isinstance(bundle, dict):
            print("fg doctor: daemon returned no bundle", file=sys.stderr)
            return EXIT_INTERNAL
    else:
        target = args.bundle
        if target is None:
            print("fg doctor: a BUNDLE file/directory or --serve-socket "
                  "is required", file=sys.stderr)
            return EXIT_USAGE
        if os.path.isdir(target):
            path = flightrec.latest_bundle(target)
            if path is None:
                print(f"fg doctor: no *.bundle.json under {target}",
                      file=sys.stderr)
                return EXIT_USAGE
        else:
            path = target
        try:
            bundle = flightrec.read_bundle(path)
        except (OSError, ValueError) as err:
            print(f"fg doctor: cannot read {path}: {err}", file=sys.stderr)
            return EXIT_USAGE
    triage = _doctor_triage(bundle, args.tail)
    if args.json:
        print(json.dumps({"path": path, "triage": triage,
                          "bundle": bundle}, indent=2))
    else:
        print(_render_triage(triage, path))
    return EXIT_OK


def _run_debug(args: argparse.Namespace) -> int:
    """``fg debug bundle``: force a crash bundle out of a live daemon."""
    from repro.service import ClientError, ServerUnavailable, debug_bundle

    try:
        response = debug_bundle(args.socket, timeout=args.timeout)
    except ServerUnavailable as err:
        print(f"fg debug: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ClientError as err:
        print(f"fg debug: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    bundle = response.get("bundle")
    path = response.get("path")
    if args.out:
        try:
            with open(args.out, "w") as handle:
                json.dump(bundle, handle, indent=2)
                handle.write("\n")
        except OSError as err:
            print(f"fg debug: cannot write {args.out}: {err}",
                  file=sys.stderr)
            return EXIT_USAGE
        path = args.out
    if args.json:
        print(json.dumps({"path": path, "bundle": bundle}, indent=2))
    elif path:
        print(f"fg debug: bundle written to {path}")
    else:
        print("fg debug: daemon has no crash dir; use --out FILE to keep "
              "the bundle", file=sys.stderr)
    return EXIT_OK


def _render_remote_report(report_json: dict) -> str:
    """Human view of a wire-format batch report (mirrors
    ``BatchReport.render`` closely enough for eyeballs)."""
    lines = []
    for outcome in report_json.get("files", ()):
        label = outcome["status"]
        if label == "diagnostics":
            label = f"error({outcome.get('severities', {}).get('error', 0)})"
        lines.append(f"{label:<12} {outcome['file']}")
    roll = report_json.get("rollup", {})
    if roll:
        lines.append(
            "-- rollup: "
            + " ".join(f"{k}={roll[k]}" for k in
                       ("files", "ok", "diagnostics", "timeout", "memory",
                        "crash", "quarantined", "retries") if k in roll)
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fg",
        description="System F_G: concepts for generic programming "
        "(Siek & Lumsdaine, PLDI 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("repl", help="start an interactive F_G session")
    bench = sub.add_parser(
        "bench",
        help="run the built-in benchmark suite, write a versioned "
        "BENCH_<tag>.json record, and/or compare records (perf gate)",
    )
    bench.add_argument(
        "--compare",
        nargs="+",
        metavar="RECORD",
        help="compare against RECORD (runs the suite first), or compare "
        "two records OLD.json NEW.json without running; exits 1 on "
        "regression",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="X",
        help="regression threshold as a median ratio (default 1.5)",
    )
    bench.add_argument(
        "--rounds", type=int, default=5, metavar="N",
        help="timing rounds per benchmark (default 5)",
    )
    bench.add_argument(
        "--fuzz-mutants", type=int, default=25, metavar="N",
        help="mutants for the fuzz-throughput benchmark (default 25; "
        "0 disables it)",
    )
    bench.add_argument(
        "--isolation-rounds", type=int, default=2, metavar="N",
        help="rounds for the pool-isolated batch and warm-daemon rows "
        "over examples/fg (default 2; 0 skips them — they spawn real "
        "worker processes)",
    )
    bench.add_argument(
        "--tag", default=None,
        help="record tag (default: $BENCH_TAG, else today's date)",
    )
    bench.add_argument(
        "--out", default=None, metavar="FILE",
        help="record output path (default BENCH_<tag>.json in the cwd)",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="emit the record summary and verdict table as JSON",
    )
    batch = sub.add_parser(
        "batch",
        help="check many F_G files under the fault-isolated batch service: "
        "worker pool, per-task deadlines, retries with deterministic "
        "backoff, crash containment, and circuit-breaker quarantine",
    )
    batch.add_argument(
        "files", nargs="+", metavar="FILE",
        help="files to check; a directory expands to its *.fg tree",
    )
    batch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker pool size (default 1)",
    )
    batch.add_argument(
        "--deadline-ms", type=float, default=None, metavar="T",
        help="per-task wall-clock deadline; a miss is a retryable fault",
    )
    batch.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="retry budget per file for transient faults (deadline misses, "
        "crashes — never type errors; default 0)",
    )
    batch.add_argument(
        "--backoff-ms", type=float, default=0.0, metavar="B",
        help="base of the deterministic exponential backoff schedule "
        "(default 0: retry immediately)",
    )
    batch.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="circuit breaker: quarantine a file after N consecutive "
        "failures (default 3)",
    )
    batch.add_argument(
        "--isolate", nargs="?", const="pool", default=None,
        choices=["subprocess", "pool"], metavar="MODE",
        help="contain interpreter-killing failures (C-level faults, OOM "
        "kills) in a supervised pool of persistent prelude-warmed worker "
        "processes with heartbeats, respawn on worker loss, and work "
        "stealing; a bare --isolate and the older 'subprocess' spelling "
        "both select 'pool'",
    )
    batch.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="persistent workers under --isolate=pool (default 2)",
    )
    batch.add_argument(
        "--max-respawns", type=int, default=4, metavar="N",
        help="pool-wide respawn budget for lost workers; once spent, dead "
        "slots retire and the pool degrades gracefully (default 4)",
    )
    batch.add_argument(
        "--heartbeat-ms", type=float, default=100.0, metavar="T",
        help="pool worker heartbeat period (default 100)",
    )
    batch.add_argument(
        "--max-worker-mem-mb", type=float, default=None, metavar="M",
        help="per-worker memory budget (RLIMIT_AS, falling back to "
        "RLIMIT_DATA): a runaway allocation becomes a contained, "
        "retryable 'memory' fault instead of a kernel OOM kill",
    )
    batch.add_argument(
        "--recycle-rss-mb", type=float, default=None, metavar="M",
        help="pool-mode RSS high-water mark: a worker whose "
        "heartbeat-sampled RSS crosses it is gracefully recycled "
        "between tasks (never mid-attempt, never charged to "
        "--max-respawns)",
    )
    batch.add_argument(
        "--recycle-after-tasks", type=int, default=None, metavar="N",
        help="pool-mode task cap per worker process: recycle a worker "
        "after it completes N tasks (leak hygiene for long batches)",
    )
    batch.add_argument(
        "--verify", action="store_true",
        help="also run the Theorem 1/2 translation check per file",
    )
    batch.add_argument(
        "--chaos", action="append", default=None, metavar="SPEC",
        help="inject a deterministic fault schedule (testing hook): "
        "INDEX:STAGE:KIND[:ATTEMPTS][,...] with KIND one of crash|hang|"
        "kill|noise|memhog and ATTEMPTS N, A-B, or * (default)",
    )
    batch.add_argument(
        "--kill-worker", action="append", default=None, metavar="SPEC",
        help="chaos hook for --isolate=pool: SIGKILL a worker at the "
        "dispatch of INDEX[:ATTEMPT[:WORKER]] (default attempt 0, default "
        "worker: whichever received the dispatch)",
    )
    batch.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write crash-forensics bundles (flight-recorder rings, pool "
        "state, tracebacks) here on worker loss, deadline kills, and "
        "contained crashes; defaults to $FG_CRASH_DIR, unset = disabled",
    )
    batch.add_argument(
        "--prelude", action="store_true",
        help="wrap each program with the standard concept library",
    )
    batch.add_argument(
        "--ext", action="store_true",
        help="enable the section 6 extensions",
    )
    batch.add_argument(
        "--max-errors", type=int, default=20, metavar="N",
        help="per-file collected-error cap (default 20)",
    )
    batch.add_argument(
        "--fuel", type=int, default=None, metavar="N",
        help="per-file evaluation step budget",
    )
    batch.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="per-file typechecker nesting budget",
    )
    batch.add_argument(
        "--json", action="store_true",
        help="emit the BatchReport envelope as JSON on stdout",
    )
    batch.add_argument(
        "--stats", action="store_true",
        help="report batch counters (retries, timeouts, quarantines)",
    )
    batch.add_argument(
        "--trace", nargs="?", const="-", default=None, metavar="FILE",
        help="record the merged span trace: coordinator spans plus every "
        "worker's spans stitched under them (clock-normalized across the "
        "process boundary; .json = Chrome trace_event with one pid lane "
        "per worker process)",
    )
    batch.add_argument(
        "--explain", action="store_true",
        help="print the model-resolution log; entries recorded inside "
        "workers are shipped back through the isolation wall",
    )
    batch.set_defaults(profile=False)
    serve = sub.add_parser(
        "serve",
        help="run the resilient batch daemon: a Unix-socket front end over "
        "a persistent warm worker pool, with bounded admission, graceful "
        "SIGTERM drain, and a crash-safe request journal",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix-domain socket path to listen on",
    )
    serve.add_argument(
        "--journal", default=None, metavar="FILE",
        help="request journal path (default: <socket>.journal)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="replay the journal on startup and re-run unfinished requests "
        "before serving (after a crash/SIGKILL); without it a stale "
        "journal is rotated to <journal>.bak",
    )
    serve.add_argument(
        "--resume-only", action="store_true",
        help="replay and re-run unfinished requests, print the digest "
        "summary as JSON, and exit without binding the socket",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="admission bound: requests beyond N queued are shed with an "
        "overload response (default 8)",
    )
    serve.add_argument(
        "--retry-after-ms", type=int, default=100, metavar="T",
        help="base of the deterministic retry_after_ms overload hint "
        "(default 100)",
    )
    serve.add_argument(
        "--idle-timeout-ms", type=float, default=10_000.0, metavar="T",
        help="slow-loris defense: close connections idle this long with "
        "no admitted request (default 10000)",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="persistent warm workers (default 2)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="T",
        help="server-side per-task deadline; composes with each request's "
        "own deadline as the minimum",
    )
    serve.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="default retry budget per file (default 0)",
    )
    serve.add_argument(
        "--backoff-ms", type=float, default=0.0, metavar="B",
        help="base of the deterministic backoff schedule (default 0)",
    )
    serve.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="circuit breaker threshold (default 3)",
    )
    serve.add_argument(
        "--max-respawns", type=int, default=4, metavar="N",
        help="per-batch respawn budget for lost workers (default 4)",
    )
    serve.add_argument(
        "--heartbeat-ms", type=float, default=100.0, metavar="T",
        help="pool worker heartbeat period (default 100)",
    )
    serve.add_argument(
        "--max-worker-mem-mb", type=float, default=None, metavar="M",
        help="per-worker memory budget (RLIMIT_AS, falling back to "
        "RLIMIT_DATA): a runaway allocation becomes a contained, "
        "retryable 'memory' fault instead of a kernel OOM kill",
    )
    serve.add_argument(
        "--recycle-rss-mb", type=float, default=None, metavar="M",
        help="worker RSS high-water mark: a worker whose "
        "heartbeat-sampled RSS crosses it is gracefully recycled "
        "between tasks (never charged to --max-respawns)",
    )
    serve.add_argument(
        "--recycle-after-tasks", type=int, default=None, metavar="N",
        help="recycle a worker process after it completes N tasks "
        "(leak hygiene for long-lived daemons)",
    )
    serve.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="M",
        help="aggregate worker-RSS admission budget: while the pool's "
        "sampled RSS total is at or over it, new batch requests are "
        "shed with reason 'memory-pressure' and a retry_after_ms hint",
    )
    serve.add_argument(
        "--ops-log-max-bytes", type=int, default=None, metavar="N",
        help="rotate the ops log to <file>.1 when it reaches N bytes "
        "(one backup generation; default: never rotate)",
    )
    serve.add_argument(
        "--prelude", action="store_true",
        help="wrap each program with the standard concept library",
    )
    serve.add_argument(
        "--ext", action="store_true",
        help="enable the section 6 extensions",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="also run the Theorem 1/2 translation check per file",
    )
    serve.add_argument(
        "--max-errors", type=int, default=20, metavar="N",
        help="per-file collected-error cap (default 20)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="emit the exit summary as JSON",
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="report server.* and batch counters on drain",
    )
    serve.add_argument(
        "--trace", nargs="?", const="-", default=None, metavar="FILE",
        help="record the daemon's merged span trace (worker spans "
        "stitched under each request, one Chrome pid lane per worker)",
    )
    serve.add_argument(
        "--metrics-file", default=None, metavar="PATH",
        help="write a Prometheus text-format snapshot of the live "
        "telemetry to PATH (atomic replace) every --metrics-interval-ms",
    )
    serve.add_argument(
        "--metrics-interval-ms", type=float, default=2000.0, metavar="T",
        help="metrics-file refresh period (default 2000)",
    )
    serve.add_argument(
        "--ops-log", default=None, metavar="FILE",
        help="operational event log (append-only JSONL; default: "
        "<socket>.ops.jsonl)",
    )
    serve.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="crash-bundle directory for the flight recorder's forensics "
        "(default: <socket>.crash); the daemon also keeps a live "
        "'blackbox' bundle here that survives a SIGKILL",
    )
    serve.set_defaults(explain=False, profile=False)
    cli = sub.add_parser(
        "client",
        help="submit F_G files to a running fg serve daemon, probe it "
        "(--health, or the stats / events subcommands), or --shutdown it",
    )
    cli.add_argument(
        "files", nargs="*", metavar="FILE",
        help="files to check (a directory expands to its *.fg tree); or "
        "the keyword 'stats' (live latency/queue-wait percentiles, "
        "utilization, shed and respawn totals) or 'events' (the tail of "
        "the daemon's operational event log)",
    )
    cli.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's Unix-domain socket path",
    )
    cli.add_argument(
        "--health", action="store_true",
        help="print the daemon's health snapshot and exit",
    )
    cli.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain gracefully and exit",
    )
    cli.add_argument(
        "--deadline-ms", type=float, default=None, metavar="T",
        help="request deadline: per-task bound (min with the server's) "
        "and the queue-wait bound — expiry while queued sheds the "
        "request (exit 4)",
    )
    cli.add_argument(
        "--retries", type=int, default=None, metavar="K",
        help="override the server's per-file retry budget",
    )
    cli.add_argument(
        "--prelude", action="store_true",
        help="wrap each program with the standard concept library",
    )
    cli.add_argument(
        "--ext", action="store_true",
        help="enable the section 6 extensions",
    )
    cli.add_argument(
        "--verify", action="store_true",
        help="also run the Theorem 1/2 translation check per file",
    )
    cli.add_argument(
        "--chaos", action="append", default=None, metavar="SPEC",
        help="attach a deterministic fault schedule to the request "
        "(testing hook; same syntax as fg batch --chaos)",
    )
    cli.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="client-side socket timeout in seconds (default: none)",
    )
    cli.add_argument(
        "--json", action="store_true",
        help="emit the report envelope (plus its digest) — or the "
        "stats/events payload — as JSON",
    )
    cli.add_argument(
        "--tail", type=int, default=20, metavar="N",
        help="with the events subcommand: how many events (default 20)",
    )
    cli.add_argument(
        "--watch", action="store_true",
        help="with the stats subcommand: refresh until interrupted",
    )
    cli.add_argument(
        "--interval-ms", type=float, default=1000.0, metavar="T",
        help="refresh period for --watch (default 1000)",
    )
    doctor = sub.add_parser(
        "doctor",
        help="triage a repro/crash-bundle v1: what died, its last spans "
        "and ops events, metric anomalies, and the traceback",
    )
    doctor.add_argument(
        "bundle", nargs="?", metavar="BUNDLE",
        help="a *.bundle.json file, or a crash directory (the newest "
        "bundle wins)",
    )
    doctor.add_argument(
        "--serve-socket", default=None, metavar="PATH",
        help="pull a live bundle from the daemon on this socket instead "
        "of reading one from disk",
    )
    doctor.add_argument(
        "--tail", type=int, default=10, metavar="N",
        help="how many spans / ops events to show (default 10)",
    )
    doctor.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="socket timeout for --serve-socket (default 10)",
    )
    doctor.add_argument(
        "--json", action="store_true",
        help="emit the triage plus the full bundle as JSON",
    )
    debug = sub.add_parser(
        "debug",
        help="debugging hooks against a live daemon ('fg debug bundle' "
        "forces a crash bundle over the socket)",
    )
    debug.add_argument(
        "what", choices=["bundle"], metavar="WHAT",
        help="'bundle': force a manual crash bundle from the daemon",
    )
    debug.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's Unix-domain socket path",
    )
    debug.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the returned bundle document to FILE",
    )
    debug.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="client-side socket timeout (default 10)",
    )
    debug.add_argument(
        "--json", action="store_true",
        help="emit the bundle (and its daemon-side path) as JSON",
    )
    for name, help_ in [
        ("run", "typecheck, translate, and evaluate an F_G program"),
        ("check", "typecheck an F_G program and print its type"),
        ("translate", "print an F_G program's System F translation"),
        ("verify", "check that translation preserves typing (Theorems 1/2)"),
        ("runf", "typecheck and evaluate a System F program"),
        ("profile", "run an F_G program under the deterministic profiler: "
         "hot-path table + per-stage peak memory"),
    ]:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("file", nargs="?", help="program file ('-' = stdin)")
        cmd.add_argument(
            "-e", "--expr", help="program text given on the command line"
        )
        cmd.add_argument(
            "--prelude",
            action="store_true",
            help="wrap the program with the standard concept library",
        )
        cmd.add_argument(
            "--ext",
            action="store_true",
            help="enable the section 6 extensions (named/parameterized "
            "models, member defaults)",
        )
        cmd.add_argument(
            "--max-errors",
            type=int,
            default=20,
            metavar="N",
            help="stop after N collected errors (default 20)",
        )
        cmd.add_argument(
            "--fuel",
            type=int,
            default=None,
            metavar="N",
            help="bound evaluation to N steps (default: unbounded)",
        )
        cmd.add_argument(
            "--depth",
            type=int,
            default=None,
            metavar="N",
            help="bound typechecker nesting depth (default "
            f"{DEFAULT_LIMITS.max_check_depth})",
        )
        cmd.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            metavar="T",
            help="wall-clock deadline for the run (watchdog + cooperative "
            "cancellation); exit code 4 when exceeded",
        )
        cmd.add_argument(
            "--json",
            action="store_true",
            help="emit diagnostics as JSON on stdout",
        )
        cmd.add_argument(
            "--trace",
            nargs="?",
            const="-",
            default=None,
            metavar="FILE",
            help="record a span trace; print it (no FILE) or write "
            "Chrome trace JSON (*.json) / JSONL (*.jsonl) / text",
        )
        cmd.add_argument(
            "--stats",
            action="store_true",
            help="report stage timings and checker/evaluator counters",
        )
        cmd.add_argument(
            "--explain",
            action="store_true",
            help="log every model resolution: candidates per scope and "
            "why each was rejected",
        )
        cmd.add_argument(
            "--profile",
            action="store_true",
            help="aggregate the span stream into a per-callsite "
            "inclusive/exclusive time table and account peak memory "
            "per pipeline stage",
        )
    args = parser.parse_args(argv)
    if args.command == "repl":
        from repro.tools.repl import main as repl_main

        return repl_main()
    if args.command == "bench":
        if args.threshold is None:
            from repro.observability.regress import DEFAULT_THRESHOLD

            args.threshold = DEFAULT_THRESHOLD
        try:
            return _run_bench(args)
        except Exception:
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.command == "batch":
        if args.max_errors < 1:
            parser.error("--max-errors must be at least 1")
        try:
            # SIGTERM behaves like Ctrl-C for the whole batch: the raise
            # unwinds through the coordinator so the pool supervisor's
            # finally blocks kill and reap every worker before exit.
            from repro.service import raise_on_termination

            with raise_on_termination():
                return _run_batch(args)
        except KeyboardInterrupt:
            print("fg batch: interrupted — workers shut down",
                  file=sys.stderr)
            return EXIT_INTERRUPTED
        except Exception:
            # Total failure: a bug in the batch driver itself — distinct
            # from partial failure (5), which the report's exit code covers.
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.command == "serve":
        try:
            return _run_serve(args)
        except Exception:
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.command == "client":
        try:
            return _run_client(args)
        except Exception:
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.command == "doctor":
        try:
            return _run_doctor(args)
        except BrokenPipeError:
            return EXIT_OK  # downstream pager/head closed the pipe
        except Exception:
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.command == "debug":
        try:
            return _run_debug(args)
        except BrokenPipeError:
            return EXIT_OK
        except Exception:
            import traceback

            print(_INTERNAL_BANNER, file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
    if args.file is None and args.expr is None:
        parser.error("a FILE or -e EXPR is required")
    if args.max_errors < 1:
        parser.error("--max-errors must be at least 1")
    try:
        if args.command == "runf":
            return _run_runf(args)
        return _run_fg_command(args)
    except OSError as err:
        # A missing or unreadable input file is a usage error, reported as
        # one clean line — no traceback.
        name = getattr(err, "filename", None) or args.file or "<input>"
        print(f"fg: cannot read {name}: {err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as err:
        # A file that is not valid UTF-8 is bad input, not an internal bug.
        name = args.file or "<input>"
        print(f"fg: cannot read {name}: not valid UTF-8 ({err})", file=sys.stderr)
        return EXIT_USAGE
    except Diagnostic as err:
        # Fail-fast paths (runf) still honor the exit-code contract.
        print(err, file=sys.stderr)
        if getattr(err, "limit", None) == "deadline":
            return EXIT_DEADLINE
        return EXIT_DIAGNOSTICS
    except Exception:
        import traceback

        print(_INTERNAL_BANNER, file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
