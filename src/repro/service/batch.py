"""``check_batch``: fault-isolated batch checking with graceful degradation.

The coordinator fans a batch of sources out over a worker pool and folds
every result — clean, diagnosed, timed out, crashed, quarantined — into one
deterministic :class:`~repro.service.report.BatchReport`.  Per file, the
retry loop runs isolated attempts (:mod:`repro.service.worker`) under the
policy's deadline, classifies failures with the fault taxonomy
(:mod:`repro.service.faults`), sleeps the deterministic backoff schedule
between retries, and opens the circuit breaker after
``policy.quarantine_after`` consecutive failures so one pathological input
can't starve the batch.

Containment invariants (enforced by ``tests/service/`` and the chaos
harness): the batch always terminates, every input yields exactly one
outcome, a worker death becomes that file's ``CrashReport`` while the rest
of the batch completes, and an exception escaping *this coordinator* is by
definition a bug (the CLI maps it to exit 3 — total failure).

Observability: the coordinator — never the workers, the tracer is
single-threaded — wraps the run in a ``service.check_batch`` span, records
one ``service.file`` span per outcome in input order, and counts
``batch.*`` metrics (files/ok/diagnostics/timeouts/crashes/retries/
quarantined, plus the ``batch.attempts`` histogram).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability import (
    Instrumentation,
    NULL_TRACER,
    merge_worker_telemetry,
)
from repro.service.faults import (
    FAULT_CRASH,
    FAULT_DEADLINE,
    FAULT_MEMORY,
    FaultSchedule,
    is_retryable,
    serialize_exception_faults,
)
from repro.service.policy import BatchPolicy
from repro.service.report import AttemptRecord, BatchReport, FileOutcome
from repro.service.worker import (
    AttemptResult,
    run_attempt,
    telemetry_request,
)

#: Attempt status -> fault kind; a status not listed here is a result.
_FAULT_KIND = {
    "timeout": FAULT_DEADLINE,
    "crash": FAULT_CRASH,
    "memory": FAULT_MEMORY,
}

#: Serializes telemetry merges into the shared coordinator bundle: with
#: ``jobs > 1`` several worker threads finish attempts concurrently, and
#: neither the tracer nor the metrics registry is thread-safe on its own.
_MERGE_LOCK = threading.Lock()


def check_batch(
    sources: Sequence[Tuple[str, str]],
    policy: Optional[BatchPolicy] = None,
    *,
    instrumentation: Optional[Instrumentation] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    pool=None,
) -> BatchReport:
    """Check every ``(filename, text)`` pair under the batch policy.

    Never raises for anything the *inputs* do; see the module docstring for
    the containment contract.  ``fault_schedule`` is the chaos hook —
    declarative injected faults replayed deterministically (and shipped to
    pool workers as JSON).  Ambient :func:`~repro.pipeline.inject_fault`
    state from the calling thread is propagated into every worker attempt.

    ``pool`` is an optional :class:`~repro.service.pool.PersistentPool`
    (the serve daemon's): with ``isolate="pool"`` the batch borrows its
    warm workers.  Without one, a pool batch opens its own pool, sized to
    the batch, and closes it before returning.
    """
    from repro.pipeline import current_faults

    policy = policy if policy is not None else BatchPolicy()
    items = list(sources)
    ambient = current_faults()
    # Callable ambient faults can't cross a process boundary; fail loudly
    # up front rather than silently dropping an injected fault.
    serialized_ambient = (
        serialize_exception_faults(ambient)
        if policy.isolate == "pool" else None
    )
    tracer = (
        instrumentation.tracer if instrumentation is not None else NULL_TRACER
    )
    metrics = (
        instrumentation.metrics if instrumentation is not None else None
    )
    outcomes: List[Optional[FileOutcome]] = [None] * len(items)
    pool_stats = None
    start = time.perf_counter()
    with tracer.span(
        "service.check_batch",
        files=len(items), jobs=policy.jobs, isolate=policy.isolate,
    ):
        if policy.isolate == "pool":
            from repro.service.pool import PersistentPool, PoolStats

            run = dict(
                schedule=fault_schedule,
                ambient=ambient,
                serialized_ambient=serialized_ambient,
                instrumentation=instrumentation,
            )
            if pool is not None:
                outcomes, pool_stats = pool.run_batch(items, policy, **run)
            elif not items:
                # No pool for nothing; the canonical digest holds the 0.
                pool_stats = PoolStats(workers=0)
            else:
                sized = replace(policy, pool_workers=min(
                    policy.pool_workers, len(items)))
                with PersistentPool(sized, tracer) as own:
                    outcomes, pool_stats = own.run_batch(
                        items, policy, **run)
        else:
            telemetry = telemetry_request(instrumentation)

            def check_one(index: int) -> FileOutcome:
                filename, text = items[index]
                task = TaskState(index, filename, text)
                run_in_process(
                    task, policy, ambient, fault_schedule, instrumentation,
                    telemetry, attrs={"isolate": policy.isolate},
                )
                return task.outcome()

            if policy.jobs == 1 or len(items) <= 1:
                outcomes = [check_one(i) for i in range(len(items))]
            else:
                with ThreadPoolExecutor(
                    max_workers=policy.jobs, thread_name_prefix="fg-batch"
                ) as executor:
                    outcomes = list(
                        executor.map(check_one, range(len(items)))
                    )
        # Coordinator-side observability, in input order (deterministic).
        for outcome in outcomes:
            with tracer.span(
                "service.file",
                file=outcome.file, status=outcome.status,
                attempts=len(outcome.attempts),
            ):
                pass
            if metrics is not None:
                metrics.inc("batch.files")
                metrics.inc(f"batch.{outcome.status}")
                metrics.inc("batch.retries", outcome.retries)
                if outcome.quarantined:
                    metrics.inc("batch.quarantined")
                metrics.observe("batch.attempts", len(outcome.attempts))
        if metrics is not None and pool_stats is not None:
            metrics.inc("pool.workers", pool_stats.workers)
            metrics.inc("pool.spawned", pool_stats.spawned)
            metrics.inc("pool.respawns", pool_stats.respawns)
            metrics.inc("pool.worker_lost", pool_stats.worker_lost)
            metrics.inc("pool.deadline_kills", pool_stats.deadline_kills)
            metrics.inc("pool.steals", pool_stats.steals)
            metrics.inc("pool.heartbeat_misses", pool_stats.heartbeat_misses)
            metrics.inc("pool.retired", pool_stats.retired)
            metrics.inc("pool.recycles", pool_stats.recycles)
            metrics.inc("pool.rss_bytes", pool_stats.rss_bytes)
            if pool_stats.degraded:
                metrics.inc("pool.degraded")
    elapsed_ms = round((time.perf_counter() - start) * 1e3, 3)
    with_reports = [
        o for o in outcomes if o is not None and o.crash is not None
    ]
    crashed = [o for o in with_reports if o.status != "memory"]
    memory_hit = [o for o in with_reports if o.status == "memory"]
    if crashed:
        # Crash forensics for the batch coordinator: one bundle per batch
        # that saw CrashReport outcomes (advisory; no-op without a
        # configured --crash-dir / $FG_CRASH_DIR).
        from repro.observability import flightrec

        flightrec.dump("crash-report", {
            "files": [o.file for o in crashed],
            "exc_types": sorted({o.crash.exc_type for o in crashed}),
        }, context={
            "policy": policy.to_json(),
            "pool": pool_stats.to_json() if pool_stats is not None else None,
        })
    if memory_hit:
        # Memory-budget trips get their own bundle kind so doctor triage
        # can distinguish "the governor contained an OOM" from a crash.
        from repro.observability import flightrec

        flightrec.dump("memory", {
            "files": [o.file for o in memory_hit],
            "max_worker_mem_mb": policy.max_worker_mem_mb,
        }, context={
            "policy": policy.to_json(),
            "pool": pool_stats.to_json() if pool_stats is not None else None,
        })
    return BatchReport(
        files=tuple(outcomes),
        policy=policy.to_json(),
        elapsed_ms=elapsed_ms,
        pool=pool_stats.to_json() if pool_stats is not None else None,
    )


class TaskState:
    """One file's retry state machine, advanced attempt by attempt.

    The single place the fault taxonomy, the retry budget and the circuit
    breaker are applied: :func:`run_in_process` drives it on the thread
    wall, the pool supervisor (:mod:`repro.service.pool`) drives it across
    worker processes, so every isolation mode records attempts
    identically.  ``ready_at`` is the instant the task's backoff ends;
    ``home`` is the pool's scheduling state.
    """

    __slots__ = ("index", "filename", "text", "home", "attempt",
                 "consecutive", "attempts", "final", "quarantined", "done",
                 "ready_at")

    def __init__(self, index: int, filename: str, text: str, home: int = 0):
        self.index = index
        self.filename = filename
        self.text = text
        self.home = home
        self.attempt = 0
        self.consecutive = 0
        self.attempts: List[AttemptRecord] = []
        self.final: Optional[AttemptResult] = None
        self.quarantined = False
        self.done = False
        self.ready_at = 0.0  # monotonic instant this task may redispatch

    def resolve(self, result: AttemptResult, injected: Tuple[str, ...],
                policy: BatchPolicy,
                fault_override: Optional[str] = None) -> None:
        """Fold one attempt in: either finish the task (``done``) or count
        the retry and set ``ready_at`` to the end of its backoff."""
        self.final = result
        fault_kind = fault_override or _FAULT_KIND.get(result.status)
        if fault_kind is None:
            self.attempts.append(AttemptRecord(
                attempt=self.attempt, status=result.status,
                injected=injected, duration_ms=result.duration_ms,
            ))
            self.done = True
            return
        self.consecutive += 1
        retryable = is_retryable(fault_kind)
        self.quarantined = self.consecutive >= policy.quarantine_after
        out_of_retries = self.attempt >= policy.retry.max_retries
        will_retry = retryable and not self.quarantined and not out_of_retries
        backoff_ms = (
            policy.retry.backoff_ms(self.consecutive - 1)
            if will_retry else 0.0
        )
        self.attempts.append(AttemptRecord(
            attempt=self.attempt, status=result.status, fault=fault_kind,
            retryable=retryable, backoff_ms=backoff_ms, injected=injected,
            duration_ms=result.duration_ms,
        ))
        if not will_retry:
            self.done = True
            return
        self.attempt += 1
        self.ready_at = time.monotonic() + backoff_ms / 1000.0

    def outcome(self) -> FileOutcome:
        final = self.final
        return FileOutcome(
            file=self.filename,
            index=self.index,
            status=final.status,
            ok=final.status == "ok",
            quarantined=self.quarantined,
            attempts=tuple(self.attempts),
            diagnostics=tuple(final.diagnostics),
            severities=dict(final.severities),
            rendered=final.rendered,
            crash=final.crash,
        )


def run_in_process(
    task: TaskState,
    policy: BatchPolicy,
    ambient: Dict[str, object],
    schedule: Optional[FaultSchedule],
    instrumentation: Optional[Instrumentation],
    telemetry: Optional[Dict[str, object]],
    *,
    span_name: str = "service.attempt",
    attrs: Optional[Dict[str, object]] = None,
    finish=None,
) -> None:
    """Continue ``task``'s retry loop in-process until it is done.

    Each round waits out the task's backoff (``ready_at``), runs the next
    attempt on the watchdogged thread wall with its scheduled faults
    installed, merges what the attempt saw into ``instrumentation`` under
    a ``span_name`` span (under :data:`_MERGE_LOCK`, so ``--stats``/
    ``--explain``/``--trace`` see the attempts' own spans, metrics and
    explain entries), and folds the result in with ``finish(task, result,
    injected)`` — :meth:`TaskState.resolve` unless the caller keeps its
    own books.  :func:`check_batch` drives fresh tasks through it; the
    pool's degraded tail continues the tasks its workers left unfinished.
    """
    check_kwargs = policy.check_kwargs()
    while not task.done:
        wait = task.ready_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        specs = (
            schedule.for_attempt(task.index, task.attempt)
            if schedule is not None else ()
        )
        faults = dict(ambient)
        for spec in specs:
            faults[spec.stage] = spec.materialize(schedule.hang_s)
        injected = tuple(spec.tag for spec in specs)
        send_ns = time.perf_counter_ns()
        result = run_attempt(
            task.text, task.filename, check_kwargs, faults,
            policy.deadline_ms, telemetry,
        )
        if result.telemetry is not None:
            with _MERGE_LOCK:
                merge_worker_telemetry(
                    instrumentation, result.telemetry,
                    send_ns=send_ns, recv_ns=time.perf_counter_ns(),
                    span_name=span_name,
                    attrs={"file": task.filename, "attempt": task.attempt,
                           **(attrs or {})},
                )
        if finish is None:
            task.resolve(result, injected, policy)
        else:
            finish(task, result, injected)
