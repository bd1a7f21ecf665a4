"""One check attempt: the body both containment walls run, and its codec.

:func:`run_attempt` is the attempt, whichever wall it runs behind: install
the attempt's faults, call :func:`~repro.pipeline.check_source`, contain a
non-``Diagnostic`` exception as a ``crash`` (or ``memory``)
:class:`~repro.service.report.CrashReport`, project the outcome, and attach
what the attempt's own instrumentation saw.  ``BatchPolicy.isolate`` picks
the wall:

- **Watchdogged thread** (the default): the attempt runs on a daemon
  thread; the watchdog joins it for ``deadline_ms`` and, on expiry,
  *abandons* it and reports a deadline fault.  The abandoned thread is
  harmless — it holds no shared mutable state (fault tables are
  thread-local, budgets are per-run, and
  :func:`~repro.diagnostics.limits.scoped_recursion_limit` restores are
  guarded) and the cooperative deadline in
  :class:`~repro.diagnostics.Budget` usually reels it in shortly after.

- **Worker pool** (``isolate="pool"``, :mod:`repro.service.pool`): the
  attempt ships to a persistent worker process as a :func:`task_payload`
  frame; the worker rebuilds its arguments (:func:`unpack_task`), runs
  :func:`run_attempt` and ships the :class:`AttemptResult` back as JSON.
  Interpreter-killing failures — C-level recursion faults, OOM kills,
  ``os._exit`` — take down only that worker and read as a retryable
  ``worker-lost`` attempt.

:func:`run_with_deadline` is the shared watchdog primitive; the single-file
``fg check --deadline-ms`` reuses it directly.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faultinject import current_faults, install_faults
from repro.service.faults import FaultSpec
from repro.service.report import CrashReport

#: How many trailing traceback/stderr lines a crash report keeps.
TRACEBACK_TAIL = 8


@dataclass
class AttemptResult:
    """What one isolated attempt produced (internal to the service)."""

    status: str  # "ok" | "diagnostics" | "timeout" | "memory" | "crash"
    diagnostics: List[Dict[str, object]] = field(default_factory=list)
    severities: Dict[str, int] = field(default_factory=dict)
    rendered: str = ""
    crash: Optional[CrashReport] = None
    duration_ms: float = 0.0
    #: What the worker's own instrumentation saw (spans/metrics/explain +
    #: clock bracket), when the task frame requested telemetry.  Never part
    #: of the report JSON — merged into coordinator instrumentation only.
    telemetry: Optional[Dict[str, object]] = None

    def to_json(self) -> Dict[str, object]:
        """The result-frame shape a pool worker ships back."""
        return {
            "status": self.status,
            "diagnostics": self.diagnostics,
            "severities": self.severities,
            "rendered": self.rendered,
            "crash": self.crash.to_json() if self.crash else None,
            "duration_ms": self.duration_ms,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AttemptResult":
        crash = data.get("crash")
        return cls(
            status=data["status"],
            diagnostics=data.get("diagnostics", []),
            severities=data.get("severities", {}),
            rendered=data.get("rendered", ""),
            crash=CrashReport(
                **dict(crash, traceback=tuple(crash.get("traceback", ())))
            ) if crash else None,
            duration_ms=data.get("duration_ms", 0.0),
            telemetry=data.get("telemetry"),
        )


def telemetry_request(instrumentation, *, trace_id: Optional[str] = None,
                      parent_span: Optional[int] = None
                      ) -> Optional[Dict[str, object]]:
    """The task-frame telemetry stanza, or ``None`` when every channel is
    off (the common case — workers then build no instrumentation at all).

    ``trace_id`` and ``parent_span`` stamp the dispatch for cross-process
    correlation: the worker echoes the id back in its result telemetry and
    the coordinator grafts the span tree under ``parent_span``.
    """
    if instrumentation is None:
        return None
    request: Dict[str, object] = {
        "trace": bool(getattr(instrumentation.tracer, "enabled", False)),
        "stats": instrumentation.metrics is not None,
        "explain": instrumentation.explain is not None,
    }
    if not any(request.values()):
        return None
    if trace_id is not None:
        request["trace_id"] = trace_id
    if parent_span is not None:
        request["parent_span"] = parent_span
    return request


def build_task_instrumentation(telemetry: Optional[Dict[str, object]]):
    """A fresh per-attempt :class:`~repro.observability.Instrumentation`
    matching a task frame's telemetry stanza (``None`` when absent)."""
    if not telemetry:
        return None
    from repro.observability import (
        ExplainLog, Instrumentation, MetricsRegistry, NULL_TRACER, Tracer,
    )

    return Instrumentation(
        tracer=Tracer() if telemetry.get("trace") else NULL_TRACER,
        metrics=MetricsRegistry() if telemetry.get("stats") else None,
        explain=ExplainLog() if telemetry.get("explain") else None,
    )


def telemetry_result(instrumentation, telemetry: Optional[Dict[str, object]],
                     start_ns: int, end_ns: int
                     ) -> Optional[Dict[str, object]]:
    """Project what one attempt's instrumentation saw into the JSON-safe
    result-frame stanza (spans in wire form, metrics snapshot, explain
    entries, plus the local ``perf_counter_ns`` clock bracket the
    coordinator needs for offset normalization)."""
    if instrumentation is None:
        return None
    from repro.observability.telemetry import spans_to_wire

    out: Dict[str, object] = {
        "pid": os.getpid(),
        "clock": {"start_ns": start_ns, "end_ns": end_ns},
    }
    if telemetry and telemetry.get("trace_id") is not None:
        out["trace_id"] = telemetry["trace_id"]
    if getattr(instrumentation.tracer, "enabled", False):
        out["spans"] = spans_to_wire(instrumentation.tracer)
    if instrumentation.metrics is not None:
        out["metrics"] = instrumentation.metrics.snapshot()
    if instrumentation.explain is not None:
        out["explain"] = instrumentation.explain.to_json()
    return out


def outcome_projection(outcome) -> Tuple[str, List[dict], Dict[str, int], str]:
    """Project a ``CheckOutcome`` to the batch report's JSON-ready shape.

    A run whose report contains a deadline diagnostic (the cooperative
    cancel fired mid-check) counts as a ``"timeout"``, not mere
    diagnostics — the retry policy treats the two very differently.
    """
    report = outcome.report
    diagnostics = report.to_json()
    severities: Dict[str, int] = {}
    for diag in report:
        severity = getattr(diag, "severity", "error")
        severities[severity] = severities.get(severity, 0) + 1
    if outcome.ok:
        status = "ok"
    elif any(getattr(d, "limit", None) == "deadline" for d in report):
        status = "timeout"
    else:
        status = "diagnostics"
    return status, diagnostics, severities, report.render()


def run_with_deadline(fn, deadline_ms: Optional[float]):
    """Run ``fn()`` under the watchdog; the shared deadline primitive.

    Returns ``("ok", value)``, ``("timeout", None)`` when the deadline
    expired first (the worker thread is abandoned), or ``("error", exc)``
    when ``fn`` raised.  The caller's thread-local fault table is installed
    in the worker thread, so ``inject_fault`` works across the boundary.
    With ``deadline_ms=None`` this degenerates to a plain guarded call on
    the current thread — no watchdog thread is spawned.
    """
    if deadline_ms is None:
        try:
            return ("ok", fn())
        except BaseException as exc:  # noqa: BLE001 — containment wall
            return ("error", exc)

    faults = current_faults()
    box: Dict[str, object] = {}

    def target():
        try:
            with install_faults(faults):
                box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — containment wall
            box["exc"] = exc

    thread = threading.Thread(
        target=target, daemon=True, name="fg-deadline-worker"
    )
    thread.start()
    thread.join(deadline_ms / 1000.0)
    if thread.is_alive():
        return ("timeout", None)
    if "exc" in box:
        return ("error", box["exc"])
    return ("ok", box.get("value"))


def crash_report_from_exception(exc: BaseException,
                                where: str = "worker") -> CrashReport:
    frames = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(frames).rstrip().splitlines()[-TRACEBACK_TAIL:]
    return CrashReport(
        exc_type=type(exc).__name__,
        message=str(exc),
        where=where,
        traceback=tuple(tail),
    )


def run_attempt(
    text: str,
    filename: str,
    check_kwargs: Dict[str, object],
    faults: Dict[str, object],
    deadline_ms: Optional[float],
    telemetry: Optional[Dict[str, object]] = None,
    *,
    fatal: Tuple[type, ...] = (),
) -> AttemptResult:
    """One attempt, under the watchdog when a deadline is set.

    With a ``telemetry`` stanza the attempt runs under its own fresh
    instrumentation (a coordinator bundle is not thread-safe, and a worker
    process has none) and ships what it saw back on the result — except a
    timed-out attempt reports nothing, since the abandoned thread may still
    be writing to its tracer.  Exceptions of a ``fatal`` type propagate
    instead of being contained: a pool worker passes
    ``(KeyboardInterrupt, SystemExit)`` so deliberate kills still end the
    process, while the thread wall contains them as crashes.
    """
    from repro.pipeline import check_source

    instrumentation = build_task_instrumentation(telemetry)

    def attempt():
        kwargs = check_kwargs
        if instrumentation is not None:
            kwargs = dict(check_kwargs, instrumentation=instrumentation)
        with install_faults(faults):
            return check_source(text, filename, **kwargs)

    start = time.perf_counter()
    start_ns = time.perf_counter_ns()
    kind, value = run_with_deadline(attempt, deadline_ms)
    end_ns = time.perf_counter_ns()
    duration_ms = round((time.perf_counter() - start) * 1e3, 3)
    if kind == "timeout":
        return AttemptResult(status="timeout", duration_ms=duration_ms)
    if kind == "error" and isinstance(value, fatal):
        raise value
    observed = telemetry_result(instrumentation, telemetry, start_ns, end_ns)
    if kind == "error":
        # A MemoryError is the governor's fault kind, not a generic crash:
        # the containment wall held, and the retry policy treats it as
        # transient (a fresh worker has a clean heap).
        status = "memory" if isinstance(value, MemoryError) else "crash"
        return AttemptResult(
            status=status,
            crash=crash_report_from_exception(value),
            duration_ms=duration_ms,
            telemetry=observed,
        )
    status, diagnostics, severities, rendered = outcome_projection(value)
    return AttemptResult(
        status=status,
        diagnostics=diagnostics,
        severities=severities,
        rendered=rendered,
        duration_ms=duration_ms,
        telemetry=observed,
    )


def task_payload(
    text: str,
    filename: str,
    check_kwargs: Dict[str, object],
    exception_faults: List[Dict[str, str]],
    fault_specs: Tuple[FaultSpec, ...],
    hang_s: float,
    telemetry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON task shape the pool ships to a worker process.

    ``check_kwargs`` crosses whole, with its
    :class:`~repro.diagnostics.limits.Limits` as a dict, so a new keyword
    or budget reaches the worker without this function changing.
    ``telemetry`` is the :func:`telemetry_request` stanza (``None`` keeps
    workers instrumentation-free, the fast path).
    """
    limits = check_kwargs.get("limits")
    return {
        "text": text,
        "filename": filename,
        "check_kwargs": dict(
            check_kwargs, limits=None if limits is None else limits.to_json()
        ),
        "exception_faults": list(exception_faults),
        "fault_specs": [spec.to_json() for spec in fault_specs],
        "hang_s": hang_s,
        "telemetry": telemetry,
    }


def unpack_task(frame: Dict[str, object]
                ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """A task frame's ``check_kwargs`` and fault table, rebuilt in the
    worker process: the inverse of :func:`task_payload`.

    The faults are the caller's serialized ambient exceptions plus the
    scheduled chaos specs, materialized for a process wall (``kill`` is a
    real ``os._exit``).
    """
    from repro.diagnostics.limits import Limits
    from repro.service.faults import deserialize_exception_faults

    check_kwargs = dict(frame["check_kwargs"])
    if check_kwargs.get("limits") is not None:
        check_kwargs["limits"] = Limits(**check_kwargs["limits"])
    faults = deserialize_exception_faults(frame["exception_faults"])
    for data in frame["fault_specs"]:
        spec = FaultSpec.from_json(data)
        faults[spec.stage] = spec.materialize(
            frame["hang_s"], in_subprocess=True,
        )
    return check_kwargs, faults
