"""The fault-tolerant checking pipeline: lex → parse → check → run.

Library entry points (:func:`repro.fg_check` etc.) are fail-fast: they raise
the first :class:`~repro.diagnostics.Diagnostic`.  Tools want the opposite —
report *every* independent problem, never crash, and stay within resource
budgets.  :func:`check_source` is that driver:

- the resilient parser resynchronizes at statement boundaries, so several
  syntax errors surface in one run;
- :func:`~repro.fg.typecheck.typecheck_all` recovers at binding boundaries
  with the :data:`~repro.fg.ast.ERROR` poison type;
- everything runs under :func:`~repro.diagnostics.resource_scope`, so deep
  or diverging input becomes a :class:`ResourceLimitError` diagnostic and
  ``sys.getrecursionlimit()`` is untouched afterwards;
- the only exceptions that escape are genuine bugs — the crash-resilience
  suite (``tests/properties/test_crash_resilience.py``) fuzzes this contract.

:func:`inject_fault` plants an artificial internal error at a named stage so
the CLI's "internal error" path (exit code 3) is testable.  Fault state is
**thread-local**: a fault injected in one thread never fires in a batch
worker running concurrently in another.  :func:`current_faults` /
:func:`install_faults` move a fault table across a thread boundary on
purpose (the batch service does this for its watchdogged workers), and
:mod:`repro.service.faults` serializes declarative fault specs across the
process boundary for ``isolate="pool"`` workers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.diagnostics.errors import Diagnostic
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.fg import ast as G
from repro.observability import Instrumentation, NULL_TRACER
from repro.systemf import ast as F

#: Pipeline stages, in order; :func:`inject_fault` targets one by name.
STAGES = ("parse", "check", "evaluate", "verify")


class _FaultState(threading.local):
    """Per-thread fault table (stage name → exception or callable)."""

    def __init__(self):
        self.faults: Dict[str, object] = {}


_FAULT_STATE = _FaultState()

_MISSING = object()


@contextmanager
def inject_fault(stage: str, exc):
    """Fire ``exc`` when *this thread's* pipeline reaches ``stage``.

    ``exc`` is either an exception instance (raised at the stage) or a
    zero-argument callable (called at the stage — the chaos harness uses
    this to inject hangs via ``time.sleep``).  State is thread-local; use
    :func:`current_faults`/:func:`install_faults` to hand a fault table to
    a worker thread.  Nested injections at the same stage restore the outer
    fault on exit.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown pipeline stage: {stage!r}")
    faults = _FAULT_STATE.faults
    prior = faults.get(stage, _MISSING)
    faults[stage] = exc
    try:
        yield
    finally:
        if prior is _MISSING:
            faults.pop(stage, None)
        else:
            faults[stage] = prior


def current_faults() -> Dict[str, object]:
    """A snapshot of the calling thread's fault table (for propagation)."""
    return dict(_FAULT_STATE.faults)


@contextmanager
def install_faults(faults: Optional[Dict[str, object]]):
    """Install a whole fault table in the current thread; restore on exit.

    Worker threads (and the subprocess child entry point) run their task
    under this so faults injected by the coordinating thread — or shipped
    in a chaos schedule — fire inside the isolated worker.
    """
    if not faults:
        yield
        return
    state = _FAULT_STATE.faults
    saved = dict(state)
    state.update(faults)
    try:
        yield
    finally:
        state.clear()
        state.update(saved)


def _maybe_fault(stage: str) -> None:
    fault = _FAULT_STATE.faults.get(stage)
    if fault is None:
        return
    if isinstance(fault, BaseException):
        raise fault
    fault()


@dataclass(frozen=True)
class CheckOutcome:
    """Everything one pipeline run produced.

    ``term``/``type_``/``translation`` are best-effort partial results and
    are only trustworthy when ``ok``; ``value`` is set when evaluation was
    requested and succeeded, ``verified`` when the Theorem 1/2 re-check was
    requested and passed.
    """

    report: DiagnosticReport
    term: Optional[G.Term] = None
    type_: Optional[G.FGType] = None
    translation: Optional[F.Term] = None
    value: object = None
    evaluated: bool = False
    verified: bool = False
    #: Observability snapshot (``None`` unless instrumentation was passed):
    #: ``{"timings_ms": {stage: ms, "total": ms}, "counters": {...},
    #: "histograms": {...}}`` plus ``"memory_peak_kb"`` per stage when a
    #: :class:`~repro.observability.MemoryAccountant` was threaded through —
    #: see docs/OBSERVABILITY.md for the catalog.
    stats: Optional[Dict[str, object]] = None
    #: The :class:`~repro.observability.ExplainLog` used for this run, when
    #: explain mode was on.
    explain: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.report.ok


@contextmanager
def _stage(name: str, tracer, timings: Optional[Dict[str, float]],
           memory=None):
    """Wrap one pipeline stage in a tracer span, optional timing, and
    (when a :class:`~repro.observability.MemoryAccountant` is threaded
    through) per-stage peak-memory accounting."""
    start = time.perf_counter_ns() if timings is not None else 0
    accounting = memory.stage(name) if memory is not None else nullcontext()
    with tracer.span(f"pipeline.{name}"), accounting:
        try:
            yield
        finally:
            if timings is not None:
                elapsed = (time.perf_counter_ns() - start) / 1e6
                timings[name] = round(timings.get(name, 0.0) + elapsed, 3)


def check_source(
    text: str,
    filename: str = "<input>",
    *,
    prelude: bool = False,
    ext: bool = False,
    max_errors: int = 20,
    limits: Optional[Limits] = None,
    evaluate: bool = False,
    verify: bool = False,
    instrumentation: Optional[Instrumentation] = None,
) -> CheckOutcome:
    """Run F_G source through the fault-tolerant pipeline.

    Never raises a :class:`Diagnostic`: all of them land in the returned
    outcome's report.  Any other exception escaping this function is a bug.

    When ``instrumentation`` is passed (see :mod:`repro.observability`),
    every stage runs under a tracer span, stage wall times and checker/
    evaluator metrics are snapshotted into ``outcome.stats``, and — with
    explain mode on — model resolutions land in ``outcome.explain``.
    """
    if instrumentation is None:
        return _run_stages(
            text, filename, prelude=prelude, ext=ext, max_errors=max_errors,
            limits=limits, evaluate=evaluate, verify=verify,
            tracer=NULL_TRACER, timings=None, instrumentation=None,
        )
    timings: Dict[str, float] = {}
    tracer = instrumentation.tracer
    total_start = time.perf_counter_ns()
    with tracer.span("pipeline.check_source", filename=filename):
        outcome = _run_stages(
            text, filename, prelude=prelude, ext=ext, max_errors=max_errors,
            limits=limits, evaluate=evaluate, verify=verify,
            tracer=tracer, timings=timings, instrumentation=instrumentation,
        )
    timings["total"] = round((time.perf_counter_ns() - total_start) / 1e6, 3)
    metrics = instrumentation.metrics
    stats: Dict[str, object] = {"timings_ms": timings}
    if instrumentation.memory is not None:
        stats["memory_peak_kb"] = instrumentation.memory.peaks_kb()
    if metrics is not None:
        for diag in outcome.report.diagnostics:
            metrics.inc(
                f"diagnostics.{getattr(diag, 'severity', 'error')}"
            )
        stats.update(metrics.snapshot())
    return replace(outcome, stats=stats, explain=instrumentation.explain)


def _run_stages(
    text: str,
    filename: str,
    *,
    prelude: bool,
    ext: bool,
    max_errors: int,
    limits: Optional[Limits],
    evaluate: bool,
    verify: bool,
    tracer,
    timings: Optional[Dict[str, float]],
    instrumentation: Optional[Instrumentation],
) -> CheckOutcome:
    from repro.syntax.parser_fg import parse_program_resilient

    memory = instrumentation.memory if instrumentation is not None else None
    reporter = DiagnosticReporter(max_errors=max_errors)
    if prelude:
        from repro.prelude import relocator, wrap
        reporter.relocate = relocator(text, filename)
        text = wrap(text)
    _maybe_fault("parse")
    try:
        # The parser recurses on nesting depth; the scope converts a stack
        # overflow on pathological input into a ResourceLimitError.
        with _stage("parse", tracer, timings, memory), \
                resource_scope(limits):
            term, _ = parse_program_resilient(
                text, filename, max_errors=max_errors, reporter=reporter
            )
    except Diagnostic as err:
        # Lexer errors surface through the reporter; this is a backstop for
        # diagnostics raised outside the resilient loop.
        reporter.error(err)
        term = None
    if term is None or not reporter.finish().ok:
        return CheckOutcome(report=reporter.finish(), term=term)

    _maybe_fault("check")
    if ext:
        from repro.extensions import typecheck_all
    else:
        from repro.fg.typecheck import typecheck_all
    with _stage("check", tracer, timings, memory):
        type_, translation, _ = typecheck_all(
            term, limits=limits, reporter=reporter,
            instrumentation=instrumentation,
        )
    outcome = CheckOutcome(
        report=reporter.finish(),
        term=term,
        type_=type_,
        translation=translation,
    )
    if not outcome.ok or translation is None:
        return outcome

    verified = False
    if verify:
        _maybe_fault("verify")
        try:
            with _stage("verify", tracer, timings, memory):
                if ext:
                    from repro.extensions import verify_translation

                    verify_translation(term)
                else:
                    from repro.fg.typecheck import verify_translation

                    verify_translation(term)
            verified = True
        except Diagnostic as err:
            reporter.error(err)
            return CheckOutcome(
                report=reporter.finish(),
                term=term,
                type_=type_,
                translation=translation,
            )

    value = None
    evaluated = False
    if evaluate:
        _maybe_fault("evaluate")
        from repro.systemf import evaluate as sf_evaluate

        budget = Budget(limits)
        metrics = (
            instrumentation.metrics if instrumentation is not None else None
        )
        try:
            with _stage("evaluate", tracer, timings, memory):
                value = sf_evaluate(translation, budget=budget)
            evaluated = True
        except Diagnostic as err:
            reporter.error(err)
            return CheckOutcome(
                report=reporter.finish(),
                term=term,
                type_=type_,
                translation=translation,
                verified=verified,
            )
        finally:
            if metrics is not None:
                metrics.inc("eval.steps", budget.steps_taken)

    return CheckOutcome(
        report=reporter.finish(),
        term=term,
        type_=type_,
        translation=translation,
        value=value,
        evaluated=evaluated,
        verified=verified,
    )
