"""The fault-tolerant checking pipeline: lex → parse → check → run.

:func:`check_source` is the one driver from F_G source text to a verdict:
it reports every independent problem, never crashes, and keeps resource
budgets:

- the resilient parser resynchronizes at statement boundaries, so several
  syntax errors surface in one run;
- :func:`~repro.fg.typecheck.typecheck_all` recovers at binding boundaries
  with the :data:`~repro.fg.ast.ERROR` poison type;
- everything runs under :func:`~repro.diagnostics.resource_scope`, so deep
  or diverging input becomes a :class:`ResourceLimitError` diagnostic and
  ``sys.getrecursionlimit()`` is untouched afterwards;
- the only exceptions that escape are genuine bugs — the crash-resilience
  suite (``tests/properties/test_crash_resilience.py``) fuzzes this contract.

The fail-fast entry points (:func:`repro.fg_check` and its kin, the REPL)
are ``check_source(..., max_errors=1).raise_first()``.

:func:`inject_fault` plants an artificial internal error at a named stage
so the CLI's "internal error" path (exit code 3) is testable.  The
thread-local fault table and its helpers live in :mod:`repro.faultinject`
(which loads nothing of the checker, so the batch service can move fault
tables without loading it) and are re-exported here; each stage reads the
table through :func:`_maybe_fault`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.diagnostics.errors import Diagnostic
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.faultinject import (  # noqa: F401 — re-exported
    STAGES,
    _FAULT_STATE,
    current_faults,
    inject_fault,
    install_faults,
)
from repro.observability import Instrumentation, NULL_TRACER
from repro.observability.tracer import stage_span

# The stages' modules load with the pipeline, so no attempt's deadline
# clock pays for them.  Each stage still looks its names up on the module
# when it runs, so a name patched there is the one that runs.
import repro.prelude.context as _context
import repro.syntax.parser_fg as _parser

#: The checker module (the package attribute ``repro.fg.typecheck`` is the
#: entry-point function of that name).
_checker = importlib.import_module("repro.fg.typecheck")

if TYPE_CHECKING:
    from repro.fg import ast as G
    from repro.systemf import ast as F


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
    requested and succeeded, ``verified`` (and ``sf_type``, the System F
    type of the translation) when the Theorem 1/2 check of the emitted
    translation was requested and passed.
    """

    report: DiagnosticReport
    term: Optional[G.Term] = None
    type_: Optional[G.FGType] = None
    translation: Optional[F.Term] = None
    value: object = None
    evaluated: bool = False
    verified: bool = False
    sf_type: Optional[F.Type] = None
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

    def raise_first(self) -> "CheckOutcome":
        """Fail-fast: raise the report's first error unless the run is ok;
        otherwise return the outcome."""
        if not self.ok:
            raise self.report.errors[0]
        return self


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
    memory = instrumentation.memory if instrumentation is not None else None
    reporter = DiagnosticReporter(max_errors=max_errors)
    _maybe_fault("parse")
    try:
        # The parser recurses on nesting depth; the scope converts a stack
        # overflow on pathological input into a ResourceLimitError.
        with stage_span("parse", tracer, timings, memory), \
                resource_scope(limits):
            term = _parser.parse_recovering(text, filename, reporter)
    except Diagnostic as err:
        # Lexer errors surface through the reporter; this is a backstop for
        # diagnostics raised outside the resilient loop.
        reporter.error(err)
        term = None
    if term is None or reporter.error_count:
        return CheckOutcome(report=reporter.finish(), term=term)

    _maybe_fault("check")
    if ext:
        from repro.extensions import ExtChecker as checker_cls
    else:
        checker_cls = _checker.Checker
    with stage_span("check", tracer, timings, memory):
        # The program is checked at the position its library leaves for
        # it: the pre-checked prelude (built on first use) or the empty
        # library.
        context = _context.context_for(checker_cls, prelude)
        type_, translation = _checker._run_collecting(
            checker_cls, term, context, reporter=reporter, limits=limits,
            instrumentation=instrumentation,
        )
    if reporter.error_count or translation is None:
        return CheckOutcome(
            report=reporter.finish(),
            term=term,
            type_=type_,
            translation=translation,
        )

    verified = False
    sf_type = None
    if verify:
        _maybe_fault("verify")
        try:
            # Theorems 1/2 on the artifact shipped: type the emitted
            # translation, no second F_G check.  Only the program's part is
            # typed, inside the context's typed prefix (empty without the
            # prelude).
            with stage_span("verify", tracer, timings, memory):
                sf_type = _checker.verify_emitted(
                    type_, translation, checker=checker_cls(limits=limits),
                    context=context,
                )
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
        budget = Budget(limits)
        metrics = (
            instrumentation.metrics if instrumentation is not None else None
        )
        try:
            # Only the program's part runs, inside the runtime environment
            # the context recorded; the budget is charged the prefix's steps.
            with stage_span("evaluate", tracer, timings, memory):
                value = context.evaluate(translation, budget)
            evaluated = True
        except Diagnostic as err:
            reporter.error(err)
            return CheckOutcome(
                report=reporter.finish(),
                term=term,
                type_=type_,
                translation=translation,
                verified=verified,
                sf_type=sf_type,
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
        sf_type=sf_type,
    )
