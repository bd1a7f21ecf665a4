"""Accumulating diagnostic reporting (multi-error pipelines).

The fail-fast API (``parse_fg``/``typecheck`` raising on the first
:class:`Diagnostic`) is what a library caller wants; a *tool* wants every
error in one pass, the way a production compiler front end reports them.
This module provides the collecting half:

- :class:`DiagnosticReporter` — accumulates positioned diagnostics with
  error/warning/note severities and a configurable ``max_errors`` cap;
- :class:`DiagnosticReport` — the immutable result: diagnostics in stable
  source order, with rendering and JSON projections.

The resilient parser (:func:`repro.syntax.parser_fg.parse_program_resilient`)
and the recovering checker (:func:`repro.fg.typecheck.typecheck_all`) both
write into one reporter, so a single run reports lex, parse, and type errors
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.diagnostics.errors import Diagnostic

#: The three diagnostic severities, in decreasing order of gravity.
SEVERITIES = ("error", "warning", "note")


def _sort_key(diag: Diagnostic):
    """Stable source order: positioned diagnostics by (file, offset);
    unpositioned (and synthetic-span) diagnostics sort after them."""
    span = diag.span
    if span is None or span.filename == "<synthetic>":
        return (1, "", 0, 0)
    return (0, span.filename, span.start.offset, span.end.offset)


def diagnostic_to_dict(diag: Diagnostic) -> Dict[str, object]:
    """A machine-readable projection of one diagnostic (the CLI's --json)."""
    out: Dict[str, object] = {
        "severity": getattr(diag, "severity", "error"),
        "kind": diag.kind,
        "message": diag.message,
        "file": None,
        "line": None,
        "col": None,
    }
    if diag.span is not None and diag.span.filename != "<synthetic>":
        out["file"] = diag.span.filename
        out["line"] = diag.span.start.line
        out["col"] = diag.span.start.column
    return out


@dataclass(frozen=True)
class DiagnosticReport:
    """The outcome of a collecting run: diagnostics in stable source order."""

    diagnostics: Tuple[Diagnostic, ...]
    #: True when the error cap was hit and checking stopped early.
    truncated: bool = False

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics
            if getattr(d, "severity", "error") == "error"
        )

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics
            if getattr(d, "severity", "error") == "warning"
        )

    @property
    def notes(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics
            if getattr(d, "severity", "error") == "note"
        )

    @property
    def ok(self) -> bool:
        """True when the run produced no errors (warnings/notes allowed)."""
        return not self.errors

    def render(self) -> str:
        """All diagnostics, rendered the way the fail-fast path prints one."""
        parts = [str(d) for d in self.diagnostics]
        if self.truncated:
            parts.append(
                f"... too many errors, stopping after {len(self.errors)} "
                "(raise the error cap to see more)"
            )
        return "\n".join(parts)

    def to_json(self) -> List[Dict[str, object]]:
        return [diagnostic_to_dict(d) for d in self.diagnostics]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)


@dataclass
class DiagnosticReporter:
    """Accumulates diagnostics during a resilient pipeline run.

    ``max_errors`` caps *error*-severity diagnostics; once reached,
    :attr:`at_limit` turns true and the pipeline stages stop recovering
    (warnings and notes never count against the cap).
    """

    max_errors: int = 20
    #: Optional in-place position fix-up, applied to each diagnostic as it
    #: is emitted (``--prelude`` maps wrapped-text positions back onto the
    #: user's file), so a clean run never pays for it.
    relocate: Optional[Callable[[Diagnostic], None]] = None
    _diagnostics: List[Diagnostic] = field(default_factory=list)
    _error_count: int = 0

    def emit(self, diag: Diagnostic, severity: str = "error") -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        diag.severity = severity
        if self.relocate is not None:
            self.relocate(diag)
        self._diagnostics.append(diag)
        if severity == "error":
            self._error_count += 1

    def error(self, diag: Diagnostic) -> None:
        self.emit(diag, "error")

    def warning(self, diag: Diagnostic) -> None:
        self.emit(diag, "warning")

    def note(self, diag: Diagnostic) -> None:
        self.emit(diag, "note")

    @property
    def error_count(self) -> int:
        return self._error_count

    @property
    def at_limit(self) -> bool:
        return self._error_count >= self.max_errors

    def finish(self) -> DiagnosticReport:
        """Freeze into a report, stably sorted into source order."""
        ordered = sorted(self._diagnostics, key=_sort_key)
        return DiagnosticReport(
            tuple(ordered), truncated=self.at_limit
        )
