"""Prelude loading: wrap user programs with the standard concept library.

Usage::

    from repro import prelude
    value = prelude.run("accumulate[int](range(1, 11))")   # => 55
"""

from typing import Callable, Tuple

from repro.diagnostics.errors import Diagnostic
from repro.diagnostics.source import Position, SourceText, Span
from repro.fg import ast as G
from repro.fg import typecheck as _typecheck
from repro.prelude.source import (
    PRELUDE,
    PRELUDE_ALGORITHMS,
    PRELUDE_CONCEPTS,
    PRELUDE_HELPERS,
    PRELUDE_MODELS,
)
from repro.syntax import parse_fg
from repro.systemf import ast as F
from repro.systemf import evaluate as _sf_evaluate


#: What :func:`wrap` puts in front of the user's program: it ends with a
#: newline, so user columns are unchanged and only lines/offsets shift.
_PREFIX = PRELUDE + "\n"
_PREFIX_LINES = _PREFIX.count("\n")


def wrap(program: str) -> str:
    """Prefix ``program`` with the full prelude."""
    return _PREFIX + program


def _unshift(pos: Position) -> Position:
    return Position(pos.line - _PREFIX_LINES, pos.column,
                    pos.offset - len(_PREFIX))


def relocator(program: str, filename: str) -> Callable[[Diagnostic], None]:
    """A :class:`~repro.diagnostics.reporter.DiagnosticReporter` hook for a
    run over ``wrap(program)``: moves each diagnostic's span from
    wrapped-text coordinates back onto the user's file and re-points its
    excerpt at the user's text.  A span inside the prelude itself is
    attributed to ``<prelude>``, whose lines are the wrapped text's."""

    def relocate(diag: Diagnostic) -> None:
        span = diag.span
        if span is None or span.filename == "<synthetic>":
            return
        if span.start.offset < len(_PREFIX):
            diag.span = Span(span.start, span.end, "<prelude>")
            return
        diag.span = Span(_unshift(span.start), _unshift(span.end), filename)
        if diag.source is not None:
            diag.source = SourceText(program, filename)

    return relocate


def parse(program: str, filename: str = "<input>") -> G.Term:
    """Parse ``program`` in the scope of the prelude."""
    return parse_fg(wrap(program), filename)


def typecheck(program: str) -> Tuple[G.FGType, F.Term]:
    """Typecheck (and translate) ``program`` in the scope of the prelude."""
    return _typecheck(parse(program))


def type_of(program: str) -> G.FGType:
    """The F_G type of ``program`` under the prelude."""
    return typecheck(program)[0]


def run(program: str):
    """Typecheck, translate, and evaluate ``program`` under the prelude."""
    _, sf_term = typecheck(program)
    return _sf_evaluate(sf_term)


__all__ = [
    "PRELUDE",
    "PRELUDE_ALGORITHMS",
    "PRELUDE_CONCEPTS",
    "PRELUDE_HELPERS",
    "PRELUDE_MODELS",
    "parse",
    "relocator",
    "run",
    "type_of",
    "typecheck",
    "wrap",
]
