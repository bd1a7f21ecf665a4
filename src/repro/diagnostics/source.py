"""Source text, positions, and spans.

The parsers tag AST nodes and diagnostics with :class:`Span` values so that
errors can point back into the program text.  A :class:`Span` is a named
tuple of two character offsets and the :class:`SourceText` they index: the
lexer keeps only each token's start offset and text, and a parser builds a
span only for a token that a node or a diagnostic keeps.  The line and
column of its ``start`` and ``end`` (:class:`Position` values) are
computed from the line-start index only when something reads them, which
for most spans is never.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple


class Position(NamedTuple):
    """A point in a source file: 1-based line, 1-based column, 0-based offset.

    Positions order by ``(line, column, offset)``.
    """

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span(NamedTuple):
    """A half-open region of ``source``, from offset ``lo`` up to ``hi``."""

    lo: int
    hi: int
    source: "SourceText"

    @property
    def start(self) -> Position:
        return self.source.position_at(self.lo)

    @property
    def end(self) -> Position:
        return self.source.position_at(self.hi)

    @property
    def filename(self) -> str:
        return self.source.filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"


@dataclass(eq=False)
class SourceText:
    """Program text plus an index of line-start offsets for fast lookups.

    Compares by identity, so the spans that hold it stay hashable.
    """

    text: str
    filename: str = "<input>"
    _line_starts: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # ``str.find`` (not ``self.text.find``): a non-string text fails
        # here with a TypeError, as any other str-only call would.
        text = self.text
        starts = [0]
        i = str.find(text, "\n")
        while i != -1:
            i += 1
            starts.append(i)
            i = str.find(text, "\n", i)
        self._line_starts = starts

    def position_at(self, offset: int) -> Position:
        """The :class:`Position` of the character at ``offset``."""
        offset = max(0, min(offset, len(self.text)))
        line_idx = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_idx] + 1
        return Position(line_idx + 1, column, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        """Build a :class:`Span` from two offsets, clamped into the text."""
        n = len(self.text)
        return Span(
            max(0, min(start_offset, n)), max(0, min(end_offset, n)), self
        )

    def line(self, lineno: int) -> str:
        """The text of 1-based line ``lineno``, without its newline."""
        if lineno < 1 or lineno > len(self._line_starts):
            return ""
        start = self._line_starts[lineno - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    def excerpt(self, span: Span) -> str:
        """A caret-underlined excerpt of the line where ``span`` starts."""
        start, end = span.start, span.end
        raw = self.line(start.line)
        if not raw:
            return ""
        start_col = min(start.column - 1, len(raw))
        # Expand tabs in both the displayed line and the caret padding so
        # the underline stays aligned however the line is indented.
        line_text = raw.expandtabs(4)
        caret_col = len(raw[:start_col].expandtabs(4))
        if end.line == start.line:
            end_col = min(end.column - 1, len(raw))
            width = max(1, len(raw[:end_col].expandtabs(4)) - caret_col)
        else:
            width = max(1, len(line_text) - caret_col)
        gutter = f"{start.line:>5} | "
        underline = " " * (len(gutter) + caret_col) + "^" * width
        return f"{gutter}{line_text}\n{underline}"


class _Nowhere(SourceText):
    """The source of :data:`SYNTHETIC`: every offset sits at ``0:0``."""

    def position_at(self, offset: int) -> Position:
        return Position(0, 0, 0)


#: Span used for synthesized nodes with no source location.
SYNTHETIC = Span(0, 0, _Nowhere("", "<synthetic>"))
