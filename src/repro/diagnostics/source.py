"""Source text, positions, and spans.

The lexer produces tokens tagged with :class:`Span` values; parsers propagate
them onto AST nodes so that type errors can point back into the program text.
:class:`Position` and :class:`Span` are named tuples: the lexer builds one
per token boundary, and a tuple is the cheapest immutable record to build.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


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
    """A half-open region of source text, from ``start`` up to ``end``."""

    start: Position
    end: Position
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    def merge(self, other: Optional["Span"]) -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        if other is None:
            return self
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return Span(start, end, self.filename)


#: Span used for synthesized nodes with no source location.
SYNTHETIC = Span(Position(0, 0, 0), Position(0, 0, 0), "<synthetic>")


@dataclass
class SourceText:
    """Program text plus an index of line-start offsets for fast lookups."""

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
        """The :class:`Position` of the character at byte ``offset``."""
        offset = max(0, min(offset, len(self.text)))
        line_idx = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_idx] + 1
        return Position(line_idx + 1, column, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        """Build a :class:`Span` from two byte offsets."""
        return Span(
            self.position_at(start_offset),
            self.position_at(end_offset),
            self.filename,
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
        raw = self.line(span.start.line)
        if not raw:
            return ""
        start_col = min(span.start.column - 1, len(raw))
        # Expand tabs in both the displayed line and the caret padding so
        # the underline stays aligned however the line is indented.
        line_text = raw.expandtabs(4)
        caret_col = len(raw[:start_col].expandtabs(4))
        if span.end.line == span.start.line:
            end_col = min(span.end.column - 1, len(raw))
            width = max(1, len(raw[:end_col].expandtabs(4)) - caret_col)
        else:
            width = max(1, len(line_text) - caret_col)
        gutter = f"{span.start.line:>5} | "
        underline = " " * (len(gutter) + caret_col) + "^" * width
        return f"{gutter}{line_text}\n{underline}"
