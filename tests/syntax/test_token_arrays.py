"""The lexer's output holds a bounded number of garbage-collected objects.

:func:`~repro.syntax.lexer.tokenize` keeps each token as a kind, a text and
a start offset in three parallel lists.  ``str`` and ``int`` values are
never tracked by CPython's cycle collector, so a token stream costs the
collector the same few objects whatever the length of the text; a
:class:`~repro.syntax.lexer.Token` and its span are built only when read.
The second half checks that the :class:`~repro.syntax.lexer.Tokens` view
still reads like the list of tokens it replaced.
"""

import gc
import sys
from pathlib import Path

import pytest

from repro.diagnostics.source import SourceText, Span
from repro.syntax import parse_fg
from repro.syntax.lexer import Token, stream, tokenize

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "fgbench"))
import workloads  # noqa: E402

#: A generic-stress program (Figure 5's ``accumulate``), and four copies of
#: it bound in one ``let`` chain.
PROGRAM = workloads.make("generic-stress", 1)[0].text
CHAIN = "".join(f"let v{i} = {PROGRAM} in\n" for i in range(3)) + PROGRAM


def new_tracked_objects(make) -> int:
    """How many more GC-tracked objects are alive while ``make()``'s
    result is held; the collector is off, so none is reclaimed early."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = make()
        after = len(gc.get_objects())
    finally:
        if enabled:
            gc.enable()
    assert kept is not None
    return after - before


class TestTrackedObjects:
    def test_the_chain_is_four_programs(self):
        assert parse_fg(CHAIN) is not None
        assert len(tokenize(SourceText(CHAIN))) > 4 * (
            len(tokenize(SourceText(PROGRAM))) - 1
        )

    def test_a_stream_tracks_a_bounded_number_of_objects(self):
        one = new_tracked_objects(lambda: stream(PROGRAM))
        four = new_tracked_objects(lambda: stream(CHAIN))
        tokens = len(tokenize(SourceText(PROGRAM)))
        # A tuple per token (or two) would add hundreds for three more
        # copies; the lists only grow.
        assert four - one <= 2, (one, four, tokens)
        assert one <= 10


class TestTokensView:
    TEXT = "let x = f(1)\n in x"

    def test_len_and_indexing(self):
        source = SourceText(self.TEXT, "t.fg")
        tokens = tokenize(source)
        assert len(tokens) == 10
        assert tokens[0] == Token("let", "let", Span(0, 3, source))
        eof = Token("EOF", "", Span(18, 18, source))
        assert tokens[-1] == tokens[9] == eof
        assert tokens[-2] == Token("IDENT", "x", Span(17, 18, source))
        assert tokens[5] == Token("NUMBER", "1", Span(10, 11, source))
        with pytest.raises(IndexError):
            tokens[10]
        with pytest.raises(IndexError):
            tokens[-11]

    def test_iteration_matches_indexing(self):
        source = SourceText(self.TEXT, "t.fg")
        tokens = tokenize(source)
        listed = list(tokens)
        assert listed == [tokens[i] for i in range(len(tokens))]
        assert [t.kind for t in listed] == [
            "let", "IDENT", "=", "IDENT", "(", "NUMBER", ")", "in", "IDENT",
            "EOF",
        ]
        assert [t.text for t in listed][:4] == ["let", "x", "=", "f"]
        assert listed[1:3] == tokens[1:3]

    def test_token_spans(self):
        source = SourceText(self.TEXT, "t.fg")
        for token in tokenize(source):
            span = token.span
            assert span.source is source
            assert source.text[span.lo:span.hi] == token.text
        within = tokenize(source)[-2].span
        assert (within.start.line, within.start.column) == (2, 5)
