"""Unit tests for the shared lexer."""

import pytest

from repro.diagnostics.errors import LexError
from repro.diagnostics.reporter import DiagnosticReporter
from repro.diagnostics.source import SourceText
from repro.syntax.lexer import LOOKAHEAD, stream, tokenize


def kinds(text: str):
    return [t.kind for t in tokenize(SourceText(text))]


def texts(text: str):
    return [t.text for t in tokenize(SourceText(text)) if t.kind != "EOF"]


class TestTokens:
    def test_empty_input(self):
        assert kinds("") == ["EOF"]

    def test_identifiers_and_keywords(self):
        assert kinds("foo concept bar model") == [
            "IDENT", "concept", "IDENT", "model", "EOF",
        ]

    def test_primed_identifiers(self):
        assert texts("x' foo_bar Baz9") == ["x'", "foo_bar", "Baz9"]

    def test_numbers(self):
        assert texts("0 42 -7") == ["0", "42", "-7"]

    def test_negative_vs_arrow(self):
        assert kinds("-> -1") == ["->", "NUMBER", "EOF"]

    def test_symbols_longest_match(self):
        assert kinds("== = -> /\\ \\ .") == [
            "==", "=", "->", "/\\", "\\", ".", "EOF",
        ]

    def test_angle_brackets_single(self):
        # Nested generics close with two separate '>' tokens.
        assert kinds("A<B<t>>") == [
            "IDENT", "<", "IDENT", "<", "IDENT", ">", ">", "EOF",
        ]

    def test_all_keywords_recognized(self):
        for kw in ["concept", "model", "refines", "types", "require",
                   "where", "in", "let", "fn", "forall", "list", "if",
                   "then", "else", "fix", "type", "nth", "use", "true",
                   "false", "int", "bool", "unit"]:
            assert kinds(kw) == [kw, "EOF"]


class TestComments:
    def test_line_comment(self):
        assert kinds("1 // comment here\n2") == ["NUMBER", "NUMBER", "EOF"]

    def test_block_comment(self):
        assert kinds("1 /* anything \n at all */ 2") == [
            "NUMBER", "NUMBER", "EOF",
        ]

    def test_block_comment_vs_tylam(self):
        assert kinds("/\\t. t") == ["/\\", "IDENT", ".", "IDENT", "EOF"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize(SourceText("1 /* never closed"))

    def test_comment_at_end_without_newline(self):
        assert kinds("1 // trailing") == ["NUMBER", "EOF"]


class TestErrorsAndSpans:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize(SourceText("a @ b"))
        assert "@" in str(excinfo.value)

    def test_spans_track_lines(self):
        tokens = tokenize(SourceText("a\n  b"))
        assert tokens[0].span.start.line == 1
        assert tokens[1].span.start.line == 2
        assert tokens[1].span.start.column == 3

    def test_superscript_digit_is_not_a_number(self):
        # ``str.isdigit`` accepts ``²`` but ``int()`` does not; the lexer
        # takes only decimal digits, so a lone ``²`` is a lex error.
        for text in ("\u00b2", "-\u00b2"):
            with pytest.raises(LexError, match="unexpected character"):
                tokenize(SourceText(text))
        reporter = DiagnosticReporter()
        tokens = tokenize(SourceText("1\u00b2 x"), reporter)
        assert [t.text for t in tokens] == ["1", "x", ""]
        (err,) = reporter.finish().diagnostics
        assert err.span.start.column == 2

    def test_superscript_continues_an_identifier(self):
        assert kinds("x\u00b2") == ["IDENT", "EOF"]
        assert texts("x\u00b2") == ["x\u00b2"]

    def test_arabic_indic_digit_is_a_number(self):
        assert kinds("\u0663") == ["NUMBER", "EOF"]
        assert texts("-\u0663 1\u0663") == ["-\u0663", "1\u0663"]

    def test_unicode_letters_in_identifiers(self):
        assert texts("\u00e9t\u00e9 ab\u00e9c") == [
            "\u00e9t\u00e9", "ab\u00e9c",
        ]

    def test_span_excerpt_renders(self):
        source = SourceText("let x = oops in x")
        tokens = tokenize(source)
        oops = next(t for t in tokens if t.text == "oops")
        excerpt = source.excerpt(oops.span)
        assert "oops" in excerpt
        assert "^^^^" in excerpt


class TestTokenStream:
    def test_lookahead_past_the_end_is_eof(self):
        ts = stream("a b")
        assert [ts.kind(i) for i in range(LOOKAHEAD + 1)] == [
            "IDENT", "IDENT", "EOF",
        ]
        ts.skip()
        ts.skip()
        assert [ts.kind(i) for i in range(LOOKAHEAD + 1)] == [
            "EOF",
        ] * (LOOKAHEAD + 1)

    def test_cursor_stops_at_eof(self):
        ts = stream("a")
        assert ts.text(ts.take("IDENT")) == "a"
        at_eof = ts.pos
        assert ts.kinds[ts.skip()] == "EOF"
        assert ts.match("EOF")
        assert ts.kinds[ts.take("EOF")] == "EOF"
        assert ts.pos == at_eof
        assert not ts.match("IDENT")
