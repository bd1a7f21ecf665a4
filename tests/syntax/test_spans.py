"""Offset spans: positions worked out on read equal the eager ones.

A :class:`Span` holds two offsets and the :class:`SourceText` they index;
its ``start`` and ``end`` positions are computed when read.
:func:`eager_position` is the lookup spans were built with before, when
every span carried its two positions: a line-start index built with
``str.find``, then one ``bisect`` per offset.  Every offset of every text
below is checked against it.  The rendered forms (``str(span)``, excerpts,
report JSON and text) are checked against fixed expected output.
"""

import bisect

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.reporter import DiagnosticReporter, diagnostic_to_dict
from repro.diagnostics.source import SYNTHETIC, Position, SourceText, Span
from repro.observability.explain import format_span
from repro.pipeline import check_source
from repro.syntax.lexer import tokenize

#: ``\r\n`` line ends, tabs, blank lines, non-ASCII letters, and (except
#: where the text is only line ends) no final newline.
TEXTS = [
    "",
    "x",
    "\n",
    "\t\t\r\n\r\n\r\n",
    "let a = 1 in\r\n\tlet b = 2 in\r\n\r\n  iadd(a, b)",
    "// über\n\tlet été = 1 in\r\n\r\n\n  iadd(été, 2)\t",
    "concept C<t> { op : t; } in\n\n\tmodel C<int> { op = 0; } in\r\n"
    "  C<int>.op",
]


def eager_position(text: str, offset: int) -> Position:
    starts = [0]
    i = text.find("\n")
    while i != -1:
        i += 1
        starts.append(i)
        i = text.find("\n", i)
    offset = max(0, min(offset, len(text)))
    line_idx = bisect.bisect_right(starts, offset) - 1
    return Position(line_idx + 1, offset - starts[line_idx] + 1, offset)


class TestLazyPositions:
    def test_every_offset(self):
        for text in TEXTS:
            source = SourceText(text, "t.fg")
            n = len(text)
            for lo in range(n + 1):
                want = eager_position(text, lo)
                assert source.position_at(lo) == want
                for hi in (lo, n):
                    for span in (source.span(lo, hi), Span(lo, hi, source)):
                        assert (span.lo, span.hi) == (lo, hi)
                        assert span.start == want, (text, lo)
                        assert span.end == eager_position(text, hi)
                        assert span.filename == "t.fg"

    def test_every_token(self):
        for text in TEXTS:
            source = SourceText(text, "t.fg")
            for token in tokenize(source):
                span = token.span
                assert span.source is source
                assert span.start == eager_position(text, span.lo)
                assert span.end == eager_position(text, span.hi)

    def test_offsets_clamp_into_the_text(self):
        source = SourceText("ab\ncd")
        span = source.span(-3, 99)
        assert (span.lo, span.hi) == (0, 5)
        assert span.start == Position(1, 1, 0)
        assert span.end == Position(2, 3, 5)


class TestSynthetic:
    def test_formats_as_before(self):
        assert str(SYNTHETIC) == "<synthetic>:0:0"
        assert SYNTHETIC.start == SYNTHETIC.end == Position(0, 0, 0)
        assert SYNTHETIC.filename == "<synthetic>"

    def test_empty_excerpt(self):
        for text in TEXTS:
            assert SourceText(text).excerpt(SYNTHETIC) == ""

    def test_sorts_after_positioned_diagnostics(self):
        source = SourceText("let a = 1 in\r\n\ta", "t.fg")
        reporter = DiagnosticReporter()
        reporter.error(TypeError_("synthetic", SYNTHETIC))
        reporter.error(TypeError_("late", source.span(15, 16)))
        reporter.error(TypeError_("unpositioned"))
        reporter.error(TypeError_("early", source.span(4, 5)))
        report = reporter.finish()
        assert [d.message for d in report] == [
            "early", "late", "synthetic", "unpositioned",
        ]
        assert diagnostic_to_dict(report.diagnostics[2]) == {
            "severity": "error", "kind": "type error",
            "message": "synthetic", "file": None, "line": None, "col": None,
        }
        assert str(report.diagnostics[2]) == "type error: synthetic"


class TestHashable:
    def test_spans_hash_and_compare(self):
        source = SourceText("let a = 1 in a")
        spans = [token.span for token in tokenize(source)]
        assert len(set(spans)) == len(spans)
        assert {source.span(4, 5): "a"}[Span(4, 5, source)] == "a"
        assert hash(SYNTHETIC) == hash(SYNTHETIC)

    def test_sources_compare_by_identity(self):
        a, b = SourceText("x"), SourceText("x")
        assert a == a and a != b
        assert a.span(0, 1) != b.span(0, 1)
        assert len({a, b}) == 2


class TestRenderedForms:
    TEXT = "// über\n\tlet été = 1 in\r\n\r\n\n  iadd(été, 2)\t"

    def test_str_and_excerpt(self):
        source = SourceText(self.TEXT, "t.fg")
        cases = [
            ((0, 2), "t.fg:1:1", "    1 | // über\n        ^^"),
            ((13, 16), "t.fg:2:6",
             "    2 |     let été = 1 in\r\n                ^^^"),
            ((9, 30), "t.fg:2:2",
             "    2 |     let été = 1 in\r\n            ^^^^^^^^^^^^^^^"),
            ((31, 33), "t.fg:5:4",
             "    5 |   iadd(été, 2)  \n           ^^"),
            ((43, 43), "t.fg:5:16",
             "    5 |   iadd(été, 2)  \n                        ^"),
        ]
        for (lo, hi), where, excerpt in cases:
            span = source.span(lo, hi)
            assert str(span) == where
            assert format_span(span) == where
            assert source.excerpt(span) == excerpt
        assert format_span(SYNTHETIC) is None

    def test_report_json_and_render(self):
        text = "let a = iadd(1, true) in\r\n\tlet b = if 3 then 4 else 5 in" \
            "\r\n\r\nlet café = (1)(2) in\n\t\tzz"
        report = check_source(text, "crlf.fg").report
        assert [(d["file"], d["line"], d["col"]) for d in report.to_json()] \
            == [("crlf.fg", 1, 17), ("crlf.fg", 2, 10), ("crlf.fg", 4, 15),
                ("crlf.fg", 5, 3)]
        assert report.render().splitlines()[3] == (
            "crlf.fg:5:3: type error: unbound variable 'zz'"
        )

        report = check_source(self.TEXT.replace("2)", "@) $"), "lex.fg").report
        assert report.to_json() == [
            {"severity": "error", "kind": "lex error",
             "message": "unexpected character '@'",
             "file": "lex.fg", "line": 5, "col": 13},
            {"severity": "error", "kind": "parse error",
             "message": "expected an expression, found ')'",
             "file": "lex.fg", "line": 5, "col": 14},
            {"severity": "error", "kind": "lex error",
             "message": "unexpected character '$'",
             "file": "lex.fg", "line": 5, "col": 16},
        ]
        assert report.render() == (
            "lex.fg:5:13: lex error: unexpected character '@'\n"
            "    5 |   iadd(été, @) $    \n"
            "                    ^\n"
            "lex.fg:5:14: parse error: expected an expression, found ')'\n"
            "    5 |   iadd(été, @) $    \n"
            "                     ^\n"
            "lex.fg:5:16: lex error: unexpected character '$'\n"
            "    5 |   iadd(été, @) $    \n"
            "                       ^"
        )

        report = check_source("let x =\r\n\tin x", "p.fg").report
        assert report.render() == (
            "p.fg:2:2: parse error: expected an expression, found 'in'\n"
            "    2 |     in x\n"
            "            ^^"
        )
