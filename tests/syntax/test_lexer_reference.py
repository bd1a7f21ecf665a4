"""The regex lexer and padded token stream match the per-character front end.

The reference below is the front end as it was before the lexer scanned with
one compiled pattern: :func:`ref_tokenize` walks the text one character at a
time into a list of :class:`Token` values, and :class:`RefTokenStream`
serves the parsers' index API over that list, clamping every lookahead
against its end instead of padding it.  The reference also counts every
line and column itself, one character at a time (:func:`ref_positions`),
and tags its tokens with eager :class:`RefSpan` values; the real lexer
keeps kinds, texts and offsets, and builds offset spans whose positions
:class:`SourceText` works out when read.  For each input the test compares

- every token (kind, text, start and end line/column/offset, filename),
- every lex diagnostic, raised (strict mode) and collected (recovery mode),
- the AST with its spans spelled out, and every diagnostic, of the F_G
  resilient parser and of the System F parser, each fed the reference
  tokens through the reference stream and then the real ones.

**The one permitted difference.**  The reference starts and extends a
``NUMBER`` on ``str.isdigit()``, which accepts digits that ``int()`` rejects
(``²``, ``①``), so such a ``NUMBER`` reached the parser and crashed it with
a ``ValueError``.  The lexer now uses ``str.isdecimal()``, and such a digit
is an "unexpected character" lex error.  Inputs where the reference lexes a
``NUMBER`` holding a non-decimal digit are therefore not compared; they are
checked to end in lex diagnostics instead (:func:`check_non_decimal`).  A
non-decimal digit inside an identifier (``x²``) or a comment lexes as it
always did and is compared like any other input.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, NamedTuple

from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import Diagnostic, LexError
from repro.diagnostics.reporter import DiagnosticReporter
from repro.diagnostics.source import Position, SourceText, Span
from repro.fg import ast as G
from repro.prelude import PRELUDE
from repro.syntax import lexer, parser_f, parser_fg
from repro.syntax.lexer import KEYWORDS, SYMBOLS, Token
from repro.systemf import ast as F

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from fg_gen import program_specs  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))


# -- the reference front end --------------------------------------------------


def ref_positions(text: str) -> List[Position]:
    """The position of every offset from 0 to ``len(text)``, counted one
    character at a time: each ``\\n`` starts a new line at column 1."""
    out = []
    line = column = 1
    for offset, ch in enumerate(text):
        out.append(Position(line, column, offset))
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    out.append(Position(line, column, len(text)))
    return out


class RefSpan(NamedTuple):
    """An eager span, built from :func:`ref_positions`.  It reads like a
    :class:`Span` to the parsers and the diagnostics."""

    start: Position
    end: Position
    filename: str

    @property
    def lo(self) -> int:
        return self.start.offset

    @property
    def hi(self) -> int:
        return self.end.offset

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"


def ref_tokenize(source: SourceText, reporter=None) -> List[Token]:
    """The per-character lexer, ``isdigit`` numbers included."""
    text = source.text
    n = len(text)
    at = ref_positions(text)

    def span(lo: int, hi: int) -> RefSpan:
        return RefSpan(at[lo], at[hi], source.filename)

    pos = 0
    tokens: List[Token] = []
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            pos = n if end == -1 else end + 1
            continue
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end == -1:
                err = LexError(
                    "unterminated block comment", span(pos, pos + 2)
                ).attach_source(source)
                if reporter is None:
                    raise err
                reporter.error(err)
                pos = n
                continue
            pos = end + 2
            continue
        if ch.isdigit() or (
            ch == "-" and pos + 1 < n and text[pos + 1].isdigit()
        ):
            start = pos
            pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(
                Token("NUMBER", text[start:pos], span(start, pos))
            )
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] in ("_", "'")):
                pos += 1
            word = text[start:pos]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, span(start, pos)))
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(
                    Token(sym, sym, span(pos, pos + len(sym)))
                )
                pos += len(sym)
                break
        else:
            err = LexError(
                f"unexpected character {ch!r}", span(pos, pos + 1)
            ).attach_source(source)
            if reporter is None:
                raise err
            reporter.error(err)
            pos += 1
    tokens.append(Token("EOF", "", span(n, n)))
    return tokens


class RefTokenStream(lexer.TokenStream):
    """The unpadded stream: every lookahead clamps to the final ``EOF``."""

    def __init__(self, tokens: List[Token], source: SourceText):
        self._tokens = tokens
        self.pos = 0
        self.source = source

    def kind(self, offset: int = 0) -> str:
        index = min(self.pos + offset, len(self._tokens) - 1)
        return self._tokens[index].kind

    def at(self, *kinds: str) -> bool:
        return self.kind() in kinds

    def skip(self) -> int:
        index = self.pos
        if self.kind() != "EOF":
            self.pos += 1
        return index

    def match(self, kind: str) -> bool:
        if self.at(kind):
            self.skip()
            return True
        return False

    def take(self, kind: str, context: str = "") -> int:
        from repro.diagnostics.errors import ParseError

        token = self._tokens[self.pos]
        if token.kind != kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind!r}{where}, found {token.kind!r}"
                + (f" ({token.text!r})" if token.text else ""),
                token.span,
            ).attach_source(self.source)
        return self.skip()

    def text(self, i: int) -> str:
        return self._tokens[i].text

    def span(self, i: int):
        return self._tokens[i].span


def ref_stream(text: str, filename: str = "<input>", reporter=None):
    source = SourceText(text, filename)
    return RefTokenStream(ref_tokenize(source, reporter), source)


@contextmanager
def reference_front_end():
    """Both parsers read :func:`ref_stream` instead of ``lexer.stream``."""
    saved = parser_fg.stream, parser_f.stream
    parser_fg.stream = parser_f.stream = ref_stream
    try:
        yield
    finally:
        parser_fg.stream, parser_f.stream = saved


# -- explicit projections -----------------------------------------------------


def explicit(node):
    """``node`` with its spans spelled out: AST ``==`` ignores spans."""
    if isinstance(node, (Span, RefSpan)):
        return ("Span", tuple(node.start), tuple(node.end), node.filename)
    if isinstance(node, F.Node):
        # Every field, a term's span first.
        names = node._fields
        if isinstance(node, (G.Term, F.Term)):
            names = ("span",) + names
        return (type(node).__name__,) + tuple(
            (name, explicit(getattr(node, name))) for name in names
        )
    if isinstance(node, (list, tuple)):
        return tuple(explicit(item) for item in node)
    return node


def token_row(token: Token):
    return (token.kind, token.text) + explicit(token.span)[1:]


def diagnostic_row(diag: Diagnostic):
    return (type(diag).__name__, diag.kind, diag.message,
            explicit(diag.span), str(diag))


def front_end(tokenize, text: str, filename: str) -> dict:
    """Everything the front end observably produces for ``text``."""
    source = SourceText(text, filename)
    out = {}
    try:
        out["strict"] = [token_row(t) for t in tokenize(source)]
    except LexError as err:
        out["strict"] = diagnostic_row(err)
    reporter = DiagnosticReporter(max_errors=1000)
    out["tokens"] = [token_row(t) for t in tokenize(source, reporter)]
    out["lex"] = [diagnostic_row(d) for d in reporter.finish().diagnostics]
    term, report = parser_fg.parse_program_resilient(text, filename)
    out["fg"] = (explicit(term), [diagnostic_row(d) for d in report])
    try:
        out["f"] = explicit(parser_f.parse_program(text, filename))
    except Diagnostic as err:
        out["f"] = diagnostic_row(err)
    return out


def non_decimal_numbers(text: str) -> List[str]:
    """The reference's ``NUMBER`` texts that ``int()`` would reject."""
    reporter = DiagnosticReporter(max_errors=1000)
    return [
        t.text for t in ref_tokenize(SourceText(text), reporter)
        if t.kind == "NUMBER" and not t.text.lstrip("-").isdecimal()
    ]


def check_non_decimal(text: str, filename: str) -> None:
    """The permitted difference: every ``NUMBER`` is decimal, and each
    non-decimal digit the reference lexed as a number is a lex error."""
    got = front_end(lexer.tokenize, text, filename)
    for kind, word, *_ in got["tokens"]:
        assert kind != "NUMBER" or word.lstrip("-").isdecimal(), word
    assert any(
        row[2].startswith("unexpected character") for row in got["lex"]
    ), text


def compare(text: str, filename: str = "<input>") -> bool:
    """Assert the two front ends agree on ``text``; False when the input is
    the permitted non-decimal-digit case (checked on its own instead)."""
    if non_decimal_numbers(text):
        check_non_decimal(text, filename)
        return False
    with reference_front_end():
        want = front_end(ref_tokenize, text, filename)
    got = front_end(lexer.tokenize, text, filename)
    for key in want:
        assert got[key] == want[key], f"{key} differs on {filename}"
    return True


# -- inputs -------------------------------------------------------------------

#: Insertion alphabet: ASCII syntax, comment openers, a minus that may or
#: may not start a number, and the non-ASCII cases the ASCII pattern hands
#: to the per-character rules (a letter, a decimal digit, a non-decimal
#: digit, a form feed, a NUL).
ALPHABET = (
    "é", "٣", "²", "\f", "\x00", "/*", "//", "*/", "-", "->", "/\\", "\\",
    "'", "_", "x", "7", " ", "\n", "(", ")", "<", ">", "=", "@", "*", "/",
)


def mutants(base: str, count: int, seed: int) -> List[str]:
    """``count`` copies of ``base``, each with 1-5 seeded insertions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = base
        for _ in range(rng.randint(1, 5)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        out.append(text)
    return out


def corpus(per_example: int = 60, prelude_mutants: int = 20):
    """(filename, text) pairs: prelude, examples, and their seeded edits."""
    bases = [("<prelude>", PRELUDE)] + [
        (path.name, path.read_text()) for path in EXAMPLES
    ]
    for name, text in bases:
        yield name, text
    for i, (name, text) in enumerate(bases):
        count = prelude_mutants if name == "<prelude>" else per_example
        for j, mutant in enumerate(mutants(text, count, seed=i)):
            yield f"{name}~{j}", mutant


class TestAgainstReference:
    def test_prelude_and_examples(self):
        for name, text in corpus(per_example=0, prelude_mutants=0):
            assert compare(text, name), name

    def test_seeded_insertions(self):
        results = [compare(text, name) for name, text in corpus()]
        # Both kinds of input occur: compared ones, and the permitted
        # non-decimal-digit difference.
        assert results.count(True) > 300
        assert results.count(False) > 0

    def test_edge_inputs(self):
        for text in ("", " ", "\n\n", "x", "-", "--1", "- 1", "-x", "/",
                     "/*/", "/**/", "/* a */*/", "// x", "//\n1", "a\rb",
                     "1x", "x1", "x'", "'x", "x²", "é", "a\u00e9b", "٣",
                     "-٣", "12٣4", "1é", "\f1", "a\x00b", "let\u00e9",
                     "->->", "/\\t", "A<B<t>>", "(1, 2)", "nth (1, 2) 0"):
            assert compare(text), text

    def test_reference_lexes_superscript_as_number(self):
        # The documented difference, shown on the reference side.
        assert non_decimal_numbers("let x = \u00b2 in x") == ["\u00b2"]
        assert non_decimal_numbers("-\u00b2 1\u00b2") == ["-\u00b2", "1\u00b2"]
        assert non_decimal_numbers("x\u00b2 // \u00b2") == []


@given(program_specs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs(spec):
    assert compare(spec.source, "<gen>")
