"""The whole-text split gives the general scan's tokens wherever it answers.

:func:`~repro.syntax.lexer.tokenize` first tries
:func:`~repro.syntax.lexer.split`, one ``re.split`` of the whole text,
which answers only when nothing but space, tab, CR and LF lies between
its matches; otherwise it runs :func:`~repro.syntax.lexer.scan`, the
per-token scan that handles non-ASCII words, stray characters, unclosed
comments and every lex error.  Here the two are compared directly:

- whenever the split answers, its ``kinds``, ``texts`` and ``starts`` equal
  the scan's;
- whenever the scan raises a :class:`LexError`, the split declines.

Texts are built from token fragments, the four separators, the whitespace
that ``str.isspace`` accepts but the lexer does not, stray ASCII, non-ASCII
letters and digits, and comments (closed, unclosed, holding non-ASCII).
``tests/syntax/test_lexer_reference.py`` checks what ``tokenize`` returns
against a per-character reference lexer.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diagnostics.errors import LexError
from repro.diagnostics.reporter import DiagnosticReporter
from repro.diagnostics.source import SourceText
from repro.prelude import PRELUDE
from repro.syntax.lexer import KEYWORDS, SYMBOLS, scan, split, tokenize
from repro.testing import FUZZ_SEEDS, mutate_source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from fg_gen import program_specs  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

TOKENS = (
    *sorted(KEYWORDS)[:8], *SYMBOLS, "x", "t1", "x'", "_a", "Monoid",
    "0", "42", "-7", "-", "/",
)
SPACE = (" ", "\t", "\r", "\n")
#: ``str.isspace`` accepts each of these; the lexer rejects each.
ODD_SPACE = ("\x0b", "\x0c", "\x1c", "\x85", "\xa0")
STRAY = ("@", "#", '"', "$", "?")
NON_ASCII = ("é", "٣", "²")
COMMENTS = (
    "/* c */", "/**/", "/*/", "// c\n", "//", "/*", "*/",
    "/* é ٣ */", "// é\n", "// ²",
)
CLEAN = TOKENS + SPACE
ODD = ODD_SPACE + STRAY + NON_ASCII + COMMENTS


def lists(tokens):
    return tokens.kinds, tokens.texts, tokens.starts


def compare(text: str) -> bool:
    """Check the two contracts on ``text``; True when the split answered."""
    source = SourceText(text)
    got = split(source)
    try:
        want = lists(scan(source))
    except LexError:
        assert got is None, text
        with pytest.raises(LexError):
            tokenize(source)
        return False
    assert lists(tokenize(source)) == want
    if got is None:
        return False
    assert lists(got) == want, text
    return True


def random_text(rng: random.Random) -> str:
    """Up to 24 fragments, each odd with probability 1/12."""
    return "".join(
        rng.choice(ODD if rng.random() < 1 / 12 else CLEAN)
        for _ in range(rng.randint(0, 24))
    )


def fuzz_corpus(mutants: int, seed: int):
    """The mutants ``repro.testing.run_fuzz(mutants, seed)`` checks."""
    rng = random.Random(seed)
    for k in range(mutants):
        mutant = mutate_source(FUZZ_SEEDS[k % len(FUZZ_SEEDS)], rng)
        for _ in range(rng.randrange(3)):
            mutant = mutate_source(mutant, rng)
        yield mutant


@given(st.lists(st.sampled_from(CLEAN * 3 + ODD), max_size=16).map("".join))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_split_agrees_with_the_scan(text):
    compare(text)


@given(program_specs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs_take_the_split(spec):
    assert compare(spec.source)


class TestDifferential:
    def test_seeded_texts(self):
        rng = random.Random(39)
        answered = [compare(random_text(rng)) for _ in range(3000)]
        # Both paths are exercised, each on hundreds of texts.
        assert answered.count(True) > 500
        assert answered.count(False) > 500

    def test_prelude_and_examples_take_the_split(self):
        for text in [PRELUDE] + [path.read_text() for path in EXAMPLES]:
            assert compare(text)

    def test_fuzz_corpus(self):
        answered = [
            compare(mutant)
            for seed in (0, 1) for mutant in fuzz_corpus(250, seed)
        ]
        assert answered.count(True) > 100
        assert answered.count(False) > 10


class TestDeclines:
    @pytest.mark.parametrize("odd", ODD_SPACE)
    def test_isspace_is_not_space(self, odd):
        # A form feed, vertical tab or any other character str.isspace
        # accepts is still an unexpected character between two tokens.
        text = f"let x = 1 in{odd}x"
        source = SourceText(text)
        assert split(source) is None
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        err = excinfo.value
        assert err.message == f"unexpected character {odd!r}"
        assert (err.span.lo, err.span.hi) == (12, 13)
        reporter = DiagnosticReporter()
        tokens = tokenize(source, reporter)
        assert tokens.texts == ["let", "x", "=", "1", "in", "x", ""]
        (diag,) = reporter.finish().diagnostics
        assert diag.message == err.message

    def test_non_ascii_inside_a_comment_takes_the_split(self):
        text = "let x = 1 in // é ²\n/* ٣ */ iadd(x, -2)"
        source = SourceText(text)
        tokens = split(source)
        assert tokens is not None
        assert lists(tokens) == lists(scan(source))
        assert tokens.texts == [
            "let", "x", "=", "1", "in", "iadd", "(", "x", ",", "-2", ")", "",
        ]
        assert tokens.starts[5] == text.index("iadd")

    @pytest.mark.parametrize("text", [
        "xé", "éx", "12٣", "leté", "x²",
    ])
    def test_a_word_touching_non_ascii_goes_to_the_scan(self, text):
        source = SourceText(text)
        assert split(source) is None
        assert compare(text) is False

    @pytest.mark.parametrize("text", [
        "x /* y", "/*/", "x /* a */ y /*", "/* a */ x // /*",
        "x " + "/* y " * 2000,
    ])
    def test_a_block_comment_opener_after_the_last_closer(self, text):
        # Splitting would retry the lazy comment match from each such
        # opener to the end of the text; the split declines instead, even
        # where the opener sits in a line comment.
        assert split(SourceText(text)) is None
        compare(text)

    def test_unterminated_comment_reports_as_before(self):
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize(SourceText("x /* y */ z /* w"))
