"""Lexer shared by the F_G and System F concrete-syntax parsers.

The paper gives only abstract syntax; this concrete syntax is our engineering
addition, designed to read like the paper's listings:

.. code-block:: text

    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = /\\t where Monoid<t>. ... in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int](ls)

Comments are ``//`` to end of line and ``/* ... */`` (non-nesting).  Note the
lexer must disambiguate ``/*``, ``//``, and the type-abstraction lambda
``/\\``.  Whitespace is space, tab, ``\\r`` and ``\\n``.  Identifiers start
with ``str.isalpha`` or ``_`` and continue with ``str.isalnum``, ``_`` or
``'``, so Unicode letters count; keywords are identifiers in
:data:`KEYWORDS`.  Integers are ``-?`` then ``str.isdecimal`` digits, which
is exactly what ``int()`` accepts (``٣`` is 3; ``²`` is no digit).

:func:`tokenize` matches one compiled ASCII pattern per skip run or token
and writes the token into three parallel lists: its kind, its text and its
start offset (its end is the start plus the length of its text).  A
``str`` or an ``int`` is never tracked by the garbage collector, so a
scan leaves the collector a fixed handful of objects however long the
text is, not two tuples per token.  A :class:`Token` and its offset
:class:`~repro.diagnostics.source.Span` are built only when something
asks for one: an index into :class:`Tokens`, or
:meth:`TokenStream.span` for a token an AST node or a diagnostic keeps.
What the pattern cannot settle (a number or identifier touching a
non-ASCII character, an unterminated comment, an unexpected character)
goes to :func:`_lex_one`, which applies the same rules character by
character.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import List, NamedTuple, Set

from repro.diagnostics.errors import LexError, ParseError
from repro.diagnostics.source import SourceText, Span

#: Token kinds that stand for themselves.
SYMBOLS = [
    # Longest match first.
    "/\\",
    "->",
    "==",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    ",",
    ";",
    ":",
    ".",
    "=",
    "*",
    "\\",
]

#: Keywords of the F_G concrete syntax (a superset of System F's).
KEYWORDS: Set[str] = {
    "concept",
    "model",
    "refines",
    "types",
    "require",
    "where",
    "in",
    "let",
    "fn",
    "forall",
    "list",
    "if",
    "then",
    "else",
    "fix",
    "type",
    "nth",
    "use",
    "overload",
    "true",
    "false",
    "int",
    "bool",
    "unit",
}


class Token(NamedTuple):
    """A lexical token: ``kind`` is a symbol, keyword, 'IDENT', 'NUMBER', or 'EOF'."""

    kind: str
    text: str
    span: Span

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


#: One match per skip run or token, tried in this order: a whitespace run,
#: a line comment, a closed block comment, an integer, an identifier or
#: keyword, a symbol (longest first).  Every alternative is ASCII-only;
#: whatever it cannot classify falls to :func:`_lex_one`.  Each call matches
#: a single unit from its start, so no alternative can backtrack into a
#: comment or a shorter identifier of an earlier unit.
_UNIT = re.compile(
    r"[ \t\r\n]+"
    r"|//[^\n]*\n?"
    r"|/\*.*?\*/"
    r"|(-?[0-9]+)"
    r"|([A-Za-z_][A-Za-z0-9_']*)"
    r"|(" + "|".join(re.escape(sym) for sym in SYMBOLS) + ")",
    re.DOTALL,
)
_NUMBER, _WORD, _SYMBOL = 1, 2, 3


def _lex_one(
    source: SourceText,
    pos: int,
    kinds: List[str],
    texts: List[str],
    starts: List[int],
    reporter,
) -> int:
    """Lex what the ASCII pattern leaves at ``pos``: a number or identifier
    touching a non-ASCII character, an unterminated block comment, or an
    unexpected character.  Appends the token, if any, to the three lists;
    returns the offset lexing resumes at.
    """
    text = source.text
    n = len(text)
    ch = text[pos]
    if ch.isdecimal() or (
        ch == "-" and pos + 1 < n and text[pos + 1].isdecimal()
    ):
        end = pos + 1
        while end < n and text[end].isdecimal():
            end += 1
        kinds.append("NUMBER")
        texts.append(text[pos:end])
        starts.append(pos)
        return end
    if ch.isalpha() or ch == "_":
        end = pos + 1
        while end < n and (text[end].isalnum() or text[end] in "_'"):
            end += 1
        word = text[pos:end]
        kinds.append(word if word in KEYWORDS else "IDENT")
        texts.append(word)
        starts.append(pos)
        return end
    if text.startswith("/*", pos):  # the pattern skips every closed one
        err = LexError("unterminated block comment", source.span(pos, pos + 2))
        end = n
    else:
        err = LexError(
            f"unexpected character {ch!r}", source.span(pos, pos + 1)
        )
        end = pos + 1
    err.attach_source(source)
    if reporter is None:
        raise err
    reporter.error(err)
    # At the reporter's cap lexing stops: the rest of the text is not read.
    return n if reporter.at_limit else end


class Tokens(Sequence):
    """What :func:`tokenize` returns: the parallel ``kinds``, ``texts`` and
    ``starts`` lists of ``source``'s tokens, ending with one ``EOF``.

    It reads as the list of :class:`Token` values it stands for: ``len``,
    indexing (negative indices too) and iteration build each ``Token`` when
    it is read.
    """

    __slots__ = ("kinds", "texts", "starts", "source")

    def __init__(
        self,
        kinds: List[str],
        texts: List[str],
        starts: List[int],
        source: SourceText,
    ):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.source = source

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        at = range(len(self.kinds))[index]
        if isinstance(at, range):
            return [self._token(i) for i in at]
        return self._token(at)

    def __iter__(self):
        return map(self._token, range(len(self.kinds)))

    def _token(self, i: int) -> Token:
        text = self.texts[i]
        start = self.starts[i]
        return Token(
            self.kinds[i], text, Span(start, start + len(text), self.source)
        )


def tokenize(source: SourceText, reporter=None) -> Tokens:
    """Tokenize ``source``; raises :class:`LexError` on malformed input.

    With a :class:`repro.diagnostics.DiagnosticReporter`, lex errors are
    recorded and the offending characters skipped, so one bad byte does not
    hide every token after it (error *recovery* mode), until the reporter
    reaches its cap; then lexing stops.

    The returned tokens end with exactly one ``EOF`` token.
    """
    text = source.text
    n = len(text)
    match = _UNIT.match
    keywords = KEYWORDS
    kinds: List[str] = []
    texts: List[str] = []
    starts: List[int] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    pos = 0
    while pos < n:
        m = match(text, pos)
        kind = m and m.lastindex
        if not kind:
            pos = m.end() if m else _lex_one(
                source, pos, kinds, texts, starts, reporter
            )
            continue
        start, end = m.span()
        if kind != _SYMBOL and end < n and text[end] > "\x7f":
            # A non-ASCII character may continue this number or word.
            pos = _lex_one(source, start, kinds, texts, starts, reporter)
            continue
        word = m.group(kind)
        if kind == _WORD:
            kind = word if word in keywords else "IDENT"
        elif kind == _NUMBER:
            kind = "NUMBER"
        else:
            kind = word
        add_kind(kind)
        add_text(word)
        add_start(start)
        pos = end
    add_kind("EOF")
    add_text("")
    add_start(n)
    return Tokens(kinds, texts, starts, source)


#: The parser's deepest lookahead: it calls ``kind(offset)`` with
#: ``0 <= offset <= LOOKAHEAD``.
LOOKAHEAD = 2


class TokenStream:
    """A cursor over :func:`tokenize`'s lists, read by token index.

    The lists are padded with ``LOOKAHEAD`` more ``EOF`` entries, so every
    lookahead is one index with no bounds check; the cursor ``pos`` never
    moves past the first ``EOF``.  :meth:`kind` and :meth:`at` read kinds;
    :meth:`match` consumes a token of a kind and says whether it did;
    :meth:`take` and :meth:`skip` consume one token and return its index,
    whose :meth:`text` a parser reads.  :meth:`span` builds a
    :class:`~repro.diagnostics.source.Span` only for the tokens an AST node
    or a diagnostic keeps.
    """

    __slots__ = ("kinds", "texts", "starts", "source", "pos")

    def __init__(self, tokens: Tokens):
        self.kinds = tokens.kinds + ["EOF"] * LOOKAHEAD
        self.texts = tokens.texts + [""] * LOOKAHEAD
        self.starts = tokens.starts + tokens.starts[-1:] * LOOKAHEAD
        self.source = tokens.source
        self.pos = 0

    def kind(self, offset: int = 0) -> str:
        return self.kinds[self.pos + offset]

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def match(self, kind: str) -> bool:
        if self.kinds[self.pos] != kind:
            return False
        if kind != "EOF":
            self.pos += 1
        return True

    def take(self, kind: str, context: str = "") -> int:
        i = self.pos
        found = self.kinds[i]
        if found != kind:
            text = self.texts[i]
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind!r}{where}, found {found!r}"
                + (f" ({text!r})" if text else ""),
                self.span(i),
            ).attach_source(self.source)
        if kind != "EOF":
            self.pos = i + 1
        return i

    def skip(self) -> int:
        i = self.pos
        if self.kinds[i] != "EOF":
            self.pos = i + 1
        return i

    def text(self, i: int) -> str:
        return self.texts[i]

    def span(self, i: int) -> Span:
        start = self.starts[i]
        return Span(start, start + len(self.texts[i]), self.source)

    def error(self, message: str):
        raise ParseError(message, self.span(self.pos)).attach_source(
            self.source
        )


def stream(text: str, filename: str = "<input>", reporter=None) -> TokenStream:
    """Tokenize ``text`` into a :class:`TokenStream`.

    ``reporter`` enables lexer error recovery (see :func:`tokenize`).
    """
    return TokenStream(tokenize(SourceText(text, filename), reporter))
