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

:func:`tokenize` matches one compiled ASCII pattern per skip run or token,
and a token costs a pattern match and two tuples: the token and its
offset :class:`~repro.diagnostics.source.Span`, whose line and column are
worked out only if something reads them.  What the pattern cannot
settle (a number or identifier touching a non-ASCII character, an
unterminated comment, an unexpected character) goes to :func:`_lex_one`,
which applies the same rules character by character.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Set

from repro.diagnostics.errors import LexError
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
    source: SourceText, pos: int, tokens: List[Token], reporter
) -> int:
    """Lex what the ASCII pattern leaves at ``pos``: a number or identifier
    touching a non-ASCII character, an unterminated block comment, or an
    unexpected character.  Appends the token, if any; returns the offset
    lexing resumes at.
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
        tokens.append(Token("NUMBER", text[pos:end], source.span(pos, end)))
        return end
    if ch.isalpha() or ch == "_":
        end = pos + 1
        while end < n and (text[end].isalnum() or text[end] in "_'"):
            end += 1
        word = text[pos:end]
        kind = word if word in KEYWORDS else "IDENT"
        tokens.append(Token(kind, word, source.span(pos, end)))
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


def tokenize(source: SourceText, reporter=None) -> List[Token]:
    """Tokenize ``source``; raises :class:`LexError` on malformed input.

    With a :class:`repro.diagnostics.DiagnosticReporter`, lex errors are
    recorded and the offending characters skipped, so one bad byte does not
    hide every token after it (error *recovery* mode), until the reporter
    reaches its cap; then lexing stops.

    The returned list ends with exactly one ``EOF`` token.
    """
    text = source.text
    n = len(text)
    match = _UNIT.match
    new = tuple.__new__
    keywords = KEYWORDS
    tokens: List[Token] = []
    pos = 0
    while pos < n:
        m = match(text, pos)
        kind = m and m.lastindex
        if not kind:
            pos = m.end() if m else _lex_one(source, pos, tokens, reporter)
            continue
        start, end = m.span()
        if kind != _SYMBOL and end < n and text[end] > "\x7f":
            # A non-ASCII character may continue this number or word.
            pos = _lex_one(source, start, tokens, reporter)
            continue
        word = m.group(kind)
        if kind == _WORD:
            kind = word if word in keywords else "IDENT"
        elif kind == _NUMBER:
            kind = "NUMBER"
        else:
            kind = word
        tokens.append(
            new(Token, (kind, word, new(Span, (start, end, source))))
        )
        pos = end
    tokens.append(Token("EOF", "", source.span(n, n)))
    return tokens


#: The parser's deepest lookahead: it calls ``peek(offset)`` with
#: ``0 <= offset <= LOOKAHEAD``.
LOOKAHEAD = 2


class TokenStream:
    """A cursor over a token list with bounded lookahead helpers.

    The list is padded with ``LOOKAHEAD`` copies of its final ``EOF`` token,
    so every lookahead is one index with no bounds check.
    """

    def __init__(self, tokens: List[Token], source: SourceText):
        self._tokens = tokens + tokens[-1:] * LOOKAHEAD
        self._pos = 0
        self.source = source

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def at(self, *kinds: str) -> bool:
        return self._tokens[self._pos].kind in kinds

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def match(self, kind: str) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind != kind:
            return None
        if kind != "EOF":
            self._pos += 1
        return token

    def expect(self, kind: str, context: str = "") -> Token:
        token = self._tokens[self._pos]
        if token.kind != kind:
            from repro.diagnostics.errors import ParseError

            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind!r}{where}, found {token.kind!r}"
                + (f" ({token.text!r})" if token.text else ""),
                token.span,
            ).attach_source(self.source)
        if kind != "EOF":
            self._pos += 1
        return token

    def error(self, message: str):
        from repro.diagnostics.errors import ParseError

        raise ParseError(message, self.peek().span).attach_source(self.source)

    def save(self) -> int:
        return self._pos

    def restore(self, state: int) -> None:
        self._pos = state


def stream(text: str, filename: str = "<input>", reporter=None) -> TokenStream:
    """Tokenize ``text`` into a :class:`TokenStream`.

    ``reporter`` enables lexer error recovery (see :func:`tokenize`).
    """
    source = SourceText(text, filename)
    return TokenStream(tokenize(source, reporter), source)
