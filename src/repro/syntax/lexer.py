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

:func:`tokenize` writes each token into three parallel lists: its kind,
its text and its start offset (its end is the start plus the length of its
text).  A ``str`` or an ``int`` is never tracked by the garbage collector,
so a scan leaves the collector a fixed handful of objects however long the
text is, not two tuples per token.  A :class:`Token` and its offset
:class:`~repro.diagnostics.source.Span` are built only when something asks
for one: an index into :class:`Tokens`, or :meth:`TokenStream.span` for a
token an AST node or a diagnostic keeps.

Both scans read one compiled token pattern: a comment, a number, a word or
a symbol, each starting with an ASCII character.  :func:`split` splits the
whole text on it in one call; the tokens are the odd pieces, each kind
comes from a dictionary lookup of the token or of its first character, and
each start is a running sum of piece lengths, so no ``Match`` object is
built.  It answers only when every gap between tokens is space, tab, CR and
LF (exactly those: ``str.isspace`` accepts more), and then its lists are
:func:`scan`'s.  Any other text (a non-ASCII identifier or digit, a stray
character, a form feed) goes to :func:`scan`, and so does a text with a
``/*`` after its last ``*/``, from which the split would retry the comment
to the end of the text.  :func:`scan` skips each run of space, matches one
token, and hands what the pattern cannot settle to :func:`_lex_one`, the
same rules applied character by character.  Every lex error and all of
error recovery happen there.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import accumulate, compress
from typing import List, NamedTuple, Optional, Set

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


#: One token, tried in this order: a line comment, a closed block comment,
#: an integer, an identifier or keyword, a symbol (longest first).  Every
#: alternative starts with an ASCII character and matches only ASCII outside
#: a comment.  :func:`split` splits the whole text on it; :func:`scan`
#: matches it where each run of space ends.
_TOKEN = re.compile(
    r"(//[^\n]*\n?"
    r"|/\*.*?\*/"
    r"|-?[0-9]+"
    r"|[A-Za-z_][A-Za-z0-9_']*"
    r"|" + "|".join(re.escape(sym) for sym in SYMBOLS) + ")",
    re.DOTALL,
)

#: The kind of a symbol or keyword match: the match itself.
_FIXED = {word: word for word in [*SYMBOLS, *KEYWORDS]}
#: The kind of any other match, by its first character: ``None`` for a
#: comment (``/\\`` is fixed), else a number or an identifier (``->`` is
#: fixed).
_BY_FIRST = {
    "/": None,
    "-": "NUMBER",
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "IDENT"
    ),
}
#: What may separate two tokens: space, tab, CR and LF, and nothing else
#: ``str.isspace`` accepts.
_SPACE = " \t\r\n"
_SPACE_RUN = re.compile(f"[{_SPACE}]*")


def _lex_one(
    source: SourceText,
    pos: int,
    kinds: List[str],
    texts: List[str],
    starts: List[int],
    reporter,
) -> int:
    """Lex what the token pattern leaves at ``pos``: a number or identifier
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

    The returned tokens end with exactly one ``EOF`` token.  They are
    :func:`split`'s when it accepts the text, else :func:`scan`'s.
    """
    tokens = split(source)
    return scan(source, reporter) if tokens is None else tokens


def split(source: SourceText) -> Optional[Tokens]:
    """The tokens of ``source`` from one split on the token pattern, or
    ``None`` when something other than :data:`_SPACE` lies between two
    matches or a ``/*`` follows the last ``*/``.

    The pieces alternate between gaps and tokens, so each token's start
    offset is the sum of the lengths of the pieces before it.  When every
    gap is space, the matches are :func:`scan`'s: each token begins where
    the space before it ends, and no token touches a non-ASCII character
    outside a comment.
    """
    text = source.text
    closed = text.rfind("*/")
    if text.find("/*", max(closed - 1, 0)) != -1:
        # A "/*" with no "*/" after it: the split would retry the block
        # comment from each such "/*" to the end of the text.
        return None
    pieces = _TOKEN.split(text)
    if "".join(pieces[0::2]).strip(_SPACE):
        return None
    texts = pieces[1::2]
    fixed, by_first = _FIXED.get, _BY_FIRST
    kinds = [fixed(word) or by_first[word[0]] for word in texts]
    starts = list(accumulate(map(len, pieces)))[0:-1:2]
    if None in kinds:  # drop the comments
        texts = list(compress(texts, kinds))
        starts = list(compress(starts, kinds))
        kinds = list(filter(None, kinds))
    kinds.append("EOF")
    texts.append("")
    starts.append(len(text))
    return Tokens(kinds, texts, starts, source)


def scan(source: SourceText, reporter=None) -> Tokens:
    """Tokenize ``source`` one token at a time: skip a run of space, match
    the token pattern, and hand whatever it cannot settle to
    :func:`_lex_one`.  Every lex error and all of error recovery happen
    here (see :func:`tokenize`).
    """
    text = source.text
    n = len(text)
    skip, match = _SPACE_RUN.match, _TOKEN.match
    fixed, by_first = _FIXED.get, _BY_FIRST
    kinds: List[str] = []
    texts: List[str] = []
    starts: List[int] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    pos = skip(text).end()
    while pos < n:
        m = match(text, pos)
        if m is None:
            pos = _lex_one(source, pos, kinds, texts, starts, reporter)
        else:
            word = m[1]
            end = m.end()
            kind = fixed(word) or by_first[word[0]]
            if kind is None:  # a comment
                pos = end
            elif end < n and text[end] > "\x7f" and word not in SYMBOLS:
                # A non-ASCII character may continue this number or word.
                pos = _lex_one(source, pos, kinds, texts, starts, reporter)
            else:
                add_kind(kind)
                add_text(word)
                add_start(pos)
                pos = end
        pos = skip(text, pos).end()
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
