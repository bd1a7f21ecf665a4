"""Concrete syntax: lexer and parsers for F_G and System F.

- :func:`parse_fg` / :func:`parse_fg_type` — the F_G surface language,
- :func:`parse_f` / :func:`parse_f_type` — the System F surface language.

Both share the lexer in :mod:`repro.syntax.lexer` and produce positioned
ASTs; errors are :class:`repro.diagnostics.ParseError` with source excerpts.
The System F parser, which no F_G check runs, loads on first access.
"""

from repro._lazy import lazy_exports
from repro.syntax.lexer import Token, Tokens, TokenStream, stream, tokenize
from repro.syntax.parser_fg import parse_program as parse_fg
from repro.syntax.parser_fg import parse_program_resilient as parse_fg_resilient
from repro.syntax.parser_fg import parse_type as parse_fg_type

__getattr__, __dir__ = lazy_exports(globals(), {
    "parse_f": ("repro.syntax.parser_f", "parse_program"),
    "parse_f_type": ("repro.syntax.parser_f", "parse_type"),
})

__all__ = [
    "Token",
    "TokenStream",
    "Tokens",
    "parse_f",
    "parse_f_type",
    "parse_fg",
    "parse_fg_resilient",
    "parse_fg_type",
    "stream",
    "tokenize",
]
