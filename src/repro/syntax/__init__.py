"""Concrete syntax: lexer and parsers for F_G and System F.

- :func:`parse_fg` / :func:`parse_fg_type` — the F_G surface language,
- :func:`parse_f` / :func:`parse_f_type` — the System F surface language.

Both share the lexer in :mod:`repro.syntax.lexer` and produce positioned
ASTs; errors are :class:`repro.diagnostics.ParseError` with source excerpts.
Each parser runs under :func:`~repro.diagnostics.resource_scope`, so too
deep a nesting is a :class:`~repro.diagnostics.ResourceLimitError`.  Both
load on first access: ``fg runf`` needs no F_G, an F_G check no System F.
"""

from repro._lazy import lazy_exports
from repro.syntax.lexer import Token, Tokens, TokenStream, stream, tokenize

__getattr__, __dir__ = lazy_exports(globals(), {
    "parse_f": ("repro.syntax.parser_f", "parse_program"),
    "parse_f_type": ("repro.syntax.parser_f", "parse_type"),
    "parse_fg": ("repro.syntax.parser_fg", "parse_program"),
    "parse_fg_resilient": ("repro.syntax.parser_fg",
                           "parse_program_resilient"),
    "parse_fg_type": ("repro.syntax.parser_fg", "parse_type"),
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
