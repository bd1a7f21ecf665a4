"""The standard concept library, checked once and shared by every program.

Usage::

    from repro import prelude
    value = prelude.run("accumulate[int](range(1, 11))")   # => 55

Every program is checked at a library context (:mod:`repro.prelude.context`):
the prelude's, or, without the prelude, the empty library's.
:func:`typecheck`, :func:`type_of`, :func:`verify` and :func:`run` are
:mod:`repro`'s fail-fast functions at the pre-checked prelude (the pipeline
stopped at its first diagnostic), so diagnostics point into the program's
own text and the prelude is checked once per process.  :func:`wrap` and
:func:`parse` build the equivalent whole program as text, for tools that
need the prelude and program as one term (the direct interpreter,
benchmarks).
"""

from typing import Tuple

from repro import _first, fg_check, fg_run, fg_verify
from repro.fg import ast as G
from repro.prelude.context import PreludeContext, context_for
from repro.prelude.source import (
    PRELUDE,
    PRELUDE_ALGORITHMS,
    PRELUDE_CONCEPTS,
    PRELUDE_HELPERS,
    PRELUDE_MODELS,
)
from repro.syntax import parse_fg
from repro.systemf import ast as F


#: What :func:`wrap` puts in front of a program.
_PREFIX = PRELUDE + "\n"


def wrap(program: str) -> str:
    """Prefix ``program`` with the full prelude."""
    return _PREFIX + program


def parse(program: str, filename: str = "<input>") -> G.Term:
    """Parse ``program`` in the scope of the prelude, as one term."""
    return parse_fg(_PREFIX + program, filename)


def typecheck(program: str) -> Tuple[G.FGType, F.Term]:
    """Typecheck (and translate) ``program`` in the scope of the prelude."""
    outcome = _first(program, True)
    return outcome.type_, outcome.translation


def type_of(program: str) -> G.FGType:
    """The F_G type of ``program`` under the prelude."""
    return fg_check(program, True)


def verify(program: str) -> Tuple[G.FGType, F.Type]:
    """Theorems 1/2 for ``program`` under the prelude: its F_G type and
    the System F type of its translation, typed inside the prelude's
    System F prefix, which the context typed once."""
    return fg_verify(program, True)


def run(program: str):
    """Typecheck, translate, and evaluate ``program`` under the prelude."""
    return fg_run(program, True)


__all__ = [
    "PRELUDE",
    "PRELUDE_ALGORITHMS",
    "PRELUDE_CONCEPTS",
    "PRELUDE_HELPERS",
    "PRELUDE_MODELS",
    "PreludeContext",
    "context_for",
    "parse",
    "run",
    "type_of",
    "typecheck",
    "verify",
    "wrap",
]
