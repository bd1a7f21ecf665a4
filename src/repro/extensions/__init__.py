"""The paper's section 6 extensions, implemented on top of core F_G.

Features:

- **named models** (``model m = C<int> { ... } in``) with scoped adoption
  (``use m in ...``) — the paper's suggested mechanism for managing
  overlapping models, after Kahl & Scheffczyk's named instances;
- **parameterized models** (``model forall t where C<t>. D<list t> { ... }``)
  — Haskell's parameterized instances, resolved by matching plus recursive
  model resolution;
- **concept-member defaults** (``member : type = default-body;``) — a rich
  interface implemented in terms of a few required operations;
- **nested requirements** live in core F_G already (``require C<assoc>;``
  inside a concept) since they reuse the refinement machinery.

Term-level entry points mirror :mod:`repro.fg` but use :class:`ExtChecker`;
like them, every program is checked at a library context
(:mod:`repro.prelude.context`), and "no prelude" is the empty library.
The source-text functions :func:`check`, :func:`run` and :func:`verify` are
the pipeline with ``ext=True``, stopped at its first diagnostic::

    from repro import extensions as ext
    ext.run("model m = Monoid<int> { ... } in use m in accumulate[int](...)")
"""

from repro import _first
from repro.extensions import ast
from repro.extensions.checker import ExtChecker
from repro.fg import ast as G
from repro.fg.typecheck import EntryPoints

_EXT = EntryPoints(ExtChecker)
typecheck = _EXT.typecheck
typecheck_all = _EXT.typecheck_all
type_of = _EXT.type_of
translate = _EXT.translate
evaluate = _EXT.evaluate
verify_translation = _EXT.verify_translation


def check(program: str, use_prelude: bool = False) -> G.FGType:
    """Typecheck extended-F_G source; returns the program type."""
    return _first(program, use_prelude, ext=True).type_


def run(program: str, use_prelude: bool = False):
    """Typecheck, translate, and evaluate extended-F_G source."""
    return _first(program, use_prelude, ext=True, evaluate=True).value


def verify(program: str, use_prelude: bool = False):
    """Translation-preserves-typing check on extended-F_G source; returns
    its F_G type and the System F type of its translation."""
    outcome = _first(program, use_prelude, ext=True, verify=True)
    return outcome.type_, outcome.sf_type


__all__ = [
    "ExtChecker",
    "ast",
    "check",
    "evaluate",
    "run",
    "translate",
    "type_of",
    "typecheck",
    "typecheck_all",
    "verify",
    "verify_translation",
]
