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

Entry points mirror :mod:`repro.fg` but use :class:`ExtChecker`::

    from repro import extensions as ext
    ext.run("model m = Monoid<int> { ... } in use m in accumulate[int](...)")
"""

from typing import Optional, Tuple

from repro.diagnostics.limits import Limits, resource_scope
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.extensions import ast
from repro.extensions.checker import ExtChecker
from repro.fg import ast as G
from repro.fg.env import Env
from repro.syntax import parse_fg
from repro.systemf import ast as F
from repro.systemf import evaluate as _sf_evaluate


def typecheck(
    term: G.Term,
    env: Optional[Env] = None,
    *,
    limits: Optional[Limits] = None,
    instrumentation=None,
) -> Tuple[G.FGType, F.Term]:
    """Typecheck an extended-F_G term; returns type and translation."""
    checker = ExtChecker(limits=limits, instrumentation=instrumentation)
    with resource_scope(checker.limits, getattr(term, "span", None)):
        return checker.check(term, env if env is not None else Env.initial())


def typecheck_all(
    term: G.Term,
    env: Optional[Env] = None,
    *,
    max_errors: int = 20,
    limits: Optional[Limits] = None,
    reporter: Optional[DiagnosticReporter] = None,
    instrumentation=None,
) -> Tuple[Optional[G.FGType], Optional[F.Term], DiagnosticReport]:
    """Multi-error variant of :func:`typecheck` (see
    :func:`repro.fg.typecheck.typecheck_all`)."""
    from repro.fg.typecheck import _run_collecting

    return _run_collecting(
        ExtChecker, term, env, max_errors=max_errors, limits=limits,
        reporter=reporter, instrumentation=instrumentation,
    )


def type_of(term: G.Term, env: Optional[Env] = None) -> G.FGType:
    return typecheck(term, env)[0]


def translate(term: G.Term, env: Optional[Env] = None) -> F.Term:
    return typecheck(term, env)[1]


def evaluate(term: G.Term, env: Optional[Env] = None, *, limits=None):
    """Run an extended-F_G program via its System F translation."""
    _, sf_term = typecheck(term, env, limits=limits)
    return _sf_evaluate(sf_term, limits=limits)


def verify_translation(term: G.Term, env: Optional[Env] = None):
    """Theorem 1/2 check for the extended language: check, then type the
    emitted translation (:func:`repro.fg.typecheck.verify_emitted`)."""
    from repro.fg.typecheck import verify_emitted

    checker = ExtChecker()
    base_env = env if env is not None else Env.initial()
    with resource_scope(checker.limits, getattr(term, "span", None)):
        fg_type, sf_term = checker.check(term, base_env)
    return fg_type, verify_emitted(
        fg_type, sf_term, checker=checker, env=base_env
    )


def check(program: str, use_prelude: bool = False) -> G.FGType:
    """Typecheck extended-F_G source; returns the program type."""
    return _typecheck(program, use_prelude)[0]


def run(program: str, use_prelude: bool = False):
    """Typecheck, translate, and evaluate extended-F_G source."""
    return _sf_evaluate(_typecheck(program, use_prelude)[1])


def verify(program: str, use_prelude: bool = False):
    """Translation-preserves-typing check on extended-F_G source."""
    from repro.fg.typecheck import verify_emitted

    fg_type, sf_term = _typecheck(program, use_prelude)
    return fg_type, verify_emitted(
        fg_type, sf_term, checker=ExtChecker(),
        context=_context(use_prelude),
    )


def _context(use_prelude: bool):
    """The prelude as :class:`ExtChecker` checks it, or ``None``."""
    if not use_prelude:
        return None
    from repro.prelude import context_for

    return context_for(ExtChecker)


def _typecheck(program: str, use_prelude: bool) -> Tuple[G.FGType, F.Term]:
    context = _context(use_prelude)
    if context is not None:
        return context.typecheck(program)
    return typecheck(parse_fg(program))


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
