"""Typechecker for System F.

Standard rules (the paper omits them as such), including the LET rule the
paper spells out, plus rules for the literal/If/Fix extensions.  This checker
doubles as the verifier for Theorems 1 and 2: every translated F_G program is
re-checked here, independently of the F_G checker.

Two shortcuts give the answers of the plain rules by construction:

- a type application whose arguments are closed (no free type variable)
  remembers its instantiation on the ``forall`` type it instantiates, so
  ``cons[int]`` substitutes ``cons``'s body once per process, not once per
  use.  Substitution is a function of its inputs, so a remembered result
  is the one a new substitution would build.  Only closed tuples are
  remembered: they recur across programs, while an open tuple names one
  program's type variables and would only churn the memo.  The memo dies
  with its ``forall`` type and holds at most ``_INSTANCES_BOUND`` argument
  tuples;
- :func:`~repro.systemf.ast.types_equal` answers structurally equal types
  before it walks them for alpha-equivalence.

``tests/systemf/test_instantiation_reference.py`` compares both with the
plain rules.  Each node class has one handler in ``_CHECK``;
``tests/systemf/test_typecheck_reference.py`` keeps the ``isinstance``
chain it replaced and compares every type and error with it.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Optional

from repro.diagnostics.errors import TypeError_
from repro.systemf import ast as F
from repro.systemf.builtins import BUILTIN_TYPES


class TypeEnv:
    """An immutable System F typing environment.

    Tracks term-variable types and the set of type variables in scope.
    Extension returns a new environment; sharing makes this cheap.
    """

    __slots__ = ("_vars", "_tyvars")

    def __init__(
        self,
        vars_: Optional[Dict[str, F.Type]] = None,
        tyvars: FrozenSet[str] = frozenset(),
    ):
        self._vars = dict(BUILTIN_TYPES) if vars_ is None else vars_
        self._tyvars = tyvars

    @classmethod
    def initial(cls) -> "TypeEnv":
        """The initial environment: builtins in scope, no type variables."""
        return cls()

    def lookup(self, name: str) -> Optional[F.Type]:
        return self._vars.get(name)

    def bind(self, name: str, type_: F.Type) -> "TypeEnv":
        new_vars = dict(self._vars)
        new_vars[name] = type_
        return TypeEnv(new_vars, self._tyvars)

    def bind_tyvars(self, names) -> "TypeEnv":
        return TypeEnv(self._vars, self._tyvars | frozenset(names))

    def has_tyvar(self, name: str) -> bool:
        return name in self._tyvars

    @property
    def tyvars(self) -> FrozenSet[str]:
        return self._tyvars


def check_type_wf(t: F.Type, env: TypeEnv, span=None) -> None:
    """Raise :class:`TypeError_` unless every free type variable is in scope."""
    _check_bound(F.free_type_vars(t), env, span)


def _check_bound(free: FrozenSet[str], env: TypeEnv, span) -> None:
    unbound = free - env.tyvars
    if unbound:
        names = ", ".join(sorted(unbound))
        raise TypeError_(f"unbound type variable(s): {names}", span)


#: How many argument tuples one ``forall`` type remembers instantiations
#: for.  A memo that reaches it starts over, so the memo of a type that
#: lives for the whole process (a builtin's, the prelude's) stays bounded.
_INSTANCES_BOUND = 64
#: Serializes memo writes: checks run in threads of one process, and the
#: bound test and the store must not interleave.  Reads take no lock.
_INSTANCES_LOCK = threading.Lock()


def _instantiate_closed(fn_type: F.TForall, args: tuple) -> F.Type:
    """``fn_type``'s body with closed ``args`` for its binders, memoized on
    ``fn_type``.

    Substitution is pure, so a remembered result is the one a new
    substitution would build.  Closed tuples such as ``cons[int]`` recur
    across programs; an open tuple names one program's type variables, so
    ``type_of`` substitutes it afresh rather than churn the memo.
    """
    memo = fn_type._instances
    result = memo.get(args) if memo is not None else None
    if result is None:
        result = F.substitute(fn_type.body, dict(zip(fn_type.vars, args)))
        with _INSTANCES_LOCK:
            memo = fn_type._instances
            if memo is None:
                memo = fn_type._instances = {}
            elif len(memo) >= _INSTANCES_BOUND:
                memo.clear()
            memo[args] = result
    return result


def type_of(term: F.Term, env: Optional[TypeEnv] = None) -> F.Type:
    """The type of ``term`` in ``env`` (defaults to the builtin environment)."""
    if env is None:
        env = TypeEnv.initial()
    return _CHECK[term.__class__](term, env)


# One handler per node class, looked up by the node's class in ``_CHECK``;
# a handler types its subterms by looking their handlers up directly, so one
# level of nesting costs one Python frame.


def _var(term: F.Var, env: TypeEnv) -> F.Type:
    t = env.lookup(term.name)
    if t is None:
        raise TypeError_(f"unbound variable '{term.name}'", term.span)
    return t


def _int(term: F.IntLit, env: TypeEnv) -> F.Type:
    return F.INT


def _bool(term: F.BoolLit, env: TypeEnv) -> F.Type:
    return F.BOOL


def _lam(term: F.Lam, env: TypeEnv) -> F.Type:
    inner = env
    for name, ptype in term.params:
        check_type_wf(ptype, env, term.span)
        inner = inner.bind(name, ptype)
    body = term.body
    result = _CHECK[body.__class__](body, inner)
    return F.TFn(tuple(pt for _, pt in term.params), result)


def _app(term: F.App, env: TypeEnv) -> F.Type:
    fn = term.fn
    fn_type = _CHECK[fn.__class__](fn, env)
    if not isinstance(fn_type, F.TFn):
        raise TypeError_(
            f"cannot apply non-function of type {fn_type}", term.span
        )
    if len(fn_type.params) != len(term.args):
        raise TypeError_(
            f"arity mismatch: function expects {len(fn_type.params)} "
            f"argument(s), got {len(term.args)}",
            term.span,
        )
    for i, (arg, expected) in enumerate(zip(term.args, fn_type.params)):
        actual = _CHECK[arg.__class__](arg, env)
        if not F.types_equal(actual, expected):
            raise TypeError_(
                f"argument {i + 1} has type {actual}, expected {expected}",
                arg.span or term.span,
            )
    return fn_type.result


def _ty_lam(term: F.TyLam, env: TypeEnv) -> F.Type:
    if len(set(term.vars)) != len(term.vars):
        raise TypeError_("duplicate type parameter", term.span)
    body = term.body
    body_type = _CHECK[body.__class__](body, env.bind_tyvars(term.vars))
    return F.TForall(term.vars, body_type)


def _ty_app(term: F.TyApp, env: TypeEnv) -> F.Type:
    fn = term.fn
    fn_type = _CHECK[fn.__class__](fn, env)
    if not isinstance(fn_type, F.TForall):
        raise TypeError_(
            f"cannot type-apply non-polymorphic term of type {fn_type}",
            term.span,
        )
    if len(fn_type.vars) != len(term.args):
        raise TypeError_(
            f"type-arity mismatch: expected {len(fn_type.vars)} type "
            f"argument(s), got {len(term.args)}",
            term.span,
        )
    closed = True
    for arg in term.args:
        free = F.free_type_vars(arg)
        if free:
            _check_bound(free, env, term.span)
            closed = False
    if closed:
        return _instantiate_closed(fn_type, term.args)
    return F.substitute(fn_type.body, dict(zip(fn_type.vars, term.args)))


def _let(term: F.Let, env: TypeEnv) -> F.Type:
    bound, body = term.bound, term.body
    bound_type = _CHECK[bound.__class__](bound, env)
    return _CHECK[body.__class__](body, env.bind(term.name, bound_type))


def _tuple(term: F.Tuple_, env: TypeEnv) -> F.Type:
    return F.TTuple(
        tuple(_CHECK[item.__class__](item, env) for item in term.items)
    )


def _nth(term: F.Nth, env: TypeEnv) -> F.Type:
    inner = term.tuple_
    tuple_type = _CHECK[inner.__class__](inner, env)
    if not isinstance(tuple_type, F.TTuple):
        raise TypeError_(
            f"nth applied to non-tuple of type {tuple_type}", term.span
        )
    if not 0 <= term.index < len(tuple_type.items):
        raise TypeError_(
            f"tuple index {term.index} out of range for {tuple_type}",
            term.span,
        )
    return tuple_type.items[term.index]


def _if(term: F.If, env: TypeEnv) -> F.Type:
    cond, then, else_ = term.cond, term.then, term.else_
    cond_type = _CHECK[cond.__class__](cond, env)
    if not F.types_equal(cond_type, F.BOOL):
        raise TypeError_(
            f"if condition has type {cond_type}, expected bool", term.span
        )
    then_type = _CHECK[then.__class__](then, env)
    else_type = _CHECK[else_.__class__](else_, env)
    if not F.types_equal(then_type, else_type):
        raise TypeError_(
            f"if branches disagree: {then_type} vs {else_type}", term.span
        )
    return then_type


def _fix(term: F.Fix, env: TypeEnv) -> F.Type:
    fn = term.fn
    fn_type = _CHECK[fn.__class__](fn, env)
    if (
        not isinstance(fn_type, F.TFn)
        or len(fn_type.params) != 1
        or not F.types_equal(fn_type.params[0], fn_type.result)
    ):
        raise TypeError_(
            f"fix expects fn(A) -> A, got {fn_type}", term.span
        )
    if not isinstance(fn_type.result, F.TFn):
        raise TypeError_(
            "fix is restricted to function-typed fixpoints "
            f"(got {fn_type.result})",
            term.span,
        )
    return fn_type.result


_CHECK = {
    F.Var: _var,
    F.IntLit: _int,
    F.BoolLit: _bool,
    F.Lam: _lam,
    F.App: _app,
    F.TyLam: _ty_lam,
    F.TyApp: _ty_app,
    F.Let: _let,
    F.Tuple_: _tuple,
    F.Nth: _nth,
    F.If: _if,
    F.Fix: _fix,
}
