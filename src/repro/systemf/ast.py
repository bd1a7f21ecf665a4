"""Abstract syntax of System F (paper Figure 2), mildly extended.

The paper's Figure 2 gives types ``t | fn(t...)->t | t x ... x t | forall t. t``
and terms ``x | f(f) | \\y:t. f | /\\t. f | f[t] | let | tuples | nth``.  The
paper's running examples additionally use integer and boolean literals,
``if``, a fixpoint operator, and list primitives (``cons``, ``car`` ...), so
we include those directly: literals, ``If`` and ``Fix`` as term forms, and the
list primitives as polymorphic constants bound in the initial environment
(see :mod:`repro.systemf.builtins`).

All nodes are immutable dataclasses carrying an optional source span.
Multi-parameter functions and type abstractions are primitive, exactly as the
paper uses them to ease the F_G translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.diagnostics.source import Span


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class of System F types."""


@dataclass(frozen=True)
class TVar(Type):
    """A type variable ``t``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TBase(Type):
    """A base type such as ``int`` or ``bool``."""

    name: str

    def __str__(self) -> str:
        return self.name


#: The base type of integers.
INT = TBase("int")
#: The base type of booleans.
BOOL = TBase("bool")


@dataclass(frozen=True)
class TList(Type):
    """The list type constructor ``list t``."""

    elem: Type

    def __str__(self) -> str:
        return f"list {self.elem}"


@dataclass(frozen=True)
class TFn(Type):
    """A multi-parameter function type ``fn(t1, ..., tn) -> t``."""

    params: Tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"fn({params}) -> {self.result}"


@dataclass(frozen=True)
class TTuple(Type):
    """A product type ``t1 * ... * tn`` (used for dictionaries)."""

    items: Tuple[Type, ...]

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return "(" + " * ".join(_paren_tuple_item(i) for i in self.items) + ")"


@dataclass(frozen=True)
class TForall(Type):
    """A polymorphic type ``forall t1, ..., tn. t``."""

    vars: Tuple[str, ...]
    body: Type

    def __str__(self) -> str:
        return f"forall {', '.join(self.vars)}. {self.body}"


def _paren_tuple_item(t: Type) -> str:
    if isinstance(t, (TFn, TForall)):
        return f"({t})"
    return str(t)


# ---------------------------------------------------------------------------
# Type operations: free variables, substitution, alpha-equality
# ---------------------------------------------------------------------------

#: Separates a renamed binder's base from its number.  No source
#: identifier contains it, and the checker spells the names it mints
#: ``base%N``, so a renamed binder equals neither.
_RENAMED = "#"


def rename_binders(binders: Tuple[str, ...], captured: frozenset,
                   avoid: frozenset) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    """The binders of a ``forall`` with every one in ``captured`` (the free
    variables of the types substituted into it) renamed, and the renaming
    (old name to new) of those.

    A binder ``b`` (or ``b%N``, or ``b#N``) becomes ``b#k`` for the least
    ``k >= 1`` that is none of ``captured``, ``avoid`` (the free variables
    of the ``forall`` and the substitution's domain) and the ``forall``'s
    binders, old and new.  The name is a function of these alone, so a
    substitution gives the same type whatever ran before it.
    """
    taken = set(captured) | avoid | set(binders)
    new_vars = []
    renaming: Dict[str, str] = {}
    for var in binders:
        if var not in captured:
            new_vars.append(var)
            continue
        base = var.split("%")[0].split(_RENAMED)[0]
        number = 1
        while f"{base}{_RENAMED}{number}" in taken:
            number += 1
        fresh = f"{base}{_RENAMED}{number}"
        taken.add(fresh)
        renaming[var] = fresh
        new_vars.append(fresh)
    return tuple(new_vars), renaming


def free_type_vars(t: Type) -> frozenset:
    """The set of type-variable names occurring free in ``t``."""
    if isinstance(t, TVar):
        return frozenset((t.name,))
    if isinstance(t, TBase):
        return frozenset()
    if isinstance(t, TList):
        return free_type_vars(t.elem)
    if isinstance(t, TFn):
        result = free_type_vars(t.result)
        for p in t.params:
            result |= free_type_vars(p)
        return result
    if isinstance(t, TTuple):
        result = frozenset()
        for item in t.items:
            result |= free_type_vars(item)
        return result
    if isinstance(t, TForall):
        return free_type_vars(t.body) - frozenset(t.vars)
    raise AssertionError(f"unknown type node: {t!r}")


def substitute(t: Type, subst: Dict[str, Type]) -> Type:
    """Capture-avoiding simultaneous substitution of types for type variables."""
    if not subst:
        return t
    if isinstance(t, TVar):
        return subst.get(t.name, t)
    if isinstance(t, TBase):
        return t
    if isinstance(t, TList):
        return TList(substitute(t.elem, subst))
    if isinstance(t, TFn):
        return TFn(
            tuple(substitute(p, subst) for p in t.params),
            substitute(t.result, subst),
        )
    if isinstance(t, TTuple):
        return TTuple(tuple(substitute(item, subst) for item in t.items))
    if isinstance(t, TForall):
        # Drop shadowed bindings; rename binders that would capture.
        inner = {k: v for k, v in subst.items() if k not in t.vars}
        if not inner:
            return t
        captured = frozenset()
        for v in inner.values():
            captured |= free_type_vars(v)
        vars_, body = t.vars, t.body
        if not captured.isdisjoint(vars_):
            vars_, renamed = rename_binders(
                vars_, captured, free_type_vars(t).union(inner))
            body = substitute(
                body, {old: TVar(new) for old, new in renamed.items()})
        return TForall(vars_, substitute(body, inner))
    raise AssertionError(f"unknown type node: {t!r}")


def types_equal(a: Type, b: Type) -> bool:
    """Alpha-equivalence of System F types.

    Structurally equal types are alpha-equivalent, so they answer without
    the binder-tracking walk.
    """
    return a is b or a == b or _alpha_eq(a, b, {}, {})


def _alpha_eq(a: Type, b: Type, env_a: Dict[str, int], env_b: Dict[str, int]) -> bool:
    if isinstance(a, TVar) and isinstance(b, TVar):
        ia, ib = env_a.get(a.name), env_b.get(b.name)
        if ia is None and ib is None:
            return a.name == b.name
        return ia == ib and ia is not None
    if isinstance(a, TBase) and isinstance(b, TBase):
        return a.name == b.name
    if isinstance(a, TList) and isinstance(b, TList):
        return _alpha_eq(a.elem, b.elem, env_a, env_b)
    if isinstance(a, TFn) and isinstance(b, TFn):
        if len(a.params) != len(b.params):
            return False
        return all(
            _alpha_eq(pa, pb, env_a, env_b) for pa, pb in zip(a.params, b.params)
        ) and _alpha_eq(a.result, b.result, env_a, env_b)
    if isinstance(a, TTuple) and isinstance(b, TTuple):
        if len(a.items) != len(b.items):
            return False
        return all(_alpha_eq(x, y, env_a, env_b) for x, y in zip(a.items, b.items))
    if isinstance(a, TForall) and isinstance(b, TForall):
        if len(a.vars) != len(b.vars):
            return False
        depth = len(env_a)
        new_a = dict(env_a)
        new_b = dict(env_b)
        for i, (va, vb) in enumerate(zip(a.vars, b.vars)):
            new_a[va] = depth + i
            new_b[vb] = depth + i
        return _alpha_eq(a.body, b.body, new_a, new_b)
    return False


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Base class of System F terms."""

    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Term):
    """A term variable reference."""

    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntLit(Term):
    """An integer literal."""

    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Term):
    """A boolean literal."""

    value: bool = False

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Lam(Term):
    """A multi-parameter lambda ``\\x1:t1, ..., xn:tn. body``."""

    params: Tuple[Tuple[str, Type], ...] = ()
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class App(Term):
    """A (multi-argument) application ``f(e1, ..., en)``."""

    fn: Term = None  # type: ignore[assignment]
    args: Tuple[Term, ...] = ()


@dataclass(frozen=True)
class TyLam(Term):
    """A type abstraction ``/\\t1, ..., tn. body``."""

    vars: Tuple[str, ...] = ()
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class TyApp(Term):
    """A type application ``e[t1, ..., tn]``."""

    fn: Term = None  # type: ignore[assignment]
    args: Tuple[Type, ...] = ()


@dataclass(frozen=True)
class Let(Term):
    """``let x = e1 in e2`` (paper's LET rule)."""

    name: str = ""
    bound: Term = None  # type: ignore[assignment]
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Tuple_(Term):
    """A tuple ``(e1, ..., en)`` — the dictionary representation."""

    items: Tuple[Term, ...] = ()


@dataclass(frozen=True)
class Nth(Term):
    """Tuple projection ``nth e i`` (0-based, as in the paper)."""

    tuple_: Term = None  # type: ignore[assignment]
    index: int = 0


@dataclass(frozen=True)
class If(Term):
    """Conditional ``if c then e1 else e2``."""

    cond: Term = None  # type: ignore[assignment]
    then: Term = None  # type: ignore[assignment]
    else_: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Fix(Term):
    """Fixpoint ``fix e`` where ``e : fn(A) -> A`` and ``A`` is a function type."""

    fn: Term = None  # type: ignore[assignment]
