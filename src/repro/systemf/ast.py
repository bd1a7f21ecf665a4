"""Abstract syntax of System F (paper Figure 2), mildly extended.

The paper's Figure 2 gives types ``t | fn(t...)->t | t x ... x t | forall t. t``
and terms ``x | f(f) | \\y:t. f | /\\t. f | f[t] | let | tuples | nth``.  The
paper's running examples additionally use integer and boolean literals,
``if``, a fixpoint operator, and list primitives (``cons``, ``car`` ...), so
we include those directly: literals, ``If`` and ``Fix`` as term forms, and the
list primitives as polymorphic constants bound in the initial environment
(see :mod:`repro.systemf.builtins`).

Every node is a plain slotted class (see :class:`Node`); terms carry an
optional source span.  Multi-parameter functions and type abstractions are
primitive, exactly as the paper uses them to ease the F_G translation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional, Tuple

from repro.diagnostics.source import Span


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


def _eq_and_hash(fields: Tuple[str, ...]):
    """``__eq__`` and ``__hash__`` for a node class with ``fields``: equal
    when of one class with equal fields, hashed as the tuple of fields.

    Each reads the fields through one getter built here, once per class;
    a class with one field compares its value alone, not a 1-tuple.
    """
    if len(fields) == 1:
        value = attrgetter(fields[0])

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return value(self) == value(other)

        def __hash__(self) -> int:
            return hash((value(self),))
    else:
        values = attrgetter(*fields) if fields else lambda node: ()

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self) -> int:
            return hash(values(self))
    return __eq__, __hash__


class Node:
    """Base class of the syntax-tree nodes of F_G, System F and the
    extensions (the F_G *types* are hash-consed, see
    :class:`repro.fg.ast.FGType`).

    A node is a plain slotted class whose constructor stores each field
    with one assignment.  ``_fields`` names the fields in constructor
    order; a term's ``span`` is not one.  Equality, hashing and ``repr``
    read the fields and agree with a frozen dataclass's: two nodes are
    equal when they are of one class and their fields are equal, the hash
    is the hash of the tuple of fields, and ``repr`` is
    ``Name(field=value, ...)``.  Nodes are never changed once built;
    ``tests/test_node_contract.py`` holds every check to that, in place of
    a ``__setattr__`` guard that every construction would pay for.
    """

    __slots__ = ()
    #: Field names, in constructor order.
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__eq__, cls.__hash__ = _eq_and_hash(cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles (every protocol) go through the constructor.
        return (type(self), tuple(getattr(self, f) for f in self._fields))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type(Node):
    """Base class of System F types."""

    __slots__ = ()


class TVar(Type):
    """A type variable ``t``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


class TBase(Type):
    """A base type such as ``int`` or ``bool``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


#: The base type of integers.
INT = TBase("int")
#: The base type of booleans.
BOOL = TBase("bool")


class TList(Type):
    """The list type constructor ``list t``."""

    __slots__ = _fields = ("elem",)

    def __init__(self, elem: Type) -> None:
        self.elem = elem

    def __str__(self) -> str:
        return f"list {self.elem}"


class TFn(Type):
    """A multi-parameter function type ``fn(t1, ..., tn) -> t``."""

    __slots__ = _fields = ("params", "result")

    def __init__(self, params: Tuple[Type, ...], result: Type) -> None:
        self.params = params
        self.result = result

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"fn({params}) -> {self.result}"


class TTuple(Type):
    """A product type ``t1 * ... * tn`` (used for dictionaries)."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: Tuple[Type, ...]) -> None:
        self.items = items

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return "(" + " * ".join(_paren_tuple_item(i) for i in self.items) + ")"


class TForall(Type):
    """A polymorphic type ``forall t1, ..., tn. t``.

    ``_instances`` is not a field: it is the memo of this type's closed
    instantiations that :func:`repro.systemf.typecheck._instantiate_closed`
    keeps (``None`` until the first one).
    """

    _fields = ("vars", "body")
    __slots__ = _fields + ("_instances",)

    def __init__(self, vars: Tuple[str, ...], body: Type) -> None:
        self.vars = vars
        self.body = body
        self._instances = None

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


class Term(Node):
    """Base class of System F terms."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None) -> None:
        self.span = span

    def __reduce__(self):
        # The constructor takes the span first.
        return (type(self),
                (self.span, *[getattr(self, f) for f in self._fields]))


class Var(Term):
    """A term variable reference."""

    __slots__ = _fields = ("name",)

    def __init__(self, span: Optional[Span] = None, name: str = "") -> None:
        self.span = span
        self.name = name

    def __str__(self) -> str:
        return self.name


class IntLit(Term):
    """An integer literal."""

    __slots__ = _fields = ("value",)

    def __init__(self, span: Optional[Span] = None, value: int = 0) -> None:
        self.span = span
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


class BoolLit(Term):
    """A boolean literal."""

    __slots__ = _fields = ("value",)

    def __init__(self, span: Optional[Span] = None,
                 value: bool = False) -> None:
        self.span = span
        self.value = value

    def __str__(self) -> str:
        return "true" if self.value else "false"


class Lam(Term):
    """A multi-parameter lambda ``\\x1:t1, ..., xn:tn. body``."""

    __slots__ = _fields = ("params", "body")

    def __init__(self, span: Optional[Span] = None,
                 params: Tuple[Tuple[str, Type], ...] = (),
                 body: Term = None) -> None:
        self.span = span
        self.params = params
        self.body = body


class App(Term):
    """A (multi-argument) application ``f(e1, ..., en)``."""

    __slots__ = _fields = ("fn", "args")

    def __init__(self, span: Optional[Span] = None, fn: Term = None,
                 args: Tuple[Term, ...] = ()) -> None:
        self.span = span
        self.fn = fn
        self.args = args


class TyLam(Term):
    """A type abstraction ``/\\t1, ..., tn. body``."""

    __slots__ = _fields = ("vars", "body")

    def __init__(self, span: Optional[Span] = None,
                 vars: Tuple[str, ...] = (), body: Term = None) -> None:
        self.span = span
        self.vars = vars
        self.body = body


class TyApp(Term):
    """A type application ``e[t1, ..., tn]``."""

    __slots__ = _fields = ("fn", "args")

    def __init__(self, span: Optional[Span] = None, fn: Term = None,
                 args: Tuple[Type, ...] = ()) -> None:
        self.span = span
        self.fn = fn
        self.args = args


class Let(Term):
    """``let x = e1 in e2`` (paper's LET rule)."""

    __slots__ = _fields = ("name", "bound", "body")

    def __init__(self, span: Optional[Span] = None, name: str = "",
                 bound: Term = None, body: Term = None) -> None:
        self.span = span
        self.name = name
        self.bound = bound
        self.body = body


class Tuple_(Term):
    """A tuple ``(e1, ..., en)`` — the dictionary representation."""

    __slots__ = _fields = ("items",)

    def __init__(self, span: Optional[Span] = None,
                 items: Tuple[Term, ...] = ()) -> None:
        self.span = span
        self.items = items


class Nth(Term):
    """Tuple projection ``nth e i`` (0-based, as in the paper)."""

    __slots__ = _fields = ("tuple_", "index")

    def __init__(self, span: Optional[Span] = None, tuple_: Term = None,
                 index: int = 0) -> None:
        self.span = span
        self.tuple_ = tuple_
        self.index = index


class If(Term):
    """Conditional ``if c then e1 else e2``."""

    __slots__ = _fields = ("cond", "then", "else_")

    def __init__(self, span: Optional[Span] = None, cond: Term = None,
                 then: Term = None, else_: Term = None) -> None:
        self.span = span
        self.cond = cond
        self.then = then
        self.else_ = else_


class Fix(Term):
    """Fixpoint ``fix e`` where ``e : fn(A) -> A`` and ``A`` is a function type."""

    __slots__ = _fields = ("fn",)

    def __init__(self, span: Optional[Span] = None, fn: Term = None) -> None:
        self.span = span
        self.fn = fn
