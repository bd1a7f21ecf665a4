"""Abstract syntax of System F_G (paper Figures 4 and 11).

F_G extends System F with:

- ``concept`` expressions declaring named requirement sets with refinement,
  associated-type requirements, and same-type requirements (Fig. 11),
- ``model`` expressions establishing that particular types satisfy a
  concept, lexically scoped like ``let``,
- ``where`` clauses on type abstractions, listing concept requirements and
  same-type constraints,
- member-access terms ``c<taus>.x`` and member-access *types*
  ``c<taus>.s`` (associated types),
- ``type t = tau in e`` aliases (Fig. 11).

As with our System F, we carry the paper's informal extensions (literals,
``if``, ``fix``, ``let``, tuples) as primitive term forms so the running
examples can be written directly.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, FrozenSet, Optional, Tuple

from repro.diagnostics.source import Span
from repro.systemf.ast import Node, rename_binders


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
#
# Types are hash-consed: a constructor looks its class and fields up in one
# per-process table and returns the type already built from them, if any.
# Structurally equal types are therefore the same object, so equality is
# identity and hashing is by identity, both O(1): the term DAG that
# congruence closure assumes (Nelson-Oppen, paper section 5).  The table
# holds its types weakly; an entry goes when the last reference to its type
# does.  Each type also records, when built, its component types
# (``parts``), whether the recovery poison occurs in it
# (``contains_error``), whether a ``forall`` type does (``contains_forall``),
# whether an associated type does (``contains_assoc``) and its free type
# variables (``free_vars``).
#
# A type states its structure once, and every traversal (substitution, the
# congruence solver, the checkers' walks) reads it from there: ``parts``,
# its component types in constructor order; ``shape``, the hashable
# non-type fields that tell it apart from others of its class; and
# ``remake(parts)``, the constructor applied to new parts.  A ``forall``
# type lists no parts: walks that enter binders handle it themselves.

class _Entry(weakref.ref):
    """A table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


#: ``(class, *fields)`` -> weak reference to the one type built from them.
_TABLE: Dict[tuple, _Entry] = {}
#: Serializes misses and removals: checks run in threads of one process,
#: and two threads building one structure must get one object.  Reentrant,
#: because a type can die (and :func:`_forget` run) while a miss holds it.
_LOCK = threading.RLock()

_EMPTY: FrozenSet[str] = frozenset()
_set = object.__setattr__


def _forget(entry: _Entry) -> None:
    # A type died; drop its entry unless a new type already took the key.
    with _LOCK:
        if _TABLE.get(entry.key) is entry:
            del _TABLE[entry.key]


def _lookup(key: tuple) -> Optional["FGType"]:
    ref = _TABLE.get(key)
    return ref() if ref is not None else None


def _intern(key: tuple, parts: tuple, contains_error: bool,
            contains_forall: bool, contains_assoc: bool,
            free_vars: FrozenSet[str]):
    """Build the type ``key`` describes and enter it in the table, unless
    another thread entered it since :func:`_lookup` missed."""
    with _LOCK:
        t = _lookup(key)
        if t is None:
            cls = key[0]
            t = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                _set(t, name, value)
            _set(t, "parts", parts)
            _set(t, "contains_error", contains_error)
            _set(t, "contains_forall", contains_forall)
            _set(t, "contains_assoc", contains_assoc)
            _set(t, "free_vars", free_vars)
            entry = _Entry(t, _forget)
            entry.key = key
            _TABLE[key] = entry
    return t


def _join(types) -> Tuple[bool, bool, bool, FrozenSet[str]]:
    """``(contains_error, contains_forall, contains_assoc, free_vars)`` of
    a type built from ``types``."""
    error, forall, assoc, free = False, False, False, _EMPTY
    for t in types:
        error = error or t.contains_error
        forall = forall or t.contains_forall
        assoc = assoc or t.contains_assoc
        if t.free_vars and t.free_vars is not free:
            free = free | t.free_vars if free else t.free_vars
    return error, forall, assoc, free


class FGType:
    """Base class of F_G types (hash-consed, immutable)."""

    __slots__ = ("parts", "contains_error", "contains_forall",
                 "contains_assoc", "free_vars", "__weakref__")
    #: Field names, in constructor order.
    _fields: Tuple[str, ...] = ()

    @property
    def shape(self) -> tuple:
        """The non-type fields that tell this type apart from others of
        its class with the same parts."""
        return ()

    def remake(self, parts: Tuple["FGType", ...]) -> "FGType":
        """This type's constructor applied to ``parts`` in place of its
        own; a type without parts is its own remake."""
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Copies and unpickled types go through the constructor, so they
        # are the interned object too.
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class TVar(FGType):
    """A type variable."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> "TVar":
        key = (cls, name)
        return _lookup(key) or _intern(
            key, (), False, False, False, frozenset((name,)))

    @property
    def shape(self) -> tuple:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


class TBase(FGType):
    """A base type (``int`` or ``bool``)."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> "TBase":
        key = (cls, name)
        return _lookup(key) or _intern(key, (), False, False, False, _EMPTY)

    @property
    def shape(self) -> tuple:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


#: Base types shared with System F.
INT = TBase("int")
BOOL = TBase("bool")


class ErrorType(FGType):
    """The poison type of an ill-typed definition (error recovery).

    The multi-error checker assigns ``ERROR`` to bindings whose definitions
    failed to check; every typing rule *absorbs* it (an ``ErrorType`` equals
    any type, applying it yields ``ErrorType``, ...) so one bad definition
    does not cascade into spurious follow-on errors.  ``ErrorType`` never
    appears in fail-fast checking.
    """

    __slots__ = ()

    def __new__(cls) -> "ErrorType":
        key = (cls,)
        return _lookup(key) or _intern(key, (), True, False, False, _EMPTY)

    def __str__(self) -> str:
        return "<error>"


#: The singleton poison type.
ERROR = ErrorType()


class TList(FGType):
    """The list type constructor."""

    __slots__ = _fields = ("elem",)

    def __new__(cls, elem: FGType) -> "TList":
        key = (cls, elem)
        return _lookup(key) or _intern(
            key, (elem,), elem.contains_error, elem.contains_forall,
            elem.contains_assoc, elem.free_vars)

    def remake(self, parts: Tuple[FGType, ...]) -> "TList":
        return TList(parts[0])

    def __str__(self) -> str:
        return f"list {self.elem}"


class TFn(FGType):
    """A multi-parameter function type ``fn(t1, ..., tn) -> t``.

    Its parts are the parameters, then the result."""

    __slots__ = _fields = ("params", "result")

    def __new__(cls, params: Tuple[FGType, ...], result: FGType) -> "TFn":
        key = (cls, tuple(params), result)
        t = _lookup(key)
        if t is None:
            parts = key[1] + (result,)
            t = _intern(key, parts, *_join(parts))
        return t

    def remake(self, parts: Tuple[FGType, ...]) -> "TFn":
        return TFn(parts[:-1], parts[-1])

    def __str__(self) -> str:
        return f"fn({', '.join(map(str, self.params))}) -> {self.result}"


class TTuple(FGType):
    """A product type (engineering extension, mirrors System F tuples)."""

    __slots__ = _fields = ("items",)

    def __new__(cls, items: Tuple[FGType, ...]) -> "TTuple":
        key = (cls, tuple(items))
        return _lookup(key) or _intern(key, key[1], *_join(key[1]))

    def remake(self, parts: Tuple[FGType, ...]) -> "TTuple":
        return TTuple(parts)

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return "(" + " * ".join(map(str, self.items)) + ")"


class ConceptReq(FGType):
    """A concept requirement ``c<tau1, ..., taun>`` in a where clause.

    Not itself a type that terms can inhabit; modeled as an ``FGType``
    subclass only so it can reuse the type traversal helpers.
    """

    __slots__ = _fields = ("concept", "args")

    def __new__(cls, concept: str, args: Tuple[FGType, ...]) -> "ConceptReq":
        key = (cls, concept, tuple(args))
        return _lookup(key) or _intern(key, key[2], *_join(key[2]))

    @property
    def shape(self) -> tuple:
        return (self.concept,)

    def remake(self, parts: Tuple[FGType, ...]) -> "ConceptReq":
        return ConceptReq(self.concept, parts)

    def __str__(self) -> str:
        return f"{self.concept}<{', '.join(map(str, self.args))}>"


class SameType(Node):
    """A same-type constraint ``tau == tau'`` (paper section 5)."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: FGType, right: FGType) -> None:
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"{self.left} == {self.right}"


def _sides(same_types):
    """The two sides of each same-type constraint, in order."""
    for s in same_types:
        yield s.left
        yield s.right


class TForall(FGType):
    """``forall t1..tn where c<taus>, ...; tau == tau', ... . t`` (Figs. 4, 11).

    It lists no parts, so a walk over parts treats it as a constant; its
    ``shape`` is its :attr:`alpha_key`.
    """

    _fields = ("vars", "requirements", "same_types", "body")
    __slots__ = _fields + ("_alpha_key",)

    def __new__(
        cls,
        vars: Tuple[str, ...],
        requirements: Tuple[ConceptReq, ...],
        same_types: Tuple[SameType, ...],
        body: FGType,
    ) -> "TForall":
        key = (cls, tuple(vars), tuple(requirements), tuple(same_types), body)
        t = _lookup(key)
        if t is None:
            error, _, assoc, free = _join(
                (body, *key[2], *_sides(key[3])))
            if not free.isdisjoint(key[1]):
                free = free - frozenset(key[1])
            t = _intern(key, (), error, True, assoc, free)
        return t

    @property
    def shape(self) -> tuple:
        return (self.alpha_key,)

    @property
    def alpha_key(self) -> "TForall":
        """This type with every binder, at every depth, renamed by its
        position in pre-order: ``@0``, ``@1``, ...  Alpha-variants share
        it, and it is hash-consed, so the congruence solver keys ``forall``
        constants by the object.  No identifier can spell ``@``.

        Computed on first read and kept on the type; threads that race
        store the same object.
        """
        key = getattr(self, "_alpha_key", None)
        if key is None:
            key = _positional(self, {}, itertools.count())
            _set(self, "_alpha_key", key)
        return key

    def __str__(self) -> str:
        clauses = [str(r) for r in self.requirements]
        clauses += [str(s) for s in self.same_types]
        where = f" where {', '.join(clauses)}" if clauses else ""
        return f"forall {', '.join(self.vars)}{where}. {self.body}"


class TAssoc(FGType):
    """An associated-type reference ``c<taus>.member`` (Fig. 11)."""

    __slots__ = _fields = ("concept", "args", "member")

    def __new__(
        cls, concept: str, args: Tuple[FGType, ...], member: str
    ) -> "TAssoc":
        key = (cls, concept, tuple(args), member)
        t = _lookup(key)
        if t is None:
            error, forall, _, free = _join(key[2])
            t = _intern(key, key[2], error, forall, True, free)
        return t

    @property
    def shape(self) -> tuple:
        return (self.concept, self.member)

    def remake(self, parts: Tuple[FGType, ...]) -> "TAssoc":
        return TAssoc(self.concept, parts, self.member)

    def __str__(self) -> str:
        return f"{self.concept}<{', '.join(map(str, self.args))}>.{self.member}"


def free_type_vars(t: FGType) -> FrozenSet[str]:
    """Free type variables of an F_G type (where clauses included)."""
    return t.free_vars


def concept_names(t: FGType) -> frozenset:
    """``CV(t)``: concept names occurring in where clauses / assoc types of ``t``."""
    if isinstance(t, TForall):
        parts = (t.body, *t.requirements, *_sides(t.same_types))
    else:
        parts = t.parts
    out = (frozenset((t.concept,)) if isinstance(t, (ConceptReq, TAssoc))
           else _EMPTY)
    for p in parts:
        out |= concept_names(p)
    return out


def _positional(t: FGType, names, counter) -> FGType:
    """``t`` with its free variables renamed by ``names`` and every binder
    in it named ``@k``, ``k`` drawn from ``counter`` in pre-order."""
    if not t.contains_forall:
        return substitute(t, names)
    if isinstance(t, TForall):
        inner = dict(names)
        for v in t.vars:
            inner[v] = TVar(f"@{next(counter)}")
        # A repeated binder is named, at each place, as its occurrences
        # are: by its last position.
        vars_ = tuple(inner[v].name for v in t.vars)
        reqs = tuple(_positional(r, inner, counter) for r in t.requirements)
        sames = tuple(
            SameType(_positional(s.left, inner, counter),
                     _positional(s.right, inner, counter))
            for s in t.same_types
        )
        return TForall(vars_, reqs, sames, _positional(t.body, inner, counter))
    return t.remake(tuple([_positional(p, names, counter) for p in t.parts]))


def _under_binders(vars_: Tuple[str, ...], free: FrozenSet[str], subst):
    """Substituting ``subst`` into a scope that binds ``vars_`` and has the
    free type variables ``free``: the scope's binders, with each that would
    capture a variable of a substituted type renamed by
    :func:`~repro.systemf.ast.rename_binders`, and the substitution to
    apply inside the scope (``subst`` less the binders, plus the renaming).
    """
    inner = {k: v for k, v in subst.items() if k not in vars_}
    captured = _EMPTY
    for v in inner.values():
        captured |= v.free_vars
    if not captured.isdisjoint(vars_):
        vars_, renamed = rename_binders(vars_, captured, free.union(inner))
        inner.update((old, TVar(new)) for old, new in renamed.items())
    return vars_, inner


def _substitute_sames(same_types, subst) -> Tuple[SameType, ...]:
    return tuple(
        SameType(substitute(s.left, subst), substitute(s.right, subst))
        for s in same_types
    )


def substitute(t: FGType, subst) -> FGType:
    """Capture-avoiding simultaneous substitution ``[t -> tau]t``.

    ``subst`` maps type-variable names to :class:`FGType` values.  A type
    with no free variable in the substitution's domain is returned as is.
    """
    if not subst or t.free_vars.isdisjoint(subst):
        return t
    if type(t) is TVar:
        return subst[t.name]
    if type(t) is TForall:
        vars_, inner = _under_binders(t.vars, t.free_vars, subst)
        return TForall(
            vars_,
            tuple(substitute(r, inner) for r in t.requirements),
            _substitute_sames(t.same_types, inner),
            substitute(t.body, inner),
        )
    return t.remake(tuple([substitute(p, subst) for p in t.parts]))


def substitute_term_types(term: "Term", subst) -> "Term":
    """Apply a type substitution to every type embedded in a term.

    Used to instantiate concept-member *defaults*, whose bodies are written
    against the concept's formal parameters.  A type abstraction in the
    body renames a binder that would capture a substituted variable, as
    :func:`substitute` does at a ``forall``.
    """
    return _substitute_term(term, subst) if subst else term


def _substitute_term(e: "Term", subst) -> "Term":
    """:func:`substitute_term_types` for a non-empty ``subst``."""
    if isinstance(e, (Var, IntLit, BoolLit)):
        return e
    go = _substitute_term
    if isinstance(e, Lam):
        return Lam(
            span=e.span,
            params=tuple((n, substitute(t, subst)) for n, t in e.params),
            body=go(e.body, subst),
        )
    if isinstance(e, App):
        return App(
            span=e.span,
            fn=go(e.fn, subst),
            args=tuple(go(a, subst) for a in e.args),
        )
    if isinstance(e, TyLam):
        # A term does not store its free type variables, so binders
        # here avoid only what ``_under_binders`` always avoids.  A
        # default's body is source text, which cannot spell a renamed
        # binder (``rename_binders``' ``#``); the only such names in it
        # come from ``subst``, and those are avoided.
        vars_, inner = _under_binders(e.vars, _EMPTY, subst)
        if not inner:
            return e
        return TyLam(
            span=e.span,
            vars=vars_,
            requirements=tuple(substitute(r, inner) for r in e.requirements),
            same_types=_substitute_sames(e.same_types, inner),
            body=go(e.body, inner),
        )
    if isinstance(e, TyApp):
        return TyApp(
            span=e.span,
            fn=go(e.fn, subst),
            args=tuple(substitute(t, subst) for t in e.args),
        )
    if isinstance(e, Let):
        return Let(
            span=e.span, name=e.name,
            bound=go(e.bound, subst), body=go(e.body, subst),
        )
    if isinstance(e, Tuple_):
        return Tuple_(span=e.span, items=tuple(go(i, subst) for i in e.items))
    if isinstance(e, Nth):
        return Nth(span=e.span, tuple_=go(e.tuple_, subst), index=e.index)
    if isinstance(e, If):
        return If(
            span=e.span, cond=go(e.cond, subst),
            then=go(e.then, subst), else_=go(e.else_, subst),
        )
    if isinstance(e, Fix):
        return Fix(span=e.span, fn=go(e.fn, subst))
    if isinstance(e, MemberAccess):
        return MemberAccess(
            span=e.span,
            concept=e.concept,
            args=tuple(substitute(a, subst) for a in e.args),
            member=e.member,
        )
    if isinstance(e, TypeAlias):
        # The alias binds its name in the body, as a type abstraction
        # binds its variables.
        (name,), inner = _under_binders((e.name,), _EMPTY, subst)
        return TypeAlias(
            span=e.span, name=name, aliased=substitute(e.aliased, subst),
            body=substitute_term_types(e.body, inner),
        )
    # Concept/model expressions and extension nodes inside defaults are
    # rare; handle the general declaration forms conservatively.
    if isinstance(e, ConceptExpr):
        return ConceptExpr(span=e.span, concept=e.concept, body=go(e.body, subst))
    if isinstance(e, ModelExpr):
        mdef = e.model
        new_mdef = ModelDef(
            mdef.concept,
            tuple(substitute(a, subst) for a in mdef.args),
            tuple((n, substitute(t, subst)) for n, t in mdef.type_assignments),
            tuple((n, go(d, subst)) for n, d in mdef.member_defs),
        )
        return ModelExpr(span=e.span, model=new_mdef, body=go(e.body, subst))
    raise AssertionError(
        f"substitute_term_types: unsupported node {type(e).__name__}"
    )


# ---------------------------------------------------------------------------
# Declarations (payloads of concept/model expressions)
# ---------------------------------------------------------------------------


class ConceptDef(Node):
    """The payload of ``concept c<t...> { ... }``.

    ``assoc_types`` are required nested type names; ``refines`` lists refined
    concepts (their args may mention the params and assoc names);
    ``members`` are ``name : type`` requirements; ``same_types`` are
    same-type requirements among associated types / params; ``nested`` are
    requirements on associated types (paper section 6, "nested
    requirements") — e.g. a container's iterator type must itself model
    Iterator.  Nested requirements contribute dictionary components after
    the refinements and before the members.  ``defaults`` are default
    member bodies (section 6 extension); keys must name members.  Core F_G
    ignores defaults — they take effect under :mod:`repro.extensions`.
    """

    __slots__ = _fields = ("name", "params", "assoc_types", "refines",
                           "members", "same_types", "nested", "defaults")

    def __init__(
        self,
        name: str,
        params: Tuple[str, ...],
        assoc_types: Tuple[str, ...] = (),
        refines: Tuple[ConceptReq, ...] = (),
        members: Tuple[Tuple[str, FGType], ...] = (),
        same_types: Tuple[SameType, ...] = (),
        nested: Tuple[ConceptReq, ...] = (),
        defaults: Tuple[Tuple[str, "Term"], ...] = (),
    ) -> None:
        self.name = name
        self.params = params
        self.assoc_types = assoc_types
        self.refines = refines
        self.members = members
        self.same_types = same_types
        self.nested = nested
        self.defaults = defaults

    def member_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.members)


class ModelDef(Node):
    """The payload of ``model c<tau...> { ... }``.

    ``type_assignments`` give each required associated type a definition;
    ``member_defs`` give each required operation an implementation.
    """

    __slots__ = _fields = ("concept", "args", "type_assignments",
                           "member_defs")

    def __init__(
        self,
        concept: str,
        args: Tuple[FGType, ...],
        type_assignments: Tuple[Tuple[str, FGType], ...] = (),
        member_defs: Tuple[Tuple[str, "Term"], ...] = (),
    ) -> None:
        self.concept = concept
        self.args = args
        self.type_assignments = type_assignments
        self.member_defs = member_defs


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
#
# Each constructor takes ``span`` first, then the fields in ``_fields``
# order, each with a default, so keyword and positional calls both work.


class Term(Node):
    """Base class of F_G terms."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None) -> None:
        self.span = span

    def __reduce__(self):
        # The constructor takes the span first.
        return (type(self),
                (self.span, *[getattr(self, f) for f in self._fields]))


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, span: Optional[Span] = None, name: str = "") -> None:
        self.span = span
        self.name = name


class IntLit(Term):
    __slots__ = _fields = ("value",)

    def __init__(self, span: Optional[Span] = None, value: int = 0) -> None:
        self.span = span
        self.value = value


class BoolLit(Term):
    __slots__ = _fields = ("value",)

    def __init__(self, span: Optional[Span] = None,
                 value: bool = False) -> None:
        self.span = span
        self.value = value


class Lam(Term):
    """``\\x1:t1, ..., xn:tn. body``."""

    __slots__ = _fields = ("params", "body")

    def __init__(self, span: Optional[Span] = None,
                 params: Tuple[Tuple[str, FGType], ...] = (),
                 body: Term = None) -> None:
        self.span = span
        self.params = params
        self.body = body


class App(Term):
    __slots__ = _fields = ("fn", "args")

    def __init__(self, span: Optional[Span] = None, fn: Term = None,
                 args: Tuple[Term, ...] = ()) -> None:
        self.span = span
        self.fn = fn
        self.args = args


class TyLam(Term):
    """``/\\t... where reqs; sames. body`` — generic function (Figs. 4, 11)."""

    __slots__ = _fields = ("vars", "requirements", "same_types", "body")

    def __init__(self, span: Optional[Span] = None,
                 vars: Tuple[str, ...] = (),
                 requirements: Tuple[ConceptReq, ...] = (),
                 same_types: Tuple[SameType, ...] = (),
                 body: Term = None) -> None:
        self.span = span
        self.vars = vars
        self.requirements = requirements
        self.same_types = same_types
        self.body = body


class TyApp(Term):
    """Instantiation ``e[tau...]``: triggers model lookup."""

    __slots__ = _fields = ("fn", "args")

    def __init__(self, span: Optional[Span] = None, fn: Term = None,
                 args: Tuple[FGType, ...] = ()) -> None:
        self.span = span
        self.fn = fn
        self.args = args


class Let(Term):
    __slots__ = _fields = ("name", "bound", "body")

    def __init__(self, span: Optional[Span] = None, name: str = "",
                 bound: Term = None, body: Term = None) -> None:
        self.span = span
        self.name = name
        self.bound = bound
        self.body = body


class Tuple_(Term):
    __slots__ = _fields = ("items",)

    def __init__(self, span: Optional[Span] = None,
                 items: Tuple[Term, ...] = ()) -> None:
        self.span = span
        self.items = items


class Nth(Term):
    __slots__ = _fields = ("tuple_", "index")

    def __init__(self, span: Optional[Span] = None, tuple_: Term = None,
                 index: int = 0) -> None:
        self.span = span
        self.tuple_ = tuple_
        self.index = index


class If(Term):
    __slots__ = _fields = ("cond", "then", "else_")

    def __init__(self, span: Optional[Span] = None, cond: Term = None,
                 then: Term = None, else_: Term = None) -> None:
        self.span = span
        self.cond = cond
        self.then = then
        self.else_ = else_


class Fix(Term):
    __slots__ = _fields = ("fn",)

    def __init__(self, span: Optional[Span] = None, fn: Term = None) -> None:
        self.span = span
        self.fn = fn


class ConceptExpr(Term):
    """``concept c<t...> { ... } in body`` — scoped concept declaration."""

    __slots__ = _fields = ("concept", "body")

    def __init__(self, span: Optional[Span] = None,
                 concept: ConceptDef = None, body: Term = None) -> None:
        self.span = span
        self.concept = concept
        self.body = body


class ModelExpr(Term):
    """``model c<tau...> { ... } in body`` — scoped model declaration."""

    __slots__ = _fields = ("model", "body")

    def __init__(self, span: Optional[Span] = None, model: ModelDef = None,
                 body: Term = None) -> None:
        self.span = span
        self.model = model
        self.body = body


class MemberAccess(Term):
    """``c<tau...>.x`` — extract an operation from a model (MEM rule)."""

    __slots__ = _fields = ("concept", "args", "member")

    def __init__(self, span: Optional[Span] = None, concept: str = "",
                 args: Tuple[FGType, ...] = (), member: str = "") -> None:
        self.span = span
        self.concept = concept
        self.args = args
        self.member = member


class TypeAlias(Term):
    """``type t = tau in body`` (Fig. 11, ALS rule)."""

    __slots__ = _fields = ("name", "aliased", "body")

    def __init__(self, span: Optional[Span] = None, name: str = "",
                 aliased: FGType = None, body: Term = None) -> None:
        self.span = span
        self.name = name
        self.aliased = aliased
        self.body = body
