"""One refinement walk serves TABS, TAPP and the extensions.

``concepts.refinements`` walks the refinement closure of a where-clause
requirement.  The abstraction (``Checker._process_where``), every
instantiation (``Checker._instantiate``), a parameterized model's
instantiation and overload specificity all read it.  It replaced two walks
that agreed on the order of a clause's associated-type slots only by
convention: the recursive ``register`` closure that elaborated a where
clause, and ``assoc_slots``, which listed the slots an instantiation
supplies.  Both are kept here as they were, as the reference, with the
parent's instantiation, parameterized-model instantiation and
overload-specificity code that read ``assoc_slots`` and
``refinement_closure``.

- ``ShadowChecker`` runs the reference beside the shipped code at every
  where clause and type application of a program.  It compares the slot
  list, the proxy models (concept, arguments, dictionary variable, path,
  associated-type map), the fresh names, the equalities, the type
  variables and any error.
- ``ReferenceChecker`` elaborates with the reference throughout.  Its
  type, translation, value, verified flag, report, explain log and metrics
  must equal the shipped checker's.

Inputs are ``fg_gen`` programs and hand-written clauses: refinement
diamonds, repeated requirements, nested requirements on associated types,
multi-parameter concepts and a concept refined at an associated type.
``fg_gen`` never writes a diamond, so the hand cases carry those.

One difference is expected: overload selection over a diamond whose shared
concept takes associated-type arguments.  The walk reaches the shared
concept once, so specificity improves its arguments once, where the
reference's ``refinement_closure`` improved them once per path.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.extensions
from repro.diagnostics.errors import TypeError_
from repro.extensions import ExtChecker
from repro.fg import ast as G
from repro.fg.concepts import (
    check_concept_arity,
    concept_def,
    qualifying_subst,
    refinements,
)
from repro.fg.env import Env, ModelInfo
from repro.fg.typecheck import Checker, WhereResult
from repro.observability import ExplainLog, Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro.syntax.parser_fg import parse_program
from repro.systemf import ast as F
from repro.systemf import pretty_term

#: The module, not the ``repro.fg.typecheck`` function of the same name.
fg_typecheck = importlib.import_module("repro.fg.typecheck")

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "properties"))
from fg_gen import program_specs  # noqa: E402


# -- the reference: the walks as they were ------------------------------------


def assoc_slots(env, requirements, subst=None):
    """The ordered associated-type slots of a where clause, as
    ``(concept, formal args, actual args, associated type)``."""
    seen = set()
    slots = []

    def walk(concept, formal, actual):
        key = (concept, formal)
        if key in seen:
            return
        seen.add(key)
        cdef = concept_def(env, concept)
        check_concept_arity(cdef, formal)
        for s in cdef.assoc_types:
            slots.append((concept, formal, actual, s))
        formal_subst = qualifying_subst(cdef, formal)
        actual_subst = qualifying_subst(cdef, actual)
        for req in cdef.refines + cdef.nested:
            walk(
                req.concept,
                tuple(G.substitute(a, formal_subst) for a in req.args),
                tuple(G.substitute(a, actual_subst) for a in req.args),
            )

    for req in requirements:
        actual_args = (
            tuple(G.substitute(a, subst) for a in req.args) if subst else req.args
        )
        walk(req.concept, req.args, actual_args)
    return slots


def refinement_closure(env, concept, args):
    """Every ``(concept, args, path)`` reachable by refinement, self first."""
    out = [(concept, args, ())]
    cdef = concept_def(env, concept)
    subst = qualifying_subst(cdef, args)
    for i, req in enumerate(cdef.refines + cdef.nested):
        refined_args = tuple(G.substitute(a, subst) for a in req.args)
        for name, rargs, path in refinement_closure(
            env, req.concept, refined_args
        ):
            out.append((name, rargs, (i,) + path))
    return out


def reference_process_where(self, vars_, requirements, same_types, env,
                            span=None):
    """``Checker._process_where`` with its recursive ``register``."""
    if len(set(vars_)) != len(vars_):
        raise TypeError_("duplicate type parameter in where clause", span)
    clash = set(vars_) & env.tyvars
    if clash:
        raise TypeError_(
            f"type parameter(s) shadow enclosing scope: "
            f"{', '.join(sorted(clash))}",
            span,
        )
    free_clash = set(vars_) & env.free_type_vars()
    if free_clash:
        raise TypeError_(
            f"type parameter(s) not fresh for the environment: "
            f"{', '.join(sorted(free_clash))}",
            span,
        )
    env = env.bind_tyvars(vars_)
    seen = set()
    assoc_vars: List[str] = []
    fresh_to_assoc: Dict[str, G.FGType] = {}
    req_dict_vars: List[str] = []

    def register(concept, args, dict_var, path):
        nonlocal env
        key = (concept, args)
        if key in seen:
            return
        seen.add(key)
        if self._explain is not None:
            what = (
                "requirement" if not path
                else f"refinement (dictionary path {path})"
            )
            self._explain.refinement(
                f"where-clause {what}: proxy model "
                f"{concept}<{', '.join(map(str, args))}> registered"
            )
        cdef = concept_def(env, concept, span)
        check_concept_arity(cdef, args, span)
        assoc_map = {
            s: G.TAssoc(concept, args, s) for s in cdef.assoc_types
        }
        equalities = []
        fresh_names = []
        for s in cdef.assoc_types:
            fresh = self._fresh(s)
            fresh_names.append(fresh)
            assoc_vars.append(fresh)
            fresh_to_assoc[fresh] = G.TAssoc(concept, args, s)
            equalities.append((G.TVar(fresh), G.TAssoc(concept, args, s)))
        subst = qualifying_subst(cdef, args)
        for same in cdef.same_types:
            equalities.append(
                (G.substitute(same.left, subst),
                 G.substitute(same.right, subst))
            )
        env = env.bind_tyvars(fresh_names)
        env = env.add_model(
            ModelInfo(concept, args, dict_var, path, assoc_map)
        )
        env = env.add_equalities(equalities)
        for i, req in enumerate(cdef.refines + cdef.nested):
            refined_args = tuple(G.substitute(a, subst) for a in req.args)
            register(req.concept, refined_args, dict_var, path + (i,))

    for req in requirements:
        cdef = concept_def(env, req.concept, span)
        check_concept_arity(cdef, req.args, span)
        for a in req.args:
            self.check_type_wf(a, env, span)
        dict_var = self._fresh_dict(req.concept)
        req_dict_vars.append(dict_var)
        register(req.concept, req.args, dict_var, ())

    for same in same_types:
        self.check_type_wf(same.left, env, span)
        self.check_type_wf(same.right, env, span)
        env = env.add_equality(same.left, same.right)

    dict_params = tuple(
        (dict_var, self.dict_type_sf(req.concept, req.args, env, span))
        for dict_var, req in zip(req_dict_vars, requirements)
    )
    return WhereResult(env, tuple(assoc_vars), dict_params, fresh_to_assoc)


def reference_instantiate(self, fn_type, args, env, span):
    """``Checker._instantiate`` reading ``assoc_slots``."""
    fn_type = self.rep(fn_type, env)
    if isinstance(fn_type, G.ErrorType):
        for a in args:
            self.check_type_wf(a, env, span)
        return None
    if not isinstance(fn_type, G.TForall):
        raise TypeError_(
            f"cannot instantiate non-generic term of type {fn_type}", span
        )
    if len(fn_type.vars) != len(args):
        raise TypeError_(
            f"expected {len(fn_type.vars)} type argument(s), "
            f"got {len(args)}",
            span,
        )
    for a in args:
        self.check_type_wf(a, env, span)
    if self._metrics is not None:
        self._metrics.inc("typecheck.instantiations")
        self._metrics.inc("typecheck.substitutions", len(fn_type.vars))
    subst = dict(zip(fn_type.vars, args))
    sf_tyargs = [self.translate_type(a, env, span) for a in args]
    for concept, _, actual, assoc_name in assoc_slots(
        env, fn_type.requirements, subst
    ):
        info = self.require_model(concept, actual, env, span)
        assigned = info.assoc.get(assoc_name)
        if assigned is None:
            raise TypeError_(
                f"model of {concept} lacks associated type '{assoc_name}'",
                span,
            )
        sf_tyargs.append(self.translate_type(assigned, env, span))
    dict_args = []
    for req in fn_type.requirements:
        actual = tuple(G.substitute(a, subst) for a in req.args)
        info = self.require_model(req.concept, actual, env, span)
        dict_args.append(self.dict_expr(info))
    for same in fn_type.same_types:
        left = G.substitute(same.left, subst)
        right = G.substitute(same.right, subst)
        holds = self.equal(left, right, env)
        if self._explain is not None:
            self._explain.note(
                f"same-type constraint consulted at instantiation: "
                f"{left} == {right} — "
                f"{'holds' if holds else 'VIOLATED'}"
            )
        if not holds:
            raise TypeError_(
                f"same-type constraint violated at instantiation: "
                f"{left} == {right} does not hold "
                f"(left is {self.rep(left, env)}, "
                f"right is {self.rep(right, env)})",
                span,
            )
    result_type = self.rep(G.substitute(fn_type.body, subst), env)
    return (
        result_type,
        tuple(sf_tyargs),
        tuple(dict_args) if fn_type.requirements else None,
    )


def reference_instantiate_param_model(self, pmodel, target, env):
    """``ExtChecker._instantiate_param_model`` reading ``assoc_slots``."""
    if len(pmodel.args) != len(target):
        return None
    theta: Dict[str, G.FGType] = {}
    for template, actual in zip(pmodel.args, target):
        if not self._match(template, actual, set(pmodel.vars), theta, env):
            return None
    if len(theta) != len(pmodel.vars):
        return None
    dict_args = []
    for req in pmodel.requirements:
        actual_args = tuple(G.substitute(a, theta) for a in req.args)
        sub = self.find_model(req.concept, actual_args, env)
        if sub is None:
            return None
        dict_args.append(self.dict_expr(sub))
    for same in pmodel.same_types:
        if not self.equal(
            G.substitute(same.left, theta),
            G.substitute(same.right, theta),
            env,
        ):
            return None
    tyargs = [self.translate_type(theta[v], env) for v in pmodel.vars]
    for concept, _, actual, assoc_name in assoc_slots(
        env, pmodel.requirements, theta
    ):
        sub = self.find_model(concept, actual, env)
        if sub is None:
            return None
        assignment = sub.assoc.get(assoc_name)
        if assignment is None:
            return None
        tyargs.append(self.translate_type(assignment, env))
    prebuilt = F.TyApp(fn=F.Var(name=pmodel.dict_var), args=tuple(tyargs))
    if pmodel.requirements:
        prebuilt = F.App(fn=prebuilt, args=tuple(dict_args))
    assoc_map = {
        s: G.substitute(template, theta)
        for s, template in pmodel.assoc_templates
    }
    return ModelInfo(
        pmodel.concept, target, pmodel.dict_var, (), assoc_map,
        prebuilt=prebuilt,
    )


def reference_requirement_closure(self, ftype, args, env):
    """``ExtChecker._requirement_closure`` reading ``refinement_closure``."""
    subst = dict(zip(ftype.vars, args))
    out = set()
    for req in ftype.requirements:
        actual = tuple(G.substitute(a, subst) for a in req.args)
        for concept, cargs, _ in refinement_closure(env, req.concept, actual):
            out.add((concept, tuple(str(self.rep(a, env)) for a in cargs)))
    return out


class ReferenceChecker(Checker):
    _process_where = reference_process_where
    _instantiate = reference_instantiate


class ReferenceExtChecker(ExtChecker):
    _process_where = reference_process_where
    _instantiate = reference_instantiate
    _instantiate_param_model = reference_instantiate_param_model
    _requirement_closure = reference_requirement_closure


# -- the shadow: reference and shipped side by side at every site -------------


def _attempt(fn, *args):
    """``fn``'s result, or the error it raised as ``(kind, text, span)``."""
    try:
        return fn(*args)
    except TypeError_ as err:
        return ("error", err.message, err.span)


def _where_state(where):
    if not isinstance(where, WhereResult):
        return where
    env = where.env
    return (
        where.assoc_vars,
        where.dict_params,
        list(where.fresh_to_assoc.items()),
        env.tyvars,
        env.equalities,
        {c: env.models_of(c) for c in sorted(env._models)},
    )


def walk_slots(env, requirements, subst=None):
    """The slots an instantiation reads from the walk, in order."""
    seen: set = set()
    return [
        (entry.concept, entry.formal, entry.actual, s)
        for req in requirements
        for entry in refinements(env, req, seen, subst)
        for s in entry.cdef.assoc_types
    ]


class _Shadow:
    #: Where clauses and type applications compared since the last reset.
    sites = 0

    def _process_where(self, vars_, requirements, same_types, env,
                       span=None):
        names, explain = self._names, self._explain
        self._explain = None
        try:
            expected = _attempt(
                reference_process_where,
                self, vars_, requirements, same_types, env, span,
            )
        finally:
            self._explain = explain
        expected_names, self._names = self._names, names
        try:
            got = super()._process_where(
                vars_, requirements, same_types, env, span
            )
        except TypeError_ as err:
            assert expected == ("error", err.message, err.span)
            assert self._names == expected_names
            raise
        assert _where_state(got) == _where_state(expected)
        assert self._names == expected_names
        # At the abstraction, the slots are the fresh variables, in order.
        slots = walk_slots(env, requirements)
        assert slots == assoc_slots(env, requirements)
        assert [G.TAssoc(c, f, s) for c, f, _, s in slots] == list(
            got.fresh_to_assoc.values()
        )
        _Shadow.sites += 1
        return got

    def _instantiate(self, fn_type, args, env, span):
        forall = self.rep(fn_type, env)
        if isinstance(forall, G.TForall) and len(forall.vars) == len(args):
            subst = dict(zip(forall.vars, args))
            assert _attempt(
                walk_slots, env, forall.requirements, subst
            ) == _attempt(assoc_slots, env, forall.requirements, subst)
            _Shadow.sites += 1
        return super()._instantiate(fn_type, args, env, span)


class ShadowChecker(_Shadow, Checker):
    pass


class ShadowExtChecker(_Shadow, ExtChecker):
    def _requirement_closure(self, ftype, args, env):
        got = super()._requirement_closure(ftype, args, env)
        assert got == reference_requirement_closure(self, ftype, args, env)
        return got


SHIPPED = {False: Checker, True: ExtChecker}
REFERENCE = {False: ReferenceChecker, True: ReferenceExtChecker}
SHADOW = {False: ShadowChecker, True: ShadowExtChecker}


def run(text, name="<input>", *, checkers=SHIPPED, prelude=False, ext=False,
        explain=False):
    """What one ``check_source`` run shows, with ``checkers`` in place."""
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(fg_typecheck, "Checker", checkers[False]))
        stack.enter_context(
            mock.patch.object(repro.extensions, "ExtChecker", checkers[True]))
        metrics = MetricsRegistry()
        log = ExplainLog() if explain else None
        out = check_source(
            text, name, prelude=prelude, ext=ext, verify=True, evaluate=True,
            instrumentation=Instrumentation(metrics=metrics, explain=log),
        )
    return {
        "type": None if out.type_ is None else str(out.type_),
        "translation": None if out.translation is None
        else pretty_term(out.translation),
        "report": out.report.render(),
        "value": repr(out.value),
        "verified": out.verified,
        "metrics": metrics.snapshot(),
        "explain": None if log is None else log.render(verbose=True),
    }


def same(text, name="<input>", **kwargs):
    """The shipped outcome, after checking it against the reference and
    running the shadow comparisons."""
    shipped = run(text, name, **kwargs)
    assert shipped == run(text, name, checkers=REFERENCE, **kwargs), name
    _Shadow.sites = 0
    shadowed = run(text, name, checkers=SHADOW, **kwargs)
    assert shadowed["translation"] == shipped["translation"]
    assert shadowed["report"] == shipped["report"]
    shipped["sites"] = _Shadow.sites
    return shipped


# -- hand-written clauses -----------------------------------------------------


DIAMOND = r"""
concept Top<t> { types s; base : fn(t) -> s; } in
concept Left<t> { refines Top<t>; left : fn(t) -> t; } in
concept Right<t> { refines Top<t>; right : fn(t) -> t; } in
concept Bottom<t> { refines Left<t>; refines Right<t>; } in
let through = /\t where Bottom<t>.
  \x : t. Top<t>.base(Left<t>.left(Right<t>.right(x))) in
model Top<int> { types s = bool; base = \x : int. igt(x, 0); } in
model Left<int> { left = \x : int. iadd(x, 1); } in
model Right<int> { right = \x : int. imult(x, 2); } in
model Bottom<int> { } in
(through[int](5), through[int](-5))
"""

REPEATED = r"""
concept C<t> { types s; get : fn(t) -> s; } in
concept D<t> { refines C<t>; twice : fn(t) -> t; } in
let f = /\t where C<t>, C<t>. \x : t. C<t>.get(x) in
let g = /\t where C<t>, D<t>, C<t>. \x : t. C<t>.get(D<t>.twice(x)) in
model C<int> { types s = int; get = \x : int. imult(x, 2); } in
model D<int> { twice = \x : int. iadd(x, x); } in
(f[int](21), g[int](5))
"""

NESTED = r"""
concept Iter<Iter> {
  types elt;
  next : fn(Iter) -> Iter;
  curr : fn(Iter) -> elt;
} in
concept Container<X> {
  types iterator;
  require Iter<iterator>;
  begin : fn(X) -> iterator;
} in
let first = /\C where Container<C>.
  \c : C. Iter<Container<C>.iterator>.curr(Container<C>.begin(c)) in
let second = /\C where Container<C>, Iter<Container<C>.iterator>.
  \c : C. Iter<Container<C>.iterator>.curr(
    Iter<Container<C>.iterator>.next(Container<C>.begin(c))) in
model Iter<list int> {
  types elt = int;
  next = \ls : list int. cdr[int](ls);
  curr = \ls : list int. car[int](ls);
} in
model Container<list int> {
  types iterator = list int;
  begin = \c : list int. c;
} in
(first[list int](cons[int](42, nil[int])),
 second[list int](cons[int](1, cons[int](2, nil[int]))))
"""

#: ``Both<a, b>`` refines ``Conv`` at two argument orders; ``Both<a, a>``
#: reaches ``Conv<a, a>`` twice.
MULTI_PARAM = r"""
concept Conv<a, b> { types via; conv : fn(a) -> b; } in
concept Both<a, b> { refines Conv<a, b>; refines Conv<b, a>; } in
let round = /\a, b where Both<a, b>.
  \x : a. Conv<b, a>.conv(Conv<a, b>.conv(x)) in
let self = /\a where Both<a, a>. \x : a. Conv<a, a>.conv(x) in
model Conv<int, bool> { types via = int; conv = \x : int. igt(x, 0); } in
model Conv<bool, int> {
  types via = bool; conv = \x : bool. if x then 1 else 0;
} in
model Conv<int, int> { types via = bool; conv = \x : int. iadd(x, 1); } in
model Both<int, bool> { } in
model Both<int, int> { } in
(round[int, bool](5), round[int, bool](-5), self[int](1))
"""

#: ``Seq`` refines ``Eq`` at its own associated type; ``Pair`` refines
#: ``Seq`` twice, and its clause equates the two.
ASSOC_REFINED = r"""
concept Eq<t> { eq : fn(t, t) -> bool; } in
concept Seq<s> { types elt; refines Eq<elt>; first : fn(s) -> elt; } in
concept Pair<p> {
  types left, right;
  refines Seq<left>; refines Seq<right>;
  fst : fn(p) -> left;
  snd : fn(p) -> right;
} in
let same_first = /\s where Seq<s>.
  \x : s, y : s. Eq<Seq<s>.elt>.eq(Seq<s>.first(x), Seq<s>.first(y)) in
let halves = /\p where Pair<p>, Pair<p>.left == Pair<p>.right.
  \x : p. same_first[Pair<p>.left](Pair<p>.fst(x), Pair<p>.snd(x)) in
model Eq<int> { eq = ieq; } in
model Seq<list int> { types elt = int; first = \l : list int. car[int](l); } in
model Pair<(list int * list int)> {
  types left = list int, right = list int;
  fst = \x : (list int * list int). nth x 0;
  snd = \x : (list int * list int). nth x 1;
} in
(same_first[list int](cons[int](1, nil[int]), cons[int](1, nil[int])),
 halves[(list int * list int)]((cons[int](1, nil[int]),
                                cons[int](2, nil[int]))))
"""

#: A diamond at an associated type, met again as an explicit requirement.
ASSOC_DIAMOND = r"""
concept Top<t> { types s; top : fn(t) -> s; } in
concept Left<t> { refines Top<t>; } in
concept Right<t> { refines Top<t>; } in
concept Cont<c> {
  types it;
  refines Left<it>; refines Right<it>;
  get : fn(c) -> it;
} in
let peek = /\c where Cont<c>, Top<Cont<c>.it>.
  \x : c. Top<Cont<c>.it>.top(Cont<c>.get(x)) in
model Top<int> { types s = bool; top = \x : int. igt(x, 3); } in
model Left<int> { } in
model Right<int> { } in
model Cont<list int> { types it = int; get = \l : list int. car[int](l); } in
peek[list int](cons[int](7, nil[int]))
"""

SAME_TYPES = r"""
concept It<I> { types elt; cur : fn(I) -> elt; } in
concept Twin<I> { refines It<I>; types other; require other == It<I>.elt; } in
let both = /\I, J where Twin<I>, It<J>, It<I>.elt == It<J>.elt.
  \i : I, j : J. (It<I>.cur(i), It<J>.cur(j)) in
model It<int> { types elt = bool; cur = \i : int. igt(i, 0); } in
model It<list int> { types elt = bool; cur = \l : list int. null[int](l); } in
model Twin<int> { types other = bool; } in
both[int, list int](1, nil[int])
"""

#: A parameterized model whose where clause has a refinement with an
#: associated type: its instantiation supplies that slot.
PARAM_MODEL = r"""
concept It<I> { types elt; cur : fn(I) -> elt; } in
concept Sg<t> { refines It<t>; op : fn(t, t) -> t; } in
let twice = /\t where Sg<t>. \x : t. (Sg<t>.op(x, x), It<t>.cur(x)) in
model It<int> { types elt = bool; cur = \i : int. igt(i, 0); } in
model Sg<int> { op = iadd; } in
model forall t where Sg<t>. It<list t> {
  types elt = It<t>.elt;
  cur = \l : list t. It<t>.cur(car[t](l));
} in
model forall t where Sg<t>. Sg<list t> {
  op = \a : list t, b : list t.
    cons[t](Sg<t>.op(car[t](a), car[t](b)), nil[t]);
} in
(twice[list int](cons[int](1, nil[int])), twice[int](2))
"""

#: Overload specificity over a diamond whose shared concept ``Top`` takes
#: an associated type, ``Cont<c>.it``.
OVERLOAD_ASSOC_DIAMOND = r"""
concept Top<t> { top : fn(t) -> int; } in
concept Left<t> { refines Top<t>; } in
concept Right<t> { refines Top<t>; } in
concept Cont<c> {
  types it;
  refines Left<it>; refines Right<it>;
  get : fn(c) -> it;
} in
concept Sized<c> { refines Cont<c>; size : fn(c) -> int; } in
overload measure {
  /\c where Cont<c>. \x : c. Top<Cont<c>.it>.top(Cont<c>.get(x));
  /\c where Sized<c>. \x : c. Sized<c>.size(x);
} in
model Top<int> { top = \x : int. imult(x, 10); } in
model Left<int> { } in
model Right<int> { } in
model Cont<list int> { types it = int; get = \l : list int. car[int](l); } in
model Cont<int> { types it = int; get = \x : int. x; } in
model Sized<int> { size = \x : int. 1; } in
(measure[list int](cons[int](4, nil[int])), measure[int](7))
"""

CORE_CASES = {
    "diamond": DIAMOND,
    "repeated": REPEATED,
    "nested": NESTED,
    "multi-param": MULTI_PARAM,
    "assoc-refined": ASSOC_REFINED,
    "assoc-diamond": ASSOC_DIAMOND,
    "same-types": SAME_TYPES,
}
EXT_CASES = {"param-model": PARAM_MODEL}


class TestWalk:
    def env(self, text):
        """The concepts ``text`` declares (``concept ... in`` prefixes)."""
        env = Env.initial()
        term = parse_program(text + " 0")
        while isinstance(term, G.ConceptExpr):
            env = env.add_concept(term.concept)
            term = term.body
        return env

    def test_depth_first_entry_before_refinements(self):
        env = self.env(DIAMOND.split("\nlet ")[0])
        t = G.TVar("t")
        entries = list(refinements(env, G.ConceptReq("Bottom", (t,)), set()))
        assert [(e.concept, e.path) for e in entries] == [
            ("Bottom", ()), ("Left", (0,)), ("Top", (0, 0)), ("Right", (1,)),
        ]

    def test_seen_spans_the_clause(self):
        env = self.env(REPEATED.split("\nlet ")[0])
        t = G.TVar("t")
        seen: set = set()
        first = list(refinements(env, G.ConceptReq("D", (t,)), seen))
        again = list(refinements(env, G.ConceptReq("C", (t,)), seen))
        assert [e.concept for e in first] == ["D", "C"] and again == []

    def test_actual_args_follow_the_substitution(self):
        env = self.env(NESTED.split("\nlet ")[0])
        c = G.TVar("C")
        target = G.TList(G.TBase("int"))
        entries = list(refinements(
            env, G.ConceptReq("Container", (c,)), set(), {"C": target}
        ))
        assert [(e.formal, e.actual) for e in entries] == [
            ((c,), (target,)),
            ((G.TAssoc("Container", (c,), "iterator"),),
             (G.TAssoc("Container", (target,), "iterator"),)),
        ]

    @pytest.mark.parametrize("prelude", [False, True])
    @pytest.mark.parametrize("ext", [False, True])
    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_core_cases(self, case, ext, prelude):
        out = same(CORE_CASES[case], case, ext=ext, prelude=prelude)
        assert out["verified"] and out["sites"] > 0

    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_core_cases_explained(self, case):
        assert same(CORE_CASES[case], case, explain=True)["explain"]

    @pytest.mark.parametrize("explain", [False, True])
    @pytest.mark.parametrize("case", sorted(EXT_CASES))
    def test_ext_cases(self, case, explain):
        out = same(EXT_CASES[case], case, ext=True, explain=explain)
        assert out["verified"] and out["sites"] > 0

    @pytest.mark.parametrize("ext", [False, True])
    @given(program_specs())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, ext, spec):
        assert same(spec.source, ext=ext)["verified"]


class TestDifferences:
    def test_overload_specificity_improves_a_shared_concept_once(self):
        """Each applicable alternative's closure reaches ``Top<Cont<c>.it>``
        through ``Left`` and ``Right``; the walk improves ``Cont<X>.it``
        there once.  Three alternatives are judged (one at ``list int``,
        two at ``int``), so three fewer ``Cont`` lookups."""
        kwargs = dict(ext=True, explain=True)
        text = OVERLOAD_ASSOC_DIAMOND
        shipped = run(text, **kwargs)
        reference = run(text, checkers=REFERENCE, **kwargs)
        assert shipped["value"] == reference["value"] == "(40, 1)"
        for key in ("type", "translation", "report", "verified"):
            assert shipped[key] == reference[key]
        lookups = [out["metrics"]["counters"]["model_lookup.attempts"]
                   for out in (shipped, reference)]
        assert lookups[1] - lookups[0] == 3
        assert (reference["explain"].count("model lookup: Cont<")
                - shipped["explain"].count("model lookup: Cont<")) == 3
        same_sets = run(text, checkers=SHADOW, ext=True)
        assert same_sets["value"] == "(40, 1)"

    @pytest.mark.parametrize("refined", ["Nope<t>", "D<t>"])
    def test_a_failed_refinement_is_not_logged_as_registered(self, refined):
        """A where clause over a concept whose refinement failed its own
        check (an unknown concept, a wrong arity) reports the same error at
        the same place, but the explain log no longer says that a proxy
        model was registered for the refinement that failed."""
        text = (
            "concept D<a, b> { } in "
            f"concept C<t> {{ types s; refines {refined}; }} in "
            r"let f = /\t where C<t>. 0 in 0"
        )
        shipped = run(text, explain=True)
        reference = run(text, checkers=REFERENCE, explain=True)
        for key in ("type", "translation", "report"):
            assert shipped[key] == reference[key]
        assert shipped["report"].count("type error") == 2
        assert f"proxy model {refined} registered" in reference["explain"]
        assert "registered" not in shipped["explain"].replace(
            "proxy model C<t> registered", "")
