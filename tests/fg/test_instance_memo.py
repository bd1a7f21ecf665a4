"""A type application met again in its scope reuses its checked instance.

The TAPP rule judges ``e[taus]`` from ``e``'s ``forall`` type, the
arguments and Gamma alone, so ``Checker`` remembers each checked instance
under ``(forall type, arguments, env)`` and rebuilds only the System F
application around the function's fresh translation.  An instance is stored
only if computing it took no name from the checker's counter.  The reference
here is the TAPP
rule as it was before the memo, judged afresh at every occurrence
(``NoReuseChecker``, ``NoReuseExtChecker``); ``ExtChecker``'s overload
selection still runs before it.

Both must give the same type, translation (``==``, printed text and every
node's span), diagnostics (kind, rendered text, span), rendered report,
value, verify verdict and ``congruence.nodes`` count, for the core and the
extended checker at the empty library and at the prelude, over

- ``examples/fg`` and the in-process fgbench workloads at seeds 1-3;
- ``fg_gen`` programs;
- hand cases: the same ``f[tau]`` under an inner shadowing model and under
  an added same-type constraint (each resolves anew), overloads and
  parameterized models, a ``forall``-typed type argument with requirements
  (its translation mints names) and a capture-prone substitution;
- the trip point under tiny check-depth and congruence-node budgets;
- explain output, which bypasses the memo.
"""

from __future__ import annotations

import importlib
import itertools
import re
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.extensions
import repro.prelude.context as context_module
from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import Limits
from repro.extensions import ExtChecker
from repro.fg import ast as G
from repro.fg.concepts import (
    check_concept_arity,
    concept_def,
    qualifying_subst,
)
from repro.fg.typecheck import Checker, _poison_term
from repro.observability import ExplainLog, Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro.systemf import ast as F
from repro.systemf import pretty_term

#: The module, not the ``repro.fg.typecheck`` function of the same name.
fg_typecheck = importlib.import_module("repro.fg.typecheck")

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))
#: The fgbench workloads checked in-process (serve-edits goes to a daemon).
IN_PROCESS = ("prelude-lib", "generic-stress", "broken-edits")

sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(ROOT / "tests" / "properties"))
import workloads  # noqa: E402
from fg_gen import program_specs  # noqa: E402


# -- the reference: TAPP judged at every occurrence ---------------------------


def assoc_slots(env, requirements, subst=None):
    """The where clause's associated-type slots as TAPP read them before the
    memo: ``(concept, formal args, actual args, associated type)`` from a
    depth-first walk of each requirement's refinement closure, de-duplicated
    on ``(concept, formal args)`` across the clause."""
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


class _NoReuse(Checker):
    """The TAPP rule as the checker ran it before the memo, verbatim:
    every occurrence is judged afresh."""

    def _check_tyapp(self, term: G.TyApp, env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            for a in term.args:
                self.check_type_wf(a, env, term.span)
            return G.ERROR, _poison_term(term.span)
        if not isinstance(fn_type, G.TForall):
            raise TypeError_(
                f"cannot instantiate non-generic term of type {fn_type}",
                term.span,
            )
        if len(fn_type.vars) != len(term.args):
            raise TypeError_(
                f"expected {len(fn_type.vars)} type argument(s), "
                f"got {len(term.args)}",
                term.span,
            )
        for a in term.args:
            self.check_type_wf(a, env, term.span)
        if self._metrics is not None:
            self._metrics.inc("typecheck.instantiations")
            self._metrics.inc("typecheck.substitutions", len(fn_type.vars))
        subst = dict(zip(fn_type.vars, term.args))
        sf_tyargs = [self.translate_type(a, env, term.span) for a in term.args]
        slots = assoc_slots(env, fn_type.requirements, subst)
        for concept, _, actual, assoc_name in slots:
            info = self.require_model(concept, actual, env, term.span)
            assigned = info.assoc.get(assoc_name)
            if assigned is None:
                raise TypeError_(
                    f"model of {concept} lacks associated type "
                    f"'{assoc_name}'",
                    term.span,
                )
            sf_tyargs.append(self.translate_type(assigned, env, term.span))
        dict_args = []
        for req in fn_type.requirements:
            actual = tuple(G.substitute(a, subst) for a in req.args)
            info = self.require_model(req.concept, actual, env, term.span)
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
                    term.span,
                )
        result_type = self.rep(G.substitute(fn_type.body, subst), env)
        sf: F.Term = F.TyApp(span=term.span, fn=fn_sf, args=tuple(sf_tyargs))
        if fn_type.requirements:
            sf = F.App(span=term.span, fn=sf, args=tuple(dict_args))
        return result_type, sf


class NoReuseChecker(_NoReuse):
    """The core checker, instantiating afresh at every type application."""


class NoReuseExtChecker(ExtChecker, _NoReuse):
    """The extended checker: overload selection, then the reference TAPP."""


SHIPPED = {NoReuseChecker: Checker, NoReuseExtChecker: ExtChecker}
_context_for = context_module.context_for


# -- running both -------------------------------------------------------------


def _span(span):
    return None if span is None else (span.filename, span.lo, span.hi)


def _spans(term, out):
    """Every node's class and span, in preorder."""
    out.append((type(term).__name__, _span(term.span)))
    for name in term._fields:
        value = getattr(term, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, F.Term):
                _spans(item, out)
    return out


def run(text, name="<input>", *, prelude=False, ext=False, reference=False,
        limits=None, max_errors=20, explain=False):
    """What one ``check_source`` run shows; ``reference`` swaps in the
    no-reuse checkers, at the shipped checkers' library contexts."""
    with ExitStack() as stack:
        if reference:
            stack.enter_context(
                mock.patch.object(fg_typecheck, "Checker", NoReuseChecker))
            stack.enter_context(mock.patch.object(
                repro.extensions, "ExtChecker", NoReuseExtChecker))
            stack.enter_context(mock.patch.object(
                context_module, "context_for",
                lambda cls, prelude: _context_for(SHIPPED[cls], prelude)))
        metrics = MetricsRegistry()
        log = ExplainLog() if explain else None
        out = check_source(
            text, name, prelude=prelude, ext=ext, limits=limits,
            max_errors=max_errors, verify=True, evaluate=True,
            instrumentation=Instrumentation(metrics=metrics, explain=log),
        )
    translation = out.translation
    program = (
        None if translation is None
        else _context_for(ExtChecker if ext else Checker, prelude)
        .program_part(translation)
    )
    return {
        "type": None if out.type_ is None else str(out.type_),
        "translation": translation,
        "text": None if translation is None else pretty_term(translation),
        "spans": None if program is None else _spans(program, []),
        "diagnostics": [(d.kind, str(d), _span(d.span))
                        for d in out.report.diagnostics],
        "report": out.report.render(),
        "value": repr(out.value),
        "verified": out.verified,
        "nodes": metrics.counter("congruence.nodes"),
        "explain": None if log is None else log.render(verbose=True),
    }


def same(text, name="<input>", **kwargs):
    new = run(text, name, **kwargs)
    assert new == run(text, name, reference=True, **kwargs), (name, kwargs)
    return new


SETTINGS = [(prelude, ext) for prelude in (False, True)
            for ext in (False, True)]
SETTING_IDS = ["core", "ext", "prelude-core", "prelude-ext"]


@pytest.mark.parametrize("prelude,ext", SETTINGS, ids=SETTING_IDS)
class TestCorpus:
    def test_examples(self, prelude, ext):
        for path in EXAMPLES:
            same(path.read_text(), path.name, prelude=prelude, ext=ext)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", IN_PROCESS)
    def test_fgbench_cases(self, workload, seed, prelude, ext):
        for case in workloads.make(workload, seed):
            same(case.text, case.name, prelude=prelude, ext=ext)

    @given(program_specs())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, prelude, ext, spec):
        assert same(spec.source, prelude=prelude, ext=ext)["diagnostics"] == []


# -- hand cases ---------------------------------------------------------------


SHADOWED = r"""
concept C<t> { v : t; } in
model C<int> { v = 1; } in
let f = /\t where C<t>. C<t>.v in
(f[int], model C<int> { v = 2; } in f[int], f[int])
"""

#: ``f[s, t]`` holds where ``s == t`` is assumed, and must fail where not.
SAME_TYPE = r"""
let f = /\a, b where a == b. \x : a. x in
let g = /\s, t where s == t. (f[s, t], f[s, t]) in
let h = /\s, t. (f[s, t], f[s, t]) in
0
"""

#: Each ``id[...]`` translates a forall type with a requirement: a fresh
#: dictionary name and a fresh associated-type variable every time.
FORALL_ARGUMENT = r"""
concept It<I> { types elt; cur : fn(I) -> elt; } in
model It<int> { types elt = bool; cur = \i : int. ieq(i, 0); } in
let id = /\a. \x : a. x in
let g = /\u where It<u>. \i : u. It<u>.cur(i) in
let pick = /\a. \x : a, y : a. y in
let h = pick[forall u where It<u>. fn(u) -> It<u>.elt](
  id[forall u where It<u>. fn(u) -> It<u>.elt](g),
  id[forall u where It<u>. fn(u) -> It<u>.elt](g)) in
let k = /\v where It<v>. \i : v. It<v>.cur(i) in
(h[int](0), k[int](1))
"""

#: ``k[b]`` substitutes ``b`` under a binder named ``b``: each occurrence
#: renames the binder, to the same name.
CAPTURE = r"""
let k = /\a. /\b. \x : a, y : b. x in
let dup = /\b. \x : b. (k[b], k[b], k[b]) in
dup[int](1)
"""

OVERLOADS = r"""
concept Stepper<I> { next : fn(I) -> I; } in
concept RandomStepper<I> {
  refines Stepper<I>;
  advance_by : fn(I, int) -> I;
} in
overload advance {
  /\I where Stepper<I>. \it : I, n : int.
    (fix (\go : fn(I, int) -> I. \j : I, k : int.
      if ile(k, 0) then j else go(Stepper<I>.next(j), isub(k, 1))))(it, n);
  /\I where RandomStepper<I>. \it : I, n : int.
    RandomStepper<I>.advance_by(it, n);
} in
model Stepper<list int> { next = \l : list int. cdr[int](l); } in
model Stepper<int> { next = \p : int. iadd(p, 1); } in
model RandomStepper<int> {
  advance_by = \p : int, n : int. iadd(p, n);
} in
(advance[int](0, 5), advance[int](1, 2),
 car[int](advance[list int](cons[int](9, cons[int](8, nil[int])), 1)),
 car[int](advance[list int](cons[int](7, nil[int]), 0)))
"""

PARAM_MODELS = r"""
concept Sg<t> { op : fn(t, t) -> t; } in
let twice = /\t where Sg<t>. \x : t. Sg<t>.op(x, x) in
model Sg<int> { op = iadd; } in
model forall t where Sg<t>. Sg<list t> {
  op = fix (\z : fn(list t, list t) -> list t.
    \a : list t, b : list t.
      if null[t](a) then nil[t]
      else if null[t](b) then nil[t]
      else cons[t](Sg<t>.op(car[t](a), car[t](b)),
                   z(cdr[t](a), cdr[t](b))));
} in
(twice[list int](cons[int](1, cons[int](2, nil[int]))),
 twice[list int](cons[int](3, nil[int])),
 twice[list list int](cons[list int](cons[int](4, nil[int]), nil[list int])))
"""

CORE_CASES = {
    "shadowed": SHADOWED,
    "same-type": SAME_TYPE,
    "forall-argument": FORALL_ARGUMENT,
    "capture": CAPTURE,
}
EXT_CASES = {"overloads": OVERLOADS, "param-models": PARAM_MODELS}


class TestHandCases:
    @pytest.mark.parametrize("prelude,ext", SETTINGS, ids=SETTING_IDS)
    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_core_cases(self, case, prelude, ext):
        same(CORE_CASES[case], case, prelude=prelude, ext=ext)

    @pytest.mark.parametrize("prelude", [False, True])
    @pytest.mark.parametrize("case", sorted(EXT_CASES))
    def test_ext_cases(self, case, prelude):
        out = same(EXT_CASES[case], case, prelude=prelude, ext=True)
        assert out["diagnostics"] == []

    def test_an_inner_model_is_resolved_anew(self):
        assert same(SHADOWED)["value"] == "(1, 2, 1)"

    def test_an_added_same_type_constraint_is_judged_anew(self):
        (diag,) = same(SAME_TYPE)["diagnostics"]
        assert "same-type constraint violated" in diag[1]
        assert diag[1].startswith("<input>:4:")  # in h, not in g

    def test_a_forall_argument_mints_names_every_time(self):
        out = same(FORALL_ARGUMENT)
        assert out["value"] == "(True, False)" and out["verified"]
        assert len(set(re.findall(r"elt%\d+", out["text"]))) >= 3

    def test_capture_renames_at_every_occurrence(self):
        out = same(CAPTURE)
        assert out["type"].count("forall b#1. fn(int, b#1) -> int") == 3
        assert out["verified"]


# -- resource trips and explain -----------------------------------------------


TRIP_CASES = {
    "figure5": next(
        c.text for c in workloads.make("generic-stress", 1)
        if "accumulate" in c.text
    ),
    "merge": next(
        c.text for c in workloads.make("generic-stress", 1)
        if "merge" in c.name
    ),
    "prelude-lib": workloads.make("prelude-lib", 1)[0].text,
}


class TestTrips:
    @pytest.mark.parametrize("case", sorted(TRIP_CASES))
    def test_check_depth(self, case):
        prelude = case == "prelude-lib"
        for cap in range(1, 60):
            out = same(TRIP_CASES[case], case, prelude=prelude,
                       limits=Limits(max_check_depth=cap))
            if not out["diagnostics"]:
                break
        assert cap > 1 and not out["diagnostics"]

    @pytest.mark.parametrize("case", sorted(TRIP_CASES))
    def test_congruence_nodes(self, case):
        prelude = case == "prelude-lib"
        for cap in itertools.chain(range(0, 40), range(40, 400, 7)):
            out = same(TRIP_CASES[case], case, prelude=prelude,
                       limits=Limits(max_congruence_nodes=cap))
            if not out["diagnostics"]:
                break
        assert out["diagnostics"] == []


class TestExplain:
    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_hand_cases(self, case):
        out = same(CORE_CASES[case], case, explain=True)
        assert out["explain"]

    def test_a_prelude_program(self):
        out = same(TRIP_CASES["prelude-lib"], prelude=True, explain=True)
        assert out["explain"] and out["diagnostics"] == []

    @pytest.mark.parametrize("case", sorted(EXT_CASES))
    def test_ext_cases(self, case):
        assert same(EXT_CASES[case], case, ext=True, explain=True)["explain"]
