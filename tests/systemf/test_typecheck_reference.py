"""The dispatch-table System F checker against the isinstance-chain checker.

``repro.systemf.typecheck`` types each node through one handler per node
class, looked up by the node's class; the checker it replaced walked an
``isinstance`` chain per node.  That chain lives on here, unchanged, as the
reference (``ref_check``).  It shares the module's ``check_type_wf``,
``_check_bound`` and type-application memo, which are not what changed.

Both must agree on the type (``==`` and printed), or on the error's class,
message and span, over:

- the translations of ``examples/fg`` and of the accepting fgbench
  workloads (``prelude-lib``, ``generic-stress``; every ``broken-edits``
  case is rejected before it has one) at seeds 1-3, under the core and the
  extended checker, with and without the prelude, typed whole from the
  builtins and, for the program's part, inside the library's typed prefix
  (what verify does);
- the translations of ``fg_gen`` programs;
- hand-written ill-typed terms, one per error branch, each also nested
  inside a well-typed context so the error's span travels up.

The stack-depth guard: verify types whole programs, so under one fixed
``python_stack_limit`` the deepest ``let`` chain and the deepest nested
application the reference types must be typed by the table too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import Limits, ResourceLimitError, resource_scope
from repro.extensions import ExtChecker
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude.context import context_for
from repro.syntax import parse_f
from repro.systemf import ast as F
from repro.systemf.typecheck import (
    TypeEnv,
    _check_bound,
    _instantiate_closed,
    check_type_wf,
    type_of,
)

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))
#: The fgbench workloads whose cases are accepted.
ACCEPTING = ("prelude-lib", "generic-stress")
CHECKERS = {False: Checker, True: ExtChecker}

sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(ROOT / "tests" / "properties"))
import workloads  # noqa: E402
from fg_gen import program_specs  # noqa: E402


# -- the reference checker ----------------------------------------------------


def ref_check(term: F.Term, env: TypeEnv) -> F.Type:
    if isinstance(term, F.Var):
        t = env.lookup(term.name)
        if t is None:
            raise TypeError_(f"unbound variable '{term.name}'", term.span)
        return t

    if isinstance(term, F.IntLit):
        return F.INT

    if isinstance(term, F.BoolLit):
        return F.BOOL

    if isinstance(term, F.Lam):
        inner = env
        for name, ptype in term.params:
            check_type_wf(ptype, env, term.span)
            inner = inner.bind(name, ptype)
        result = ref_check(term.body, inner)
        return F.TFn(tuple(pt for _, pt in term.params), result)

    if isinstance(term, F.App):
        fn_type = ref_check(term.fn, env)
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
            actual = ref_check(arg, env)
            if not F.types_equal(actual, expected):
                raise TypeError_(
                    f"argument {i + 1} has type {actual}, expected {expected}",
                    arg.span or term.span,
                )
        return fn_type.result

    if isinstance(term, F.TyLam):
        if len(set(term.vars)) != len(term.vars):
            raise TypeError_("duplicate type parameter", term.span)
        body_type = ref_check(term.body, env.bind_tyvars(term.vars))
        return F.TForall(term.vars, body_type)

    if isinstance(term, F.TyApp):
        fn_type = ref_check(term.fn, env)
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

    if isinstance(term, F.Let):
        bound_type = ref_check(term.bound, env)
        return ref_check(term.body, env.bind(term.name, bound_type))

    if isinstance(term, F.Tuple_):
        return F.TTuple(tuple(ref_check(item, env) for item in term.items))

    if isinstance(term, F.Nth):
        tuple_type = ref_check(term.tuple_, env)
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

    if isinstance(term, F.If):
        cond_type = ref_check(term.cond, env)
        if not F.types_equal(cond_type, F.BOOL):
            raise TypeError_(
                f"if condition has type {cond_type}, expected bool", term.span
            )
        then_type = ref_check(term.then, env)
        else_type = ref_check(term.else_, env)
        if not F.types_equal(then_type, else_type):
            raise TypeError_(
                f"if branches disagree: {then_type} vs {else_type}", term.span
            )
        return then_type

    if isinstance(term, F.Fix):
        fn_type = ref_check(term.fn, env)
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

    raise AssertionError(f"unknown term node: {term!r}")


# -- comparing ----------------------------------------------------------------


def _span(span):
    return None if span is None else (span.filename, span.lo, span.hi)


def outcome(check, term, env):
    try:
        t = check(term, env)
    except TypeError_ as err:
        return ("error", type(err).__name__, err.message, _span(err.span))
    return ("type", t, str(t))


def assert_same(term, env=None, label=None):
    env = env if env is not None else TypeEnv.initial()
    new = outcome(type_of, term, env)
    assert new == outcome(ref_check, term, env), label
    return new


def _translations(text, name):
    """Every translation of ``text``, with the library context it was
    checked at: core and ext, with and without the prelude."""
    for prelude in (False, True):
        for ext in (False, True):
            out = check_source(text, name, prelude=prelude, ext=ext)
            if out.ok:
                yield (f"{name}-prelude{int(prelude)}-ext{int(ext)}",
                       out.translation, context_for(CHECKERS[ext], prelude))


def assert_corpus_same(programs):
    typed = 0
    for name, text in programs:
        for label, term, context in _translations(text, name):
            assert assert_same(term, label=label)[0] == "type", label
            program = context.program_part(term)
            assert_same(program, context.sf_env, label=label)
            typed += 1
    return typed


class TestCorpus:
    def test_examples(self):
        typed = assert_corpus_same(
            (path.name, path.read_text()) for path in EXAMPLES
        )
        assert typed >= len(EXAMPLES)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ACCEPTING)
    def test_fgbench_cases(self, workload, seed):
        typed = assert_corpus_same(
            (case.name, case.text) for case in workloads.make(workload, seed)
        )
        assert typed >= 2 * 36

    @given(program_specs())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, spec):
        assert assert_corpus_same([("<generated>", spec.source)]) == 4


#: One ill-typed term per error branch of the checker, in branch order,
#: with the start of the message it raises.
ERROR_SOURCES = [
    ("x", "unbound variable"),
    (r"\x : u. x", "unbound type variable"),
    ("1(2)", "cannot apply non-function"),
    (r"(\x : int. x)(1, 2)", "arity mismatch"),
    ("iadd(1, true)", "argument 2 has type"),
    (r"/\t, t. 1", "duplicate type parameter"),
    ("1[int]", "cannot type-apply"),
    ("nil[int, bool]", "type-arity mismatch"),
    ("nil[u]", "unbound type variable"),
    ("(nth 1 0)", "nth applied to non-tuple"),
    ("(nth (1, 2) 2)", "tuple index 2 out of range"),
    ("if 1 then 2 else 3", "if condition has type"),
    ("if true then 1 else false", "if branches disagree"),
    (r"fix (\x : int. true)", "fix expects"),
    (r"fix (\x : int. x)", "fix is restricted"),
]


def _nested(src):
    """``src`` deep inside a well-typed context: a let, a type
    abstraction, a lambda, a tuple, a branch and an application's
    argument."""
    return (
        r"let k = 1 in /\s. \y : s. (y, if true then "
        rf"(\z : int. z)(nth (0, ({src})) 1) else 0)"
    )


class TestErrors:
    @pytest.mark.parametrize("src,message", ERROR_SOURCES)
    def test_every_error_branch(self, src, message):
        kind, _, text, _ = assert_same(parse_f(src), label=src)
        assert kind == "error" and text.startswith(message)

    @pytest.mark.parametrize("src,message", ERROR_SOURCES)
    def test_an_error_deep_inside_a_term(self, src, message):
        kind, _, text, span = assert_same(parse_f(_nested(src)), label=src)
        assert kind == "error" and text.startswith(message)
        assert span is not None


# -- the stack-depth guard ----------------------------------------------------


def _let_chain(n):
    term = F.Var(name=f"x{n}")
    for i in range(n, 0, -1):
        term = F.Let(name=f"x{i}", bound=F.Var(name=f"x{i - 1}"), body=term)
    return F.Let(name="x0", bound=F.IntLit(value=n), body=term)


def _nested_apps(n):
    term = F.IntLit(value=0)
    for _ in range(n):
        term = F.App(fn=F.Var(name="iadd"), args=(F.IntLit(value=1), term))
    return term


def _completes(check, term, limits):
    try:
        with resource_scope(limits):
            check(term, TypeEnv.initial())
    except ResourceLimitError:
        return False
    return True


def _deepest(check, build, limits, hi=1):
    """The largest n whose term ``build(n)`` ``check`` types."""
    while _completes(check, build(hi), limits):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _completes(check, build(mid), limits):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("build", [_let_chain, _nested_apps],
                         ids=["let-chain", "nested-apps"])
def test_what_the_reference_types_the_table_types(build):
    # A fixed margin above wherever the test runner's frames leave us.
    limits = Limits(python_stack_limit=sys.getrecursionlimit() + 2_000)
    depth = _deepest(ref_check, build, limits)
    assert depth > 100
    term, env = build(depth), TypeEnv.initial()
    assert _completes(type_of, term, limits)
    with resource_scope(limits):
        assert outcome(type_of, term, env) == outcome(ref_check, term, env)
