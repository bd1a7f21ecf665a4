"""The dispatch-table evaluator against the isinstance-chain evaluator.

``repro.systemf.eval`` dispatches on a node's class through one table,
binds a closure's parameters straight into the body's frame, and inlines
closure application into the application handler.  The evaluator it
replaced walked an ``isinstance`` chain per node and applied functions
through ``apply_value`` / ``_apply_once`` / ``bind_many``; that evaluator
lives on here, unchanged apart from taking its budget explicitly, as the
reference.

Both must agree on the value, on ``steps_taken`` (one fuel step per node)
and on every ``EvalError`` / ``ResourceLimitError`` (class, message, span,
and the budget that tripped), over:

- the translations of ``examples/fg`` and of every fgbench case at seeds
  1-3, under the core and the extended checker, with and without the
  prelude;
- the System F programs of ``tests/systemf/test_eval.py``;
- hand-written terms reaching every runtime error, including one whose two
  arguments both fail (evaluation order);
- every fuel budget from 0 to a program's step count.

The stack-depth guard: under one fixed ``python_stack_limit``, the deepest
``fix`` countdown and the deepest ``let`` chain the reference completes
must complete under the new evaluator too.  Frame counts differ between
Python versions (3.12 inlines comprehensions), so this runs on every CI
version, the declared floor included.
"""

import sys
from pathlib import Path
from typing import List
from unittest import mock

import pytest

from repro.diagnostics.errors import Diagnostic, EvalError
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude.context import empty_context
from repro.syntax import parse_f
from repro.systemf import ast as F
from repro.systemf import evaluate
from repro.systemf.builtins import PrimValue
from repro.systemf.eval import Closure, Env, FixThunk, TyClosure

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import test_eval  # noqa: E402
import workloads  # noqa: E402


# -- the reference evaluator --------------------------------------------------


def ref_apply_value(fn_value, args: List, span, budget: Budget):
    """Apply a function value to already-evaluated arguments."""
    while isinstance(fn_value, FixThunk):
        fn_value = _ref_apply_once(fn_value.fn_value, [fn_value], span, budget)
    return _ref_apply_once(fn_value, args, span, budget)


def _ref_apply_once(fn_value, args: List, span, budget: Budget):
    if isinstance(fn_value, Closure):
        if len(fn_value.params) != len(args):
            raise EvalError(
                f"runtime arity mismatch: expected {len(fn_value.params)} "
                f"argument(s), got {len(args)}",
                span,
            )
        pairs = [
            (name, value)
            for (name, _), value in zip(fn_value.params, args)
        ]
        return ref_eval(fn_value.body, Env(dict(pairs), fn_value.env), budget)
    if isinstance(fn_value, PrimValue):
        if fn_value.arity != len(args):
            raise EvalError(
                f"primitive '{fn_value.name}' expects {fn_value.arity} "
                f"argument(s), got {len(args)}",
                span,
            )
        return fn_value.fn(*args)
    raise EvalError(f"cannot apply non-function value {fn_value!r}", span)


def ref_eval(term: F.Term, env: Env, budget: Budget):
    budget.spend_fuel(term.span)

    if isinstance(term, F.Var):
        return env.lookup(term.name)

    if isinstance(term, F.IntLit):
        return term.value

    if isinstance(term, F.BoolLit):
        return term.value

    if isinstance(term, F.Lam):
        return Closure(term.params, term.body, env)

    if isinstance(term, F.App):
        fn_value = ref_eval(term.fn, env, budget)
        args = [ref_eval(arg, env, budget) for arg in term.args]
        return ref_apply_value(fn_value, args, term.span, budget)

    if isinstance(term, F.TyLam):
        return TyClosure(term.vars, term.body, env)

    if isinstance(term, F.TyApp):
        fn_value = ref_eval(term.fn, env, budget)
        if isinstance(fn_value, TyClosure):
            return ref_eval(fn_value.body, fn_value.env, budget)
        if isinstance(fn_value, PrimValue) and fn_value.arity == 0:
            # A fully type-applied polymorphic constant such as nil[int].
            return fn_value.fn()
        if isinstance(fn_value, PrimValue):
            # Polymorphic primitives like cons[t] erase to themselves.
            return fn_value
        raise EvalError(
            f"cannot type-apply non-polymorphic value {fn_value!r}", term.span
        )

    if isinstance(term, F.Let):
        bound = ref_eval(term.bound, env, budget)
        return ref_eval(term.body, env.bind(term.name, bound), budget)

    if isinstance(term, F.Tuple_):
        return tuple(ref_eval(item, env, budget) for item in term.items)

    if isinstance(term, F.Nth):
        tuple_value = ref_eval(term.tuple_, env, budget)
        if not isinstance(tuple_value, tuple):
            raise EvalError(
                f"nth applied to non-tuple {tuple_value!r}", term.span
            )
        if not 0 <= term.index < len(tuple_value):
            raise EvalError(
                f"tuple index {term.index} out of range", term.span
            )
        return tuple_value[term.index]

    if isinstance(term, F.If):
        cond = ref_eval(term.cond, env, budget)
        if not isinstance(cond, bool):
            raise EvalError(f"if condition is not a boolean: {cond!r}", term.span)
        return ref_eval(term.then if cond else term.else_, env, budget)

    if isinstance(term, F.Fix):
        return FixThunk(ref_eval(term.fn, env, budget))

    raise AssertionError(f"unknown term node: {term!r}")


def ref_evaluate(term: F.Term, *, budget: Budget):
    """The reference's ``evaluate``: the whole term, from the builtins."""
    with resource_scope(budget.limits, term.span):
        return ref_eval(term, Env.initial(), budget)


# -- comparing runs -----------------------------------------------------------


def _span(span):
    return None if span is None else (span.filename, span.lo, span.hi)


def outcome(run, term, limits=None, steps=True):
    """What one evaluation of ``term`` shows: its value (by ``repr``, so
    closures compare by shape) or its error, and the steps it took."""
    budget = Budget(limits)
    try:
        result = ("value", repr(run(term, budget=budget)))
    except Diagnostic as err:
        result = ("error", type(err).__name__, err.message, _span(err.span),
                  getattr(err, "limit", None))
    if steps:
        result += (budget.steps_taken,)
    return result


def assert_same(term, limits=None, label=None):
    new = outcome(evaluate, term, limits)
    assert new == outcome(ref_evaluate, term, limits), label
    return new


# -- the corpus ---------------------------------------------------------------


def _translation(text, name, prelude, ext):
    outcome_ = check_source(text, name, prelude=prelude, ext=ext)
    return outcome_.translation if outcome_.ok else None


def _example_terms():
    for path in EXAMPLES:
        for prelude in (False, True):
            for ext in (False, True):
                term = _translation(path.read_text(), path.name, prelude, ext)
                if term is not None:
                    yield (f"{path.stem}-prelude{int(prelude)}-ext{int(ext)}",
                           term)


def _fgbench_terms(workload, seed):
    for index, case in enumerate(workloads.make(workload, seed)):
        for ext in (False, True):
            term = _translation(case.text, case.name, case.prelude, ext)
            if term is not None:
                yield f"{index}-ext{int(ext)}", term


def _test_eval_sources():
    """The System F sources ``tests/systemf/test_eval.py`` runs, collected
    by running its tests with ``run`` recording its argument."""
    sources = []
    real_run = test_eval.run

    def recording_run(src):
        sources.append(src)
        return real_run(src)

    with mock.patch.object(test_eval, "run", recording_run):
        for name in dir(test_eval):
            cls = getattr(test_eval, name)
            if not (isinstance(cls, type) and name.startswith("Test")):
                continue
            for method in dir(cls):
                if method.startswith("test_"):
                    getattr(cls(), method)()
    return sources


#: Terms that reach every runtime error (they need not be well typed).
ERROR_SOURCES = [
    "x",
    r"(\x : int. x)(1, 2)",
    "iadd(1)",
    "1(2)",
    "1[int]",
    "(nth 1 0)",
    "(nth (1, 2) 2)",
    "if 1 then 2 else 3",
    "car[int](nil[int])",
    r"(fix (fix (\f : fn(int) -> int. f)))(1)",
    r"(\x : int. \y : int. x)(1)(2, 3)",
    # Both arguments fail: the left one must be the one reported.
    "iadd(car[int](nil[int]), idiv(1, 0))",
    r"(\a : int, b : int. a)(x, y)",
    "(car[int](nil[int]), cdr[int](nil[int]))",
]

#: Small accepting programs for the fuel sweep; between them they use
#: every node kind.
FUEL_SOURCES = [
    r"let fact = fix (\f : fn(int) -> int. \n : int. if ile(n, 1) then 1 "
    r"else imult(n, f(isub(n, 1)))) in fact(4)",
    r"(/\t. \x : t. (x, nth (x, true) 1))[int](7)",
    "let sg = (iadd,) in let m = (sg, 0) in (nth (nth m 0) 0)(40, 2)",
    "cons[int](1, nil[int])",
]


class TestCorpus:
    def test_examples(self):
        terms = dict(_example_terms())
        assert len(terms) >= len(EXAMPLES)
        for name, term in terms.items():
            assert_same(term, label=name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_fgbench_cases(self, workload, seed):
        terms = dict(_fgbench_terms(workload, seed))
        for name, term in terms.items():
            assert_same(term, label=name)

    def test_eval_programs(self):
        sources = _test_eval_sources()
        assert len(sources) >= 30
        for src in sources:
            assert_same(parse_f(src), label=src)

    @pytest.mark.parametrize("src", ERROR_SOURCES)
    def test_runtime_errors(self, src):
        kind, *_ = assert_same(parse_f(src))
        assert kind == "error"

    def test_the_left_argument_fails_first(self):
        src = "iadd(car[int](nil[int]), idiv(1, 0))"
        _, _, message, *_ = assert_same(parse_f(src))
        assert message == "car of empty list"


class TestFuel:
    @pytest.mark.parametrize("src", FUEL_SOURCES + ERROR_SOURCES)
    def test_every_budget_trips_at_the_same_step(self, src):
        term = parse_f(src)
        total = outcome(ref_evaluate, term)[-1]
        for fuel in range(total + 2):
            assert_same(term, Limits(max_eval_steps=fuel), label=fuel)

    def test_a_prelude_program_under_every_budget(self):
        term = _translation("count[list int](range(0, 3))", "fuel.fg",
                            prelude=True, ext=False)
        total = outcome(ref_evaluate, term)[-1]
        for fuel in range(total + 2):
            assert_same(term, Limits(max_eval_steps=fuel), label=fuel)


# -- the stack-depth guard ----------------------------------------------------


def _countdown(n):
    return parse_f(
        r"let down = fix (\f : fn(int) -> int. \n : int. "
        r"if ieq(n, 0) then 0 else iadd(1, f(isub(n, 1)))) in "
        f"down({n})"
    )


def _let_chain(n):
    term = F.Var(name=f"x{n}")
    for i in range(n, 0, -1):
        term = F.Let(name=f"x{i}", bound=F.Var(name=f"x{i - 1}"), body=term)
    return F.Let(name="x0", bound=F.IntLit(value=n), body=term)


def _completes(run, term, limits):
    try:
        run(term, budget=Budget(limits))
    except Diagnostic as err:
        assert getattr(err, "limit", None) == "stack", err
        return False
    return True


def _deepest(run, build, limits, hi=1):
    """The largest n whose term ``build(n)`` ``run`` completes."""
    while _completes(run, build(hi), limits):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _completes(run, build(mid), limits):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.fixture
def stack_limits():
    # A fixed margin above wherever the test runner's frames leave us;
    # ``scoped_recursion_limit`` never lowers the interpreter's limit.
    return Limits(python_stack_limit=sys.getrecursionlimit() + 2_000)


#: The new evaluator's two entry points: the public whole-term one, and a
#: library context's (here the empty library, which evaluates the whole
#: term too).  Bound methods add no Python frame of their own.
ENTRY_POINTS = {
    "evaluate": evaluate,
    "context": empty_context(Checker).evaluate,
}


class TestStackDepth:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("build", [_countdown, _let_chain],
                             ids=["fix-countdown", "let-chain"])
    def test_what_the_reference_completes_completes(self, build, entry,
                                                    stack_limits):
        run = ENTRY_POINTS[entry]
        depth = _deepest(ref_evaluate, build, stack_limits)
        assert depth > 100
        assert _completes(run, build(depth), stack_limits)
        assert outcome(run, build(depth), stack_limits) == outcome(
            ref_evaluate, build(depth), stack_limits
        )

    def test_a_stack_trip_reports_the_same_diagnostic(self, stack_limits):
        term = _countdown(10 ** 6)
        # Not the step count: the new evaluator gets deeper before it trips.
        new = outcome(evaluate, term, stack_limits, steps=False)
        assert new == outcome(ref_evaluate, term, stack_limits, steps=False)
        assert new[-1] == "stack"
