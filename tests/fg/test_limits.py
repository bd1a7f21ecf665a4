"""Resource guards: depth/fuel budgets and the scoped recursion limit."""

import sys

import pytest

from repro.diagnostics.limits import (
    Budget,
    Limits,
    ResourceLimitError,
    resource_scope,
    scoped_recursion_limit,
)
from repro.fg import evaluate as fg_evaluate
from repro.fg import typecheck, typecheck_all
from repro.fg.congruence import CongruenceSolver
from repro.fg.interp import interpret
from repro.pipeline import check_source
from repro.syntax import parse_fg
from repro.systemf.eval import evaluate as sf_evaluate

DIVERGING = (
    "let loop = fix (\\f : fn(int) -> int. \\n : int. f(n)) in loop(0)"
)


class TestDepthBudget:
    def test_deep_type_application_is_a_limit_error(self):
        # The acceptance case: a 10k-deep type application must surface as
        # a catchable diagnostic, never a Python RecursionError/crash.
        deep = "(\\x : int. x)" + "[int]" * 10_000
        term = parse_fg(deep)
        with pytest.raises(ResourceLimitError) as excinfo:
            typecheck(term)
        assert excinfo.value.limit in ("depth", "stack")
        assert isinstance(excinfo.value, Exception)

    def test_deep_nesting_in_collecting_mode(self):
        deep = "(\\x : int. x)" + "[int]" * 10_000
        _, _, report = typecheck_all(parse_fg(deep))
        assert not report.ok
        assert any(d.kind == "resource limit" for d in report)

    def test_depth_budget_is_configurable(self):
        src = "iadd(" * 300 + "1" + ", 1)" * 300
        with pytest.raises(ResourceLimitError):
            typecheck(parse_fg(src), limits=Limits(max_check_depth=100))
        # The same program checks fine under the default budget.
        t, _ = typecheck(parse_fg(src))
        assert str(t) == "int"

    def test_budget_counter_stays_consistent_after_trip(self):
        budget = Budget(Limits(max_check_depth=2))
        budget.enter_depth()
        budget.enter_depth()
        with pytest.raises(ResourceLimitError):
            budget.enter_depth()
        # The failed enter did not leak a level: two leaves rebalance.
        budget.leave_depth()
        budget.leave_depth()
        budget.enter_depth()  # does not raise


class TestFuelBudget:
    def test_fg_evaluation_fuel(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            fg_evaluate(parse_fg(DIVERGING), limits=Limits(max_eval_steps=500))
        assert excinfo.value.limit == "fuel"

    def test_interpreter_fuel(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            interpret(parse_fg(DIVERGING), limits=Limits(max_eval_steps=500))
        assert excinfo.value.limit == "fuel"

    def test_systemf_fuel(self):
        _, sf = typecheck(parse_fg(DIVERGING))
        with pytest.raises(ResourceLimitError) as excinfo:
            sf_evaluate(sf, limits=Limits(max_eval_steps=500))
        assert excinfo.value.limit == "fuel"

    def test_fuel_default_is_unlimited(self):
        value = fg_evaluate(parse_fg("iadd(20, 22)"))
        assert getattr(value, "value", value) == 42

    def test_enough_fuel_still_finishes(self):
        value = fg_evaluate(
            parse_fg("iadd(20, 22)"), limits=Limits(max_eval_steps=10_000)
        )
        assert getattr(value, "value", value) == 42


class TestCongruenceBudget:
    def test_node_cap_trips_as_limit_error(self):
        solver = CongruenceSolver(max_nodes=8)
        import repro.fg.ast as G

        ty = G.INT
        for _ in range(20):
            ty = G.TFn((ty,), ty)
        with pytest.raises(ResourceLimitError) as excinfo:
            solver.intern(ty)
        assert excinfo.value.limit == "congruence"

    # Three iterators whose element types are constrained equal: building
    # the where clause's solver needs 16 nodes.
    SAME_TYPES = "\n".join([
        "concept It<I> { types elt; get : fn(I) -> elt; } in",
        "let f = /\\I0, I1, I2 where It<I0>, It<I1>, It<I2>;"
        " It<I0>.elt == It<I1>.elt, It<I0>.elt == It<I2>.elt.",
        "  \\x0 : I0, x1 : I1, x2 : I2."
        " cons[It<I0>.elt](It<I2>.get(x2), nil[It<I0>.elt]) in",
        "model It<int> { types elt = int; get = \\a : int. a; } in",
        "f[int, int, int](1, 2, 3)",
    ])

    def test_equalities_over_budget_end_in_a_limit_diagnostic(self):
        # Comparing equal types skips the solver, so the budget is spent by
        # the equalities in scope; those alone must still trip it.
        out = check_source(
            self.SAME_TYPES, "<t>", limits=Limits(max_congruence_nodes=12)
        )
        assert [
            (d.kind, d.limit) for d in out.report.diagnostics
        ] == [("resource limit", "congruence")]
        out = check_source(
            self.SAME_TYPES, "<t>", evaluate=True,
            limits=Limits(max_congruence_nodes=16),
        )
        assert out.ok and out.value == [3]


class TestRecursionLimitInvariant:
    def test_public_api_leaves_recursion_limit_alone(self):
        before = sys.getrecursionlimit()
        parse_fg("iadd(1, 2)")
        typecheck(parse_fg("iadd(1, 2)"))
        typecheck_all(parse_fg("let a = missing in 0"))
        fg_evaluate(parse_fg("iadd(1, 2)"))
        interpret(parse_fg("iadd(1, 2)"))
        check_source("iadd(1, 2)", "<t>", evaluate=True, verify=True)
        assert sys.getrecursionlimit() == before

    def test_restored_even_when_the_body_raises(self):
        before = sys.getrecursionlimit()
        with pytest.raises(ResourceLimitError):
            typecheck(
                parse_fg("iadd(" * 300 + "1" + ", 1)" * 300),
                limits=Limits(max_check_depth=50),
            )
        assert sys.getrecursionlimit() == before

    def test_scoped_limit_raises_and_restores(self):
        before = sys.getrecursionlimit()
        with scoped_recursion_limit(before + 1_000):
            assert sys.getrecursionlimit() == before + 1_000
        assert sys.getrecursionlimit() == before

    def test_scoped_limit_never_lowers(self):
        before = sys.getrecursionlimit()
        with scoped_recursion_limit(max(1, before - 500)):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_resource_scope_converts_recursion_error(self):
        def overflow():
            return overflow()

        with pytest.raises(ResourceLimitError) as excinfo:
            with resource_scope(Limits(python_stack_limit=1_000)):
                overflow()
        assert excinfo.value.limit == "stack"

    def test_no_module_import_side_effect(self):
        # Importing the evaluators must not permanently raise the limit
        # (the old implementations did sys.setrecursionlimit(50_000) at
        # import time).
        import repro.fg.interp  # noqa: F401
        import repro.systemf.eval  # noqa: F401

        assert sys.getrecursionlimit() < 50_000
