"""The pre-checked prelude is transparent.

Checking a program against :class:`repro.prelude.PreludeContext` must give
exactly what checking the whole text ``wrap(program)`` gives: the same
translation and value, the same diagnostics at the same user positions,
the same peak checker depth, and the same depth-limit trips.  The
text-wrap reference lives only in this file.

Verifying a program against the context types only the program's part of
the translation, inside the prefix the context typed once; it must give
what typing the whole spliced translation gives.  That whole-term
reference lives only in this file too.
"""

import importlib
import io
import json
import re
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import Diagnostic, TypeError_
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.diagnostics.reporter import DiagnosticReporter
from repro.extensions import ExtChecker
from repro.extensions import typecheck_all as ext_typecheck_all
from repro.fg.env import Env
from repro.fg.typecheck import Checker, verify_emitted
from repro.fg.typecheck import typecheck_all as core_typecheck_all
from repro.observability import Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro.prelude import PRELUDE, context_for, wrap
from repro.prelude import context as prelude_context
from repro.syntax import parse_fg, parse_fg_resilient
from repro.systemf import ast as F
from repro.systemf import evaluate, pretty_term, pretty_type
from repro.systemf import type_of as sf_type_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from fg_gen import program_specs  # noqa: E402

#: The module, not the ``repro.fg.typecheck`` function of the same name.
fg_typecheck = importlib.import_module("repro.fg.typecheck")

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

#: What ``wrap`` puts before the program, and the lines it shifts.
_PREFIX = PRELUDE + "\n"
_SHIFT = _PREFIX.count("\n")


def _diag_rows(report, shift_from=None):
    """(kind, message, file:line:col) per diagnostic; ``shift_from`` maps
    wrapped-text positions back onto the user's file ``shift_from``."""
    rows = []
    for diag in report.diagnostics:
        span = diag.span
        where = None
        if span is not None and span.filename != "<synthetic>":
            filename, line = span.filename, span.start.line
            if shift_from is not None:
                if span.start.offset < len(_PREFIX):
                    filename = "<prelude>"
                else:
                    line -= _SHIFT
            where = f"{filename}:{line}:{span.start.column}"
        rows.append((diag.kind, diag.message, where))
    return rows


def reference(text, filename="<input>", limits=None, ext=False):
    """The text-wrap path: parse and check ``wrap(text)`` as one term."""
    typecheck_all = ext_typecheck_all if ext else core_typecheck_all
    reporter = DiagnosticReporter()
    with resource_scope(limits):
        term, _ = parse_fg_resilient(wrap(text), filename, reporter=reporter)
    result = {"translation": None, "value": None, "peak_depth": None}
    if term is not None and reporter.finish().ok:
        metrics = MetricsRegistry()
        _, translation, report = typecheck_all(
            term, limits=limits, reporter=reporter,
            instrumentation=Instrumentation(metrics=metrics),
        )
        result["peak_depth"] = metrics.snapshot()["counters"][
            "check.peak_depth"
        ]
        if report.ok:
            result["translation"] = pretty_term(translation)
            result["value"] = evaluate(translation)
    result["diagnostics"] = _diag_rows(reporter.finish(), shift_from=filename)
    return result


def pre_checked(text, filename="<input>", limits=None, ext=False):
    """The pipeline path under ``prelude=True``."""
    outcome = check_source(
        text, filename, prelude=True, ext=ext, limits=limits, evaluate=True,
        instrumentation=Instrumentation(metrics=MetricsRegistry()),
    )
    counters = outcome.stats["counters"]
    return {
        "translation": (
            pretty_term(outcome.translation) if outcome.ok else None
        ),
        "value": outcome.value,
        "peak_depth": counters.get("check.peak_depth"),
        "diagnostics": _diag_rows(outcome.report),
    }


def _typecheck(context, text):
    """Fail-fast parse and check of ``text`` at ``context``: its type and
    spliced translation."""
    return context.check(context.checker_cls(), parse_fg(text))


def _parse_edit(text):
    """Drop the first ``in``: a parse error of known position."""
    return re.sub(r"\bin\b", "", text, count=1)


def _type_edit(text):
    """Turn the first integer literal into ``true``."""
    edited = re.sub(r"(?<![\w%])\d+\b", "true", text, count=1)
    assert edited != text
    return edited


class TestDifferential:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "edit", [None, _parse_edit, _type_edit],
        ids=["as-is", "parse-edit", "type-edit"],
    )
    def test_examples(self, path, edit):
        text = path.read_text()
        if edit is not None:
            text = edit(text)
        assert pre_checked(text, path.name) == reference(text, path.name)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_under_the_extended_checker(self, path):
        text = path.read_text()
        assert pre_checked(text, path.name, ext=True) == reference(
            text, path.name, ext=True
        )

    @given(program_specs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, spec):
        assert pre_checked(spec.source) == reference(spec.source)

    def test_translation_and_value_are_the_wrapped_ones(self):
        # Pin one accepting case outright, beside the parametrized sweep.
        text = "accumulate[int](range(1, 11))"
        new, ref = pre_checked(text), reference(text)
        assert new == ref
        assert new["value"] == 55 and new["diagnostics"] == []

    @pytest.mark.parametrize("cap", [20, 45])
    def test_depth_limit_trips_at_the_same_nesting(self, cap):
        limits = Limits(max_check_depth=cap)
        for nesting in range(24):
            text = "iadd(1, " * nesting + "0" + ")" * nesting
            new = pre_checked(text, "deep.fg", limits)
            assert new == reference(text, "deep.fg", limits)
            if new["diagnostics"]:
                break
        (kind, message, where), = new["diagnostics"]
        assert kind == "resource limit" and f"({cap})" in message
        # Under the prelude's own peak depth the prelude trips, at its own
        # span; above it, the program trips at the nesting that exceeds it.
        in_prelude = cap < context_for().peak_depth
        assert where.startswith("<prelude>:") == in_prelude
        assert (nesting == 0) == in_prelude


def whole_term_verify(fg_type, sf_term, *, checker, context=None):
    """The reference verify: type the whole spliced translation, prelude
    prefix included, and compare with the translated F_G type."""
    with resource_scope(checker.limits, sf_term.span):
        sf_type = sf_type_of(sf_term)
        expected = checker.translate_type(fg_type, Env.initial())
    if not F.types_equal(sf_type, expected):
        raise TypeError_(
            "translation type mismatch (Theorem 1/2 violation — library "
            f"bug): System F says {sf_type}, expected {expected}"
        )
    return sf_type


def verified(verify, text, filename="<input>", limits=None, ext=False):
    """``check_source(..., prelude=True, verify=True)`` with ``verify`` as
    its verify stage: the verdict, the System F type the stage printed and
    the diagnostics."""
    seen = {}

    def spy(fg_type, sf_term, **kwargs):
        sf_type = verify(fg_type, sf_term, **kwargs)
        seen["sf_type"] = pretty_type(sf_type)
        return sf_type

    with mock.patch.object(fg_typecheck, "verify_emitted", spy):
        outcome = check_source(
            text, filename, prelude=True, ext=ext, limits=limits,
            verify=True,
        )
    return dict(
        seen, verified=outcome.verified,
        diagnostics=_diag_rows(outcome.report),
    )


def _same_verdicts(text, filename="<input>", limits=None, ext=False):
    new = verified(verify_emitted, text, filename, limits, ext)
    assert new == verified(whole_term_verify, text, filename, limits, ext)
    return new


#: One accepted program per prelude binding, so every entry of the
#: context's ``sf_env`` is looked up by some verified translation.
PRELUDE_PROGRAMS = [
    "square[int](7)",
    "accumulate[int](range(1, 11))",
    "accumulate_iter[list int](range(1, 5))",
    "count[list int](range(0, 3))",
    "reverse_int(copy[list int, list int](range(0, 4), nil[int]), nil[int])",
    "contains[list int](range(0, 5), 3)",
    "min_element[list int](cons[int](3, cons[int](1, nil[int])))",
    "merge[list int, list int, list int](range(0, 3), range(1, 4), "
    "nil[int])",
    "length_int(range(0, 4))",
    "Group<int>.inverse(Semigroup<int>.binary_op(1, 2))",
    "EqualityComparable<bool>.equal(true, false)",
]


class TestVerifyDifferential:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "edit", [None, _parse_edit, _type_edit],
        ids=["as-is", "parse-edit", "type-edit"],
    )
    def test_examples(self, path, edit):
        text = path.read_text()
        if edit is not None:
            text = edit(text)
        _same_verdicts(text, path.name)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_under_the_extended_checker(self, path):
        _same_verdicts(path.read_text(), path.name, ext=True)

    @given(program_specs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, spec):
        _same_verdicts(spec.source)

    @pytest.mark.parametrize(
        "text", PRELUDE_PROGRAMS, ids=lambda t: re.match(r"\w+", t)[0]
    )
    @pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
    def test_programs_over_every_prelude_binding(self, text, ext):
        new = _same_verdicts(text, ext=ext)
        assert new["verified"] and new["sf_type"]
        assert new["diagnostics"] == []

    @pytest.mark.parametrize("cap", [20, 45])
    def test_depth_limit_trips_at_the_same_nesting(self, cap):
        limits = Limits(max_check_depth=cap)
        for nesting in range(24):
            text = "iadd(1, " * nesting + "0" + ")" * nesting
            new = _same_verdicts(text, "deep.fg", limits)
            if new["diagnostics"]:
                break
        assert not new["verified"]
        (kind, _, _), = new["diagnostics"]
        assert kind == "resource limit"


def _rebuilt(node, **changes):
    """A new System F term equal to ``node`` but for ``changes``."""
    return type(node)(node.span, *(changes.get(name, getattr(node, name))
                                   for name in node._fields))


def _spliced(lets, body):
    for let in reversed(lets):
        body = F.Let(span=let.span, name=let.name, bound=let.bound,
                     body=body)
    return body


class TestVerifyTrustsOnlyTheContextsPrefix:
    """A translation whose prefix is not the context's own objects is a
    Theorem 1/2 violation, and nothing of it is typed in ``sf_env``."""

    def _translation(self):
        context = context_for()
        fg_type, sf_term = _typecheck(context, "accumulate[int](range(1, 11))")
        user = sf_term
        for _ in context.prefix:
            user = user.body
        return context, fg_type, user

    def _rejects(self, context, fg_type, sf_term):
        with mock.patch.object(
            fg_typecheck.sf_typecheck, "type_of",
            side_effect=AssertionError("typed against the context"),
        ) as typed, pytest.raises(TypeError_, match="Theorem 1/2"):
            verify_emitted(fg_type, sf_term, context=context)
        assert not typed.called

    def test_the_context_splice_itself_verifies(self):
        context, fg_type, user = self._translation()
        sf_term = _spliced(context.prefix, user)
        assert verify_emitted(fg_type, sf_term, context=context) == F.INT

    def test_a_rebuilt_first_binding_is_rejected(self):
        context, fg_type, user = self._translation()
        first, *rest = context.prefix
        rebuilt = _rebuilt(first, bound=_rebuilt(first.bound))
        assert rebuilt.bound == first.bound
        assert rebuilt.bound is not first.bound
        self._rejects(context, fg_type, _spliced((rebuilt, *rest), user))

    @pytest.mark.parametrize("dropped", [0, -1], ids=["first", "last"])
    def test_a_dropped_binding_is_rejected(self, dropped):
        context, fg_type, user = self._translation()
        lets = list(context.prefix)
        del lets[dropped]
        self._rejects(context, fg_type, _spliced(lets, user))


class TestPinnedPositions:
    def test_concept_escape_is_reported_in_the_prelude(self):
        outcome = check_source(r"/\t where Monoid<t>. \x : t. x",
                               prelude=True)
        assert outcome.report.render() == (
            "<prelude>:6:1: type error: concept 'Monoid' escapes its scope "
            "in the result type forall t where Monoid<t>. fn(t) -> t"
        )

    def test_iterator_escape_is_reported_at_line_26(self):
        outcome = check_source(r"/\I where Iterator<I>. \x : I. x",
                               prelude=True)
        (diag,) = outcome.report.to_json()
        assert (diag["file"], diag["line"], diag["col"]) == (
            "<prelude>", 26, 1
        )
        assert "concept 'Iterator' escapes its scope" in diag["message"]

    def test_monoid_example_fails_on_its_own_lines(self):
        path = ROOT / "examples" / "fg" / "monoid.fg"
        outcome = check_source(path.read_text(), "monoid.fg", prelude=True)
        rows = [(d["file"], d["line"], d["col"])
                for d in outcome.report.to_json()]
        assert rows == [("monoid.fg", 1, 1), ("monoid.fg", 2, 1)]


def _evaluation(run, sf_term, limits):
    """Value or diagnostic of one evaluation, the steps it charged and the
    deadline polls it made."""
    budget = Budget(limits)
    try:
        result = ("value", run(sf_term, budget))
    except Diagnostic as err:
        span = err.span
        result = ("error", type(err).__name__, err.message,
                  None if span is None else (span.filename, span.lo, span.hi),
                  getattr(err, "limit", None))
    return result, budget.steps_taken, budget._deadline_poll


def _whole_term(sf_term, budget):
    return evaluate(sf_term, budget=budget)


#: Programs per library for the runtime-prefix sweep; ``None`` is the
#: empty library.
EVAL_PROGRAMS = {
    True: ["accumulate[int](range(1, 4))", "square[int](7)",
           "count[list int](range(0, 3))", "car[int](nil[int])"],
    False: ["iadd(1, 2)",
            "let f = fix (\\f : fn(int) -> int. \\n : int. "
            "if ieq(n, 0) then 0 else f(isub(n, 1))) in f(3)",
            "idiv(1, 0)"],
}


class TestRuntimePrefix:
    """``context.evaluate`` runs only the program's part, inside the
    runtime environment the context recorded; it must show what
    evaluating the whole spliced translation shows."""

    @pytest.mark.parametrize("prelude", [True, False],
                             ids=["prelude", "empty"])
    @pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                             ids=["core", "ext"])
    def test_every_fuel_budget_matches_the_whole_term(self, checker_cls,
                                                      prelude):
        context = context_for(checker_cls, prelude)
        trips = set()
        for text in EVAL_PROGRAMS[prelude]:
            _, sf_term = _typecheck(context, text)
            for fuel in range(len(context.eval_spans) + 65):
                limits = Limits(max_eval_steps=fuel)
                new = _evaluation(context.evaluate, sf_term, limits)
                assert new == _evaluation(_whole_term, sf_term, limits), (
                    text, fuel)
                result = new[0]
                if result[-1] == "fuel" and result[3] is not None:
                    trips.add(result[3][0])
            deadline = Limits(deadline_ms=1e9)
            assert _evaluation(context.evaluate, sf_term, deadline) == (
                _evaluation(_whole_term, sf_term, deadline))
        # Some trips land inside the library, some in the program.
        expected = {"<input>", "<prelude>"} if prelude else {"<input>"}
        assert trips == expected

    def test_the_prefix_steps_are_counted(self):
        context = context_for()
        _, sf_term = _typecheck(context, "square[int](7)")
        result, steps, _ = _evaluation(context.evaluate, sf_term, None)
        assert result == ("value", 49)
        assert len(context.eval_spans) < steps
        assert steps == _evaluation(_whole_term, sf_term, None)[1]

    @pytest.mark.parametrize("prelude", [True, False],
                             ids=["prelude", "empty"])
    def test_a_stack_trip_is_reported_at_the_whole_term(self, prelude):
        context = context_for(Checker, prelude)
        _, sf_term = _typecheck(
            context,
            "let f = fix (\\f : fn(int) -> int. \\n : int. "
            "if ieq(n, 0) then 0 else iadd(1, f(isub(n, 1)))) in f(100000)"
        )
        limits = Limits(python_stack_limit=sys.getrecursionlimit() + 2_000)
        # Not the steps: the program runs fewer frames deep than the whole
        # term, so it gets further before the stack gives out.
        new, _, _ = _evaluation(context.evaluate, sf_term, limits)
        assert new == _evaluation(_whole_term, sf_term, limits)[0]
        assert new[-1] == "stack"
        assert new[3][0] == ("<prelude>" if prelude else "<input>")

    def test_a_foreign_prefix_is_refused(self):
        context = context_for()
        _, sf_term = _typecheck(context, "square[int](7)")
        with pytest.raises(ValueError, match="System F prefix"):
            context.evaluate(sf_term.body, Budget())

    @pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                             ids=["core", "ext"])
    def test_runs_leave_the_shared_environment_unchanged(self, checker_cls):
        context = context_for(checker_cls)
        before = _frames(context.rt_env)
        for case in _prelude_lib_cases():
            outcome = check_source(
                case.text, case.name, prelude=case.prelude,
                ext=checker_cls is ExtChecker, evaluate=True,
            )
            assert outcome.evaluated, case.name
        # The empty library's environment ends the prelude's chain.
        assert _frames(context.rt_env) == before

    def test_threads_share_the_environment(self):
        context = context_for()
        terms = [_typecheck(context, case.text)[1]
                 for case in _prelude_lib_cases() if case.prelude]
        serial = [_evaluation(context.evaluate, t, None) for t in terms]
        before = _frames(context.rt_env)
        results = {}

        def worker(index):
            results[index] = [
                _evaluation(context.evaluate, t, None) for t in terms
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: serial for i in range(6)}
        assert _frames(context.rt_env) == before


def _frames(env):
    """Each frame of a runtime environment, by identity, with its
    bindings' identities."""
    rows = []
    while env is not None:
        rows.append((id(env._frame), tuple(
            (name, id(value)) for name, value in env._frame.items()
        )))
        env = env._parent
    return rows


def _prelude_lib_cases():
    sys.path.insert(0, str(ROOT / "fgbench"))
    import workloads

    return [case for seed in (1, 2, 3)
            for case in workloads.make("prelude-lib", seed)]


@pytest.fixture
def fresh_contexts(monkeypatch):
    """Empty the per-process context table and count builds per class."""
    monkeypatch.setattr(prelude_context, "_CONTEXTS", {})
    builds = []
    real_build = prelude_context._build

    def counting_build(checker_cls, text):
        builds.append(checker_cls.__name__)
        return real_build(checker_cls, text)

    monkeypatch.setattr(prelude_context, "_build", counting_build)
    return builds


class TestBuiltOnce:
    def test_ten_checks_build_once_per_checker_class(self, fresh_contexts):
        for _ in range(10):
            for ext in (False, True):
                assert check_source(
                    "count[list int](range(0, 3))", prelude=True, ext=ext,
                    evaluate=True,
                ).value == 3
        assert sorted(fresh_contexts) == ["Checker", "ExtChecker"]

    def test_no_build_without_the_prelude(self, fresh_contexts):
        # Without the prelude the program is checked at the empty library:
        # the prelude text is never parsed or checked, by either checker.
        with mock.patch.object(
            prelude_context, "parse_fg",
            side_effect=AssertionError("parsed a library text"),
        ):
            for ext in (False, True):
                outcome = check_source("iadd(1, 2)", ext=ext, verify=True,
                                       evaluate=True)
                assert outcome.verified and outcome.value == 3
        assert fresh_contexts == []
        assert prelude_context._CONTEXTS == {}

    @pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
    def test_the_empty_library_is_built_once(self, ext):
        checker_cls = ExtChecker if ext else Checker
        first = context_for(checker_cls, False)
        assert check_source("iadd(1, 2)", ext=ext, evaluate=True).value == 3
        assert context_for(checker_cls, False) is first
        assert first.checker_cls is checker_cls and first.prefix == ()

    @pytest.mark.parametrize("text, fuel, verify_rejects, kind", [
        ("iadd(1,,)", None, False, "parse error"),
        ("iadd(1, true)", None, False, "type error"),
        ("iadd(1, 2)", None, True, "type error"),
        ("iadd(1, 2)", 1, False, "resource limit"),
        ("iadd(1, 2)", None, False, None),
    ], ids=["parse", "check", "verify", "evaluate", "accepted"])
    def test_every_pipeline_exit_freezes_one_report(
            self, text, fuel, verify_rejects, kind):
        verify = mock.Mock(side_effect=TypeError_("rejected", None)) \
            if verify_rejects else verify_emitted
        with mock.patch.object(DiagnosticReporter, "finish", autospec=True,
                               side_effect=DiagnosticReporter.finish) \
                as finish, \
                mock.patch.object(fg_typecheck, "verify_emitted", verify):
            outcome = check_source(text, verify=True, evaluate=True,
                                   limits=Limits(max_eval_steps=fuel))
        assert finish.call_count == 1
        kinds = [d.kind for d in outcome.report.diagnostics]
        assert kinds == ([kind] if kind else [])

    def test_warm_up_builds_the_context(self, fresh_contexts):
        from repro.service.subproc import warm_up

        warm_up(prelude=True, ext=False)
        assert fresh_contexts == ["Checker"]
        assert Checker in prelude_context._CONTEXTS
        assert context_for() is prelude_context._CONTEXTS[Checker]


def _batch(jobs):
    from repro.service.report import canonicalize
    from repro.tools.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        main(["batch", str(ROOT / "examples" / "fg"), "--prelude",
              "--jobs", str(jobs), "--json"])
    report = json.loads(canonicalize(json.loads(out.getvalue())))
    report["policy"].pop("jobs")
    return report


def test_threaded_batch_matches_serial(fresh_contexts):
    # The four threads race to build the context on first use; a short
    # switch interval makes them interleave inside the build.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _batch(4)
    finally:
        sys.setswitchinterval(interval)
    assert fresh_contexts == ["Checker"]
    assert threaded == _batch(1)
