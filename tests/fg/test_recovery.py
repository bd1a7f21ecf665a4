"""Multi-error recovery: the collecting checker and the resilient parser."""

import random

import pytest

from repro.diagnostics.errors import ParseError, TypeError_
from repro.diagnostics.limits import Limits
from repro.diagnostics.reporter import DiagnosticReporter
from repro.fg import ast as G
from repro.fg import typecheck, typecheck_all
from repro.pipeline import check_source
from repro.syntax import parse_fg, parse_fg_resilient
from repro.testing import FUZZ_SEEDS, mutate_source


def report_for(src: str, **kw):
    _, _, report = typecheck_all(parse_fg(src), **kw)
    return report


class TestCheckerRecovery:
    def test_three_independent_let_errors(self):
        # The acceptance program: three broken bindings, three errors, in
        # source order, from one run.
        src = (
            "let a = iadd(1, true) in\n"
            "let b = if 3 then 4 else 5 in\n"
            "let c = (1)(2) in\n"
            "0"
        )
        report = report_for(src)
        assert len(report.errors) >= 3
        lines = [d.span.start.line for d in report if d.span is not None]
        assert lines == sorted(lines)
        assert {1, 2, 3} <= set(lines)

    def test_failfast_typecheck_still_raises_first(self):
        src = "let a = iadd(1, true) in let b = (1)(2) in 0"
        with pytest.raises(TypeError_) as excinfo:
            typecheck(parse_fg(src))
        assert "argument 2" in excinfo.value.message

    def test_poisoned_binding_does_not_cascade(self):
        # `a` fails once; its uses absorb instead of re-reporting.
        src = "let a = missing_var in iadd(a, iadd(a, a))"
        report = report_for(src)
        assert len(report) == 1

    def test_recovered_type_is_error_poison(self):
        t, _, report = typecheck_all(parse_fg("let a = missing_var in a"))
        assert not report.ok
        assert isinstance(t, G.ErrorType)

    def test_well_typed_program_unchanged(self):
        t, sf, report = typecheck_all(parse_fg("iadd(1, 2)"))
        assert report.ok
        assert str(t) == "int"
        assert sf is not None

    def test_model_error_recovers(self):
        src = (
            "concept C<t> { op : fn(t, t) -> t; } in\n"
            "model C<int> { op = ilt; } in\n"
            "let bad = iadd(1, true) in\n"
            "C<int>.op(1, 2)"
        )
        report = report_for(src)
        # Both the bad model member and the bad let surface; the member
        # access through the poisoned model does not add a third.
        assert len(report) == 2

    def test_concept_error_recovers(self):
        src = (
            "concept C<t> { op : t; op : t; } in\n"
            "let bad = missing in\n"
            "0"
        )
        report = report_for(src)
        assert len(report) == 2
        assert "duplicate" in report.diagnostics[0].message

    def test_alias_error_recovers_and_absorbs(self):
        src = (
            "type t = nosuchtype in\n"
            "let x = \\y : t. y in\n"
            "let bad = iadd(1, true) in\n"
            "0"
        )
        report = report_for(src)
        messages = [d.message for d in report]
        assert any("nosuchtype" in m for m in messages)
        assert any("argument 2" in m for m in messages)
        assert len(report) == 2

    def test_max_errors_caps_the_report(self):
        src = "\n".join(
            f"let x{i} = missing_{i} in" for i in range(10)
        ) + "\n0"
        report = report_for(src, max_errors=3)
        assert len(report) == 3
        assert report.truncated

    def test_errors_sorted_by_position(self):
        src = "let a = missing_one in\nlet b = missing_two in\n0"
        report = report_for(src)
        offsets = [d.span.start.offset for d in report]
        assert offsets == sorted(offsets)

    def test_reporter_reuse_across_stages(self):
        reporter = DiagnosticReporter(max_errors=10)
        _, _, report = typecheck_all(
            parse_fg("let a = missing in 0"), reporter=reporter
        )
        assert len(report) == 1


class TestErrorCapAtLeastOne:
    # A cap below 1 would record nothing yet mark the report truncated
    # ("stopping after 0"): every entry point that takes one refuses it.
    @pytest.mark.parametrize("cap", [0, -3])
    def test_library_entry_points_refuse_it(self, cap):
        with pytest.raises(ValueError, match="max_errors"):
            DiagnosticReporter(max_errors=cap)
        with pytest.raises(ValueError, match="max_errors"):
            check_source("iadd(1, 2)", max_errors=cap)
        with pytest.raises(ValueError, match="max_errors"):
            typecheck_all(parse_fg("iadd(1, 2)"), max_errors=cap)
        with pytest.raises(ValueError, match="max_errors"):
            parse_fg_resilient("iadd(1, 2)", max_errors=cap)

    def test_the_lexer_stops_at_the_cap(self):
        outcome = check_source("let x = 1 $ $ $ $ in x", max_errors=1)
        (err,) = outcome.report.errors
        assert "unexpected character '$'" in str(err)
        assert outcome.report.render().endswith(
            "stopping after 1 (raise the error cap to see more)"
        )

    @pytest.mark.parametrize("cap", [1, 3])
    def test_no_mutant_reports_more_than_the_cap(self, cap):
        # Mutants made as run_fuzz makes them: some fail in the lexer (junk
        # characters), some in the parser or the checker.
        rng = random.Random(0)
        capped = 0
        for k in range(300):
            mutant = mutate_source(FUZZ_SEEDS[k % len(FUZZ_SEEDS)], rng)
            for _ in range(rng.randrange(3)):
                mutant = mutate_source(mutant, rng)
            report = check_source(
                mutant, "<fuzz>", ext=bool(k % 2), max_errors=cap,
                limits=Limits(max_check_depth=500),
            ).report
            assert len(report.errors) <= cap, mutant
            if report.truncated:
                capped += 1
                assert report.render().endswith(
                    f"stopping after {cap} (raise the error cap to see "
                    "more)"
                ), mutant
        assert capped > 50


class TestParserRecovery:
    def test_two_parse_errors_one_run(self):
        src = "let x = in\nlet y = ) in\nx"
        term, report = parse_fg_resilient(src)
        assert len(report.errors) >= 2
        lines = [d.span.start.line for d in report if d.span is not None]
        assert lines == sorted(lines)

    def test_failfast_parse_still_raises(self):
        with pytest.raises(ParseError):
            parse_fg("let x = in 1")

    def test_clean_program_parses_with_empty_report(self):
        term, report = parse_fg_resilient("iadd(1, 2)")
        assert report.ok
        assert term is not None

    def test_recovery_cannot_loop_forever(self):
        # Pure garbage: the parser must terminate with diagnostics.
        term, report = parse_fg_resilient(") ) ) } } ; ; in in" * 50)
        assert not report.ok

    def test_max_errors_bounds_parse_recovery(self):
        src = " ".join(["let x = in"] * 50) + " 1"
        _, report = parse_fg_resilient(src, max_errors=5)
        assert len(report) == 5
        assert report.truncated

    def test_lexer_recovery_reports_bad_characters(self):
        _, report = parse_fg_resilient("iadd(1 @ 2)")
        assert any(d.kind == "lex error" for d in report)
