"""Crash-resilience: nothing but a ``Diagnostic`` ever escapes the pipeline.

A deterministic mutation fuzzer (:func:`repro.testing.run_fuzz`) corrupts
known-good programs at the token level — deletions, duplications,
keyword/identifier swaps, span-preserving garbage — and pushes every mutant
through lex → parse → typecheck → translate → verify.  The property under
test: :func:`repro.pipeline.check_source` never raises; every failure mode
becomes a positioned diagnostic in the outcome's report.

Set ``FG_FUZZ_MUTANTS`` to scale the campaign (default 500; CI smoke uses a
smaller budget).  Failures print the reproducing mutant and fuzz seed.
"""

import os

import pytest

from repro.diagnostics.errors import Diagnostic
from repro.diagnostics.limits import Limits
from repro.pipeline import STAGES, CheckOutcome, check_source, inject_fault
from repro.testing import FUZZ_SEEDS, mutate_source, run_fuzz

MUTANTS = int(os.environ.get("FG_FUZZ_MUTANTS", "500"))


class TestFuzzResilience:
    def test_seeds_are_well_typed(self):
        for i, seed_src in enumerate(FUZZ_SEEDS):
            outcome = check_source(seed_src, f"<seed{i}>", verify=True)
            assert outcome.ok, (
                f"fuzz seed {i} no longer checks:\n{outcome.report.render()}"
            )

    def test_mutation_campaign_resilience(self):
        stats = run_fuzz(MUTANTS, seed=0)
        assert stats["mutants"] == MUTANTS
        # The campaign must actually exercise the error paths: the vast
        # majority of mutants are broken programs.
        assert stats["diagnosed"] > stats["mutants"] // 2

    def test_second_seed_resilience(self):
        # A different RNG stream reaches different mutation mixes.
        stats = run_fuzz(max(50, MUTANTS // 5), seed=1)
        assert stats["mutants"] == max(50, MUTANTS // 5)

    def test_mutation_is_deterministic(self):
        import random

        a = [mutate_source(FUZZ_SEEDS[0], random.Random(7)) for _ in range(5)]
        b = [mutate_source(FUZZ_SEEDS[0], random.Random(7)) for _ in range(5)]
        assert a == b

    def test_diagnosed_mutants_have_positions(self):
        import random

        rng = random.Random(3)
        seen_positioned = 0
        for _ in range(50):
            mutant = mutate_source(FUZZ_SEEDS[0], rng)
            outcome = check_source(mutant, "<fuzz>")
            if not outcome.ok:
                for diag in outcome.report:
                    if diag.span is not None:
                        seen_positioned += 1
                        break
        assert seen_positioned > 10


class TestRecursionLimitUntouched:
    def test_fuzz_leaves_recursion_limit_alone(self):
        import sys

        before = sys.getrecursionlimit()
        run_fuzz(50, seed=9)
        assert sys.getrecursionlimit() == before


class TestFaultInjection:
    def test_injected_fault_escapes_pipeline(self):
        # The pipeline converts Diagnostics, not arbitrary bugs: an
        # injected internal error must propagate (so the CLI can report
        # exit code 3), never be swallowed into the report.
        for stage in ("parse", "check"):
            with inject_fault(stage, RuntimeError("boom")):
                with pytest.raises(RuntimeError, match="boom"):
                    check_source("1", "<input>")

    def test_later_stage_faults(self):
        with inject_fault("evaluate", RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                check_source("1", "<input>", evaluate=True)
        with inject_fault("verify", RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                check_source("1", "<input>", verify=True)

    def test_fault_cleared_after_scope(self):
        with inject_fault("check", RuntimeError("boom")):
            pass
        outcome = check_source("1", "<input>")
        assert outcome.ok

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            with inject_fault("nope", RuntimeError("x")):
                pass

    def test_stage_names_stable(self):
        assert STAGES == ("parse", "check", "evaluate", "verify")


class TestPipelineContract:
    def test_outcome_shape_on_success(self):
        outcome = check_source("iadd(1, 2)", "<t>", evaluate=True, verify=True)
        assert isinstance(outcome, CheckOutcome)
        assert outcome.ok and outcome.evaluated and outcome.verified
        assert outcome.value == 3

    def test_only_diagnostics_in_report(self):
        outcome = check_source("let x = iadd(1, true) in } in {", "<t>")
        assert not outcome.ok
        assert all(isinstance(d, Diagnostic) for d in outcome.report)

    def test_pathological_nesting_is_a_diagnostic(self):
        deep = "(" * 20_000 + "1" + ")" * 20_000
        outcome = check_source(deep, "<deep>", limits=Limits(
            max_check_depth=100, python_stack_limit=5_000,
        ))
        assert not outcome.ok
        assert any(d.kind == "resource limit" for d in outcome.report)

    def test_empty_source(self):
        outcome = check_source("", "<empty>")
        assert not outcome.ok

    def test_non_decimal_digits_are_diagnosed(self):
        # ``²`` passes ``str.isdigit`` but not ``int()``: it must become a
        # lex error, never a ValueError out of the parser.
        for text in ("let x = \u00b2 in x", "let x = -\u00b2 in x", "1\u00b2"):
            outcome = check_source(text, "<digits>")
            assert not outcome.ok
            assert any(d.kind == "lex error" for d in outcome.report), text

    def test_non_decimal_digit_cli_exit_code(self, tmp_path, capsys):
        from repro.tools.cli import EXIT_DIAGNOSTICS, main

        path = tmp_path / "square.fg"
        path.write_text("let x = \u00b2 in x", encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_DIAGNOSTICS
        assert "unexpected character" in capsys.readouterr().err

    def test_decimal_digits_evaluate(self):
        outcome = check_source("let x = \u0663 in x", "<digits>",
                               evaluate=True)
        assert outcome.ok and outcome.value == 3
        outcome = check_source("iadd(-\u0663, 1\u0660)", "<digits>",
                               evaluate=True)
        assert outcome.ok and outcome.value == 7

    def test_binary_garbage(self):
        outcome = check_source("\x00\xff\x7f garbage \x01", "<bin>")
        assert not outcome.ok
        assert all(isinstance(d, Diagnostic) for d in outcome.report)
