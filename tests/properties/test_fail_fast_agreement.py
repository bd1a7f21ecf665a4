"""Fail-fast checking raises exactly what a one-error collecting run reports.

Every recovery point of the checker hands its type error to
``Checker._report``, which raises it when no reporter is installed and
records it otherwise; nothing else tells the two modes apart.  So for a
program that parses, checking it fail-fast (``context.check`` with a
reporter-less checker) must raise the very diagnostic, class and rendered
text, that ``check_source(..., max_errors=1)`` reports, and must give the
same type and translation when the program is accepted.  The lexer and the
resilient parser stop at the reporter's cap, so a program that fails in
the lexer or the parser is compared too: fail-fast parsing raises its first
lex or parse error, the one a one-error run reports.  This agreement is
what lets every fail-fast entry point (``repro.fg_check`` and its kin) be
``check_source(..., max_errors=1)`` stopped at its first diagnostic.

Compared for the core and the extended checker, at the empty library and at
the prelude, over

- ``examples/fg`` and the in-process fgbench workloads at seeds 1-3;
- ``mutate_source`` mutants of ``FUZZ_SEEDS``: the first
  ``FG_FUZZ_MUTANTS`` (default 500) one-mutation mutants that still parse,
  as many that fail in the parser, and a fifth as many that fail in the
  lexer;
- ``fg_gen`` programs, as generated and with their first integer literal
  turned into ``true``.
"""

from __future__ import annotations

import os
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import (
    Diagnostic, LexError, ParseError, TypeError_,
)
from repro.diagnostics.limits import Limits, ResourceLimitError
from repro.extensions import ExtChecker
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude.context import context_for
from repro.diagnostics.source import SourceText
from repro.syntax import parse_fg
from repro.syntax.lexer import tokenize
from repro.testing import FUZZ_SEEDS, mutate_source

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))
MUTANTS = int(os.environ.get("FG_FUZZ_MUTANTS", "500"))
#: The fuzz campaign's depth budget: pathological mutants stay fast.
LIMITS = Limits(max_check_depth=500)
#: The fgbench workloads checked in-process (serve-edits goes to a daemon).
IN_PROCESS = ("prelude-lib", "generic-stress", "broken-edits")

sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(ROOT / "tests" / "properties"))
import workloads  # noqa: E402
from fg_gen import program_specs  # noqa: E402


def fail_fast(text, name, prelude, ext):
    checker_cls = ExtChecker if ext else Checker
    context = context_for(checker_cls, prelude)
    try:
        fg_type, translation = context.check(
            checker_cls(limits=LIMITS), parse_fg(text, name)
        )
    except (LexError, ParseError, TypeError_, ResourceLimitError) as err:
        return type(err).__name__, str(err)
    return "ok", str(fg_type), translation


def collecting(text, name, prelude, ext):
    outcome = check_source(
        text, name, prelude=prelude, ext=ext, max_errors=1, limits=LIMITS
    )
    if outcome.ok:
        return "ok", str(outcome.type_), outcome.translation
    (err,) = outcome.report.diagnostics
    return type(err).__name__, str(err)


def parses(text) -> bool:
    try:
        parse_fg(text)
    except Diagnostic:
        return False
    return True


def lex_fails(text) -> bool:
    try:
        tokenize(SourceText(text))
    except LexError:
        return True
    return False


def disagreements(programs):
    """Every (program, library, checker) where the two modes differ, and
    how many checks agreed and how many of those were rejections."""
    diffs, rejected, checked = [], 0, 0
    for name, text in programs:
        for prelude in (False, True):
            for ext in (False, True):
                want = fail_fast(text, name, prelude, ext)
                got = collecting(text, name, prelude, ext)
                checked += 1
                if got != want:
                    diffs.append((name, prelude, ext, want[:2], got[:2]))
                elif want[0] != "ok":
                    rejected += 1
    return diffs, rejected, checked


def mutants(count, keep, seed=0):
    """The first ``count`` one-mutation mutants of ``FUZZ_SEEDS`` that
    ``keep`` accepts."""
    rng = random.Random(seed)
    found = []
    k = 0
    while len(found) < count:
        mutant = mutate_source(FUZZ_SEEDS[k % len(FUZZ_SEEDS)], rng)
        if keep(mutant):
            found.append((f"<mutant{k}>", mutant))
        k += 1
    return found


def _type_edit(text):
    """Turn the first integer literal into ``true``."""
    return re.sub(r"(?<![\w%-])\d+\b", "true", text, count=1)


def test_examples():
    diffs, rejected, checked = disagreements(
        (path.name, path.read_text()) for path in EXAMPLES
    )
    assert diffs == []
    assert checked == 4 * len(EXAMPLES) and rejected > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fgbench_workloads(seed):
    diffs, rejected, checked = disagreements(
        (f"{workload}/{case.name}", case.text)
        for workload in IN_PROCESS
        for case in workloads.make(workload, seed)
    )
    assert diffs == []
    assert checked > 400 and rejected > 100


def test_fuzz_mutants():
    # About one mutant in fifteen still parses.
    diffs, rejected, checked = disagreements(mutants(MUTANTS, parses))
    assert diffs == []
    assert checked == 4 * MUTANTS and rejected > checked // 4


def test_mutants_that_fail_in_the_parser():
    diffs, rejected, checked = disagreements(
        mutants(MUTANTS, lambda text: not (parses(text) or lex_fails(text)))
    )
    assert diffs == []
    assert checked == rejected == 4 * MUTANTS


def test_mutants_that_fail_in_the_lexer():
    count = MUTANTS // 5
    diffs, rejected, checked = disagreements(mutants(count, lex_fails))
    assert diffs == []
    assert checked == rejected == 4 * count


@given(program_specs())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs(spec):
    diffs, rejected, checked = disagreements(
        [("<generated>", spec.source),
         ("<generated-edit>", _type_edit(spec.source))]
    )
    assert diffs == []
    assert checked == 8
