"""Checking without the prelude is checking at the empty library.

Every program is checked at a library context; without ``prelude=True``
that context is the empty library (:func:`repro.prelude.context.
empty_context`).  It must give exactly what checking the program directly
gives: ``Checker().check(term, Env.initial())`` under
``resource_scope(limits, term.span)``, and, for verify, the independent
System F checker over the whole translation.  That direct reference lives
only in this file, as the text-wrap reference of the prelude lives only in
``test_prelude_context.py``.

Compared for the core and the extended checker: type, translation, value,
every diagnostic (message, file, line, column, excerpt), the peak checker
depth and the verify verdict.
"""

import importlib
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import Diagnostic, TypeError_
from repro.diagnostics.limits import Limits, ResourceLimitError, resource_scope
from repro.diagnostics.reporter import DiagnosticReporter
from repro.extensions import ExtChecker
from repro.fg.env import Env
from repro.fg.pretty import pretty_type as fg_pretty_type
from repro.fg.typecheck import Checker, _ErrorLimit
from repro.observability import Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro.syntax import parse_fg_resilient
from repro.systemf import ast as F
from repro.systemf import evaluate, pretty_term, pretty_type
from repro.systemf import type_of as sf_type_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from fg_gen import program_specs  # noqa: E402

#: The module, not the ``repro.fg.typecheck`` function of the same name.
fg_typecheck = importlib.import_module("repro.fg.typecheck")

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

CHECKERS = {False: Checker, True: ExtChecker}


def direct(text, filename="<input>", limits=None, ext=False):
    """The direct path: parse, then check ``term`` in the initial
    environment with no library in front of it; verify by typing the
    whole translation."""
    reporter = DiagnosticReporter()
    result = {"type": None, "translation": None, "value": None,
              "peak_depth": None, "sf_type": None}
    with resource_scope(limits):
        term, _ = parse_fg_resilient(text, filename, reporter=reporter)
    if term is not None and reporter.finish().ok:
        checker = CHECKERS[ext](reporter=reporter, limits=limits)
        fg_type = translation = None
        try:
            with resource_scope(checker.limits, term.span):
                fg_type, translation = checker.check(term, Env.initial())
        except _ErrorLimit:
            pass
        except (TypeError_, ResourceLimitError) as err:
            reporter.error(err)
        result["peak_depth"] = checker._budget.peak_depth
        if reporter.finish().ok and translation is not None:
            result["type"] = fg_pretty_type(fg_type)
            result["translation"] = pretty_term(translation)
            try:
                with resource_scope(checker.limits, translation.span):
                    sf_type = sf_type_of(translation)
                    expected = checker.translate_type(fg_type, Env.initial())
                assert F.types_equal(sf_type, expected)
                result["sf_type"] = pretty_type(sf_type)
                result["value"] = evaluate(translation)
            except Diagnostic as err:
                reporter.error(err)
    result["diagnostics"] = reporter.finish().to_json()
    return result


def at_empty_library(text, filename="<input>", limits=None, ext=False):
    """The pipeline under ``prelude=False``, with its verify stage's System
    F type recorded."""
    seen = {"sf_type": None}
    real = fg_typecheck.verify_emitted

    def spy(fg_type, sf_term, **kwargs):
        sf_type = real(fg_type, sf_term, **kwargs)
        seen["sf_type"] = pretty_type(sf_type)
        return sf_type

    with mock.patch.object(fg_typecheck, "verify_emitted", spy):
        outcome = check_source(
            text, filename, ext=ext, limits=limits, evaluate=True,
            verify=True,
            instrumentation=Instrumentation(metrics=MetricsRegistry()),
        )
    ok = outcome.ok
    return {
        "type": fg_pretty_type(outcome.type_) if ok else None,
        "translation": pretty_term(outcome.translation) if ok else None,
        "value": outcome.value,
        "peak_depth": outcome.stats["counters"].get("check.peak_depth"),
        "sf_type": seen["sf_type"],
        "diagnostics": outcome.report.to_json(),
    }


def _same(text, filename="<input>", limits=None, ext=False):
    new = at_empty_library(text, filename, limits, ext)
    assert new == direct(text, filename, limits, ext)
    return new


def _parse_edit(text):
    """Drop the first ``in``: a parse error of known position."""
    return re.sub(r"\bin\b", "", text, count=1)


def _type_edit(text):
    """Turn the first integer literal into ``true``."""
    edited = re.sub(r"(?<![\w%])\d+\b", "true", text, count=1)
    assert edited != text
    return edited


@pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
class TestEmptyLibraryIsTheDirectPath:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "edit", [None, _parse_edit, _type_edit],
        ids=["as-is", "parse-edit", "type-edit"],
    )
    def test_examples(self, path, edit, ext):
        text = path.read_text()
        if edit is not None:
            text = edit(text)
        _same(text, path.name, ext=ext)

    @given(program_specs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_programs(self, ext, spec):
        new = _same(spec.source, ext=ext)
        assert new["diagnostics"] == [] and new["sf_type"]

    def test_fresh_names_start_where_a_fresh_checker_starts(self, ext):
        # A generic function's dictionary parameter takes the checker's
        # first fresh name.
        text = (
            "concept C<t> { op : fn(t) -> t; } in\n"
            r"let f = /\t where C<t>. \x : t. C<t>.op(x) in"
            "\nmodel C<int> { op = \\x : int. x; } in f[int](3)"
        )
        new = _same(text, ext=ext)
        assert "C_dict%0" in new["translation"] and new["value"] == 3

    @pytest.mark.parametrize("cap", [1, 20, 45])
    def test_depth_limit_trips_at_the_same_nesting(self, cap, ext):
        limits = Limits(max_check_depth=cap)
        for nesting in range(48):
            text = "iadd(1, " * nesting + "0" + ")" * nesting
            new = _same(text, "deep.fg", limits, ext)
            if new["diagnostics"]:
                break
        (diag,) = new["diagnostics"]
        assert diag["kind"] == "resource limit"
        assert f"({cap})" in diag["message"]
        assert diag["file"] == "deep.fg"

    def test_stack_exhaustion_is_reported_at_the_programs_root(self, ext):
        # Nested types: the checker's recursion, not the parser's, runs
        # out of interpreter stack.
        text = "nil[" + "list " * 800 + "int]"
        limits = Limits(python_stack_limit=1000)
        new = _same(text, "deep.fg", limits, ext)
        (diag,) = new["diagnostics"]
        assert "exhausted the interpreter stack" in diag["message"]
        root = parse_fg_resilient(text, "deep.fg")[0].span
        assert (diag["file"], diag["line"], diag["col"]) == (
            "deep.fg", root.start.line, root.start.column
        )
