"""Every fail-fast text entry point is the pipeline stopped at its first
diagnostic.

``repro.fg_*``, ``repro.extensions.check/run/verify``, ``repro.prelude.*``,
``repro.testing.*_src`` and the REPL must each return what
``check_source(..., max_errors=1)`` accepts (type, translation, value, or
the ``(fg_type, sf_type)`` pair), or raise the diagnostic it reports first,
class and text; for the core and the extended checker, at the empty library
and at the prelude.

Deep nesting is one such input.  A 2,000-deep ``((…1…))`` is a value at
every entry point and in the REPL, and every public parser reads it; past
the interpreter stack, a parser raises a ``stack`` resource-limit
diagnostic, never a ``RecursionError``.
"""

import random
import sys
from functools import partial
from pathlib import Path

import pytest

import repro
from repro import extensions, prelude, testing
from repro.diagnostics.errors import Diagnostic, ParseError, TypeError_
from repro.diagnostics.limits import ResourceLimitError
from repro.fg import pretty_type
from repro.pipeline import check_source
from repro.syntax import parse_f, parse_f_type, parse_fg, parse_fg_type
from repro.systemf import pretty_term as f_pretty_term
from repro.systemf.eval import render_value
from repro.testing import FUZZ_SEEDS, mutate_source
from repro.tools.cli import main as cli_main
from repro.tools.repl import Repl

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))
sys.path.insert(0, str(ROOT / "fgbench"))
import workloads  # noqa: E402

DEPTH = 2_000
DEEP = "(" * DEPTH + "1" + ")" * DEPTH
#: Deeper than the interpreter stack limit lets any parser go.
TOO_DEEP = "(" * 60_000 + "1" + ")" * 60_000


def _returned(stage, outcome):
    """What an entry point of ``stage`` returns for an accepted outcome."""
    return {
        "type": outcome.type_,
        "translation": outcome.translation,
        "typecheck": (outcome.type_, outcome.translation),
        "value": outcome.value,
        "verify": (outcome.type_, outcome.sf_type),
    }[stage]


def _comparable(stage, result):
    """``result`` with types as text and values rendered."""
    if stage == "value":
        return render_value(result)
    if stage == "translation":
        return result
    if stage == "type":
        return str(result)
    second = result[1] if stage == "typecheck" else str(result[1])
    return str(result[0]), second


def _entry_points():
    """``(name, function of the text, prelude, ext, stage)``."""
    for library in (False, True):
        tag = "[prelude]" if library else ""
        for fn, stage in ((repro.fg_check, "type"),
                          (repro.fg_translate, "translation"),
                          (repro.fg_run, "value"),
                          (repro.fg_verify, "verify")):
            yield (f"repro.{fn.__name__}{tag}",
                   partial(fn, use_prelude=library), library, False, stage)
        for fn, stage in ((extensions.check, "type"),
                          (extensions.run, "value"),
                          (extensions.verify, "verify")):
            yield (f"extensions.{fn.__name__}{tag}",
                   partial(fn, use_prelude=library), library, True, stage)
    for fn, stage in ((prelude.typecheck, "typecheck"),
                      (prelude.type_of, "type"),
                      (prelude.verify, "verify"),
                      (prelude.run, "value")):
        yield f"prelude.{fn.__name__}", fn, True, False, stage
    for fn, stage in ((testing.check_src, "typecheck"),
                      (testing.run_src, "value"),
                      (testing.verify_src, "verify")):
        yield f"testing.{fn.__name__}", fn, False, False, stage


ENTRY_POINTS = list(_entry_points())
IDS = [entry[0] for entry in ENTRY_POINTS]


def _pipeline(text, prelude_, ext, stage, filename="<input>"):
    outcome = check_source(
        text, filename, prelude=prelude_, ext=ext, max_errors=1,
        evaluate=stage == "value", verify=stage == "verify",
    )
    if not outcome.ok:
        (err,) = outcome.report.errors
        return type(err).__name__, str(err)
    return "ok", _comparable(stage, _returned(stage, outcome))


def _called(fn, text, stage):
    try:
        result = fn(text)
    except Diagnostic as err:
        return type(err).__name__, str(err)
    return "ok", _comparable(stage, result)


def _corpus():
    programs = [(path.name, path.read_text()) for path in EXAMPLES]
    for workload in ("prelude-lib", "generic-stress", "broken-edits"):
        cases = workloads.make(workload, 1)
        programs += [(f"{workload}/{case.name}", case.text)
                     for case in cases[:12]]
    rng = random.Random(0)
    programs += [
        (f"<mutant{k}>", mutate_source(FUZZ_SEEDS[k % len(FUZZ_SEEDS)], rng))
        for k in range(60)
    ]
    return programs + [("<deep>", DEEP)]


CORPUS = _corpus()


@pytest.mark.parametrize("name, fn, prelude_, ext, stage", ENTRY_POINTS,
                         ids=IDS)
def test_entry_point_is_the_pipeline_stopped_at_its_first_diagnostic(
        name, fn, prelude_, ext, stage):
    kinds = set()
    for program, text in CORPUS:
        want = _pipeline(text, prelude_, ext, stage)
        assert _called(fn, text, stage) == want, (name, program)
        kinds.add(want[0])
    assert {"ok", "ParseError", "TypeError_"} <= kinds, kinds


def test_reject_src_returns_the_first_type_error():
    rejected = 0
    for program, text in CORPUS:
        kind, message = _pipeline(text, False, False, "typecheck")
        if kind == "TypeError_":
            err = testing.reject_src(text)
            assert isinstance(err, TypeError_) and str(err) == message
            rejected += 1
        elif kind == "ok":
            with pytest.raises(AssertionError, match="expected a type error"):
                testing.reject_src(text)
        else:
            with pytest.raises(Diagnostic) as info:
                testing.reject_src(text)
            assert (type(info.value).__name__, str(info.value)) == (
                kind, message)
    assert rejected > 10


def _repl(prelude_, ext):
    repl = Repl(use_ext=ext)
    if prelude_:
        repl.feed(":prelude")
    return repl


@pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
@pytest.mark.parametrize("prelude_", [False, True], ids=["empty", "prelude"])
def test_repl_entries_are_the_pipeline(prelude_, ext):
    compared = 0
    for program, text in CORPUS:
        if program.startswith("<mutant"):
            continue  # a mutant may be an incomplete entry or a declaration
        repl = _repl(prelude_, ext)
        outcome = check_source(text, "<repl>", prelude=prelude_, ext=ext,
                               max_errors=1, evaluate=True)
        if outcome.ok:
            assert repl.feed(text) == (
                f"{render_value(outcome.value)} : "
                f"{pretty_type(outcome.type_)}"), program
            assert repl.feed(f":type {text}") == pretty_type(outcome.type_)
            assert repl.feed(f":translate {text}") == f_pretty_term(
                outcome.translation)
        elif not isinstance(outcome.report.errors[0], ParseError):
            assert repl.feed(text) == str(outcome.report.errors[0]), program
        compared += 1
    assert compared >= len(EXAMPLES) + 30


# -- deep nesting ----------------------------------------------------------


@pytest.mark.parametrize("name, fn, prelude_, ext, stage", ENTRY_POINTS,
                         ids=IDS)
def test_deep_nesting_is_a_value_at_every_entry_point(
        name, fn, prelude_, ext, stage):
    limit = sys.getrecursionlimit()
    expected = {"type": "int", "value": "1", "verify": ("int", "int")}
    result = _called(fn, DEEP, stage)
    assert result == _pipeline(DEEP, prelude_, ext, stage)
    if stage in expected:
        assert result == ("ok", expected[stage])
    else:
        assert result[0] == "ok"
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("prelude_", [False, True], ids=["empty", "prelude"])
def test_deep_nesting_in_the_repl(prelude_):
    repl = _repl(prelude_, False)
    assert repl.feed(DEEP) == "1 : int"
    assert repl.feed(f":type {DEEP}") == "int"
    assert repl.feed(f"let deep = {DEEP}") == "-- declared (let)"
    assert repl.feed("iadd(deep, 1)") == "2 : int"


@pytest.mark.parametrize("parse, text", [
    (parse_fg, DEEP),
    (parse_f, DEEP),
    (parse_fg_type, "(" * DEPTH + "int" + ")" * DEPTH),
    (parse_f_type, "(" * DEPTH + "int" + ")" * DEPTH),
], ids=["parse_fg", "parse_f", "parse_fg_type", "parse_f_type"])
def test_public_parsers_read_deep_nesting(parse, text):
    limit = sys.getrecursionlimit()
    assert parse(text) is not None
    deeper = text.replace("(" * DEPTH, "(" * 60_000).replace(
        ")" * DEPTH, ")" * 60_000)
    with pytest.raises(ResourceLimitError) as info:
        parse(deeper)
    assert info.value.limit == "stack"
    assert sys.getrecursionlimit() == limit


def test_cli_run_and_runf_read_deep_nesting(tmp_path, capsys):
    deep = tmp_path / "deep.fg"
    for command in ("run", "runf"):
        deep.write_text(DEEP)
        assert cli_main([command, str(deep)]) == 0, command
        assert capsys.readouterr().out.strip() == "1"
        deep.write_text(TOO_DEEP)
        assert cli_main([command, str(deep)]) == 1, command
        assert "interpreter stack" in capsys.readouterr().err
