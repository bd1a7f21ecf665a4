"""System F type application and type equality with their shortcuts answer
exactly as the plain rules do.

The reference is the System F checker before either shortcut: every type
application substitutes the ``forall`` body afresh, and ``types_equal``
always runs the binder-tracking walk (``_alpha_eq``).
:func:`reference_rules` swaps both back in.  The tests compare

- ``type_of`` of generated terms that apply one ``forall`` type to closed
  and to open argument tuples, exactly: substitution is pure, so a
  capture-avoiding rename the memo skipped or added would show as another
  name.  Open tuples name type variables bound around the application, and
  the ``forall`` bodies bind the same names again, so substitution has
  binders to rename;
- what each ``forall`` type remembers: only closed argument tuples, and never
  more than ``_INSTANCES_BOUND`` of them, builtins included;
- ``types_equal`` with ``_alpha_eq`` on generated pairs, alpha-variants and
  structurally equal copies;
- the System F type of every translated program of ``examples/fg`` (with
  and without the prelude) and the fgbench workloads at seeds 1-3, core and
  ext, typed at its library context with and without the shortcuts.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.extensions import ExtChecker
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude.context import context_for
from repro.systemf import ast as F
from repro.systemf import typecheck as T
from repro.systemf.builtins import BUILTIN_TYPES

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

sys.path.insert(0, str(ROOT / "tests" / "properties"))
sys.path.insert(0, str(ROOT / "fgbench"))
import workloads  # noqa: E402
from test_systemf_properties import _names, _rename_binders, types  # noqa: E402


def plain_instantiate(fn_type: F.TForall, args: tuple) -> F.Type:
    return F.substitute(fn_type.body, dict(zip(fn_type.vars, args)))


def plain_types_equal(a: F.Type, b: F.Type) -> bool:
    return F._alpha_eq(a, b, {}, {})


@contextmanager
def reference_rules():
    """The System F checker without the instantiation memo and without the
    structural-equality shortcut."""
    saved = T._instantiate_closed, F.types_equal
    T._instantiate_closed, F.types_equal = plain_instantiate, plain_types_equal
    try:
        yield
    finally:
        T._instantiate_closed, F.types_equal = saved


def outcome(term, env):
    try:
        return ("ok", T.type_of(term, env))
    except Exception as err:  # noqa: BLE001 - the error is the answer
        return (type(err).__name__, str(err))


def memo_of(t: F.TForall) -> dict:
    return t._instances or {}


# -- generated applications ---------------------------------------------------

_closed = types().filter(lambda t: not F.free_type_vars(t))
_args = st.one_of(_closed, types())
#: A ``forall`` over one to three of the names the arguments use, so its
#: body's own binders can capture an open argument.
_polys = st.tuples(
    st.lists(_names, min_size=1, max_size=3, unique=True), types()
).map(lambda p: F.TForall(tuple(p[0]), p[1]))


def applications(poly: F.TForall, arg_tuples):
    """``/\\a, b, c, d. (f[args1], ..., f[argsn])``: every argument tuple
    applied to ``f : poly``, with the names arguments use bound around."""
    apps = tuple(F.TyApp(fn=F.Var(name="f"), args=tuple(args))
                 for args in arg_tuples)
    return F.TyLam(vars=("a", "b", "c", "d"), body=F.Tuple_(items=apps))


@given(_polys, st.lists(st.lists(_args, min_size=3, max_size=3),
                        min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_type_application_matches_plain_substitution(poly, drawn):
    # Draw three arguments per application and use as many as ``poly``
    # binds; repeat the first tuple so a memo hit shows too.
    arg_tuples = [tuple(args[:len(poly.vars)]) for args in drawn]
    arg_tuples.append(arg_tuples[0])
    term = applications(poly, arg_tuples)
    env = T.TypeEnv.initial().bind("f", poly)
    first = outcome(term, env)
    again = outcome(term, env)  # every closed tuple now from the memo
    with reference_rules():
        want = outcome(term, env)
    assert first == again == want
    closed = {args for args in arg_tuples
              if not any(F.free_type_vars(a) for a in args)}
    assert set(memo_of(poly)) == closed


def test_capture_case_mints_the_parents_fresh_names():
    # ``forall a. forall b. fn(a) -> b`` applied to ``b``: the inner binder
    # must be renamed, to the same name with and without the memo.
    a, b = F.TVar("a"), F.TVar("b")
    poly = F.TForall(("a",), F.TForall(("b",), F.TFn((a,), b)))
    term = F.TyLam(vars=("b",), body=F.TyApp(fn=F.Var(name="f"), args=(b,)))
    env = T.TypeEnv.initial().bind("f", poly)
    got = T.type_of(term, env)
    with reference_rules():
        want = T.type_of(term, env)
    assert got == want == F.TForall(
        ("b",), F.TForall(("b#1",), F.TFn((b,), F.TVar("b#1"))))
    assert memo_of(poly) == {}
    # A closed argument needs no rename, so it is remembered.
    closed = F.TyApp(fn=F.Var(name="f"), args=(F.INT,))
    assert T.type_of(closed, env) == F.TForall(("b",), F.TFn((F.INT,), b))
    assert list(memo_of(poly)) == [(F.INT,)]


def test_memo_is_bounded():
    poly = F.TForall(("t",), F.TFn((F.TVar("t"),), F.TList(F.TVar("t"))))
    env = T.TypeEnv.initial().bind("f", poly)
    arg = F.INT
    for _ in range(3 * T._INSTANCES_BOUND):
        term = F.TyApp(fn=F.Var(name="f"), args=(arg,))
        assert T.type_of(term, env) == F.TFn((arg,), F.TList(arg))
        assert 1 <= len(memo_of(poly)) <= T._INSTANCES_BOUND
        arg = F.TList(arg)
    # A builtin's type lives for the process; its memo is bounded alike.
    cons = BUILTIN_TYPES["cons"]
    elem = F.BOOL
    for _ in range(2 * T._INSTANCES_BOUND):
        T.type_of(F.TyApp(fn=F.Var(name="cons"), args=(elem,)))
        elem = F.TTuple((elem, F.INT))
    assert len(memo_of(cons)) <= T._INSTANCES_BOUND


def test_memo_stays_bounded_under_threads():
    # Checks run in threads of one process: the bound test and the store
    # must not interleave, and every answer must be the substitution's.
    poly = F.TForall(("t",), F.TTuple((F.TVar("t"), F.TVar("t"))))
    env = T.TypeEnv.initial().bind("f", poly)
    args = [F.INT]
    for _ in range(3 * T._INSTANCES_BOUND):
        args.append(F.TList(args[-1]))
    errors = []

    def work(offset):
        try:
            for i in range(len(args)):
                arg = args[(i + offset) % len(args)]
                term = F.TyApp(fn=F.Var(name="f"), args=(arg,))
                assert T.type_of(term, env) == F.TTuple((arg, arg))
                assert len(memo_of(poly)) <= T._INSTANCES_BOUND
        except AssertionError as err:
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 7,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert 1 <= len(memo_of(poly)) <= T._INSTANCES_BOUND


def test_memo_does_not_change_equality_or_hash():
    poly = F.TForall(("t",), F.TList(F.TVar("t")))
    twin = F.TForall(("t",), F.TList(F.TVar("t")))
    env = T.TypeEnv.initial().bind("f", poly)
    T.type_of(F.TyApp(fn=F.Var(name="f"), args=(F.INT,)), env)
    assert memo_of(poly) and not memo_of(twin)
    assert poly == twin and hash(poly) == hash(twin)
    assert repr(poly) == repr(twin)


# -- type equality ------------------------------------------------------------


def rebuild(t: F.Type) -> F.Type:
    """A structurally equal copy that shares no node with ``t``."""
    if isinstance(t, F.TVar):
        return F.TVar(str(t.name))
    if isinstance(t, F.TBase):
        return F.TBase(str(t.name))
    if isinstance(t, F.TList):
        return F.TList(rebuild(t.elem))
    if isinstance(t, F.TFn):
        return F.TFn(tuple(map(rebuild, t.params)), rebuild(t.result))
    if isinstance(t, F.TTuple):
        return F.TTuple(tuple(map(rebuild, t.items)))
    return F.TForall(tuple(t.vars), rebuild(t.body))


@given(types(), types())
@settings(max_examples=400, deadline=None)
def test_types_equal_agrees_with_the_walk(a, b):
    pairs = [(a, b), (a, a), (a, rebuild(a)), (a, _rename_binders(a)),
             (F.TForall(("a",), a), F.TForall(("b",), b))]
    for x, y in pairs:
        assert F.types_equal(x, y) == plain_types_equal(x, y)
        assert F.types_equal(y, x) == plain_types_equal(y, x)


# -- translated programs ------------------------------------------------------


def sf_types(inputs, instantiate):
    """``(name, text, prelude, ext)`` -> the System F type of each
    accepted translation at its library context, and every closed type
    application met on the way with its instantiation."""
    applied = []

    def recording(fn_type, args):
        result = instantiate(fn_type, args)
        applied.append((fn_type, args, result))
        return result

    out = []
    saved = T._instantiate_closed
    T._instantiate_closed = recording
    try:
        for name, text, prelude, ext in inputs:
            result = check_source(text, name, prelude=prelude, ext=ext)
            if not result.ok:
                continue
            context = context_for(ExtChecker if ext else Checker, prelude)
            program = context.program_part(result.translation)
            out.append((name, outcome(program, context.sf_env)))
    finally:
        T._instantiate_closed = saved
    return out, applied


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_translated_programs(seed):
    inputs = {(path.name, path.read_text(), prelude)
              for path in EXAMPLES for prelude in (False, True)}
    for name in workloads.WORKLOADS:
        for case in workloads.make(name, seed):
            inputs.add((case.name, case.text, case.prelude))
    runs = [(name, text, prelude, ext)
            for name, text, prelude in sorted(inputs) for ext in (False, True)]
    # Build the library contexts first: the prelude's own applications are
    # then recorded by neither side.
    for checker_cls in (Checker, ExtChecker):
        context_for(checker_cls, True)
    got, got_applied = sf_types(runs, T._instantiate_closed)
    with reference_rules():
        want, want_applied = sf_types(runs, plain_instantiate)
    assert got == want
    assert got_applied == want_applied
    assert len(got) > 200 and len(got_applied) > 1000
    assert all(answer[0] == "ok" for _, answer in got)
