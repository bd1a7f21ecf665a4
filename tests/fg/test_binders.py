"""Binders at every depth: alpha-variants are one type, and substituting
under a binder never captures.

- ``TForall.alpha_key`` renames every binder, at every depth, by position,
  so two types share a key exactly when the independent every-depth
  printer (:func:`~test_substitution_reference.canonical`) prints them
  alike.  A program whose annotation spells nested binders unlike its
  argument's type checks, verifies and evaluates as the same program
  spelled alike.
- A concept-member default's type abstraction or ``type`` alias renames a
  binder that would capture a type substituted into the default, as
  ``substitute`` does at a ``forall``, and an alias shadows what it binds:
  the programs below check as their renamed spellings do, and agree with
  the direct interpreter.
- Equalities in scope still do not reach under a binder (ROADMAP item 10):
  that program stays a strict xfail until they do.
"""

from __future__ import annotations

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.fg import ast as G
from repro.fg.interp import interpret
from repro.pipeline import check_source
from repro.syntax import parse_fg
from repro.systemf import pretty_term

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "fg"))
from test_substitution_reference import _names, canonical, g_types  # noqa: E402

NESTED = (
    r"let id = /\a. /\b. \x : fn(a) -> b. x in "
    r"let f = \g : forall {c}. forall {d}. fn(fn({c}) -> {d}) -> "
    r"fn({c}) -> {d}. 0 in f(id)"
)

DEFAULT = (
    r"concept D<t> {{ pick : fn(t) -> t; "
    r"twice : forall {u}. fn(t) -> t = /\{u}. \x : t. D<t>.pick(x); }} in "
    r"let g = /\u. \y : list u. model D<list u> {{ pick = \z : list u. z; }}"
    r" in D<list u>.twice[int](y) in g[bool](cons[bool](true, nil[bool]))"
)

ITEM_10 = (
    r"concept C<c> { types elem; get : fn(c) -> elem; } in "
    r"let h = /\c where C<c>, C<c>.elem == int. "
    r"\g : forall a. fn(a) -> C<c>.elem. "
    r"let k = \f : forall a. fn(a) -> int. 0 in k(g) in 0"
)


def _run(text: str, ext: bool):
    return check_source(text, "<binders>", ext=ext, verify=True,
                        evaluate=True)


# -- nested alpha-variants ----------------------------------------------------


@pytest.mark.parametrize("ext", [False, True])
def test_nested_alpha_variants_check_as_one_type(ext):
    differ = _run(NESTED.format(c="c", d="d"), ext)
    alike = _run(NESTED.format(c="a", d="b"), ext)
    assert differ.ok, differ.report.render()
    assert alike.ok
    assert (str(differ.type_), differ.value, differ.verified) == (
        "int", 0, True)
    assert (str(alike.type_), alike.value, alike.verified) == (
        "int", 0, True)


def _rename_binders(t: G.FGType, pick, env=None) -> G.FGType:
    """``t`` with each binder ``v`` renamed ``pick.get(v, v)`` and its bound
    occurrences with it, capturing whatever the new name captures."""
    env = env or {}
    if isinstance(t, G.TVar):
        return G.TVar(env.get(t.name, t.name))
    if isinstance(t, G.TForall):
        inner = dict(env)
        vars_ = tuple(pick.get(v, v) for v in t.vars)
        inner.update(zip(t.vars, vars_))
        return G.TForall(
            vars_,
            tuple(_rename_binders(r, pick, inner) for r in t.requirements),
            tuple(G.SameType(_rename_binders(s.left, pick, inner),
                             _rename_binders(s.right, pick, inner))
                  for s in t.same_types),
            _rename_binders(t.body, pick, inner),
        )
    return t.remake(tuple(_rename_binders(p, pick, env) for p in t.parts))


def _closed_over(t: G.FGType) -> G.TForall:
    # Bind one name around the type, so every pair compared is a forall.
    return G.TForall(("a",), (), (), t)


_renamings = st.dictionaries(_names, _names, max_size=3)


@given(g_types(), _renamings, _renamings)
@settings(max_examples=400, deadline=None)
def test_alpha_keys_agree_with_the_every_depth_printer(t, one, other):
    left = _closed_over(_rename_binders(t, one))
    right = _closed_over(_rename_binders(t, other))
    same_key = left.alpha_key is right.alpha_key
    assert same_key == (canonical(left) == canonical(right))


@given(g_types(), g_types())
@settings(max_examples=200, deadline=None)
def test_unrelated_types_share_a_key_only_when_printed_alike(t, u):
    left, right = _closed_over(t), _closed_over(u)
    assert (left.alpha_key is right.alpha_key) == (
        canonical(left) == canonical(right))


# -- substitution under a default's binder --------------------------------------


def test_a_default_binder_that_would_capture_is_renamed():
    captures = _run(DEFAULT.format(u="u"), ext=True)
    renamed = _run(DEFAULT.format(u="v"), ext=True)
    assert captures.ok, captures.report.render()
    assert renamed.ok
    assert (str(captures.type_), captures.value, captures.verified) == (
        str(renamed.type_), renamed.value, renamed.verified)
    assert (str(captures.type_), captures.value) == ("list bool", [True])
    # Up to alpha: the default's binder is ``u#1`` where the other spelling
    # wrote ``v``.
    text = pretty_term(captures.translation)
    assert "u#1" in text
    assert text.replace("u#1", "v") == pretty_term(renamed.translation)


@pytest.mark.parametrize("binder", ["u", "v"])
def test_the_default_agrees_with_the_direct_interpreter(binder):
    text = DEFAULT.format(u=binder)
    assert interpret(parse_fg(text)) == [True]
    assert _run(text, ext=True).value == [True]


#: A ``type`` alias in a default binds its name in its body: one that
#: shadows the concept's parameter, and one that would capture the type
#: substituted for it.  Each spelling checks, verifies and evaluates as the
#: spelling with a fresh alias name does.
ALIASES = [
    (r"concept D<t> {{ pick : fn(int) -> int = type {a} = int in "
     r"\x : {a}. x; }} in model D<bool> {{ }} in D<bool>.pick(3)",
     "t", "int", 3),
    (r"concept D<t> {{ pick : fn(t) -> t = type {a} = int in \x : t. x; }} "
     r"in let g = /\s. \y : s. model D<s> {{ }} in D<s>.pick(y) "
     r"in g[bool](true)",
     "s", "bool", True),
]


@pytest.mark.parametrize("text, binder, type_, value", ALIASES,
                         ids=["shadows", "captures"])
def test_a_default_alias_binds_its_name(text, binder, type_, value):
    for name in (binder, "fresh"):
        out = _run(text.format(a=name), ext=True)
        assert out.ok, out.report.render()
        assert (str(out.type_), out.value, out.verified) == (
            type_, value, True)
        assert interpret(parse_fg(text.format(a=name))) == value


# -- equalities under binders (ROADMAP item 10) --------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: equalities in scope do not reach under a forall "
    "binder, so C<c>.elem == int is not seen inside forall a. fn(a) -> "
    "C<c>.elem"))
@pytest.mark.parametrize("ext", [False, True])
def test_equalities_in_scope_reach_under_a_binder(ext):
    out = _run(ITEM_10, ext)
    assert out.ok, out.report.render()
    assert (out.value, out.verified) == (0, True)
