"""Property-based tests for System F type operations (substitution lemmas)."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.systemf import ast as F

_names = st.sampled_from(["a", "b", "c", "d"])


def types():
    base = st.one_of(_names.map(F.TVar), st.just(F.INT), st.just(F.BOOL))

    def extend(children):
        return st.one_of(
            children.map(F.TList),
            st.tuples(children, children).map(
                lambda p: F.TFn((p[0],), p[1])
            ),
            st.tuples(children, children).map(lambda p: F.TTuple(p)),
            st.tuples(_names, children).map(
                lambda p: F.TForall((p[0],), p[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=10)


@given(types())
@settings(max_examples=300, deadline=None)
def test_alpha_reflexive(t):
    assert F.types_equal(t, t)


@given(types(), types())
@settings(max_examples=300, deadline=None)
def test_alpha_symmetric(a, b):
    assert F.types_equal(a, b) == F.types_equal(b, a)


@given(types())
@settings(max_examples=300, deadline=None)
def test_empty_substitution_identity(t):
    assert F.substitute(t, {}) == t


@given(types(), _names)
@settings(max_examples=300, deadline=None)
def test_substituting_absent_var_is_identity(t, name):
    assume(name not in F.free_type_vars(t))
    assert F.types_equal(F.substitute(t, {name: F.INT}), t)


@given(types(), _names, types())
@settings(max_examples=300, deadline=None)
def test_substitution_removes_free_var(t, name, replacement):
    assume(name not in F.free_type_vars(replacement))
    result = F.substitute(t, {name: replacement})
    assert name not in F.free_type_vars(result)


@given(types(), _names, types())
@settings(max_examples=300, deadline=None)
def test_substitution_free_vars_bounded(t, name, replacement):
    result = F.substitute(t, {name: replacement})
    allowed = (F.free_type_vars(t) - {name}) | F.free_type_vars(replacement)
    assert F.free_type_vars(result) <= allowed


@given(types(), _names, types())
@settings(max_examples=200, deadline=None)
def test_substitution_respects_alpha(t, name, replacement):
    """Substituting into alpha-equivalent types yields alpha-equivalent
    results (exercises capture avoidance)."""
    renamed = _rename_binders(t)
    assert F.types_equal(t, renamed)
    s1 = F.substitute(t, {name: replacement})
    s2 = F.substitute(renamed, {name: replacement})
    assert F.types_equal(s1, s2)


def _rename_binders(t: F.Type) -> F.Type:
    """Freshen every forall binder (alpha-equivalent copy)."""
    if isinstance(t, F.TForall):
        fresh, _ = F.rename_binders(
            t.vars, frozenset(t.vars), F.free_type_vars(t))
        body = F.substitute(
            t.body, {v: F.TVar(f) for v, f in zip(t.vars, fresh)}
        )
        return F.TForall(fresh, _rename_binders(body))
    if isinstance(t, F.TList):
        return F.TList(_rename_binders(t.elem))
    if isinstance(t, F.TFn):
        return F.TFn(
            tuple(_rename_binders(p) for p in t.params),
            _rename_binders(t.result),
        )
    if isinstance(t, F.TTuple):
        return F.TTuple(tuple(_rename_binders(i) for i in t.items))
    return t
