"""F_G types are hash-consed: one object per structure, held weakly.

Every constructor returns the type already built from the same class and
fields, so structural equality is identity.  These tests pin that for every
way the checker builds types (constructors, the parser, ``substitute``,
``remake`` and the solver's representatives built with it, and the System F
importer ``_sf_type_to_fg``), that a type's ``parts`` and ``shape``
describe it, that copies and pickles come back as the interned object, that
the flags a type stores agree with a walk of it, and that the table gives
types back once the programs that built them are dropped.  A ``forall``
type's ``alpha_key`` is the type with every binder renamed by position; it
prints as the independent every-depth printer
(:func:`~test_substitution_reference.canonical`) prints the type.
"""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.fg import ast as G
from repro.fg.congruence import CongruenceSolver
from repro.fg.env import _sf_type_to_fg
from repro.pipeline import check_source
from repro.syntax import parse_fg_type
from repro.systemf import ast as F

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "properties"))
sys.path.insert(0, str(ROOT / "tests" / "fg"))
from test_congruence_properties import _types  # noqa: E402
from test_substitution_reference import canonical  # noqa: E402


def rebuild(t: G.FGType) -> G.FGType:
    """A structural copy of ``t`` through the constructors, bottom-up."""
    if isinstance(t, G.TVar):
        return G.TVar("".join(t.name))
    if isinstance(t, G.TBase):
        return G.TBase("".join(t.name))
    if isinstance(t, G.ErrorType):
        return G.ErrorType()
    if isinstance(t, G.TList):
        return G.TList(rebuild(t.elem))
    if isinstance(t, G.TFn):
        return G.TFn([rebuild(p) for p in t.params], rebuild(t.result))
    if isinstance(t, G.TTuple):
        return G.TTuple([rebuild(i) for i in t.items])
    if isinstance(t, G.TAssoc):
        return G.TAssoc(t.concept, [rebuild(a) for a in t.args], t.member)
    if isinstance(t, G.ConceptReq):
        return G.ConceptReq(t.concept, [rebuild(a) for a in t.args])
    if isinstance(t, G.TForall):
        return G.TForall(
            list(t.vars),
            [rebuild(r) for r in t.requirements],
            [G.SameType(rebuild(s.left), rebuild(s.right))
             for s in t.same_types],
            rebuild(t.body),
        )
    raise AssertionError(t)


def walk_contains_error(t: G.FGType) -> bool:
    if isinstance(t, G.ErrorType):
        return True
    if isinstance(t, (G.TVar, G.TBase)):
        return False
    return any(map(walk_contains_error, children(t)))


def walk_contains_forall(t: G.FGType) -> bool:
    return isinstance(t, G.TForall) or any(
        map(walk_contains_forall, children(t)))


def walk_contains_assoc(t: G.FGType) -> bool:
    return isinstance(t, G.TAssoc) or any(
        map(walk_contains_assoc, children(t)))


def walk_free_vars(t: G.FGType) -> frozenset:
    if isinstance(t, G.TVar):
        return frozenset((t.name,))
    out = frozenset()
    for c in children(t):
        out |= walk_free_vars(c)
    if isinstance(t, G.TForall):
        out -= frozenset(t.vars)
    return out


def children(t: G.FGType):
    if isinstance(t, G.TList):
        return (t.elem,)
    if isinstance(t, G.TFn):
        return t.params + (t.result,)
    if isinstance(t, G.TTuple):
        return t.items
    if isinstance(t, (G.TAssoc, G.ConceptReq)):
        return t.args
    if isinstance(t, G.TForall):
        sides = tuple(x for s in t.same_types for x in (s.left, s.right))
        return (t.body,) + t.requirements + sides
    return ()


def _forall(body: G.FGType) -> G.TForall:
    return G.TForall(
        ("a",),
        (G.ConceptReq("C", (G.TVar("a"),)),),
        (G.SameType(G.TAssoc("C", (G.TVar("a"),), "s"), body),),
        G.TFn((G.TVar("a"), body), body),
    )


#: Every constructor, each able to hold a ``forall`` somewhere below it.
_WRAPPERS = (
    G.TList,
    lambda t: G.TFn((G.INT, t), G.BOOL),
    lambda t: G.TFn((), t),
    lambda t: G.TTuple((t, G.TVar("a"))),
    lambda t: G.TAssoc("C", (t,), "s"),
    lambda t: G.ConceptReq("C", (G.INT, t)),
    lambda t: G.TForall(("b",), (G.ConceptReq("C", (t,)),), (), G.INT),
    lambda t: G.TForall(("b",), (), (G.SameType(G.TVar("b"), t),), G.INT),
    _forall,
)


def _wrap(pair):
    t, wrappers = pair
    for wrap in wrappers:
        t = _WRAPPERS[wrap](t)
    return t


_all_types = st.one_of(
    _types(),
    _types().map(_forall),
    _types().map(lambda t: G.TFn((t,), G.ERROR)),
    st.tuples(_types(), st.lists(st.integers(0, len(_WRAPPERS) - 1),
                                 max_size=3)).map(_wrap),
)


# -- one object per structure -------------------------------------------------


@given(_all_types)
@settings(max_examples=200, deadline=None)
def test_structurally_equal_types_are_one_object(t):
    assert rebuild(t) is t
    assert hash(rebuild(t)) == hash(t)


def test_distinct_structures_stay_distinct():
    assert G.TVar("int") is not G.INT
    assert G.TList(G.INT) is not G.TList(G.BOOL)
    assert G.TFn((), G.INT) is not G.TTuple((G.INT,))
    assert G.ErrorType() is G.ERROR


def test_parser_builds_interned_types():
    text = "forall t where C<t>; C<t>.s == int. fn(list t, (t * bool)) -> C<t>.s"
    t = parse_fg_type(text)
    assert parse_fg_type(text) is t
    assert t is G.TForall(
        ("t",),
        (G.ConceptReq("C", (G.TVar("t"),)),),
        (G.SameType(G.TAssoc("C", (G.TVar("t"),), "s"), G.INT),),
        G.TFn(
            (G.TList(G.TVar("t")), G.TTuple((G.TVar("t"), G.BOOL))),
            G.TAssoc("C", (G.TVar("t"),), "s"),
        ),
    )


def test_substitute_builds_interned_types():
    a, b = G.TVar("a"), G.TVar("b")
    t = G.TFn((G.TList(a),), G.TAssoc("C", (a,), "s"))
    assert G.substitute(t, {"a": b}) is G.TFn(
        (G.TList(b),), G.TAssoc("C", (b,), "s")
    )


def test_substitute_returns_types_without_domain_variables_unchanged():
    t = G.TFn((G.TList(G.TVar("a")),), G.INT)
    assert G.substitute(t, {"b": G.BOOL}) is t
    # A bound variable is not free: the forall is returned as is.
    poly = G.TForall(("b",), (), (), G.TList(G.TVar("b")))
    assert G.substitute(poly, {"b": G.INT}) is poly


def test_recompose_builds_interned_types():
    a = G.TVar("a")
    assert G.TFn((G.BOOL,), G.BOOL).remake((a, G.INT)) is G.TFn((a,), G.INT)
    assert G.TAssoc("C", (G.INT,), "s").remake((a,)) is G.TAssoc(
        "C", (a,), "s")
    solver = CongruenceSolver()
    solver.merge(a, G.INT)
    assert solver.representative(G.TList(a)) is G.TList(G.INT)
    assert solver.representative(G.TFn((a,), a)) is G.TFn((G.INT,), G.INT)
    assert solver.representative(G.TAssoc("C", (a,), "s")) is G.TAssoc(
        "C", (G.INT,), "s")


def test_system_f_import_builds_interned_types():
    sf = F.TForall(("a",), F.TFn((F.TVar("a"), F.TList(F.TBase("int"))),
                                 F.TTuple((F.TVar("a"),))))
    assert _sf_type_to_fg(sf) is G.TForall(
        ("a",), (), (),
        G.TFn((G.TVar("a"), G.TList(G.INT)), G.TTuple((G.TVar("a"),))),
    )


# -- copies, pickles, immutability --------------------------------------------


@given(_all_types)
@settings(max_examples=100, deadline=None)
def test_copies_and_pickles_are_the_interned_object(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t


def test_pickle_rebuilds_a_type_that_died_meanwhile():
    data = pickle.dumps(G.TList(G.TVar("only-in-this-pickle")))
    gc.collect()
    back = pickle.loads(data)
    assert back is G.TList(G.TVar("only-in-this-pickle"))


def test_a_rebuilt_forall_recomputes_its_flags_and_key():
    def build():
        v = G.TVar("only-in-this-pickle")
        return G.TList(G.TForall(("x",), (), (),
                                 G.TFn((G.TVar("x"),), v)))

    data = pickle.dumps(build())
    before = build().elem.alpha_key
    gc.collect()
    back = pickle.loads(data)
    assert back.contains_forall and not back.contains_error
    assert back.elem.alpha_key is before
    assert canonical(before) == canonical(back.elem)
    assert back.free_vars == frozenset(("only-in-this-pickle",))


def test_types_are_immutable():
    t = G.TVar("a")
    with pytest.raises(AttributeError):
        t.name = "b"
    with pytest.raises(AttributeError):
        del t.name
    assert repr(G.TFn((t,), G.INT)) == (
        "TFn(params=(TVar(name='a'),), result=TBase(name='int'))"
    )


# -- stored flags ---------------------------------------------------------------


def assert_flags(t: G.FGType) -> None:
    assert t.contains_error == walk_contains_error(t)
    assert t.contains_forall == walk_contains_forall(t)
    assert t.contains_assoc == walk_contains_assoc(t)
    assert t.free_vars == walk_free_vars(t) == G.free_type_vars(t)


@given(_all_types)
@settings(max_examples=300, deadline=None)
def test_stored_flags_agree_with_a_walk(t):
    assert_flags(t)
    for c in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert_flags(c)


@given(_all_types, st.sampled_from("abcx"),
       st.sampled_from([G.INT, G.ERROR, _forall(G.TVar("a")),
                        G.TList(_forall(G.INT))]))
@settings(max_examples=300, deadline=None)
def test_flags_after_substitute_agree_with_a_walk(t, name, value):
    assert_flags(G.substitute(t, {name: value}))


def _foralls_in(t: G.FGType):
    if isinstance(t, G.TForall):
        yield t
    for c in children(t):
        yield from _foralls_in(c)


@given(_all_types)
@settings(max_examples=200, deadline=None)
def test_alpha_key_is_the_canonical_form(t):
    for f in _foralls_in(t):
        key = f.alpha_key
        assert isinstance(key, G.TForall)
        assert canonical(key) == canonical(f)
        # Read twice: the stored key.  A key is its own key.
        assert f.alpha_key is key
        assert key.alpha_key is key


def test_alpha_variants_share_a_key():
    a, b = G.TVar("a"), G.TVar("b")
    left = G.TForall(("a",), (G.ConceptReq("C", (a,)),), (), G.TFn((a,), b))
    right = G.TForall(("c",), (G.ConceptReq("C", (G.TVar("c"),)),), (),
                      G.TFn((G.TVar("c"),), b))
    assert left is not right
    assert left.alpha_key is right.alpha_key
    assert str(left.alpha_key) == "forall @0 where C<@0>. fn(@0) -> b"
    # A free variable is not renamed: binding another one changes the key.
    other = G.TForall(("b",), (G.ConceptReq("C", (b,)),), (), G.TFn((b,), b))
    assert other.alpha_key is not left.alpha_key


def test_binders_are_numbered_in_pre_order_at_every_depth():
    def nest(x, y, z):
        inner = G.TForall((y,), (), (), G.TFn((G.TVar(x),), G.TVar(y)))
        return G.TForall((x,), (), (), G.TTuple((inner, G.TForall(
            (z,), (), (), G.TList(G.TVar(z))))))

    assert nest("a", "b", "c").alpha_key is nest("p", "q", "p").alpha_key
    assert str(nest("a", "b", "c").alpha_key) == (
        "forall @0. (forall @1. fn(@0) -> @1 * forall @2. list @2)")


# -- one statement of structure -------------------------------------------------


def _subterms(t: G.FGType):
    yield t
    for c in children(t):
        yield from _subterms(c)


@given(_all_types)
@settings(max_examples=200, deadline=None)
def test_remake_of_own_parts_is_the_type(t):
    for s in _subterms(t):
        assert s.remake(s.parts) is s
        assert isinstance(s.parts, tuple)
        hash(s.shape)


@given(st.lists(_all_types, min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_class_shape_and_parts_tell_types_apart(ts):
    # A forall's shape is its alpha key, which alpha-variants share; the
    # key tests above cover it.
    seen = {}
    for t in ts:
        for s in _subterms(t):
            if not isinstance(s, G.TForall):
                seen.setdefault((type(s), s.shape, s.parts), set()).add(id(s))
    assert all(len(ids) == 1 for ids in seen.values())


# -- threads ------------------------------------------------------------------


def test_threads_building_one_structure_get_one_object():
    # Checks run in threads of one process.  Every thread builds the same
    # fresh structures at once, with thread switches as frequent as the
    # interpreter allows; a lost race would hand two threads two objects.
    threads, rounds = 8, 300
    results = [[] for _ in range(threads)]
    start = threading.Barrier(threads)

    def build(out):
        start.wait()
        for i in range(rounds):
            leaf = G.TVar(f"race{i}")
            out.append(G.TFn((G.TList(leaf), leaf), G.TTuple((leaf,))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(out,))
                   for out in results]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    for i in range(rounds):
        assert len({id(out[i]) for out in results}) == 1, i


# -- the table gives types back -----------------------------------------------


def _program(i: int) -> str:
    # Type variable and concept names unique to ``i``, so every program
    # builds types no other program shares.
    return (
        f"concept It{i}<I> {{ types elt; get : fn(I) -> elt; }} in\n"
        f"let f = /\\J{i} where It{i}<J{i}>; It{i}<J{i}>.elt == int.\n"
        f"  \\x : J{i}. iadd(It{i}<J{i}>.get(x), 1) in\n"
        f"model It{i}<list bool> {{ types elt = int;"
        f" get = \\l : list bool. {i}; }} in\n"
        f"f[list bool](nil[bool])"
    )


def _table_size() -> int:
    gc.collect()
    return len(G._TABLE)


def test_table_shrinks_after_programs_are_dropped():
    assert check_source(_program(0), "p0").ok
    baseline = _table_size()
    kept = [check_source(_program(i), f"p{i}") for i in range(1, 21)]
    assert all(out.ok for out in kept)
    assert _table_size() > baseline + 20
    del kept
    assert _table_size() <= baseline
