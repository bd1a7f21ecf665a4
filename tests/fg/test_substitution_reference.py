"""Capture-avoiding substitution names renamed binders by a rule, and
answers as the counter-based substitution did, up to alpha.

The reference is the substitution of System F and of F_G as they were when
a renamed binder took its number from one process-wide counter
(``ref_f_substitute``, ``ref_g_substitute``, verbatim but for the counter,
which is local here and skips a name already in play at the binder: a
counter name like ``elem%1`` can also be a key of the substitution).  The
shipped ones name a renamed binder by ``repro.systemf.ast.rename_binders``.
The tests compare, up to alpha:

- generated types and substitutions over a few names, so binders collide
  with the free variables of the substituted types, for System F
  (``types_equal``) and F_G (``canonical`` below);
- that no free variable of a substituted type is captured: the result's
  free variables are exactly the type's, less those substituted, plus
  those of what replaced them;
- hand cases: a first candidate name already taken (free in the
  ``forall``, in the substitution's domain, or another binder), a
  binder the checker minted (``elem%1``), and a program whose check
  renames a binder named like the associated-type variable and
  dictionary the checker mints beside it.
"""

from __future__ import annotations

import itertools
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fg import ast as G
from repro.pipeline import check_source
from repro.systemf import ast as F
from repro.systemf import pretty_term

# -- the reference: renamed binders numbered by a counter ---------------------

_counter = itertools.count()


def ref_fresh(base: str, taken) -> str:
    """The next counter name for ``base`` that is not ``taken``: a name
    free in the ``forall``, bound beside it, substituted for or free in
    what replaces it would be captured or replaced."""
    while True:
        name = f"{base}%{next(_counter)}"
        if name not in taken:
            return name


def ref_f_substitute(t: F.Type, subst) -> F.Type:
    if not subst:
        return t
    if isinstance(t, F.TVar):
        return subst.get(t.name, t)
    if isinstance(t, F.TBase):
        return t
    if isinstance(t, F.TList):
        return F.TList(ref_f_substitute(t.elem, subst))
    if isinstance(t, F.TFn):
        return F.TFn(
            tuple(ref_f_substitute(p, subst) for p in t.params),
            ref_f_substitute(t.result, subst),
        )
    if isinstance(t, F.TTuple):
        return F.TTuple(tuple(ref_f_substitute(i, subst) for i in t.items))
    if isinstance(t, F.TForall):
        inner = {k: v for k, v in subst.items() if k not in t.vars}
        if not inner:
            return t
        captured = frozenset()
        for v in inner.values():
            captured |= F.free_type_vars(v)
        taken = captured | set(inner) | set(t.vars) | F.free_type_vars(t)
        new_vars = []
        renaming = {}
        for var in t.vars:
            if var in captured:
                fresh = ref_fresh(var.split("%")[0], taken)
                renaming[var] = F.TVar(fresh)
                new_vars.append(fresh)
            else:
                new_vars.append(var)
        body = ref_f_substitute(t.body, renaming) if renaming else t.body
        return F.TForall(tuple(new_vars), ref_f_substitute(body, inner))
    raise AssertionError(f"unknown type node: {t!r}")


def ref_g_substitute(t: G.FGType, subst) -> G.FGType:
    if not subst or t.free_vars.isdisjoint(subst):
        return t
    if isinstance(t, G.TVar):
        return subst[t.name]
    if isinstance(t, G.TList):
        return G.TList(ref_g_substitute(t.elem, subst))
    if isinstance(t, G.TFn):
        return G.TFn(
            tuple(ref_g_substitute(p, subst) for p in t.params),
            ref_g_substitute(t.result, subst),
        )
    if isinstance(t, G.TTuple):
        return G.TTuple(tuple(ref_g_substitute(i, subst) for i in t.items))
    if isinstance(t, G.ConceptReq):
        return G.ConceptReq(
            t.concept, tuple(ref_g_substitute(a, subst) for a in t.args))
    if isinstance(t, G.TAssoc):
        return G.TAssoc(
            t.concept, tuple(ref_g_substitute(a, subst) for a in t.args),
            t.member,
        )
    if isinstance(t, G.TForall):
        inner = {k: v for k, v in subst.items() if k not in t.vars}
        captured = frozenset()
        for v in inner.values():
            captured |= v.free_vars
        taken = captured | set(inner) | set(t.vars) | t.free_vars
        renaming = {}
        new_vars = []
        for var in t.vars:
            if var in captured:
                fresh = ref_fresh(var.split("%")[0], taken)
                renaming[var] = G.TVar(fresh)
                new_vars.append(fresh)
            else:
                new_vars.append(var)
        reqs, sames, body = t.requirements, t.same_types, t.body
        if renaming:
            reqs = tuple(ref_g_substitute(r, renaming) for r in reqs)
            sames = tuple(
                G.SameType(ref_g_substitute(s.left, renaming),
                           ref_g_substitute(s.right, renaming))
                for s in sames
            )
            body = ref_g_substitute(body, renaming)
        return G.TForall(
            tuple(new_vars),
            tuple(ref_g_substitute(r, inner) for r in reqs),
            tuple(
                G.SameType(ref_g_substitute(s.left, inner),
                           ref_g_substitute(s.right, inner))
                for s in sames
            ),
            ref_g_substitute(body, inner),
        )
    raise AssertionError(f"unknown F_G type node: {t!r}")


# -- alpha-equivalence of F_G types -------------------------------------------


def canonical(t: G.FGType, env=None, depth=0) -> str:
    """``t`` printed with every binder, at every depth, named by its
    depth: the independent reference for ``TForall.alpha_key``, which the
    congruence-reference and interning tests import too.  ``env`` maps each
    binder in scope to its name here; ``depth`` binders enclose ``t``."""
    env = env or {}

    def go(u):
        return canonical(u, env, depth)

    if isinstance(t, G.TVar):
        return env.get(t.name, t.name)
    if isinstance(t, G.TBase):
        return t.name
    if isinstance(t, G.TList):
        return f"list {go(t.elem)}"
    if isinstance(t, G.TFn):
        return f"fn({', '.join(map(go, t.params))}) -> {go(t.result)}"
    if isinstance(t, G.TTuple):
        return "(" + " * ".join(map(go, t.items)) + ")"
    if isinstance(t, (G.ConceptReq, G.TAssoc)):
        member = f".{t.member}" if isinstance(t, G.TAssoc) else ""
        return f"{t.concept}<{', '.join(map(go, t.args))}>{member}"
    assert isinstance(t, G.TForall)
    inner = dict(env)
    for i, var in enumerate(t.vars):
        inner[var] = f"@{depth + i}"
    depth += len(t.vars)
    clauses = [canonical(r, inner, depth) for r in t.requirements]
    clauses += [f"{canonical(s.left, inner, depth)} == "
                f"{canonical(s.right, inner, depth)}" for s in t.same_types]
    names = ", ".join(inner[v] for v in t.vars)
    return (f"forall {names} where {'; '.join(clauses)}. "
            f"{canonical(t.body, inner, depth)}")


def expected_free(free, t, subst) -> frozenset:
    """The free variables a capture-avoiding ``[subst]t`` has."""
    hit = free(t) & set(subst)
    out = free(t) - hit
    for name in hit:
        out |= free(subst[name])
    return out


# -- generated types ----------------------------------------------------------

#: Few names, so binders collide with the substituted types' free
#: variables; one spelled as the checker mints and one as a renamed binder,
#: so a rule that ignored a name already taken would show.
_names = st.sampled_from(["a", "b", "c", "elem", "elem%1", "b#1"])


def f_types():
    base = st.one_of(_names.map(F.TVar), st.sampled_from([F.INT, F.BOOL]))

    def extend(children):
        binders = st.lists(_names, min_size=1, max_size=2, unique=True)
        return st.one_of(
            children.map(F.TList),
            st.tuples(st.lists(children, max_size=2), children).map(
                lambda p: F.TFn(tuple(p[0]), p[1])),
            st.lists(children, min_size=2, max_size=2).map(
                lambda items: F.TTuple(tuple(items))),
            st.tuples(binders, children).map(
                lambda p: F.TForall(tuple(p[0]), p[1])),
        )

    return st.recursive(base, extend, max_leaves=10)


def g_types():
    base = st.one_of(_names.map(G.TVar), st.sampled_from([G.INT, G.BOOL]))

    def extend(children):
        binders = st.lists(_names, min_size=1, max_size=2, unique=True)
        foralls = st.tuples(
            binders, st.lists(children, max_size=1),
            st.lists(st.tuples(children, children), max_size=1), children,
        ).map(lambda p: G.TForall(
            tuple(p[0]),
            tuple(G.ConceptReq("C", (a,)) for a in p[1]),
            tuple(G.SameType(x, y) for x, y in p[2]),
            p[3],
        ))
        return st.one_of(
            children.map(G.TList),
            st.tuples(st.lists(children, max_size=2), children).map(
                lambda p: G.TFn(tuple(p[0]), p[1])),
            st.lists(children, min_size=2, max_size=2).map(
                lambda items: G.TTuple(tuple(items))),
            children.map(lambda a: G.TAssoc("C", (a,), "elem")),
            foralls,
        )

    return st.recursive(base, extend, max_leaves=10)


@given(f_types(), st.dictionaries(_names, f_types(), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_system_f_matches_the_counter_reference(t, subst):
    got = F.substitute(t, subst)
    assert F.types_equal(got, ref_f_substitute(t, subst))
    assert F.free_type_vars(got) == expected_free(F.free_type_vars, t, subst)
    assert F.substitute(t, subst) == got  # pure: the same names again


@given(g_types(), st.dictionaries(_names, g_types(), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_f_g_matches_the_counter_reference(t, subst):
    got = G.substitute(t, subst)
    assert canonical(got) == canonical(ref_g_substitute(t, subst))
    assert G.free_type_vars(got) == expected_free(G.free_type_vars, t, subst)
    assert G.substitute(t, subst) is got  # pure and hash-consed


# -- hand cases ---------------------------------------------------------------


def test_a_taken_first_candidate_is_skipped():
    # ``b`` is captured by ``a := b``; ``b#1`` is free in the forall, so
    # the rule moves on to ``b#2``.
    a, b, b1 = F.TVar("a"), F.TVar("b"), F.TVar("b#1")
    t = F.TForall(("b",), F.TFn((a, b, b1), b))
    got = F.substitute(t, {"a": b})
    b2 = F.TVar("b#2")
    assert got == F.TForall(("b#2",), F.TFn((b, b2, b1), b2))
    assert F.types_equal(got, ref_f_substitute(t, {"a": b}))
    # ``b#1`` is in the substitution's domain: renaming ``b`` to it would
    # have the substitution replace the renamed binder.
    t = F.TForall(("b",), F.TFn((a, b), b))
    got = F.substitute(t, {"a": b, "b#1": F.INT})
    assert got == F.TForall(("b#2",), F.TFn((b, b2), b2))
    # ``b#1`` is another binder of the same forall.
    t = F.TForall(("b", "b#1"), F.TFn((a, b, b1), b))
    got = F.substitute(t, {"a": b})
    assert got == F.TForall(("b#2", "b#1"), F.TFn((b, b2, b1), b2))
    # Two captured binders with one base: the second skips the first's
    # new name.
    t = F.TForall(("b", "b%0"), F.TFn((a, b, F.TVar("b%0")), a))
    got = F.substitute(t, {"a": F.TTuple((b, F.TVar("b%0")))})
    assert got.vars == ("b#1", "b#2")
    # The same in F_G, where the candidate is free in a requirement.
    ga, gb = G.TVar("a"), G.TVar("b")
    t = G.TForall(("b",), (G.ConceptReq("C", (G.TVar("b#1"),)),), (),
                  G.TFn((ga, gb), gb))
    got = G.substitute(t, {"a": gb})
    assert got.vars == ("b#2",)
    assert canonical(got) == canonical(ref_g_substitute(t, {"a": gb}))
    t = G.TForall(("b",), (), (), G.TFn((ga, gb), gb))
    got = G.substitute(t, {"a": gb, "b#1": G.INT})
    assert got == G.TForall(("b#2",), (), (), G.TFn((gb, G.TVar("b#2")),
                                                    G.TVar("b#2")))


def test_a_checker_minted_binder_is_renamed_from_its_base():
    # ``elem%1`` is how the checker spells an associated-type variable; a
    # renamed binder is spelled ``elem#k`` and so never equals one.
    a, minted = F.TVar("a"), F.TVar("elem%1")
    t = F.TForall(("elem%1",), F.TFn((a, minted), a))
    got = F.substitute(t, {"a": minted})
    assert got == F.TForall(("elem#1",), F.TFn((minted, F.TVar("elem#1")),
                                               minted))
    assert F.types_equal(got, ref_f_substitute(t, {"a": minted}))
    ga, gminted = G.TVar("a"), G.TVar("elem%1")
    t = G.TForall(("elem%1",), (G.ConceptReq("C", (gminted,)),), (),
                  G.TFn((ga, gminted), G.TAssoc("C", (gminted,), "elem")))
    got = G.substitute(t, {"a": gminted})
    assert got.vars == ("elem#1",)
    assert canonical(got) == canonical(ref_g_substitute(t, {"a": gminted}))


#: ``k[elem]`` renames ``k``'s binder ``elem`` inside ``h``, whose where
#: clause makes the checker mint ``C_dict%0`` and ``elem%1``.
BESIDE_MINTED = r"""concept C<c> { types elem; get : fn(c) -> elem; } in
let k = /\a. /\elem. \x : a, y : elem. x in
let h = /\elem where C<elem>, C<elem>.elem == int.
  \z : elem. k[elem][bool](z, true) in
0"""


def test_a_renamed_binder_beside_checker_minted_names():
    renamed = []

    def spy(binders, captured, avoid):
        result = F.rename_binders(binders, captured, avoid)
        renamed.append(result[1])
        return result

    with mock.patch.object(G, "rename_binders", spy):
        out = check_source(BESIDE_MINTED, "<input>", verify=True,
                           evaluate=True)
    # As the counter-based checker answered: it checks, verifies and
    # evaluates.
    assert (str(out.type_), out.verified, out.value) == ("int", True, 0)
    assert out.report.render() == ""
    assert {"elem": "elem#1"} in renamed
    text = pretty_term(out.translation)
    assert "C_dict%0" in text and "elem%1" in text
    assert "#" not in text
