"""Type equality with its shortcuts answers exactly as the full solver did.

The reference below is type equality as it was before ``Checker.equal``
took its reflexive shortcut, ``Checker.rep`` its no-equality shortcut, and
``CongruenceSolver`` memoized representatives and class extractions:
:class:`RefSolver` re-interns every query, re-extracts every class and
keys every ``forall`` by a freshly printed alpha-canonical form (every
binder, at every depth, named by position: ``canonical`` in
``test_substitution_reference``),
:func:`ref_equal` and :func:`ref_rep` always build and ask a solver, and
:func:`ref_cache_solver` finds a cached solver by hashing the whole
equality tuple.  For each input the test compares

- solver answers (``equal``, ``representative``, ``class_contains_error``
  and any ``TypeError_`` a cyclic class raises) over operation sequences
  that interleave merges with queries, so a representative or a class
  extraction memoized before a merge would show.  The sequences include
  cyclic classes (``a == list a``, ``a == list b`` with ``b == list a``)
  and alpha-variant ``forall`` types, nested ones too;
- the same answers from a solver built by ``CongruenceSolver.extend`` on a
  parent (and grandparent) that already answered queries, against a
  replay of all the equalities, so a node a parent interned for a query
  cannot change a representative in its child;
- ``Checker.equal`` and ``Checker.rep`` under an environment's equalities,
  core and ext checkers;
- ``Checker.rep`` of closed types (no variable, ``forall``, associated type
  or poison) with the closed-type shortcut against the solver's
  representative without it (:func:`without_closed_shortcut`), in scopes
  whose solver must certify the shortcut (the prelude's equality, where
  clauses) and in scopes whose solver must not (``t == int``, two merged
  variables, a poisoned class, a deep closed type merged with a cheaper
  variable, a closed type whose tree costs more than an associated term),
  in generated scopes, and at every scope where checking the prelude-lib
  and generic-stress programs took the shortcut;
- the type, System F translation text, value and diagnostics of whole
  programs checked with the reference swapped in, then without it:
  ``examples/fg`` with and without the prelude, the fgbench workloads at
  seeds 1-3, and ``fg_gen`` programs, each under the core and ext checkers.

**What the shortcuts may change.**  Both concern terms the solver does not
intern any more, and neither reaches a checker's output:

- the node budget: ``Checker.equal(a, a)`` no longer interns ``a``, and
  ``Checker.rep(t, env)`` interns nothing when ``env`` has no equalities
  and ``t`` has no ``forall`` in it, or when ``t`` is closed and the
  scope's solver certifies closed types.  The corpus runs under the default
  budget, and ``tests/fg/test_limits.py`` pins that an over-budget
  equality set still ends in a ``limit="congruence"`` diagnostic.  Node
  ages do not move: a scope without equalities never merges, so its
  solver's classes stay singletons, and a child scope's solver copies only
  nodes that merges interned.  A closed type skipped under the
  certificate would only have been interned after the scope's last merge,
  as a singleton class no later merge of that solver touches.  ``forall``
  types, the only ones whose answer depends on which variant came first,
  still ask the solver;
- node age: while no poison node exists, ``class_contains_error(t)`` does not
  intern ``t``.  A representative breaks cost ties by node age, so a later
  merge of a never-interned ``t`` may pick another class member than the
  reference would (:func:`test_bare_poison_query_does_not_intern`).  The
  checker asks only after ``equal`` has interned both sides, and the
  operation sequences below ask the same way.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import ResourceLimitError
from repro.extensions.checker import ExtChecker
from repro.fg import ast as G
from repro.fg import congruence
from repro.fg.congruence import CongruenceSolver
from repro.fg.env import Env, SolverCache
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude import context as prelude_context
from repro.systemf import pretty_term

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "fg").glob("*.fg"))

sys.path.insert(0, str(ROOT / "tests" / "properties"))
sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(ROOT / "tests" / "fg"))
import workloads  # noqa: E402
from fg_gen import program_specs, same_type_specs  # noqa: E402
from test_congruence_properties import _types  # noqa: E402
from test_substitution_reference import canonical  # noqa: E402


# -- the reference solver -----------------------------------------------------

_COST_GROUND = 1
_COST_VAR = 5
_COST_ASSOC = 1_000_000
_COST_INFINITE = float("inf")


class RefSolver:
    """The congruence closure without memoized representatives or a poison
    flag: every query interns its terms and every representative is
    re-extracted from its class."""

    def __init__(self, max_nodes: Optional[int] = None):
        self._max_nodes = max_nodes
        self._labels: List[tuple] = []
        self._children: List[Tuple[int, ...]] = []
        self._uf_parent: List[int] = []
        self._uf_rank: List[int] = []
        self._use: Dict[int, List[int]] = {}
        self._members: Dict[int, List[int]] = {}
        self._sigtab: Dict[tuple, int] = {}
        self._opaque: Dict[int, G.FGType] = {}

    def _find(self, i: int) -> int:
        root = i
        while self._uf_parent[root] != root:
            root = self._uf_parent[root]
        while self._uf_parent[i] != root:
            self._uf_parent[i], i = root, self._uf_parent[i]
        return root

    def _new_node(self, label: tuple, children: Tuple[int, ...]) -> int:
        i = len(self._labels)
        if self._max_nodes is not None and i >= self._max_nodes:
            raise ResourceLimitError(
                f"type-equality solver exceeded its node budget "
                f"({self._max_nodes}); the same-type constraints in scope "
                "are too large for this run's limits",
                limit="congruence",
            )
        self._labels.append(label)
        self._children.append(children)
        self._uf_parent.append(i)
        self._uf_rank.append(0)
        self._use[i] = []
        self._members[i] = [i]
        return i

    def intern(self, t: G.FGType) -> int:
        return self._intern(t, {})

    def _intern(self, t: G.FGType, memo: Dict[int, int]) -> int:
        cached = memo.get(id(t))
        if cached is not None:
            return cached
        label, child_types, opaque = ref_decompose(t)
        children = tuple(self._intern(c, memo) for c in child_types)
        sig = (label,) + tuple(self._find(c) for c in children)
        existing = self._sigtab.get(sig)
        if existing is not None:
            memo[id(t)] = existing
            return existing
        node = self._new_node(label, children)
        self._sigtab[sig] = node
        for child in set(self._find(c) for c in children):
            self._use[child].append(node)
        if opaque is not None:
            self._opaque[node] = opaque
        memo[id(t)] = node
        return node

    def merge(self, a: G.FGType, b: G.FGType) -> None:
        worklist = [(self.intern(a), self.intern(b))]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self._find(x), self._find(y)
            if rx == ry:
                continue
            if self._uf_rank[rx] > self._uf_rank[ry]:
                rx, ry = ry, rx
            if self._uf_rank[rx] == self._uf_rank[ry]:
                self._uf_rank[ry] += 1
            self._uf_parent[rx] = ry
            self._members[ry].extend(self._members.pop(rx))
            moved = self._use.pop(rx)
            for parent in moved:
                sig = (self._labels[parent],) + tuple(
                    self._find(c) for c in self._children[parent]
                )
                other = self._sigtab.get(sig)
                if other is not None and self._find(other) != self._find(parent):
                    worklist.append((parent, other))
                else:
                    self._sigtab[sig] = parent
            self._use[ry].extend(moved)

    def equal(self, a: G.FGType, b: G.FGType) -> bool:
        return self._find(self.intern(a)) == self._find(self.intern(b))

    def class_contains_error(self, t: G.FGType) -> bool:
        root = self._find(self.intern(t))
        return any(self._labels[n] == ("error",) for n in self._members[root])

    def representative(self, t: G.FGType) -> G.FGType:
        node = self.intern(t)
        rep = self._extract(self._find(node), {})
        if rep is None:
            raise TypeError_(f"cyclic type equality involving {t}")
        return rep[1]

    def _extract(self, root: int, in_progress: Dict[int, bool]):
        if in_progress.get(root):
            return None
        in_progress[root] = True
        best = None
        for node in sorted(self._members[root]):
            entry = self._extract_node(node, in_progress)
            if entry is None:
                continue
            if best is None or entry[0] < best[0]:
                best = entry
        in_progress[root] = False
        return best

    def _extract_node(self, node: int, in_progress: Dict[int, bool]):
        label = self._labels[node]
        kind = label[0]
        child_results = []
        cost = (
            _COST_ASSOC if kind == "assoc"
            else _COST_VAR if kind == "var" else _COST_GROUND
        )
        for child in self._children[node]:
            sub = self._extract(self._find(child), in_progress)
            if sub is None:
                return None
            cost += sub[0]
            child_results.append(sub[1])
        if cost >= _COST_INFINITE:
            return None
        return (cost, ref_recompose(label, child_results,
                                    self._opaque.get(node)))


def ref_decompose(t: G.FGType):
    if isinstance(t, G.TVar):
        return (("var", t.name), (), None)
    if isinstance(t, G.TBase):
        return (("base", t.name), (), None)
    if isinstance(t, G.TList):
        return (("list",), (t.elem,), None)
    if isinstance(t, G.TFn):
        return (("fn", len(t.params)), tuple(t.params) + (t.result,), None)
    if isinstance(t, G.TTuple):
        return (("tuple", len(t.items)), tuple(t.items), None)
    if isinstance(t, G.TAssoc):
        return (("assoc", t.concept, t.member, len(t.args)), tuple(t.args), None)
    if isinstance(t, G.TForall):
        return (("forall", canonical(t)), (), t)
    if isinstance(t, G.ConceptReq):
        return (("req", t.concept, len(t.args)), tuple(t.args), None)
    if isinstance(t, G.ErrorType):
        return (("error",), (), None)
    raise AssertionError(f"unknown F_G type node: {t!r}")


def ref_recompose(label: tuple, children: List[G.FGType], opaque) -> G.FGType:
    kind = label[0]
    if kind == "var":
        return G.TVar(label[1])
    if kind == "base":
        return G.TBase(label[1])
    if kind == "list":
        return G.TList(children[0])
    if kind == "fn":
        return G.TFn(tuple(children[:-1]), children[-1])
    if kind == "tuple":
        return G.TTuple(tuple(children))
    if kind == "assoc":
        return G.TAssoc(label[1], tuple(children), label[2])
    if kind == "forall":
        return opaque
    if kind == "req":
        return G.ConceptReq(label[1], tuple(children))
    if kind == "error":
        return G.ERROR
    raise AssertionError(f"unknown label: {label!r}")


def ref_solver_for_equalities(equalities, max_nodes=None, **_observability):
    solver = RefSolver(max_nodes)
    for left, right in equalities:
        solver.merge(left, right)
    return solver


def ref_cache_solver(self: SolverCache, env: Env):
    """``SolverCache.solver`` keyed by the equality tuple's hash only."""
    key = env.equalities
    solver = self._cache.get(key)
    if solver is None:
        solver = ref_solver_for_equalities(key, self._max_nodes)
        self._cache[key] = solver
    return solver


def _contains_error(t: G.FGType) -> bool:
    """True when the recovery poison occurs anywhere inside ``t``, by walking
    it (the checker reads the flag a hash-consed type stores)."""
    if isinstance(t, G.ErrorType):
        return True
    if isinstance(t, (G.TVar, G.TBase)):
        return False
    if isinstance(t, G.TList):
        return _contains_error(t.elem)
    if isinstance(t, G.TFn):
        return any(map(_contains_error, t.params)) or _contains_error(t.result)
    if isinstance(t, G.TTuple):
        return any(map(_contains_error, t.items))
    if isinstance(t, (G.TAssoc, G.ConceptReq)):
        return any(map(_contains_error, t.args))
    if isinstance(t, G.TForall):
        return (
            _contains_error(t.body)
            or any(map(_contains_error, t.requirements))
            or any(
                _contains_error(s.left) or _contains_error(s.right)
                for s in t.same_types
            )
        )
    return False


def ref_rep(self: Checker, t: G.FGType, env: Env) -> G.FGType:
    """``Checker.rep`` without the no-equality shortcut."""
    if t is G.ERROR:
        return t
    return self.solver(env).representative(t)


def ref_equal(self: Checker, a: G.FGType, b: G.FGType, env: Env) -> bool:
    """``Checker.equal`` without the reflexive shortcut."""
    if _contains_error(a) or _contains_error(b):
        return True
    solver = self.solver(env)
    if solver.equal(a, b):
        return True
    return solver.class_contains_error(a) or solver.class_contains_error(b)


@contextmanager
def reference_equality():
    """Checkers built inside use the reference solver, cache, ``equal``
    and ``rep``.

    The prelude contexts are dropped on entry and exit, so the prelude is
    re-checked by whichever equality is in force.
    """
    saved = (SolverCache.solver, Checker.equal, Checker.rep,
             congruence.solver_for_equalities)
    SolverCache.solver = ref_cache_solver
    Checker.equal = ref_equal
    Checker.rep = ref_rep
    congruence.solver_for_equalities = ref_solver_for_equalities
    prelude_context._CONTEXTS.clear()
    try:
        yield
    finally:
        (SolverCache.solver, Checker.equal, Checker.rep,
         congruence.solver_for_equalities) = saved
        prelude_context._CONTEXTS.clear()


# -- solver-level comparison --------------------------------------------------


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TypeError_ as err:
        return ("TypeError_", str(err))


def poison(t: G.FGType) -> G.FGType:
    return G.TFn((t,), G.ERROR)


def identity_forall(binder: str, result: G.FGType) -> G.TForall:
    """``forall binder. fn(binder) -> result``: the same ``result`` under
    another binder is an alpha-variant."""
    return G.TForall((binder,), (), (), G.TFn((G.TVar(binder),), result))


#: Bare leaves recur across one sequence, so later merges meet terms that
#: earlier queries interned.
_LEAVES = [G.TVar(n) for n in "abcde"] + [G.INT, G.BOOL, G.ERROR]
_leaves = st.sampled_from(_LEAVES)
#: Alpha-variants of a few ``forall`` types, alone, nested under another
#: binder and under a constructor: each resolves to the variant its solver
#: interned first.
_variants = st.builds(identity_forall, st.sampled_from("uvw"),
                      st.sampled_from([G.INT, G.TVar("a"), G.TVar("u")]))
_nested = st.builds(
    lambda outer, inner: identity_forall(
        outer, identity_forall(inner, G.TVar(outer))),
    st.sampled_from("uvw"), st.sampled_from("uvw"))
_foralls = st.one_of(_variants, _nested, _variants.map(G.TList))
_terms = st.one_of(_leaves, _types(), _types().map(poison), _foralls)
_pairs = st.tuples(_terms, _terms)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), _terms, _terms),
        st.tuples(st.just("equal"), _terms, _terms),
        st.tuples(st.just("rep"), _terms),
        st.tuples(st.just("poison"), _terms, _terms),
    ),
    max_size=24,
)


#: Few distinct small terms: classes grow by merges of terms that earlier
#: queries interned, where node age decides representatives.  A variable
#: merged with a list of itself, or two variables each merged with a list
#: of the other, make a cyclic class.
_small = st.one_of(_leaves, _leaves.map(G.TList), _foralls)
_VARS = _LEAVES[:5]
_cycle = st.one_of(
    st.sampled_from(_VARS).map(lambda v: [("merge", v, G.TList(v))]),
    st.tuples(st.sampled_from(_VARS), st.sampled_from(_VARS)).map(
        lambda p: [("merge", p[0], G.TList(p[1])),
                   ("merge", p[1], G.TList(p[0]))]),
)
_small_op = st.one_of(
    st.tuples(st.just("merge"), _small, _small).map(lambda op: [op]),
    st.tuples(st.just("equal"), _small, _small).map(lambda op: [op]),
    st.tuples(st.just("rep"), _small).map(lambda op: [op]),
    st.tuples(st.just("poison"), _small, _small).map(lambda op: [op]),
    _cycle,
)
_small_ops = st.lists(_small_op, max_size=12).map(
    lambda groups: [op for group in groups for op in group])


def run_ops(solver, ops):
    out = []
    for op, *args in ops:
        if op == "merge":
            solver.merge(*args)
            out.append(None)
        elif op == "equal":
            out.append(outcome(solver.equal, *args))
        elif op == "rep":
            out.append(outcome(solver.representative, *args))
        else:
            # As ``Checker.equal`` asks: both sides interned by ``equal``.
            a, b = args
            out.append((solver.equal(a, b), solver.class_contains_error(a),
                        solver.class_contains_error(b)))
    return out


@given(st.one_of(_ops, _small_ops))
@settings(max_examples=600, deadline=None)
def test_interleaved_operations(ops):
    assert run_ops(CongruenceSolver(), ops) == run_ops(RefSolver(), ops)


@given(st.lists(_pairs, max_size=8), st.lists(_terms, max_size=6))
@settings(max_examples=200, deadline=None)
def test_representatives_track_every_merge(eqs, probes):
    # Query every probe (and both sides) before and after each merge: a
    # representative memoized before the merge must not be answered after.
    got, want = CongruenceSolver(), RefSolver()
    for left, right in eqs:
        for t in probes + [left, right]:
            assert (outcome(got.representative, t)
                    == outcome(want.representative, t))
            assert got.class_contains_error(t) == want.class_contains_error(t)
        got.merge(left, right)
        want.merge(left, right)
    for t in probes:
        assert outcome(got.representative, t) == outcome(want.representative, t)


def test_memo_is_dropped_on_merge():
    a = G.TVar("a")
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        assert solver.representative(G.TList(a)) == G.TList(a)
        solver.merge(a, G.INT)
    assert got.representative(G.TList(a)) == want.representative(G.TList(a))
    assert got.representative(G.TList(a)) == G.TList(G.INT)


def test_cut_extraction_is_not_memoized():
    # a == int, a == list b, b == list a.  Asking for a's class extracts
    # b's class with a's in progress, so b's cheapest member, list a, is
    # cut there and b reads as b.  Asked on its own, b is list int.
    a, b = G.TVar("a"), G.TVar("b")
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        for left, right in ((a, G.INT), (a, G.TList(b)), (b, G.TList(a))):
            solver.merge(left, right)
        assert solver.representative(a) == G.INT
    assert got.representative(b) == want.representative(b) == G.TList(G.INT)


def test_extraction_is_shared_between_queries():
    # Subterms of a representative answer from the class extractions the
    # first query made; every answer matches the reference.
    a, b = G.TVar("a"), G.TVar("b")
    t = G.TFn((G.TList(a), b), G.TTuple((a, b)))
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        solver.merge(a, G.INT)
        solver.merge(b, G.TList(a))
    rep = got.representative(t)
    assert rep == want.representative(t)
    assert got._extracted
    for sub in (rep.params[0], rep.params[1], rep.result, G.TList(b)):
        assert got.representative(sub) == want.representative(sub)


def test_poison_flag_follows_a_merge():
    a = G.TVar("a")
    got, want = CongruenceSolver(), RefSolver()
    # A bare poison is in a poisoned class before any node exists.
    assert got.class_contains_error(G.ERROR)
    assert want.class_contains_error(G.ERROR)
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        assert not solver.class_contains_error(a)
        solver.merge(a, G.ERROR)
    assert got.class_contains_error(a) and want.class_contains_error(a)
    assert not got.class_contains_error(G.INT)


def test_bare_poison_query_does_not_intern():
    # The permitted difference: the reference interned ``e`` when asked,
    # making it older than ``a``, so after the merge the class's
    # representative is ``e``; the new solver meets ``e`` first in the
    # merge, after ``a``.
    e, a = G.TVar("e"), G.TVar("a")
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        assert not solver.class_contains_error(e)
        solver.merge(a, e)
    assert (got.representative(a), want.representative(a)) == (a, e)
    # Once ``equal`` has interned the term, as the checker does, they agree.
    got, want = CongruenceSolver(), RefSolver()
    for solver in (got, want):
        assert not solver.equal(e, G.INT)
        assert not solver.class_contains_error(e)
        solver.merge(a, e)
    assert got.representative(a) == want.representative(a) == e


def queries_only(ops):
    """The queries of an operation sequence: a cached solver is queried only
    after all its merges."""
    return [op for op in ops if op[0] != "merge"]


_small_pairs = st.tuples(_small, _small)
_layer = st.tuples(
    st.lists(st.one_of(_pairs, _small_pairs), max_size=5),
    st.one_of(_ops, _small_ops).map(queries_only),
)


@given(st.lists(_layer, max_size=3), _layer.map(lambda layer: layer[0]),
       st.one_of(_ops, _small_ops))
@settings(max_examples=400, deadline=None)
def test_extended_solver_matches_a_replay(layers, child_eqs, ops):
    # Each layer is one enclosing scope: its equalities, then the queries
    # its solver answers.  The innermost scope extends the last of them.
    solver = CongruenceSolver()
    equalities = []
    for eqs, queries in layers:
        solver = solver.extend(eqs)
        equalities += eqs
        run_ops(solver, queries)
    child = solver.extend(child_eqs)
    replay = ref_solver_for_equalities(equalities + child_eqs)
    # Then every leaf and equality side, where a stale node age would show.
    probes = [("rep", t) for t in _LEAVES]
    probes += [("rep", t) for pair in equalities + child_eqs for t in pair]
    assert run_ops(child, ops + probes) == run_ops(replay, ops + probes)


def test_extension_drops_nodes_the_parent_interned_for_queries():
    # The parent interns ``b`` by a query; the child's same-type constraint
    # then names it after ``a``.  A replay meets ``a`` first, so ``a``
    # represents the class; the extension must agree.
    a, b, x = G.TVar("a"), G.TVar("b"), G.TVar("x")
    parent = congruence.solver_for_equalities([(x, G.INT)])
    assert not parent.equal(b, G.INT)
    assert parent.representative(G.TList(b)) == G.TList(b)
    child = parent.extend([(a, b)])
    replay = ref_solver_for_equalities([(x, G.INT), (a, b)])
    assert child.representative(b) == replay.representative(b) == a
    assert child.representative(G.TList(b)) == G.TList(a)
    # The parent keeps answering as before.
    assert parent.representative(b) == b


def test_extension_through_the_solver_cache():
    # The same case through environments: the child scope's solver is
    # extended from the parent scope's, which a query has already used.
    a, b, x = G.TVar("a"), G.TVar("b"), G.TVar("x")
    checker = Checker()
    parent = Env.initial().add_equality(x, G.INT)
    assert checker.rep(b, parent) == b
    child = parent.add_equality(a, b)
    assert child.extends[0] is parent.equalities
    assert checker.solver(child).equalities == child.equalities
    assert checker.rep(b, child) == a
    with reference_equality():
        assert Checker().rep(b, child) == a


@pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                         ids=["core", "ext"])
@given(eqs=st.one_of(st.just([]), st.lists(_pairs, max_size=6)),
       queries=st.lists(_pairs, max_size=6))
@settings(max_examples=150, deadline=None)
def test_checker_equal_and_rep(checker_cls, eqs, queries):
    # An empty equality list takes ``Checker.rep``'s no-equality path.
    env = Env.initial().add_equalities(eqs)

    def answers():
        checker = checker_cls()
        return [
            (checker.equal(a, b, env), outcome(checker.rep, a, env),
             outcome(checker.rep, b, env))
            for a, b in queries + [(a, a) for a, _ in queries]
        ]

    with reference_equality():
        want = answers()
    assert answers() == want


@pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                         ids=["core", "ext"])
def test_alpha_variant_without_equalities_resolves_to_the_first(checker_cls):
    # No equalities in scope, yet a forall type still asks the solver: a
    # later alpha-variant, alone or inside another type, resolves to the
    # variant interned first.
    first, later = identity_forall("u", G.INT), identity_forall("w", G.INT)
    env = Env.initial()

    def answers():
        checker = checker_cls()
        return [checker.rep(t, env) for t in
                (first, later, G.TList(later), G.TFn((later,), G.INT))]

    with reference_equality():
        want = answers()
    assert want == [first, first, G.TList(first), G.TFn((first,), G.INT)]
    assert answers() == want


def test_forall_free_types_without_equalities_skip_the_solver():
    checker = Checker()
    env = Env.initial()
    t = G.TFn((G.TList(G.TVar("a")),), G.TAssoc("C", (G.INT,), "s"))
    assert checker.rep(t, env) is t
    assert checker._solvers._cache == {}
    assert checker.rep(identity_forall("u", t), env) is identity_forall(
        "u", t)
    assert list(checker._solvers._cache) == [()]


def test_reference_is_swapped_in():
    with reference_equality():
        assert isinstance(Checker().solver(Env.initial()), RefSolver)
    assert isinstance(Checker().solver(Env.initial()), CongruenceSolver)


# -- closed types that represent themselves ----------------------------------


@contextmanager
def without_closed_shortcut():
    """``Checker.rep`` as it was before the closed-type shortcut: no solver
    certifies closed types, so in a scope with equalities every query asks
    the solver."""
    saved = CongruenceSolver.closed_types_represent_themselves
    CongruenceSolver.closed_types_represent_themselves = property(
        lambda self: False)
    try:
        yield
    finally:
        CongruenceSolver.closed_types_represent_themselves = saved


def is_closed(t: G.FGType) -> bool:
    return not (t.free_vars or t.contains_forall or t.contains_assoc
                or t.contains_error)


def nested_list(t: G.FGType, depth: int) -> G.FGType:
    for _ in range(depth):
        t = G.TList(t)
    return t


def doubled(t: G.FGType, depth: int) -> G.FGType:
    """A pair of pairs of ... of ``t``: ``depth`` hash-consed nodes whose
    tree holds ``2 ** (depth + 1) - 1``."""
    for _ in range(depth):
        t = G.TTuple((t, t))
    return t


_T, _U = G.TVar("t"), G.TVar("u")
_CLOSED_PROBES = [
    G.INT, G.BOOL, G.TList(G.INT), nested_list(G.INT, 5),
    G.TFn((G.INT, G.TList(G.BOOL)), G.BOOL),
    G.TTuple((G.INT, G.TList(G.TList(G.INT)))), doubled(G.INT, 4),
]
#: Scope name -> (its equalities, whether its solver certifies that closed
#: types represent themselves).
CLOSED_SCOPES = {
    # The prelude's one equality.
    "prelude": (
        [(G.TAssoc("Iterator", (G.TList(G.INT),), "elt"), G.INT)], True),
    # A where clause ``where Iterator<i>`` mints a variable per associated
    # type; a refinement adds another concept's.
    "where-clause": (
        [(G.TVar("elt%0"), G.TAssoc("Iterator", (G.TVar("i"),), "elt")),
         (G.TVar("s%1"), G.TAssoc("C", (G.TVar("elt%0"),), "s"))], True),
    "associated-poison": ([(G.TAssoc("C", (G.INT,), "s"), G.ERROR)], True),
    "t == int": ([(_T, G.INT)], False),
    "merged-variables": ([(_T, _U)], False),
    "poisoned-variable": ([(G.ERROR, _T)], False),
    # The poison is the older node, so it represents ``int``'s class.
    "poisoned-int": ([(G.ERROR, G.INT)], False),
    # The variable costs less than the deep type, so it represents it.
    "deep-closed-vs-variable": ([(_T, nested_list(G.INT, 5))], False),
    # A cycle through an associated type: no member of the class is cheap.
    "cyclic-associated": (
        [(G.TAssoc("C", (_T,), "s"), G.TList(G.TAssoc("C", (_T,), "s")))],
        False),
}


@pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                         ids=["core", "ext"])
@pytest.mark.parametrize("scope", sorted(CLOSED_SCOPES))
def test_closed_type_shortcut(checker_cls, scope):
    eqs, certified = CLOSED_SCOPES[scope]
    env = Env.initial().add_equalities(eqs)
    probes = _CLOSED_PROBES + [t for pair in eqs for t in pair]
    probes += [G.TList(t) for pair in eqs for t in pair]
    checker = checker_cls()
    solver = checker.solver(env)
    assert solver.closed_types_represent_themselves is certified
    got = [outcome(checker.rep, t, env) for t in probes]
    with without_closed_shortcut():
        want = [outcome(checker_cls().rep, t, env) for t in probes]
    assert got == want
    if certified:
        # The shortcut answered: no closed probe was interned.
        checker = checker_cls()
        solver = checker.solver(env)
        for t in filter(is_closed, probes):
            assert checker.rep(t, env) is t
        assert len(solver._labels) == solver._settled


def test_a_closed_type_dearer_than_an_associated_term():
    # Extraction prices a type by its tree, and an associated term at about
    # a million: a closed type with a bigger tree is represented by the
    # associated term it was merged with, so its class must not certify.
    huge = doubled(G.INT, 19)
    assoc = G.TAssoc("C", (G.INT,), "s")
    env = Env.initial().add_equality(assoc, huge)
    checker = Checker()
    assert not checker.solver(env).closed_types_represent_themselves
    represented_by_assoc = checker.rep(huge, env) is assoc
    assert represented_by_assoc


_closed_types = st.recursive(
    st.sampled_from([G.INT, G.BOOL]),
    lambda children: st.one_of(
        children.map(G.TList),
        st.tuples(children, children).map(lambda p: G.TFn((p[0],), p[1])),
        st.tuples(children, children).map(G.TTuple),
    ),
    max_leaves=6,
)
_assoc_terms = st.builds(
    lambda c, arg, m: G.TAssoc(c, (arg,), m),
    st.sampled_from(["C", "D"]), st.one_of(_leaves, _types(), _closed_types),
    st.sampled_from(["s", "u"]))
_assoc_pairs = st.tuples(_assoc_terms, st.one_of(_terms, _closed_types))


@pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                         ids=["core", "ext"])
@given(eqs=st.lists(st.one_of(_assoc_pairs, _assoc_pairs, _pairs),
                    min_size=1, max_size=5),
       probes=st.lists(st.one_of(_closed_types, _terms), max_size=6))
@settings(max_examples=300, deadline=None)
def test_closed_type_shortcut_on_generated_scopes(checker_cls, eqs, probes):
    env = Env.initial().add_equalities(eqs)
    probes = probes + [t for pair in eqs for t in pair]
    got = [outcome(checker_cls().rep, t, env) for t in probes]
    with without_closed_shortcut():
        want = [outcome(checker_cls().rep, t, env) for t in probes]
    assert got == want


@pytest.mark.parametrize("checker_cls", [Checker, ExtChecker],
                         ids=["core", "ext"])
def test_closed_type_shortcut_on_checked_programs(checker_cls, monkeypatch):
    # Every closed type the checker answers by the shortcut while checking
    # the prelude-lib and generic-stress programs is its own representative
    # under a replay of the scope's equalities in the reference solver.
    fired = {}
    rep = Checker.rep

    def recording(self, t, env):
        out = rep(self, t, env)
        if (env.equalities and is_closed(t)
                and self.solver(env).closed_types_represent_themselves):
            fired.setdefault(env.equalities, set()).add(t)
        return out

    monkeypatch.setattr(Checker, "rep", recording)
    for name in ("prelude-lib", "generic-stress"):
        for case in workloads.make(name, 1):
            check_source(case.text, case.name, prelude=case.prelude,
                         ext=checker_cls is ExtChecker, verify=True)
    monkeypatch.undo()
    prelude_eq = CLOSED_SCOPES["prelude"][0][0]
    assert any(eqs == (prelude_eq,) for eqs in fired)
    assert any(prelude_eq not in eqs for eqs in fired)
    for eqs, closed in fired.items():
        replay = ref_solver_for_equalities(eqs)
        for t in closed:
            assert replay.representative(t) == t


# -- program-level comparison -------------------------------------------------


def program_row(text: str, filename: str, prelude: bool, ext: bool):
    """Everything a verdict shows: type, translation, value, diagnostics."""
    out = check_source(text, filename, prelude=prelude, ext=ext,
                       evaluate=True, verify=True)
    return (
        out.ok,
        str(out.type_) if out.type_ is not None else None,
        pretty_term(out.translation) if out.translation is not None else None,
        repr(out.value),
        out.verified,
        [(d.kind, d.message, str(d.span), str(d))
         for d in out.report.diagnostics],
    )


def compare_programs(inputs) -> int:
    """Check every ``(name, text, prelude)`` input core and ext, reference
    first; returns how many verdicts were compared."""
    runs = [(name, text, prelude, ext)
            for name, text, prelude in inputs for ext in (False, True)]
    with reference_equality():
        want = [program_row(text, name, prelude, ext)
                for name, text, prelude, ext in runs]
    for run, expected in zip(runs, want):
        assert program_row(run[1], run[0], run[2], run[3]) == expected, run[0]
    return len(runs)


class TestPrograms:
    def test_examples_with_and_without_prelude(self):
        inputs = [(path.name, path.read_text(), prelude)
                  for path in EXAMPLES for prelude in (False, True)]
        assert compare_programs(inputs) == 4 * len(EXAMPLES)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workloads(self, seed):
        inputs = {}
        for name in workloads.WORKLOADS:
            for case in workloads.make(name, seed):
                inputs.setdefault((case.text, case.prelude), case.name)
        rows = [(name, text, prelude)
                for (text, prelude), name in inputs.items()]
        assert compare_programs(rows) > 200

    def test_rejections_are_compared(self):
        # broken-edits holds check rejections: diagnostics are compared,
        # not only accepted verdicts.
        cases = [c for c in workloads.make("broken-edits", 1)
                 if c.expect == ("reject", "check")]
        assert cases
        compare_programs([(c.name, c.text, c.prelude) for c in cases])


@given(st.one_of(program_specs(), same_type_specs()))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs(spec):
    compare_programs([("<gen>", spec.source, False)])
