"""Unit tests for the congruence-closure type-equality engine (section 5)."""

import pytest

from repro.diagnostics.errors import TypeError_
from repro.fg import ast as G
from repro.fg.congruence import CongruenceSolver, solver_for_equalities

A = G.TVar("a")
B = G.TVar("b")
C = G.TVar("c")
INT = G.INT
BOOL = G.BOOL


def assoc(concept, arg, member="elt"):
    return G.TAssoc(concept, (arg,), member)


class TestBasicEquality:
    def test_reflexive(self):
        s = CongruenceSolver()
        assert s.equal(A, A)
        assert s.equal(INT, INT)

    def test_distinct_without_equalities(self):
        s = CongruenceSolver()
        assert not s.equal(A, B)
        assert not s.equal(INT, BOOL)

    def test_merge_makes_equal(self):
        s = CongruenceSolver()
        s.merge(A, B)
        assert s.equal(A, B)
        assert s.equal(B, A)

    def test_transitivity(self):
        s = CongruenceSolver()
        s.merge(A, B)
        s.merge(B, C)
        assert s.equal(A, C)

    def test_merge_ground(self):
        s = CongruenceSolver()
        s.merge(A, INT)
        assert s.equal(A, INT)
        assert not s.equal(A, BOOL)


class TestCongruence:
    def test_constructor_congruence(self):
        # a = b  implies  list a = list b.
        s = CongruenceSolver()
        s.merge(A, B)
        assert s.equal(G.TList(A), G.TList(B))

    def test_fn_congruence(self):
        s = CongruenceSolver()
        s.merge(A, B)
        assert s.equal(G.TFn((A,), A), G.TFn((B,), B))

    def test_congruence_new_terms_after_merge(self):
        # Terms first interned *after* the merge still see the congruence.
        s = CongruenceSolver()
        s.merge(A, B)
        assert s.equal(G.TFn((G.TList(A), A), BOOL), G.TFn((G.TList(B), B), BOOL))

    def test_congruence_propagates_up(self):
        # list a = list b was asserted directly; then fn over them.
        s = CongruenceSolver()
        s.merge(G.TList(A), G.TList(B))
        assert s.equal(G.TFn((G.TList(A),), INT), G.TFn((G.TList(B),), INT))

    def test_no_injectivity(self):
        # list a = list b does NOT imply a = b (uninterpreted symbols).
        s = CongruenceSolver()
        s.merge(G.TList(A), G.TList(B))
        assert not s.equal(A, B)

    def test_assoc_congruence(self):
        # a = b implies Iterator<a>.elt = Iterator<b>.elt.
        s = CongruenceSolver()
        s.merge(A, B)
        assert s.equal(assoc("Iterator", A), assoc("Iterator", B))

    def test_assoc_member_distinguishes(self):
        s = CongruenceSolver()
        s.merge(A, B)
        assert not s.equal(
            G.TAssoc("Iterator", (A,), "elt"),
            G.TAssoc("Iterator", (B,), "other"),
        )

    def test_merge_chain_through_parents(self):
        # The classic: f(a)=a and a=b gives f(f(b)) = b.
        fa = G.TList(A)
        s = CongruenceSolver()
        s.merge(fa, A)
        s.merge(A, B)
        assert s.equal(G.TList(G.TList(B)), B)

    def test_arity_distinguishes(self):
        s = CongruenceSolver()
        assert not s.equal(G.TTuple((A,)), G.TTuple((A, A)))


class TestRepresentatives:
    def test_ground_preferred_over_var(self):
        s = CongruenceSolver()
        s.merge(A, INT)
        assert s.representative(A) == INT

    def test_var_preferred_over_assoc(self):
        s = CongruenceSolver()
        s.merge(G.TVar("elt1"), assoc("Iterator", A))
        assert s.representative(assoc("Iterator", A)) == G.TVar("elt1")

    def test_paper_merge_example_first_var_wins(self):
        # elt1 = It<a>.elt; elt2 = It<b>.elt; It<a>.elt = It<b>.elt
        # => the representative of all four is elt1 (interned first).
        s = CongruenceSolver()
        s.merge(G.TVar("elt1"), assoc("Iterator", A))
        s.merge(G.TVar("elt2"), assoc("Iterator", B))
        s.merge(assoc("Iterator", A), assoc("Iterator", B))
        for t in [G.TVar("elt1"), G.TVar("elt2"),
                  assoc("Iterator", A), assoc("Iterator", B)]:
            assert s.representative(t) == G.TVar("elt1")

    def test_representatives_rewrite_children(self):
        s = CongruenceSolver()
        s.merge(G.TVar("elt"), assoc("Iterator", A))
        t = G.TFn((assoc("Iterator", A),), G.TList(assoc("Iterator", A)))
        assert s.representative(t) == G.TFn(
            (G.TVar("elt"),), G.TList(G.TVar("elt"))
        )

    def test_ground_resolution_through_assoc(self):
        s = CongruenceSolver()
        s.merge(assoc("Iterator", G.TList(INT)), INT)
        t = G.TFn((G.TList(INT),), assoc("Iterator", G.TList(INT)))
        assert s.representative(t) == G.TFn((G.TList(INT),), INT)

    def test_untouched_type_is_itself(self):
        s = CongruenceSolver()
        t = G.TFn((A, B), G.TList(C))
        assert s.representative(t) == t

    def test_recursive_equation_has_finite_representative(self):
        # a = list a: the class contains `a` itself, so extraction picks the
        # finite member rather than looping (the cost search skips cycles).
        s = CongruenceSolver()
        s.merge(A, G.TList(A))
        assert s.representative(A) == A
        assert s.representative(G.TList(A)) == A
        assert s.representative(G.TList(G.TList(A))) == A

    def test_deterministic_across_solvers(self):
        def build():
            s = CongruenceSolver()
            s.merge(G.TVar("x"), assoc("C", A))
            s.merge(G.TVar("y"), assoc("C", B))
            s.merge(assoc("C", A), assoc("C", B))
            return s.representative(G.TVar("y"))

        assert build() == build()

    def test_memoized_representative_follows_later_merges(self):
        s = CongruenceSolver()
        assert s.representative(G.TList(A)) == G.TList(A)
        s.merge(A, INT)
        assert s.representative(G.TList(A)) == G.TList(INT)

    def test_cyclic_failure_is_never_memoized(self, monkeypatch):
        # Stand in an extraction that finds no finite member: every call
        # must raise, and a later successful extraction is not shadowed.
        s = CongruenceSolver()
        monkeypatch.setattr(s, "_extract", lambda root, walk: None)
        for _ in range(2):
            with pytest.raises(TypeError_, match="cyclic type equality"):
                s.representative(A)
        monkeypatch.undo()
        assert s.representative(A) == A


class TestForallOpacity:
    def test_alpha_equal_foralls_equal(self):
        t1 = G.TForall(("a",), (), (), G.TFn((A,), A))
        t2 = G.TForall(("b",), (), (), G.TFn((B,), B))
        s = CongruenceSolver()
        assert s.equal(t1, t2)

    def test_different_foralls_unequal(self):
        t1 = G.TForall(("a",), (), (), A)
        t2 = G.TForall(("a",), (), (), G.TList(A))
        s = CongruenceSolver()
        assert not s.equal(t1, t2)

    def test_forall_requirements_part_of_identity(self):
        req = G.ConceptReq("Monoid", (A,))
        t1 = G.TForall(("a",), (req,), (), A)
        t2 = G.TForall(("a",), (), (), A)
        s = CongruenceSolver()
        assert not s.equal(t1, t2)

    def test_forall_representative_returns_original(self):
        t = G.TForall(("a",), (), (), G.TFn((A,), A))
        s = CongruenceSolver()
        assert s.representative(t) == t


class TestSolverForEqualities:
    def test_builds_and_remembers(self):
        s = solver_for_equalities(((A, INT), (B, A)))
        assert s.equal(B, INT)
        assert s.equalities == ((A, INT), (B, A))

    def test_empty(self):
        s = solver_for_equalities(())
        assert not s.equal(A, B)
