"""Experiment CC (section 5): congruence-closure scaling.

The paper leans on Nelson & Oppen's O(n log n) congruence closure for type
equality.  This bench sweeps the number of merged equalities (up to 10^5),
the depth of type terms and the number of nested where clauses checked
through the F_G checker, asserting near-linear growth (the 'shape':
quadrupling the input should cost far less than 16 times the time).  One
row times a whole ``check_source`` of a program with no same-type
constraint in scope, where representatives need no solver.
"""

import pytest

from bench_fig7_dictionaries import refinement_chain
from repro.fg import ast as G
from repro.fg import typecheck
from repro.fg.congruence import CongruenceSolver
from repro.pipeline import check_source
from repro.syntax import parse_fg


def _chain_equalities(n: int):
    """a0 = a1 = ... = an, plus congruent structure above each."""
    out = []
    for i in range(n):
        out.append((G.TVar(f"a{i}"), G.TVar(f"a{i + 1}")))
    return out


def _assoc_equalities(n: int):
    """Fresh vars equated to associated types over a shared chain."""
    out = []
    for i in range(n):
        out.append(
            (G.TVar(f"e{i}"), G.TAssoc("It", (G.TVar(f"a{i % 8}"),), "elt"))
        )
    return out


def _nested_where(k: int) -> str:
    """``k`` nested generic functions, each where clause equating its
    iterator's element type with the outermost one's."""
    lines = ["concept It<I> { types elt; get : fn(I) -> elt; } in",
             "let f = /\\I0 where It<I0>."]
    for i in range(1, k):
        lines.append(f"  /\\I{i} where It<I{i}>; It<I{i}>.elt == It<I0>.elt.")
    last = k - 1
    lines.append(f"  \\x : I{last}."
                 f" cons[It<I0>.elt](It<I{last}>.get(x), nil[It<I0>.elt])")
    lines.append("in 0")
    return "\n".join(lines)


def _deep_type(depth: int, leaf: G.FGType) -> G.FGType:
    t = leaf
    for _ in range(depth):
        t = G.TList(G.TFn((t,), t))
    return t


class TestMergeScaling:
    @pytest.mark.parametrize("n", [64, 256, 1024, 10_000, 100_000])
    def test_merge_chain(self, benchmark, n):
        eqs = _chain_equalities(n)

        def run():
            s = CongruenceSolver()
            for left, right in eqs:
                s.merge(left, right)
            return s

        s = benchmark(run)
        assert s.equal(G.TVar("a0"), G.TVar(f"a{n}"))

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_merge_assoc_terms(self, benchmark, n):
        eqs = _assoc_equalities(n)

        def run():
            s = CongruenceSolver()
            for left, right in eqs:
                s.merge(left, right)
            return s

        benchmark(run)

    @pytest.mark.parametrize("depth", [8, 32, 128])
    def test_intern_deep_terms(self, benchmark, depth):
        t = _deep_type(depth, G.TVar("a"))

        def run():
            s = CongruenceSolver()
            s.merge(t, G.TVar("x"))
            return s.equal(G.TVar("x"), t)

        assert benchmark(run)

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_nested_where_clauses(self, benchmark, k):
        # Each scope's solver extends its parent scope's, merging only the
        # equalities the scope adds; the row shows what k nested where
        # clauses cost the checker.
        term = parse_fg(_nested_where(k))
        fg_type, _ = benchmark(typecheck, term)
        assert fg_type == G.INT


class TestRepresentativeQueries:
    def test_check_source_refinement_chain(self, benchmark):
        # Figure 7: a refinement chain of depth 8 and 50 member accesses.
        # No scope holds an equality, so every representative the
        # translation asks for is answered without a solver.
        text = refinement_chain(8, calls=50)
        out = benchmark(check_source, text, "refinement.fg")
        assert out.ok and out.type_ == G.INT


class TestNearLinearShape:
    @pytest.mark.parametrize("small", [256, 2_500])
    def test_chain_growth_subquadratic(self, small):
        import time

        def cost(n: int) -> float:
            eqs = _chain_equalities(n)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                s = CongruenceSolver()
                for left, right in eqs:
                    s.merge(left, right)
                best = min(best, time.perf_counter() - start)
            return best

        t1, t2 = cost(small), cost(4 * small)
        # 4x input; allow generous constant, reject quadratic (16x).
        assert t2 < t1 * 12, (t1, t2)

    def test_nested_where_merges_linear(self, monkeypatch):
        # Counted, not timed: every equality is merged once, in the first
        # solver whose scope holds it.  Replaying each scope's equalities
        # from scratch merged k(k-1)/2 of them.
        merges = [0]
        merge = CongruenceSolver.merge

        def counting(solver, left, right):
            merges[0] += 1
            merge(solver, left, right)

        monkeypatch.setattr(CongruenceSolver, "merge", counting)

        def count(k: int) -> int:
            merges[0] = 0
            typecheck(parse_fg(_nested_where(k)))
            return merges[0]

        small, large = count(16), count(64)
        assert large <= 2 * 64, (small, large)
        assert large < 5 * small, (small, large)

    @staticmethod
    def _merged_chain():
        s = CongruenceSolver()
        for left, right in _chain_equalities(512):
            s.merge(left, right)
        s.merge(G.TVar("a0"), G.INT)
        return s

    def test_representative_after_many_merges(self, benchmark):
        # Cold: every round asks a freshly built solver, so the class is
        # extracted rather than read from the representative memo.
        result = benchmark.pedantic(
            lambda s: s.representative(G.TVar("a400")),
            setup=lambda: ((self._merged_chain(),), {}),
            rounds=50, warmup_rounds=2,
        )
        assert result == G.INT

    def test_representative_memo_hit(self, benchmark):
        s = self._merged_chain()
        s.representative(G.TVar("a400"))
        result = benchmark(lambda: s.representative(G.TVar("a400")))
        assert result == G.INT
