"""Ablation benchmarks for design choices called out in DESIGN.md.

- **Solver caching**: the environment's equality set changes rarely, so
  checking memoizes one congruence solver per distinct set. The ablation
  rebuilds the solver on every query.
- **Algorithm specialization**: dispatch cost of `overload` versus a direct
  call to the selected alternative.
- **Direct interpreter vs translation**: evaluating a program natively
  versus translating and running the System F image.
"""

import pytest

from repro.fg import interpret
from repro.fg.congruence import solver_for_equalities
from repro.fg.env import Env
from repro.fg.typecheck import Checker
from repro.syntax import parse_fg
from repro.systemf import evaluate as f_evaluate

ASSOC_HEAVY = r"""
concept Iterator<Iter> {
  types elt;
  next : fn(Iter) -> Iter;
  curr : fn(Iter) -> elt;
  at_end : fn(Iter) -> bool;
} in
concept Monoid<t> { op : fn(t, t) -> t; id : t; } in
let accumulate = /\Iter where Iterator<Iter>, Monoid<Iterator<Iter>.elt>.
  fix (\a : fn(Iter) -> Iterator<Iter>.elt. \it : Iter.
    if Iterator<Iter>.at_end(it) then Monoid<Iterator<Iter>.elt>.id
    else Monoid<Iterator<Iter>.elt>.op(
           Iterator<Iter>.curr(it), a(Iterator<Iter>.next(it)))) in
model Iterator<list int> {
  types elt = int;
  next = \ls : list int. cdr[int](ls);
  curr = \ls : list int. car[int](ls);
  at_end = \ls : list int. null[int](ls);
} in
model Monoid<int> { op = iadd; id = 0; } in
(accumulate[list int](cons[int](1, cons[int](2, nil[int]))),
 accumulate[list int](cons[int](3, nil[int])),
 accumulate[list int](nil[int]))
"""


class UncachedChecker(Checker):
    """A checker that builds a new congruence solver for every query."""

    def solver(self, env):
        return solver_for_equalities(
            env.equalities, self.limits.max_congruence_nodes
        )


class TestSolverCacheAblation:
    def test_with_cache(self, benchmark):
        term = parse_fg(ASSOC_HEAVY)
        benchmark(lambda: Checker().check(term, Env.initial()))

    def test_without_cache(self, benchmark):
        term = parse_fg(ASSOC_HEAVY)
        benchmark(lambda: UncachedChecker().check(term, Env.initial()))


SPECIALIZED = r"""
concept Iterator<I> { next : fn(I) -> I; } in
concept RA<I> { refines Iterator<I>; jump : fn(I, int) -> I; } in
overload adv {
  /\I where Iterator<I>. \it : I, n : int.
    (fix (\go : fn(I, int) -> I. \j : I, k : int.
      if ile(k, 0) then j else go(Iterator<I>.next(j), isub(k, 1))))(it, n);
  /\I where RA<I>. \it : I, n : int. RA<I>.jump(it, n);
} in
model Iterator<int> { next = \p : int. iadd(p, 1); } in
model RA<int> { jump = \p : int, n : int. iadd(p, n); } in
adv[int](0, 5)
"""

DIRECT_ALTERNATIVE = r"""
concept Iterator<I> { next : fn(I) -> I; } in
concept RA<I> { refines Iterator<I>; jump : fn(I, int) -> I; } in
let adv = /\I where RA<I>. \it : I, n : int. RA<I>.jump(it, n) in
model Iterator<int> { next = \p : int. iadd(p, 1); } in
model RA<int> { jump = \p : int, n : int. iadd(p, n); } in
adv[int](0, 5)
"""


class TestSpecializationDispatch:
    def test_overload_dispatch(self, benchmark):
        from repro import extensions as ext

        term = parse_fg(SPECIALIZED)
        benchmark(lambda: ext.typecheck(term))

    def test_direct_call_baseline(self, benchmark):
        from repro import extensions as ext

        term = parse_fg(DIRECT_ALTERNATIVE)
        benchmark(lambda: ext.typecheck(term))


class TestInterpreterVsTranslation:
    def test_translate_then_run(self, benchmark):
        term = parse_fg(ASSOC_HEAVY)
        sf = Checker().check(term, Env.initial())[1]
        assert benchmark(lambda: f_evaluate(sf)) == (3, 3, 0)

    def test_direct_interpretation(self, benchmark):
        term = parse_fg(ASSOC_HEAVY)
        assert benchmark(lambda: interpret(term)) == (3, 3, 0)
