"""Experiment F5 (Figure 5): the generic ``accumulate`` pipeline costs.

Breaks the F_G pipeline into stages — tokenize, parse, typecheck+translate,
System F re-check (the Theorem 1 verifier), evaluate — over the Figure 5
program, and sweeps list length for the evaluation stage.
"""

import pytest

from repro.diagnostics.source import SourceText
from repro.fg import typecheck as fg_typecheck
from repro.fg import verify_translation
from repro.prelude import PRELUDE
from repro.syntax import parse_fg, tokenize
from repro.systemf import evaluate as f_evaluate
from repro.systemf import type_of as f_type_of


def _int_list_src(n: int) -> str:
    out = "nil[int]"
    for i in reversed(range(n)):
        out = f"cons[int]({i}, {out})"
    return out


def figure5(n: int = 4) -> str:
    return rf"""
    concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
    concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
    let accumulate = /\t where Monoid<t>.
      fix (\accum : fn(list t) -> t.
        \ls : list t.
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
    model Semigroup<int> {{ binary_op = iadd; }} in
    model Monoid<int> {{ identity_elt = 0; }} in
    accumulate[int]({_int_list_src(n)})
    """


class TestPipelineStages:
    def test_tokenize(self, benchmark):
        sources = [SourceText(figure5(16)), SourceText(PRELUDE, "<prelude>")]
        counts = benchmark(lambda: [len(tokenize(s)) for s in sources])
        assert all(n > 100 for n in counts)

    def test_parse(self, benchmark):
        src = figure5()
        term = benchmark(lambda: parse_fg(src))
        assert term is not None

    def test_typecheck_translate(self, benchmark):
        term = parse_fg(figure5())
        fg_type, sf = benchmark(lambda: fg_typecheck(term))
        assert sf is not None

    def test_systemf_recheck(self, benchmark):
        _, sf = fg_typecheck(parse_fg(figure5()))
        benchmark(lambda: f_type_of(sf))

    def test_full_theorem_verification(self, benchmark):
        term = parse_fg(figure5())
        benchmark(lambda: verify_translation(term))

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_evaluate(self, benchmark, n):
        _, sf = fg_typecheck(parse_fg(figure5(n)))
        assert benchmark(lambda: f_evaluate(sf)) == n * (n - 1) // 2


class TestPreludeScale:
    """Checking the full prelude: a library-sized program through the
    typechecker (the scalability story behind lexically scoped concepts)."""

    def test_check_whole_prelude(self, benchmark):
        from repro.prelude import parse

        term = parse("accumulate[int](range(1, 4))")
        benchmark(lambda: fg_typecheck(term))

    @pytest.mark.parametrize("prelude", [False, True],
                             ids=["plain", "prelude"])
    def test_check_corpus(self, benchmark, prelude):
        """Warm ``check_source`` over ``examples/fg`` (less ``monoid.fg``,
        which redefines prelude concepts), with and without the prelude:
        the pair tracks the target that ``--prelude`` stays within 1.2x of
        no prelude."""
        _bench_corpus(benchmark, prelude=prelude)

    @pytest.mark.parametrize("prelude", [False, True],
                             ids=["plain", "prelude"])
    def test_verify_corpus(self, benchmark, prelude):
        """The same corpus with ``verify=True``: under the prelude, verify
        types each program's part of the translation inside the prelude's
        System F prefix, which the context typed once."""
        _bench_corpus(benchmark, prelude=prelude, verify=True)


def _bench_corpus(benchmark, **options):
    """Benchmark warm ``check_source(text, name, **options)`` over the
    ``examples/fg`` corpus less ``monoid.fg``."""
    from pathlib import Path

    from repro.pipeline import check_source

    examples = Path(__file__).resolve().parents[1] / "examples" / "fg"
    corpus = [(path.name, path.read_text())
              for path in sorted(examples.glob("*.fg"))
              if path.name != "monoid.fg"]
    verify = options.get("verify", False)

    def check_corpus():
        for name, text in corpus:
            outcome = check_source(text, name, **options)
            assert outcome.ok and outcome.verified == verify

    check_corpus()  # warm: imports, and the one-time prelude build
    benchmark(check_corpus)
