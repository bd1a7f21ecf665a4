"""Experiment FZ: crash-resilience fuzzer throughput.

Times one :func:`repro.testing.run_fuzz` run of 25 mutants (seed 0, no
verify stage) per round: lex, parse, typecheck and translate of corrupted
programs, each of which must come back as diagnostics, never a raise.
"""

from repro.testing import run_fuzz


def test_fuzz_25_mutants(benchmark):
    stats = benchmark.pedantic(
        run_fuzz, args=(25,), kwargs={"seed": 0, "verify": False},
        rounds=5, iterations=1, warmup_rounds=1,
    )
    assert stats["mutants"] == 25
