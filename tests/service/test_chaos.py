"""Chaos mode: deterministic fault schedules over the batch service.

``run_chaos`` itself asserts the containment contract (termination, no
lost results, every injected fault reported exactly once, cross-round
determinism); these tests drive it across seeds and configurations so the
contract is exercised on retry paths, quarantine paths, and the
subprocess wall.
"""

import pytest

from repro.testing import FUZZ_SEEDS, chaos_schedule, run_chaos


def test_schedule_is_a_pure_function_of_its_inputs():
    a = chaos_schedule(8, seed=7)
    b = chaos_schedule(8, seed=7)
    assert a == b
    assert chaos_schedule(8, seed=8) != a
    # Half the files get exactly one fault each.
    assert len(a.specs) == 4
    assert len({s.index for s in a.specs}) == len(a.specs)


def test_chaos_contract_holds_and_is_deterministic():
    stats = run_chaos(rounds=2, seed=0)
    assert stats["files"] == len(FUZZ_SEEDS)
    assert stats["injected_specs"] >= 1
    # The same seed reproduces the same canonical report bytes later too.
    again = run_chaos(rounds=1, seed=0)
    assert again["report_digest"] == stats["report_digest"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_contract_across_seeds(seed):
    run_chaos(rounds=1, seed=seed)


def test_chaos_with_retries_outruns_transient_faults():
    # Seed 0's schedule includes attempt-0-only faults; with a retry
    # budget the second attempt lands clean and the contract still holds.
    stats = run_chaos(rounds=1, seed=0, retries=2)
    assert stats["retries"] >= 1


def test_chaos_quarantine_path():
    # A deterministic fault plus a tight breaker exercises quarantine.
    stats = run_chaos(
        rounds=1, seed=3, retries=5, quarantine_after=2,
    )
    assert stats["files"] == len(FUZZ_SEEDS)


@pytest.mark.slow
def test_chaos_through_the_subprocess_wall():
    files = [(f"<chaos{i}>", src) for i, src in enumerate(FUZZ_SEEDS[:2])]
    stats = run_chaos(
        rounds=1, seed=0, files=files, jobs=2,
        deadline_ms=2_000.0, isolate="pool",
    )
    assert stats["files"] == 2
