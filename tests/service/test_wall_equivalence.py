"""Both containment walls run the same attempt body, so they must give the
same per-file records.

The same corpus and :class:`FaultSchedule` go through ``check_batch`` with
``isolate="none"`` (the watchdogged thread) and ``isolate="pool"`` (worker
processes); the canonical ``files`` blocks must be identical.  The
``kill`` chaos kind is left out on purpose: the thread wall contains it as
a crash, while in a worker it is a real process death (``worker-lost``).
"""

import json

import pytest

from repro.service import (
    BatchPolicy,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    check_batch,
)

CORPUS = [
    ("ok.fg", "iadd(1, 2)"),
    ("diagnosed.fg", "iadd(1, true)"),
    ("several.fg", "let a = iadd(1, true) in\n"
                   "let b = if 3 then 4 else 5 in\n"
                   "let c = (1)(2) in\n0"),
    ("parse.fg", "let x = in"),
    ("transient.fg", "iadd(3, 4)"),
    ("doomed.fg", "iadd(5, 6)"),
]

SCHEDULE = FaultSchedule(specs=(
    FaultSpec(4, "check", "crash", attempts=frozenset({0})),
    FaultSpec(5, "check", "crash"),
))


def canonical_files(isolate):
    policy = BatchPolicy(
        isolate=isolate, jobs=2, pool_workers=2, deadline_ms=30_000.0,
        retry=RetryPolicy(max_retries=1),
    )
    report = check_batch(CORPUS, policy, fault_schedule=SCHEDULE)
    return json.loads(report.canonical_json())["files"]


@pytest.mark.slow
def test_thread_and_pool_walls_give_identical_file_records():
    thread = canonical_files("none")
    pool = canonical_files("pool")
    assert [f["status"] for f in thread] == [
        "ok", "diagnostics", "diagnostics", "diagnostics", "ok", "crash",
    ]
    assert [
        [a["fault"] for a in f["attempts"]] for f in thread
    ] == [[None], [None], [None], [None], ["crash", None],
          ["crash", "crash"]]
    assert thread[5]["crash"]["exc_type"] == "ChaosCrash"
    assert thread == pool
