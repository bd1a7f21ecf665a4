"""A pool worker answers one file the same way every time it checks it.

A worker checks many files in one process, so a fresh-name supply that
outlives a check would make its answer depend on the files before it.  The
file is submitted twice to a one-worker pool and both per-file report
digests must be equal.  The programs are those of
``tests/fg/test_history_independence.py``: both rename a ``forall`` binder,
and ``K_APPLIED``'s diagnostic prints the renamed name.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.service.batch import check_batch
from repro.service.journal import report_digest
from repro.service.policy import BatchPolicy
from repro.service.report import canonicalize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fg"))
from test_history_independence import DUP, K_APPLIED  # noqa: E402


def file_digest(outcome) -> str:
    """The canonical digest of one file's outcome, its batch index aside."""
    record = outcome.to_json()
    del record["index"]
    return report_digest(canonicalize(record))


def test_same_file_twice_in_one_worker_gives_one_digest():
    policy = BatchPolicy(isolate="pool", pool_workers=1, verify=True)
    report = check_batch(
        [("k.fg", K_APPLIED), ("k.fg", K_APPLIED),
         ("dup.fg", DUP), ("dup.fg", DUP)],
        policy,
    )
    k1, k2, dup1, dup2 = report.files
    assert [f.status for f in report.files] == [
        "diagnostics", "diagnostics", "ok", "ok"]
    assert file_digest(k1) == file_digest(k2)
    assert file_digest(dup1) == file_digest(dup2)
    assert "forall b#1. fn(b, b#1) -> b" in k1.rendered
