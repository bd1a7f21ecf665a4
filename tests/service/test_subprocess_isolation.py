"""The ``--isolate=subprocess`` spelling: the process wall, now the pool's.

The older one-shot subprocess mode is gone; its CLI spelling selects the
supervised pool.  These tests drive ``fg batch --isolate=subprocess`` and
check that every containment the spelling used to promise still holds
behind the pool's worker processes: clean and diagnosed files round-trip
through a child, an ``os._exit`` is contained with its wait status, stray
worker stdout cannot corrupt the report, a hung child is killed at its
deadline, and a batch survives a kill.

They spawn real child interpreters, so the corpus stays tiny and each
batch runs a single worker.
"""

import json

import pytest

from repro.service import EXIT_DEADLINE, EXIT_PARTIAL
from repro.tools.cli import EXIT_DIAGNOSTICS, EXIT_OK, main

TINY = "iadd(1, 2)"
BROKEN = "iadd(1, true)"


@pytest.fixture
def files(tmp_path):
    (tmp_path / "tiny.fg").write_text(TINY)
    (tmp_path / "victim.fg").write_text(TINY)
    (tmp_path / "broken.fg").write_text(BROKEN)
    return tmp_path


def batch(capsys, *argv):
    """Run ``fg batch --isolate=subprocess ... --json``; return (code, blob)."""
    code = main([
        "batch", *map(str, argv), "--isolate=subprocess",
        "--pool-workers", "1", "--json",
    ])
    blob = json.loads(capsys.readouterr().out)
    assert blob["policy"]["isolate"] == "pool"
    return code, blob


@pytest.mark.slow
def test_clean_run_round_trips_through_the_child(capsys, files):
    code, blob = batch(capsys, files / "tiny.fg")
    assert code == EXIT_OK
    outcome = blob["files"][0]
    assert outcome["status"] == "ok"
    assert outcome["crash"] is None
    assert blob["pool"]["workers"] == 1


@pytest.mark.slow
def test_diagnostics_round_trip_through_the_child(capsys, files):
    code, blob = batch(capsys, files / "broken.fg")
    assert code == EXIT_DIAGNOSTICS
    outcome = blob["files"][0]
    assert outcome["status"] == "diagnostics"
    assert outcome["severities"].get("error", 0) >= 1
    assert outcome["diagnostics"] and outcome["rendered"]
    assert outcome["diagnostics"][0]["line"] == 1
    assert outcome["diagnostics"][0]["col"] == 9


@pytest.mark.slow
def test_interpreter_killing_fault_is_contained_with_wait_status(
    capsys, files,
):
    # "kill" materializes as os._exit(13) in the worker: no Python-level
    # containment is possible, only the process wall catches it.
    code, blob = batch(
        capsys, files / "tiny.fg", "--chaos", "0:check:kill",
        "--retries", "0",
    )
    assert code == EXIT_PARTIAL
    outcome = blob["files"][0]
    assert outcome["status"] == "crash"
    assert outcome["attempts"][0]["fault"] == "worker-lost"
    assert outcome["crash"]["exc_type"] == "WorkerLost"
    assert outcome["crash"]["returncode"] == 13
    assert outcome["crash"]["where"] == "pool"


@pytest.mark.slow
def test_stray_stdout_cannot_corrupt_the_result_channel(capsys, files):
    # A worker claims stdout for its framed protocol and reroutes fd 1 to
    # stderr, so an injected mid-check "noise" print leaves both the
    # worker's result and the report on our stdout intact and parseable.
    code, blob = batch(capsys, files / "tiny.fg", "--chaos", "0:check:noise")
    assert code == EXIT_OK
    outcome = blob["files"][0]
    assert outcome["status"] == "ok"
    assert outcome["crash"] is None
    assert outcome["attempts"][0]["injected"] == ["check:noise"]


@pytest.mark.slow
def test_deadline_kills_a_hung_child(capsys, files):
    code, blob = batch(
        capsys, files / "tiny.fg", "--chaos", "0:check:hang",
        "--deadline-ms", "400", "--retries", "0",
    )
    assert code == EXIT_DEADLINE
    outcome = blob["files"][0]
    assert outcome["status"] == "timeout"
    assert outcome["attempts"][0]["fault"] == "deadline"
    assert blob["pool"]["deadline_kills"] == 1


@pytest.mark.slow
def test_batch_survives_a_kill_in_subprocess_mode(capsys, files):
    code, blob = batch(
        capsys, files / "tiny.fg", files / "victim.fg", files / "broken.fg",
        "--chaos", "1:check:kill", "--retries", "0",
    )
    assert code == EXIT_PARTIAL
    assert [f["status"] for f in blob["files"]] == [
        "ok", "crash", "diagnostics",
    ]
    # The wait status survives into the JSON report for postmortems.
    assert blob["files"][1]["crash"]["returncode"] == 13
    assert blob["pool"]["respawns"] == 1
