"""Server chaos mode: daemon-kill, client-disconnect, slow-loris.

Thin shims over :func:`repro.testing.run_server_chaos` — the harness
carries its own assertions (daemon survival, cancellation metrics, and
digest identity across rounds *and* across a SIGKILL + journal resume);
these tests pin the entry points CI and users call.
"""

import pytest

from repro.testing import SERVER_CHAOS_KINDS, run_server_chaos

pytestmark = pytest.mark.slow


def test_kind_catalog_is_stable():
    assert SERVER_CHAOS_KINDS == (
        "daemon-kill", "client-disconnect", "slow-loris", "memhog",
    )
    with pytest.raises(ValueError):
        run_server_chaos(kinds=("daemon-implosion",))


def test_connection_faults_leave_a_deterministic_daemon():
    """The in-process kinds only: a vanished client and a stalled one,
    then digest-identical rounds."""
    out = run_server_chaos(
        rounds=2, seed=3, kinds=("client-disconnect", "slow-loris"),
    )
    assert out["clean_digest"] != out["hang_digest"]  # the hang is visible
    assert out["metrics"]["server.cancelled"] >= 1
    assert out["metrics"]["server.idle_closed"] >= 1
    assert "resumed_digest" not in out


def test_daemon_kill_resumes_to_identical_digest():
    """SIGKILL mid-batch, then journal resume: the harness asserts the
    resumed digest equals the uninterrupted baseline's."""
    out = run_server_chaos(rounds=2, seed=0)
    assert out["resumed_digest"] == out["hang_digest"]
    assert out["rounds"] == 2
    assert out["kinds"] == list(SERVER_CHAOS_KINDS)


def test_accepted_frames_sharing_one_chunk_are_all_counted():
    """A busy client may read both of its ``accepted`` frames in one
    chunk; the second must not be lost with the first read's buffer."""
    import socket

    from repro.service import proto
    from repro.testing import _read_accepted

    client, daemon = socket.socketpair()
    with client, daemon:
        daemon.sendall(
            proto.encode_frame({"type": "accepted", "request": 1})
            + proto.encode_frame({"type": "accepted", "request": 2})
        )
        _read_accepted(client, 2, timeout=5.0)
