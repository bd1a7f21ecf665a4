"""Units for the crash-safe request journal (:mod:`repro.service.journal`).

The journal is the serve daemon's durability story, so the tests major on
the crash cases: torn tails at every byte offset, checksum-flipped bytes,
interleaved daemon lifetimes, and the begin-without-done replay set.
"""

import json
import os

import pytest

from repro.service import journal as journal_mod
from repro.service.journal import (
    Journal,
    JournalError,
    begin_record,
    cancel_record,
    done_record,
    encode_record,
    replay,
    report_digest,
    rotate,
)
from repro.service.policy import BatchPolicy


def _write(tmp_path, *payloads):
    path = str(tmp_path / "fg.journal")
    with Journal(path) as journal:
        for payload in payloads:
            journal.append(payload)
    return path


def test_records_round_trip_in_append_order(tmp_path):
    records = [
        begin_record(1, [("a.fg", "1")], {"jobs": 2}, None),
        done_record(1, 0, '{"files": []}'),
        begin_record(2, [("b.fg", "2")], {"jobs": 2},
                     {"specs": [], "hang_s": 0.5, "kills": []}),
        cancel_record(2, "client-disconnected"),
    ]
    path = _write(tmp_path, *records)
    recovered = replay(path)
    assert recovered.records == records
    assert recovered.truncated_bytes == 0


def test_missing_journal_replays_as_empty(tmp_path):
    recovered = replay(str(tmp_path / "never-written.journal"))
    assert recovered.records == []
    assert recovered.unfinished == []
    assert recovered.next_request_id == 1


def test_unfinished_is_begin_without_done_or_cancel(tmp_path):
    path = _write(
        tmp_path,
        begin_record(1, [("a.fg", "1")], {}, None),
        begin_record(2, [("b.fg", "2")], {}, None),
        begin_record(3, [("c.fg", "3")], {}, None),
        done_record(1, 0, '{"ok": true}'),
        cancel_record(3, "queue-deadline"),
    )
    recovered = replay(path)
    unfinished = recovered.unfinished
    assert [r["request"] for r in unfinished] == [2]
    assert recovered.next_request_id == 4


@pytest.mark.parametrize("cut", range(1, 24))
def test_torn_tail_is_truncated_at_every_offset(tmp_path, cut):
    """SIGKILL mid-write: whatever prefix of the last record landed on
    disk, replay drops exactly it and keeps every earlier record."""
    keep = begin_record(1, [("a.fg", "1")], {}, None)
    torn = done_record(1, 0, '{"ok": true}')
    path = str(tmp_path / "fg.journal")
    torn_bytes = encode_record(torn)
    cut = min(cut, len(torn_bytes) - 1)
    with open(path, "wb") as handle:
        handle.write(encode_record(keep) + torn_bytes[:cut])
    recovered = replay(path)
    assert recovered.records == [keep]
    assert recovered.truncated_bytes == cut
    # repair=True truncated the file in place: a second replay is clean,
    # and appends after the repair produce an intact journal.
    assert replay(path).truncated_bytes == 0
    with Journal(path) as journal:
        journal.append(torn)
    assert replay(path).records == [keep, torn]


def test_flipped_payload_byte_fails_the_checksum(tmp_path):
    record = begin_record(1, [("a.fg", "1")], {}, None)
    data = encode_record(record)
    path = str(tmp_path / "fg.journal")
    with open(path, "wb") as handle:
        corrupted = bytearray(data)
        corrupted[-3] ^= 0xFF  # flip one payload byte; CRC must catch it
        handle.write(bytes(corrupted))
    recovered = replay(path)
    assert recovered.records == []
    assert recovered.truncated_bytes == len(data)


def test_replay_without_repair_leaves_the_file_alone(tmp_path):
    path = str(tmp_path / "fg.journal")
    with open(path, "wb") as handle:
        handle.write(encode_record(cancel_record(1, "x")) + b"torn")
    size = os.path.getsize(path)
    recovered = replay(path, repair=False)
    assert recovered.truncated_bytes == 4
    assert os.path.getsize(path) == size


def test_oversized_record_is_rejected_on_append():
    with pytest.raises(JournalError):
        encode_record({"blob": "x" * (journal_mod.MAX_RECORD + 1)})


def test_append_after_close_raises(tmp_path):
    journal = Journal(str(tmp_path / "fg.journal"))
    journal.close()
    with pytest.raises(JournalError):
        journal.append({"op": "cancel", "request": 1, "reason": "late"})


def test_rotate_moves_the_old_journal_aside(tmp_path):
    path = _write(tmp_path, cancel_record(1, "x"))
    backup = rotate(path)
    assert backup == path + ".bak"
    assert not os.path.exists(path)
    assert replay(backup).records == [cancel_record(1, "x")]
    assert rotate(str(tmp_path / "absent.journal")) is None


def test_journal_magic_is_distinct_from_the_wire_magic():
    from repro.service import proto

    assert journal_mod.MAGIC != proto.MAGIC
    with pytest.raises(UnicodeDecodeError):
        journal_mod.MAGIC.decode("utf-8")


def test_done_record_digest_matches_report_digest():
    canonical = json.dumps({"files": [], "policy": {}}, sort_keys=True)
    record = done_record(7, 0, canonical)
    assert record["digest"] == report_digest(canonical)
    assert record["report"] == json.loads(canonical)


def test_policy_echo_round_trips_through_the_journal(tmp_path):
    """The begin record stores the resolved policy echo; replay must
    reconstruct the *identical* policy (the digest-match precondition)."""
    policy = BatchPolicy(
        jobs=3, deadline_ms=250.0, isolate="pool", pool_workers=2,
        verify=True,
    )
    path = _write(
        tmp_path, begin_record(1, [("a.fg", "1")], policy.to_json(), None),
    )
    (record,) = replay(path).unfinished
    rebuilt = BatchPolicy.from_json(record["policy"])
    assert rebuilt.to_json() == policy.to_json()


def test_legacy_subprocess_isolation_replays_as_pool(tmp_path):
    """Daemons that still offered ``isolate="subprocess"`` journaled it in
    begin records; replay must rebuild those as pool policies instead of
    aborting the daemon at startup."""
    legacy = dict(BatchPolicy(isolate="pool").to_json(), isolate="subprocess")
    path = _write(tmp_path, begin_record(1, [("a.fg", "1")], legacy, None))
    (record,) = replay(path).unfinished
    rebuilt = BatchPolicy.from_json(record["policy"])
    assert rebuilt.isolate == "pool"
    assert rebuilt.to_json() == BatchPolicy(isolate="pool").to_json()


@pytest.mark.slow
def test_resume_replays_a_legacy_subprocess_request(tmp_path):
    from repro.service import ServeOptions, Server, check_batch

    policy = BatchPolicy(isolate="pool", pool_workers=1)
    legacy = dict(policy.to_json(), isolate="subprocess")
    journal_path = str(tmp_path / "fg.journal")
    with Journal(journal_path) as journal:
        journal.append(begin_record(1, [("a.fg", "iadd(1, 2)")], legacy, None))
    summary = Server(policy, ServeOptions(
        socket_path=str(tmp_path / "unused.sock"),
        journal_path=journal_path,
        resume_only=True,
    )).serve()
    expected = report_digest(
        check_batch([("a.fg", "iadd(1, 2)")], policy).canonical_json()
    )
    assert summary["resumed"] == {"1": expected}
