"""Units for the crash-safe request journal (:mod:`repro.service.journal`).

The journal is the serve daemon's durability story, so the tests major on
the crash cases: torn tails at every byte offset, checksum-flipped bytes,
interleaved daemon lifetimes, and the begin-without-done replay set.  The
crash-bundle tail reads the same framing from a window that may open
mid-record, and the report digest, hashed with the interpreter's built-in
SHA-256, must equal ``hashlib``'s on every interpreter.
"""

import hashlib
import json
import os
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.diagnostics.limits import DEFAULT_LIMITS, Limits
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
    tail,
)
from repro.service.policy import BatchPolicy
from repro.service.worker import task_payload

#: Default and non-default budgets, every field moved off its default.
LIMITS = [
    None,
    Limits(),
    Limits(max_check_depth=7, max_congruence_nodes=None, max_eval_steps=900,
           python_stack_limit=20_000, deadline_ms=12.5),
]


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


def _tail_journal(tmp_path):
    """A journal of varied records, and each one's start offset."""
    records = [
        begin_record(1, [("a.fg", "1")], {"jobs": 2}, None),
        done_record(1, 0, '{"files": []}'),
        begin_record(2, [("b.fg", "let x = 2 in x")], {}, None),
        cancel_record(2, "client-disconnected"),
        begin_record(3, [("c.fg", "3")], {}, None),
        done_record(3, 1, '{"files": [{"status": "diagnostics"}]}'),
    ]
    path = _write(tmp_path, *records)
    starts, offset = [], 0
    for record in records:
        starts.append(offset)
        offset += len(encode_record(record))
    return path, records, starts


def test_tail_returns_the_last_records_in_append_order(tmp_path):
    path, records, _ = _tail_journal(tmp_path)
    assert tail(path) == records
    assert tail(path, limit=2) == records[-2:]


def test_tail_window_opening_mid_record_skips_the_torn_prefix(tmp_path):
    """Every window size: exactly the records that start inside it."""
    path, records, starts = _tail_journal(tmp_path)
    size = os.path.getsize(path)
    for window in range(size + 2):
        expected = [r for r, start in zip(records, starts)
                    if start >= size - window]
        assert tail(path, window=window) == expected, window


@pytest.mark.parametrize("prefix", [
    b"",
    b"not a journal\n{\"op\": \"begin\"}\n",
    journal_mod.MAGIC + b"\x00\x00\x00\x05junk",
    journal_mod.MAGIC * 3,
    bytes(range(256)),
])
@pytest.mark.parametrize("cut", [0, 1, 11, 30])
def test_tail_skips_foreign_prefixes_and_torn_ends(tmp_path, prefix, cut):
    path, records, _ = _tail_journal(tmp_path)
    with open(path, "rb") as handle:
        intact = handle.read()
    torn = encode_record(cancel_record(4, "never landed"))[:cut]
    with open(path, "wb") as handle:
        handle.write(prefix + intact + torn)
    assert tail(path) == records


def test_tail_skips_a_corrupt_record_and_keeps_the_rest(tmp_path):
    path, records, starts = _tail_journal(tmp_path)
    with open(path, "r+b") as handle:
        handle.seek(starts[2] + 12)  # first payload byte of record 3
        byte = handle.read(1)
        handle.seek(starts[2] + 12)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert tail(path) == records[:2] + records[3:]
    assert replay(path, repair=False).records == records[:2]


def test_tail_skips_a_framed_record_that_is_not_json(tmp_path):
    path, records, _ = _tail_journal(tmp_path)
    blob = b"{not json"
    framed = journal_mod.MAGIC + journal_mod._HEADER.pack(
        len(blob), zlib.crc32(blob)) + blob
    with open(path, "ab") as handle:
        handle.write(framed + encode_record(cancel_record(4, "late")))
    assert tail(path) == records + [cancel_record(4, "late")]
    assert tail(path, limit=1) == [cancel_record(4, "late")]
    assert replay(path, repair=False).records == records


def test_tail_of_a_missing_or_unreadable_journal_is_empty(tmp_path):
    assert tail(str(tmp_path / "never-written.journal")) == []
    assert tail(str(tmp_path)) == []  # a directory: open() fails
    empty = tmp_path / "empty.journal"
    empty.write_bytes(b"")
    assert tail(str(empty)) == []


def _equals_hashlib(text):
    assert report_digest(text) == hashlib.sha256(
        text.encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("text", [
    "",
    "déjà vu: λx. x ∀α. α → α 𝔽_G \u00ab\u00bb \U0001f600",
    "x" * (1024 * 1024),
    "\u00e9" * (512 * 1024),  # 1 MiB of UTF-8 from 2-byte characters
], ids=["empty", "non-ascii", "1mib-ascii", "1mib-utf8"])
def test_report_digest_is_hashlib_sha256(text):
    _equals_hashlib(text)


def test_report_digest_of_a_chaos_round_report():
    """A ``run_chaos(rounds=1, seed=0)`` round's canonical report, rebuilt
    with the harness's own files, schedule and policy."""
    from repro.service import RetryPolicy, check_batch
    from repro.testing import FUZZ_SEEDS, chaos_schedule

    files = [(f"<chaos{i}>", src) for i, src in enumerate(FUZZ_SEEDS)]
    schedule = chaos_schedule(len(files), 0, hang_s=1.2)
    policy = BatchPolicy(jobs=2, deadline_ms=400.0,
                         retry=RetryPolicy(max_retries=1))
    report = check_batch(files, policy, fault_schedule=schedule)
    _equals_hashlib(report.canonical_json())


def test_report_digest_of_the_examples_report():
    from repro.service import check_batch

    examples = Path(__file__).resolve().parents[2] / "examples" / "fg"
    files = [(path.name, path.read_text(encoding="utf-8"))
             for path in sorted(examples.glob("*.fg"))]
    assert files
    _equals_hashlib(check_batch(files, BatchPolicy()).canonical_json())


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


@pytest.mark.parametrize("limits", LIMITS)
def test_limits_projection_is_asdict(limits):
    """``Limits.to_json`` is ``asdict`` without the deep copy: the same
    dict in the same key order, so every echo of it keeps its bytes."""
    limits = limits or DEFAULT_LIMITS
    assert list(limits.to_json().items()) == list(asdict(limits).items())
    payload = task_payload("a.fg", "1", {"limits": limits}, [], (), 0.0)
    assert payload["check_kwargs"]["limits"] == asdict(limits)


@pytest.mark.parametrize("limits", LIMITS)
def test_begin_record_bytes_are_unchanged(limits):
    """A begin record's policy echo encodes to the bytes the ``asdict``
    projection gave."""
    policy = BatchPolicy(jobs=2, deadline_ms=250.0, limits=limits)
    echo = policy.to_json()
    reference = dict(echo, limits=asdict(limits or DEFAULT_LIMITS))
    assert list(echo) == list(reference)
    assert encode_record(
        begin_record(1, [("a.fg", "1")], echo, None)
    ) == encode_record(begin_record(1, [("a.fg", "1")], reference, None))


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
