"""Append-only crash-safe request journal for the ``fg serve`` daemon.

The daemon's durability story: every admitted request is journaled
*before* it runs and journaled again when it finishes, so a daemon that is
SIGKILLed mid-batch can be restarted with ``fg serve --resume`` and re-run
exactly the requests that never completed — and, because
:func:`repro.service.check_batch` is deterministic modulo timing, the
replayed canonical reports are byte-identical to what the uninterrupted
run would have produced.

**Record format.**  One record is ``MAGIC (4 bytes) + length (u32, big
endian) + crc32 (u32, big endian) + payload (UTF-8 JSON)``.  The magic
shares the framed protocol's invalid-UTF-8 first byte but is distinct from
the socket magic, so a journal can never be mistaken for a result stream.
Each append is a *single* ``os.write`` to an ``O_APPEND`` descriptor
followed by ``fsync``, so a record is either fully present or entirely
absent — a torn tail (the daemon died mid-write) fails its length or
checksum and is truncated away on replay.

**Record kinds** (the ``"op"`` key):

- ``begin`` — a request was admitted: carries the request id, the sources,
  the *resolved* policy echo (so replay reconstructs the identical
  :class:`~repro.service.policy.BatchPolicy`), and the optional fault
  schedule.
- ``done`` — the request's batch completed: carries the exit code, the
  canonical (timing-stripped) report, and its SHA-256 digest.
- ``cancel`` — the request will never run (client disconnected while
  queued, or its deadline expired in the queue); replay skips it.

A request with a ``begin`` but neither ``done`` nor ``cancel`` is
*unfinished* — the replay set.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The interpreter's own SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before):
# ``hashlib`` would load OpenSSL into the daemon to hash one small report
# per request.  Same digest bytes; ``hashlib`` only where neither exists.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

#: Journal record preamble (first byte invalid UTF-8, like the wire magic,
#: but a distinct tag so streams and journals are never confused).
MAGIC = b"\xabFGJ"

#: Cap on one record's payload: a corrupted length prefix must fail fast.
MAX_RECORD = 64 * 1024 * 1024

_HEADER = struct.Struct(">II")  # length, crc32
_HEADER_LEN = len(MAGIC) + _HEADER.size


class JournalError(ValueError):
    """The journal cannot be opened or appended (not a corrupt-tail case —
    those are repaired silently on replay)."""


def encode_record(payload: Dict[str, object]) -> bytes:
    """Serialize one record to its on-disk form."""
    blob = json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(blob) > MAX_RECORD:
        raise JournalError(
            f"journal record of {len(blob)} bytes exceeds the "
            f"{MAX_RECORD}-byte cap"
        )
    return MAGIC + _HEADER.pack(len(blob), zlib.crc32(blob)) + blob


class Journal:
    """An open journal file, append side.

    Appends are thread-safe (the daemon's admission thread journals
    ``begin``/``cancel`` while the executor thread journals ``done``) and
    durable: one write, one fsync, under one lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )

    def append(self, payload: Dict[str, object]) -> None:
        data = encode_record(payload)
        with self._lock:
            if self._fd < 0:
                raise JournalError("journal is closed")
            os.write(self._fd, data)
            os.fsync(self._fd)

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Replay:
    """What :func:`replay` recovered from a journal file."""

    #: Every intact record, in append order.
    records: List[Dict[str, object]] = field(default_factory=list)
    #: Corrupt-tail bytes dropped (0 for a cleanly closed journal).
    truncated_bytes: int = 0

    @property
    def requests(self) -> Dict[int, Dict[str, Dict[str, object]]]:
        """Record kinds per request id: ``{id: {"begin": ..., ...}}``."""
        table: Dict[int, Dict[str, Dict[str, object]]] = {}
        for record in self.records:
            request = record.get("request")
            if request is None:
                continue
            table.setdefault(request, {})[record.get("op")] = record
        return table

    @property
    def unfinished(self) -> List[Dict[str, object]]:
        """``begin`` records with no ``done``/``cancel`` — the replay set,
        in admission order."""
        table = self.requests
        return [
            ops["begin"]
            for _, ops in sorted(table.items())
            if "begin" in ops and "done" not in ops and "cancel" not in ops
        ]

    @property
    def next_request_id(self) -> int:
        """The first id a resumed daemon may assign."""
        ids = [r.get("request") for r in self.records
               if isinstance(r.get("request"), int)]
        return max(ids, default=0) + 1


def replay(path: str, *, repair: bool = True) -> Replay:
    """Read every intact record; truncate a corrupt tail.

    A record is intact when its magic, length, and CRC all check out and
    the payload parses as JSON.  The first violation ends the scan: all
    bytes from that offset on are the *corrupt tail* — with ``repair=True``
    (the default) the file is truncated back to the last intact record so
    subsequent appends produce a clean journal.  A missing file replays as
    empty.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return Replay()
    records: List[Dict[str, object]] = []
    offset = 0
    while True:
        end = _frame_end(data, offset)
        if end is None:
            break
        try:
            records.append(_payload(data, offset, end))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        offset = end
    truncated = len(data) - offset
    if truncated and repair:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    return Replay(records=records, truncated_bytes=truncated)


def tail(path: str, limit: int = 20,
         window: int = 64 * 1024) -> List[Dict[str, object]]:
    """The last ``limit`` intact records among the file's final ``window``
    bytes, for crash-bundle context.

    The window may open mid-record, and a record may be half-written
    while it is read: each candidate is checked as :func:`replay` checks
    it (magic, length, CRC, JSON), and the scan resumes at the next magic
    after one that fails.  A record that starts before the window is not
    returned.  Only the last ``limit`` framed records are parsed: the
    daemon rebuilds its black box every second.  Runs inside fault paths,
    so it never raises: an unreadable journal has no tail.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(max(0, handle.seek(0, os.SEEK_END) - window))
            data = handle.read()
    except OSError:
        return []
    frames: List[Tuple[int, int]] = []
    offset = data.find(MAGIC)
    while offset >= 0:
        end = _frame_end(data, offset)
        if end is None:
            offset = data.find(MAGIC, offset + 1)
        else:
            frames.append((offset, end))
            offset = data.find(MAGIC, end)
    records: List[Dict[str, object]] = []
    for start, end in reversed(frames):
        if len(records) == limit:
            break
        try:
            records.append(_payload(data, start, end))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
    return records[::-1]


def _frame_end(data: bytes, offset: int) -> Optional[int]:
    """Where the record framed at ``offset`` ends, when its magic, length
    cap and CRC hold; else ``None``."""
    header = data[offset:offset + _HEADER_LEN]
    if len(header) < _HEADER_LEN or header[:len(MAGIC)] != MAGIC:
        return None
    length, crc = _HEADER.unpack(header[len(MAGIC):])
    end = offset + _HEADER_LEN + length
    if length > MAX_RECORD or end > len(data):
        return None
    if zlib.crc32(memoryview(data)[offset + _HEADER_LEN:end]) != crc:
        return None
    return end


def _payload(data: bytes, offset: int, end: int) -> Dict[str, object]:
    """The JSON payload of the framed record at ``offset``."""
    return json.loads(data[offset + _HEADER_LEN:end].decode("utf-8"))


def rotate(path: str) -> Optional[str]:
    """Move an existing journal aside (``<path>.bak``) and return the new
    name, or ``None`` when there was nothing to rotate.

    A daemon started *without* ``--resume`` over an existing journal must
    not silently discard its unfinished requests, nor interleave two
    daemons' histories in one file.
    """
    if not os.path.exists(path):
        return None
    backup = path + ".bak"
    os.replace(path, backup)
    return backup


def report_digest(canonical_report: str) -> str:
    """SHA-256 over a canonical report string — the identity replays are
    checked against."""
    return _sha256(canonical_report.encode("utf-8")).hexdigest()


def begin_record(
    request: int,
    sources: List[Tuple[str, str]],
    policy_json: Dict[str, object],
    schedule_json: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    return {
        "op": "begin",
        "request": request,
        "sources": [[name, text] for name, text in sources],
        "policy": policy_json,
        "schedule": schedule_json,
    }


def done_record(
    request: int,
    exit_code: int,
    canonical_report: str,
    *,
    resumed: bool = False,
) -> Dict[str, object]:
    return {
        "op": "done",
        "request": request,
        "exit_code": exit_code,
        "digest": report_digest(canonical_report),
        "report": json.loads(canonical_report),
        "resumed": resumed,
    }


def cancel_record(request: int, reason: str) -> Dict[str, object]:
    return {"op": "cancel", "request": request, "reason": reason}
