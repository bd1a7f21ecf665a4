"""Length-prefixed JSON framing for worker-process result channels.

A bare "one JSON document on stdout" result channel is corrupted by any
stray ``print`` — from checked code, from a debugging statement left in
the pipeline, from a C library.  This module is a real wire protocol
instead:

- **Frames.**  Every message is ``MAGIC (4 bytes) + length (u32, big
  endian) + payload (UTF-8 JSON)``.  The magic starts with a byte that is
  invalid UTF-8, so framed data can never be confused with accidental
  text output, and :func:`extract_frame` can resynchronize past garbage
  that landed on the channel before the frame.

- **Channel hygiene.**  Worker entry points call :func:`shield_stdout`
  first: the real stdout fd is duplicated for the protocol's private use
  and fd 1 is redirected to stderr, so *anything* that writes to stdout
  afterwards — Python or C, pipeline or checked program — lands on stderr
  instead of inside the result stream.

- **Incremental parsing.**  The pool supervisor reads many workers' result
  pipes with non-blocking I/O; :class:`FrameReader` buffers partial reads
  per pipe and yields complete frames as they arrive.

Frames are capped at :data:`MAX_FRAME` so a corrupted length prefix
surfaces as a :class:`FrameError` instead of an attempt to buffer 4 GiB.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Iterator, List, Optional, Tuple

#: Frame preamble.  The first byte (0xAB) is not valid UTF-8 anywhere in a
#: character, so framed payloads are self-distinguishing from stray text.
MAGIC = b"\xabFG1"

#: Upper bound on one frame's JSON payload (a corrupted length prefix must
#: fail fast, not allocate unboundedly).
MAX_FRAME = 64 * 1024 * 1024

#: ``fg serve`` response frame types that end a request (everything except
#: "accepted").  The client reads them here so it loads only the protocol.
TERMINAL_RESPONSES = (
    "report", "overload", "shed", "draining", "error", "health", "stats",
    "events", "debug-bundle", "shutdown",
)

_HEADER = struct.Struct(">I")
_HEADER_LEN = len(MAGIC) + _HEADER.size


class FrameError(ValueError):
    """The byte stream is not a well-formed frame sequence."""


def encode_frame(obj) -> bytes:
    """Serialize one message to its wire form."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME}-byte cap")
    return MAGIC + _HEADER.pack(len(payload)) + payload


def write_frame_fd(fd: int, obj) -> None:
    """Write one frame to a raw file descriptor (fully, retrying short
    writes)."""
    data = encode_frame(obj)
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def read_frame_fd(fd: int) -> Optional[dict]:
    """Blocking read of exactly one frame from a raw file descriptor.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`FrameError` on a truncated or corrupted stream.
    """
    header = _read_exact(fd, _HEADER_LEN)
    if header is None:
        return None
    if header[: len(MAGIC)] != MAGIC:
        raise FrameError(f"bad frame magic: {header[:len(MAGIC)]!r}")
    (length,) = _HEADER.unpack(header[len(MAGIC):])
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds the cap")
    payload = _read_exact(fd, length)
    if payload is None:
        raise FrameError("stream ended mid-frame")
    return _decode_payload(payload)


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` if EOF arrives before any byte,
    :class:`FrameError` if it arrives after some."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            if not chunks:
                return None
            raise FrameError("stream ended mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _decode_payload(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FrameError(f"frame payload is not JSON: {err}") from None


def extract_frame(data: bytes) -> Tuple[Optional[dict], bytes]:
    """Find and decode the first complete frame anywhere in ``data``.

    Tolerates junk before the magic (the resynchronization path for a
    channel something scribbled on).  Returns ``(message, rest)``, with
    ``message=None`` when no complete frame is present.
    """
    start = data.find(MAGIC)
    if start < 0:
        return None, data[-(len(MAGIC) - 1):] if data else b""
    data = data[start:]
    if len(data) < _HEADER_LEN:
        return None, data
    (length,) = _HEADER.unpack(data[len(MAGIC):_HEADER_LEN])
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds the cap")
    end = _HEADER_LEN + length
    if len(data) < end:
        return None, data
    return _decode_payload(data[_HEADER_LEN:end]), data[end:]


class FrameReader:
    """Incremental frame parser for one non-blocking pipe.

    Feed it whatever bytes ``os.read`` produced; it buffers partial frames
    across feeds and yields each complete message exactly once.
    """

    def __init__(self):
        self._buffer = b""

    def feed(self, data: bytes) -> Iterator[dict]:
        self._buffer += data
        while True:
            message, self._buffer = extract_frame(self._buffer)
            if message is None:
                return
            yield message

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parseable as a complete frame."""
        return len(self._buffer)


def shield_stdout() -> int:
    """Claim the real stdout for the protocol; reroute fd 1 to stderr.

    Returns a private duplicate of the original stdout fd — the result
    channel.  After this call, any write to fd 1 / ``sys.stdout`` (a stray
    ``print`` in checked code, a C-level write) goes to stderr and cannot
    corrupt the framed result stream.
    """
    import sys

    result_fd = os.dup(1)
    os.set_inheritable(result_fd, False)
    sys.stdout.flush()
    os.dup2(2, 1)
    return result_fd
