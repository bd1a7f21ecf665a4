"""Client side of the ``fg serve`` socket protocol.

Thin and synchronous: connect, send one framed request, read framed
responses until a terminal one arrives (``accepted`` is informational —
it carries the request id and queue depth and is reported through the
optional ``on_accept`` callback).  Exceptions here are all
:class:`ClientError` subtypes so ``fg client`` can map them onto the
exit-code contract without pattern-matching message strings.
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, List, Optional, Tuple

from repro.service import proto
from repro.service.proto import TERMINAL_RESPONSES


class ClientError(Exception):
    """Base for everything the client can fail with."""


class ServerUnavailable(ClientError):
    """No daemon is listening on the socket path."""


class ConnectionLost(ClientError):
    """The daemon closed the connection before a terminal response."""


class ProtocolError(ClientError):
    """The daemon sent bytes the framed protocol cannot accept."""


def connect(socket_path: str, timeout: Optional[float] = None) \
        -> socket.socket:
    """Open a connection to the daemon, or raise :class:`ServerUnavailable`."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(socket_path)
    except OSError as exc:
        sock.close()
        raise ServerUnavailable(
            f"no daemon on {socket_path}: {exc}"
        ) from exc
    return sock


def read_response(
    sock: socket.socket,
    reader: Optional[proto.FrameReader] = None,
    on_accept: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Read frames until a terminal response; returns it."""
    reader = reader if reader is not None else proto.FrameReader()
    pending: List[Dict[str, object]] = []
    while True:
        while pending:
            frame = pending.pop(0)
            kind = frame.get("type")
            if kind in TERMINAL_RESPONSES:
                return frame
            if kind == "accepted" and on_accept is not None:
                on_accept(frame)
        try:
            chunk = sock.recv(65536)
        except socket.timeout as exc:
            raise ConnectionLost("timed out waiting for response") from exc
        except OSError as exc:
            raise ConnectionLost(f"connection lost: {exc}") from exc
        if chunk == b"":
            raise ConnectionLost(
                "daemon closed the connection before responding"
            )
        try:
            pending.extend(reader.feed(chunk))
        except proto.FrameError as exc:
            raise ProtocolError(str(exc)) from exc


def roundtrip(
    socket_path: str,
    payload: Dict[str, object],
    *,
    timeout: Optional[float] = None,
    on_accept: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """One request, one terminal response, connection closed."""
    sock = connect(socket_path, timeout)
    try:
        sock.sendall(proto.encode_frame(payload))
        return read_response(sock, on_accept=on_accept)
    except OSError as exc:
        raise ConnectionLost(f"connection lost: {exc}") from exc
    finally:
        sock.close()


def check_remote(
    socket_path: str,
    sources: List[Tuple[str, str]],
    *,
    policy_overrides: Optional[Dict[str, object]] = None,
    schedule_json: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
    on_accept: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Submit a batch; returns the terminal response frame
    (``report``/``overload``/``shed``/``draining``/``error``)."""
    payload: Dict[str, object] = {
        "type": "batch",
        "sources": [[name, text] for name, text in sources],
    }
    if policy_overrides:
        payload["policy"] = policy_overrides
    if schedule_json is not None:
        payload["schedule"] = schedule_json
    return roundtrip(
        socket_path, payload, timeout=timeout, on_accept=on_accept,
    )


def health(socket_path: str, timeout: Optional[float] = 5.0) \
        -> Dict[str, object]:
    """The daemon's health snapshot."""
    return roundtrip(socket_path, {"type": "health"}, timeout=timeout)


def stats(socket_path: str, timeout: Optional[float] = 5.0) \
        -> Dict[str, object]:
    """The daemon's rolling live-telemetry snapshot (latency/queue-wait
    percentiles, utilization, shed and respawn totals)."""
    return roundtrip(socket_path, {"type": "stats"}, timeout=timeout)


def events(socket_path: str, tail: int = 20,
           timeout: Optional[float] = 5.0) -> Dict[str, object]:
    """The last ``tail`` operational events (worker lifecycle, sheds,
    drain/resume, journal rotation) with monotonic sequence numbers."""
    return roundtrip(
        socket_path, {"type": "events", "tail": tail}, timeout=timeout,
    )


def debug_bundle(socket_path: str, timeout: Optional[float] = 10.0) \
        -> Dict[str, object]:
    """Force a "manual" crash bundle from a live daemon (``fg debug
    bundle``): the response carries the full bundle document and, when
    the daemon has a crash dir, the path it was written to."""
    return roundtrip(socket_path, {"type": "debug-bundle"}, timeout=timeout)


def request_shutdown(socket_path: str, timeout: Optional[float] = 5.0) \
        -> Dict[str, object]:
    """Ask the daemon to drain (socket-side SIGTERM equivalent)."""
    return roundtrip(socket_path, {"type": "shutdown"}, timeout=timeout)
