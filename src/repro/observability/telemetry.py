"""Cross-process telemetry: wire-format span trees, clock normalization,
rolling-window reservoirs, daemon telemetry, and the operational event log.

The observability layer (tracer/metrics/explain) is process-local by
design; isolation walls (``--isolate=pool``) would otherwise
swallow everything the worker saw.  This module is the bridge:

- :func:`spans_to_wire` serializes a worker tracer's span forest into the
  JSON-safe list a result frame carries back;
- :func:`clock_offset_ns` estimates the offset between the coordinator's
  and a worker's ``perf_counter_ns`` clocks (which share no epoch) from
  the dispatch/receive bracket, midpoint method;
- :func:`graft_spans` rebuilds a wire span forest inside the coordinator
  tracer — fresh ids, normalized timestamps, explicit parent — so a single
  Chrome trace shows daemon, supervisor, and worker work on one timeline;
- :class:`WindowReservoir` keeps the last *N* samples for rolling
  p50/p95/p99 percentiles (a daemon must answer "how slow are requests
  *lately*", not since boot);
- :class:`ServerTelemetry` aggregates per-request latency, queue wait,
  busy time, and shed counts behind one lock for the ``stats`` request;
- :class:`OpsLog` is the append-only operational event log (worker
  spawn/loss/respawn/retire, shed, drain, resume, journal rotation) with
  monotonic sequence numbers, mirrored to JSONL on disk.

None of this touches report canonicalization: telemetry rides in frames
and merges into coordinator-side instrumentation only, so byte-identical
digest guarantees (journal resume, chaos cross-round) hold by
construction.  Standard library only, like the rest of the package.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.observability import flightrec
from repro.observability.tracer import Span, Tracer


# ---------------------------------------------------------------------------
# Wire span trees and clock normalization


def spans_to_wire(tracer) -> List[Dict[str, object]]:
    """Serialize a tracer's span forest for a result frame.

    Preorder, parent-linked by the *worker's* span ids; still-open spans
    (a crash mid-stage) are closed at their own start so durations stay
    non-negative.  JSON-unsafe attribute values are stringified.
    """
    wire: List[Dict[str, object]] = []
    for span in tracer.spans:
        attrs: Dict[str, object] = {}
        for key, value in span.attrs.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                attrs[key] = value
            else:
                attrs[key] = str(value)
        wire.append({
            "id": span.id,
            "parent": span.parent_id,
            "name": span.name,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns if span.end_ns is not None
                      else span.start_ns,
            "attrs": attrs,
        })
    return wire


def clock_offset_ns(send_ns: int, recv_ns: int,
                    remote_start_ns: int, remote_end_ns: int) -> int:
    """Offset mapping a worker's ``perf_counter_ns`` into coordinator time.

    ``perf_counter_ns`` has an arbitrary per-process epoch, so worker
    timestamps are meaningless on the coordinator timeline as-is.  The
    worker brackets its work with ``remote_start_ns``/``remote_end_ns``;
    the coordinator brackets the same work with dispatch ``send_ns`` and
    receive ``recv_ns``.  Aligning the two midpoints splits the transport
    cost evenly across both directions (the classic NTP assumption)::

        offset = midpoint(send, recv) - midpoint(remote_start, remote_end)

    Adding ``offset`` to any worker timestamp lands it inside the
    coordinator's dispatch..receive window, up to asymmetric queueing.
    """
    local_mid = (send_ns + recv_ns) // 2
    remote_mid = (remote_start_ns + remote_end_ns) // 2
    return local_mid - remote_mid


def graft_spans(
    tracer: Tracer,
    wire_spans: List[Dict[str, object]],
    *,
    offset_ns: int = 0,
    parent: Optional[Span] = None,
    clamp: Optional[tuple] = None,
    extra_attrs: Optional[Dict[str, object]] = None,
) -> int:
    """Rebuild a wire span forest inside ``tracer`` under ``parent``.

    Worker span ids are remapped to fresh coordinator ids (the two
    processes share no id space); ``offset_ns`` (from
    :func:`clock_offset_ns`) normalizes every timestamp, and ``clamp``
    — ``(lo_ns, hi_ns)``, typically the dispatch..receive bracket — caps
    residual clock skew so grafted spans never escape their parent
    visually.  ``extra_attrs`` (e.g. ``pid``) is merged into every
    grafted span.  Returns the number of spans grafted.
    """
    if not wire_spans:
        return 0
    by_old_id: Dict[object, Span] = {}
    grafted = 0
    for wire in wire_spans:
        start = int(wire.get("start_ns", 0)) + offset_ns
        end = int(wire.get("end_ns", wire.get("start_ns", 0))) + offset_ns
        if clamp is not None:
            lo, hi = clamp
            start = min(max(start, lo), hi)
            end = min(max(end, lo), hi)
        if end < start:
            end = start
        attrs = dict(wire.get("attrs") or {})
        if extra_attrs:
            attrs.update(extra_attrs)
        span_parent = by_old_id.get(wire.get("parent"), parent)
        span = tracer.adopt(
            str(wire.get("name", "?")), start, end,
            parent=span_parent, attrs=attrs,
        )
        by_old_id[wire.get("id")] = span
        grafted += 1
    return grafted


def merge_worker_telemetry(
    instrumentation,
    telemetry: Optional[Dict[str, object]],
    *,
    send_ns: int,
    recv_ns: int,
    span_name: str = "worker.attempt",
    parent: Optional[Span] = None,
    attrs: Optional[Dict[str, object]] = None,
) -> None:
    """Fold one result frame's telemetry into coordinator instrumentation.

    The single stitch point both isolation walls share: merge the metrics
    delta into the coordinator registry (this is how worker-side
    ``typecheck.*``/``congruence.*`` counters survive worker death — every
    *completed* task merged at result time, nothing hostage to the worker
    process), re-append explain entries, and graft the span tree under a
    synthetic ``span_name`` span covering the dispatch..receive bracket.
    """
    if not telemetry or instrumentation is None:
        return
    metrics = getattr(instrumentation, "metrics", None)
    if metrics is not None and telemetry.get("metrics"):
        metrics.merge_snapshot(telemetry["metrics"])
    explain = getattr(instrumentation, "explain", None)
    if explain is not None and telemetry.get("explain"):
        explain.merge_json(telemetry["explain"])
    tracer = getattr(instrumentation, "tracer", None)
    if tracer is None or not tracer.enabled:
        return
    span_attrs = dict(attrs or {})
    pid = telemetry.get("pid")
    if pid is not None:
        span_attrs.setdefault("pid", pid)
    attempt = tracer.adopt(
        span_name, send_ns, recv_ns, parent=parent, attrs=span_attrs,
    )
    spans = telemetry.get("spans")
    if not spans:
        return
    clock = telemetry.get("clock") or {}
    start = clock.get("start_ns")
    end = clock.get("end_ns")
    offset = (
        clock_offset_ns(send_ns, recv_ns, int(start), int(end))
        if start is not None and end is not None else 0
    )
    extra = {"pid": pid} if pid is not None else None
    graft_spans(
        tracer, spans, offset_ns=offset, parent=attempt,
        clamp=(send_ns, recv_ns), extra_attrs=extra,
    )


# ---------------------------------------------------------------------------
# Rolling-window reservoirs


class WindowReservoir:
    """The last ``capacity`` observations, with rank-based percentiles.

    A daemon that has served a million requests must answer "what is p95
    *now*", not "since boot" — a streaming count/sum/min/max histogram
    cannot forget, so stats requests read percentiles from this bounded
    ring instead.  ``observe`` is O(1); ``percentile`` sorts a copy of the
    window (bounded by ``capacity``, fine for a stats endpoint hit by
    humans and scrapers, not per-request).
    """

    __slots__ = ("_window", "count", "total")

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self._window = deque(maxlen=capacity)
        #: Observations ever made (the window only keeps the tail).
        self.count = 0
        #: Running sum of *all* observations (for lifetime means).
        self.total = 0.0

    def observe(self, value: float) -> None:
        self._window.append(float(value))
        self.count += 1
        self.total += float(value)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the current window (``q`` in 0..100);
        ``None`` while the window is empty."""
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready rolling view: window occupancy plus p50/p95/p99."""
        return {
            "count": self.count,
            "window": len(self._window),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self._window) if self._window else None,
        }

    def __len__(self) -> int:
        return len(self._window)


class ServerTelemetry:
    """Thread-safe rolling telemetry for one daemon process.

    The accept loop (main thread) answers ``stats`` requests from this
    object while the executor thread feeds it, so every access takes the
    internal lock; all operations are O(window) or better and never touch
    the filesystem — the ``stats`` request cannot block the accept loop
    on anything slower than a short critical section.
    """

    def __init__(self, *, workers: int = 1, window: int = 512):
        self._lock = threading.Lock()
        self._workers = max(1, workers)
        self._started = time.monotonic()
        self.latency_ms = WindowReservoir(window)
        self.queue_wait_ms = WindowReservoir(window)
        self._busy_s = 0.0
        self._shed_total = 0
        self._respawns = 0

    def observe_request(self, *, latency_ms: float, queue_wait_ms: float,
                        busy_s: float) -> None:
        """Record one completed request (terminal response written)."""
        with self._lock:
            self.latency_ms.observe(latency_ms)
            self.queue_wait_ms.observe(queue_wait_ms)
            self._busy_s += max(0.0, busy_s)

    def record_shed(self) -> None:
        with self._lock:
            self._shed_total += 1

    def add_respawns(self, count: int) -> None:
        if count:
            with self._lock:
                self._respawns += count

    @property
    def shed_total(self) -> int:
        with self._lock:
            return self._shed_total

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    def queue_wait_p95(self) -> Optional[float]:
        with self._lock:
            return self.queue_wait_ms.percentile(95)

    def snapshot(self) -> Dict[str, object]:
        """The rolling-telemetry half of a ``stats`` payload."""
        with self._lock:
            uptime_s = max(time.monotonic() - self._started, 1e-9)
            return {
                "uptime_ms": uptime_s * 1000.0,
                "latency_ms": self.latency_ms.snapshot(),
                "queue_wait_ms": self.queue_wait_ms.snapshot(),
                "shed_total": self._shed_total,
                "respawns": self._respawns,
                # Fraction of one worker-second consumed per wall second,
                # normalized by seats: 1.0 == every worker busy always.
                "worker_utilization": min(
                    1.0, self._busy_s / (uptime_s * self._workers)
                ),
            }


# ---------------------------------------------------------------------------
# Operational event log


class OpsLog:
    """Append-only operational event log with monotonic sequence numbers.

    Every lifecycle event the daemon or pool undergoes — worker spawn,
    loss, respawn, retirement, shed, drain, resume, journal rotation —
    lands here as one record: ``{"seq", "ts_ms", "event", ...fields}``.
    ``seq`` increases by exactly 1 per event, so a consumer tailing the
    file can detect gaps.  The in-memory ring serves ``fg client events``
    without touching disk; the JSONL mirror (when ``path`` is given) is
    opened in append mode and flushed per record, mirroring the journal's
    crash discipline (minus fsync — ops telemetry is advisory, reports
    are not).
    """

    def __init__(self, path: Optional[str] = None, *, ring: int = 256,
                 max_bytes: Optional[int] = None):
        self._lock = threading.Lock()
        self._ring = deque(maxlen=ring)
        self._seq = 0
        self.path = path
        #: Rotation threshold: when the file reaches this size, it is
        #: atomically renamed to ``<path>.1`` (one backup generation) and
        #: a fresh file opened, bounding a long-lived daemon's ops-log
        #: footprint at ~2×.  ``None`` disables rotation.
        self.max_bytes = max_bytes
        self._fh = open(path, "a", encoding="utf-8") if path else None

    def _maybe_rotate_locked(self) -> bool:
        """Rotate ``path`` → ``path.1`` when past ``max_bytes``.

        Called under the lock with the record that triggered the check
        not yet written, so the triggering record — and the synthetic
        ``ops-log-rotate`` marker before it — both land in the *new*
        file.  Never raises.
        """
        if (self._fh is None or self.max_bytes is None
                or self.max_bytes <= 0):
            return False
        try:
            if self._fh.tell() < self.max_bytes:
                return False
            self._fh.close()
            os.replace(self.path, self.path + ".1")
            self._fh = open(self.path, "a", encoding="utf-8")
            return True
        except OSError:
            # Rotation failure must not kill the log; try to keep the
            # handle usable (reopen best-effort).
            if self._fh is None or self._fh.closed:
                try:
                    self._fh = open(self.path, "a", encoding="utf-8")
                except OSError:
                    self._fh = None
            return False

    def emit(self, event: str, **fields) -> Dict[str, object]:
        """Record one event; returns the record (mostly for tests)."""
        with self._lock:
            if self._maybe_rotate_locked():
                self._seq += 1
                marker = {
                    "seq": self._seq,
                    "ts_ms": int(time.time() * 1000),
                    "event": "ops-log-rotate",
                    "backup": self.path + ".1",
                    "max_bytes": self.max_bytes,
                }
                self._ring.append(marker)
                flightrec.record_event(dict(marker))
                self._write_locked(marker)
            self._seq += 1
            record = {"seq": self._seq, "ts_ms": int(time.time() * 1000),
                      "event": event}
            record.update(fields)
            self._ring.append(record)
            flightrec.record_event(dict(record))
            self._write_locked(record)
            return record

    def _write_locked(self, record: Dict[str, object]) -> None:
        if self._fh is not None:
            try:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
            except OSError:
                pass  # advisory log: never fail the daemon over it

    def tail(self, n: int = 20) -> List[Dict[str, object]]:
        """The most recent ``n`` events, oldest first."""
        with self._lock:
            if n <= 0:
                return []
            return [dict(r) for r in list(self._ring)[-n:]]

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def __enter__(self) -> "OpsLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_ops_log(path: str) -> List[Dict[str, object]]:
    """Parse an :class:`OpsLog` JSONL file back into records, file order.

    Tolerates a corrupt tail the same way journal replay does: a
    truncated final line (the process died mid-write) or interleaved
    junk bytes are skipped, and every parseable record before and after
    them survives.  An ops log is advisory — losing one torn record must
    never lose the history around it.

    Reads across the rotation boundary: when a ``<path>.1`` backup from
    :class:`OpsLog` rotation exists, its records come first, so the
    returned history is continuous (``seq`` keeps increasing through the
    boundary).
    """
    records: List[Dict[str, object]] = []
    for source in (path + ".1", path):
        if not os.path.exists(source):
            continue
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn write or junk: keep the rest
                if isinstance(record, dict):
                    records.append(record)
    return records
