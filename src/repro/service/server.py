"""The ``fg serve`` daemon: a resilient socket front end for batch checking.

One long-lived process owns a :class:`~repro.service.pool.PersistentPool`
of warm workers and serves check requests over a Unix-domain stream socket
using the framed protocol from :mod:`repro.service.proto` — the same
magic, length prefix, and junk-resync rules as the worker pipes, so a
partial or hostile byte stream can never wedge the parser.

**Threading model.**  Two threads, one direction of ownership:

- the *main* thread runs a non-blocking ``selectors`` loop over the
  listener, every client connection, and a self-pipe; it owns admission
  (the bounded queue), connection lifecycle (including disconnect and
  slow-loris idle close), and all socket I/O;
- the *executor* thread pops admitted requests one at a time and runs
  :func:`~repro.service.check_batch` on the warm pool, journaling
  ``done`` records and pushing responses back through the self-pipe.

**Admission control.**  The queue is bounded (``max_queue``); a request
arriving over the bound is shed immediately with an ``overload`` response
carrying a deterministic ``retry_after_ms = retry_after_base_ms *
(queued + in_flight)`` hint — load shedding is a *policy*, not an
accident of buffer sizes.  A request whose own ``deadline_ms`` expires
while still queued is shed with a ``shed`` response (the work never
started; the journal records a ``cancel``).

**Deadline composition.**  A request may carry policy overrides including
``deadline_ms``; the effective per-task deadline is the *minimum* of the
server's configured deadline and the request's — computed once at
admission from static values, so the policy echo in the report (and hence
the canonical digest) is identical whether the request runs immediately,
queued, or replayed after a crash.  Overrides of the fields that shape
the pool's processes (:data:`POOL_SPAWN_FIELDS`) are refused: the pool
spawns every worker under the server's policy.

**Graceful drain.**  SIGTERM/SIGINT set a flag through
:func:`~repro.service.signals.notify_on_termination` and poke the
self-pipe.  A draining server stops admitting (``draining`` responses),
finishes every already-admitted request, flushes the responses, and exits
0.  Clients that disconnect while their request is queued get it
cancelled (journal ``cancel``); a disconnect with the request in flight
orphans it — the batch completes and is journaled, only the response is
dropped, and the pool is never poisoned mid-task.

**Crash safety.**  Every admitted request writes a journal ``begin``
before it can run and a ``done``/``cancel`` after
(:mod:`repro.service.journal`).  A SIGKILLed daemon restarted with
``--resume`` replays the journal, truncates any torn tail, and re-runs
exactly the unfinished requests; determinism of the checking stack makes
the resumed canonical reports byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import collections
import os
import selectors
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.observability import (
    Instrumentation,
    NULL_TRACER,
    OpsLog,
    ServerTelemetry,
)
from repro.observability import diskguard, flightrec
from repro.service import journal as journal_mod
from repro.service import proto
from repro.service.batch import check_batch
from repro.service.faults import FaultSchedule
from repro.service.journal import (
    Journal,
    begin_record,
    cancel_record,
    done_record,
)
from repro.service.policy import ISOLATION_MODES, BatchPolicy
from repro.service.pool import PersistentPool
from repro.service.report import canonicalize
from repro.service.signals import notify_on_termination

#: Request frame types a client may send.
REQUEST_TYPES = (
    "batch", "health", "stats", "events", "debug-bundle", "shutdown",
)

#: Response frame types that end a request (everything except "accepted").
TERMINAL_RESPONSES = proto.TERMINAL_RESPONSES


class ServeError(Exception):
    """The daemon cannot start (bad socket path, live sibling, ...)."""


@dataclass(frozen=True)
class ServeOptions:
    """Everything about the daemon that is not the batch policy."""

    socket_path: str
    journal_path: Optional[str] = None
    #: Admission bound: requests beyond this many queued are shed.
    max_queue: int = 8
    #: Scale for the deterministic overload hint.
    retry_after_base_ms: int = 100
    #: Slow-loris defense: a connection idle this long with no admitted
    #: request (stalled mid-frame, or never sent one) is closed.
    idle_timeout_s: float = 10.0
    #: Replay the existing journal and re-run unfinished requests before
    #: serving.  Without it, an existing journal is rotated aside.
    resume: bool = False
    #: Replay, re-run, journal, and exit without ever binding the socket
    #: (the crash-recovery verification mode used by CI).
    resume_only: bool = False
    #: Periodically write a Prometheus-text-format telemetry snapshot here
    #: (atomic tmp+rename; ``None`` disables the writer).
    metrics_file: Optional[str] = None
    #: Seconds between metrics-file snapshots.
    metrics_interval_s: float = 2.0
    #: JSONL mirror of the operational event log; defaults to
    #: ``<socket>.ops.jsonl`` next to the socket.
    ops_log_path: Optional[str] = None
    #: Crash-bundle directory for the flight recorder's forensics dumps;
    #: defaults to ``<socket>.crash`` next to the socket.
    crash_dir: Optional[str] = None
    #: Seconds between live "blackbox" bundle snapshots — the on-disk
    #: forensics record that survives a SIGKILL (removed on clean exit).
    blackbox_interval_s: float = 1.0
    #: Aggregate worker-RSS admission budget in MiB: while the pool's
    #: heartbeat-sampled RSS total is at or over this, new batch requests
    #: are shed with ``reason="memory-pressure"`` instead of piling onto
    #: a pool the kernel is about to OOM-kill.  ``None`` disables it.
    max_rss_mb: Optional[float] = None
    #: Ops-log rotation threshold in bytes (one ``.1`` backup generation);
    #: ``None`` disables rotation.
    ops_log_max_bytes: Optional[int] = None

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.retry_after_base_ms < 0:
            raise ValueError("retry_after_base_ms must be non-negative")
        for name in ("idle_timeout_s", "metrics_interval_s",
                     "blackbox_interval_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_rss_mb", "ops_log_max_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")

    def effective_journal_path(self) -> str:
        return (
            self.journal_path
            if self.journal_path is not None
            else self.socket_path + ".journal"
        )

    def effective_ops_log_path(self) -> str:
        return (
            self.ops_log_path
            if self.ops_log_path is not None
            else self.socket_path + ".ops.jsonl"
        )

    def effective_crash_dir(self) -> str:
        return (
            self.crash_dir
            if self.crash_dir is not None
            else self.socket_path + ".crash"
        )


class _Conn:
    """One client connection owned by the main loop."""

    __slots__ = ("sock", "fd", "reader", "outbuf", "last_activity",
                 "requests", "closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.fd = sock.fileno()
        self.reader = proto.FrameReader()
        self.outbuf = b""
        self.last_activity = time.monotonic()
        #: Requests this connection is waiting on (admission through
        #: response) — the disconnect-cancellation set.
        self.requests: List["_Request"] = []
        self.closed = False


class _Request:
    """One admitted batch request, queued or in flight."""

    __slots__ = ("id", "conn", "sources", "policy", "policy_json",
                 "schedule_json", "deadline_ms", "admitted_at", "resumed")

    def __init__(self, rid: int, conn: Optional[_Conn],
                 sources: List[Tuple[str, str]], policy: BatchPolicy,
                 policy_json: Dict[str, object],
                 schedule_json: Optional[Dict[str, object]],
                 deadline_ms: Optional[float], *, resumed: bool = False):
        self.id = rid
        self.conn = conn
        self.sources = sources
        self.policy = policy
        self.policy_json = policy_json
        self.schedule_json = schedule_json
        self.deadline_ms = deadline_ms
        self.admitted_at = time.monotonic()
        self.resumed = resumed


#: Policy fields a request may not override: the daemon's pool spawns
#: (and respawns) every worker under the server's policy, so a request's
#: value would shape nothing, yet would be echoed in its report as if
#: applied.
POOL_SPAWN_FIELDS = ("pool_workers", "heartbeat_ms", "max_worker_mem_mb")


def resolve_policy(
    base: BatchPolicy, overrides: Optional[Dict[str, object]]
) -> Tuple[BatchPolicy, Dict[str, object]]:
    """Compose the server's base policy with a request's overrides.

    Overrides are applied field-wise on top of the base policy's echo,
    except ``deadline_ms``, which composes as the *minimum* when both
    sides set one — a client can only tighten the server's deadline,
    never escape it.  An override of a :data:`POOL_SPAWN_FIELDS` field is
    refused.  Returns the resolved policy and its echo (which is what the
    journal ``begin`` record stores).
    """
    blob = base.to_json()
    if overrides:
        if not isinstance(overrides, dict):
            raise ValueError("policy overrides must be an object")
        for name in POOL_SPAWN_FIELDS:
            if name in overrides:
                raise ValueError(
                    f"{name} cannot be overridden per request: the pool "
                    "spawns its workers under the server's policy"
                )
        if overrides.get("isolate", "pool") not in ISOLATION_MODES:
            # from_json reads a journal's legacy "subprocess" as "pool";
            # a live request naming a retired mode is refused instead.
            raise ValueError(
                f"isolate must be one of {ISOLATION_MODES}, "
                f"not {overrides['isolate']!r}"
            )
        base_deadline = blob.get("deadline_ms")
        request_deadline = overrides.get("deadline_ms")
        blob = dict(blob)
        blob.update(overrides)
        if base_deadline is not None and request_deadline is not None:
            blob["deadline_ms"] = min(base_deadline, request_deadline)
    policy = BatchPolicy.from_json(blob)
    return policy, policy.to_json()


class Server:
    """The daemon.  Construct, then :meth:`serve` (blocks until drained).

    ``serve`` returns a summary dict: requests served, requests resumed
    (id → digest), and journal-repair facts — the CLI prints it on exit.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        options: ServeOptions,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.policy = policy
        self.options = options
        self.instrumentation = instrumentation
        self.tracer = (
            instrumentation.tracer if instrumentation is not None
            else NULL_TRACER
        )
        self.metrics = (
            instrumentation.metrics if instrumentation is not None else None
        )
        self.pool: Optional[PersistentPool] = None
        self.journal: Optional[Journal] = None
        # Admission queue + executor handshake.
        self.queue: collections.deque = collections.deque()
        self.cond = threading.Condition()
        self.current: Optional[_Request] = None
        self.stopping = False
        # Finished (request, response) pairs, main loop drains.
        self.results: collections.deque = collections.deque()
        self.draining = False
        self.next_id = 1
        self.served = 0
        self.resumed_digests: Dict[int, str] = {}
        self.truncated_bytes = 0
        self._started_at = 0.0
        # Rolling live telemetry (latency/queue-wait percentiles, shed and
        # respawn totals) plus the operational event log; both are created
        # here so tests can construct a Server and read them directly.
        self.telemetry = ServerTelemetry(
            workers=max(1, policy.pool_workers)
        )
        self.ops: Optional[OpsLog] = None
        #: False when the ops-log path could not be opened (satellite of
        #: the forensics work: degrading to ring-only must be *loud* —
        #: a warning event plus a health-payload flag, never silence).
        self.ops_log_writable = True
        #: False after a metrics-file snapshot failed to write; restored
        #: (with a recovery event) by the next successful snapshot.
        self.metrics_file_writable = True
        #: False after a journal append failed (full disk, yanked mount).
        #: The daemon keeps serving — responses still flow — but resume
        #: coverage is degraded, and the health payload says so.
        self.journal_writable = True
        #: False while the filesystem under the durable writers is below
        #: the diskguard floor (checked on a cadence in the main loop).
        self.disk_headroom = True
        #: Requests shed for memory pressure (subset of shed_total).
        self.shed_memory = 0
        #: Graceful worker recycles summed over every batch's pool stats.
        self.recycles = 0
        self._max_rss_bytes = (
            int(options.max_rss_mb * 1024 * 1024)
            if options.max_rss_mb is not None else None
        )
        self._disk_due = 0.0
        self._metrics_due = 0.0
        self._blackbox_due = 0.0
        self._blackbox_path: Optional[str] = None
        self._drain_logged = False
        self.sel: Optional[selectors.BaseSelector] = None
        self.listener: Optional[socket.socket] = None
        self.conns: Dict[int, _Conn] = {}
        self._wake_r = -1
        self._wake_w = -1
        #: Set once the socket is bound and listening (tests poll it).
        self.ready = threading.Event()

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _journal_append(self, record: Dict[str, object]) -> None:
        """Append to the journal, degrading *loudly* when the disk fails.

        A full disk or yanked mount must not take the daemon down — the
        response path still works — but it must not be silent either:
        one ``journal-unwritable`` event per outage, a
        ``journal_writable: false`` health flag, and a recovery event
        when appends start landing again.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(record)
        except OSError as exc:
            if self.journal_writable:
                self.journal_writable = False
                if self.ops is not None:
                    self.ops.emit(
                        "journal-unwritable",
                        path=self.options.effective_journal_path(),
                        error=str(exc),
                    )
        else:
            if not self.journal_writable:
                self.journal_writable = True
                if self.ops is not None:
                    self.ops.emit(
                        "journal-recovered",
                        path=self.options.effective_journal_path(),
                    )

    # -- journal / resume ---------------------------------------------------

    def _prepare_journal(self) -> List[Dict[str, object]]:
        """Open the journal; under ``--resume`` replay it and return the
        unfinished ``begin`` records, otherwise rotate any stale file
        aside so two daemon lifetimes never interleave."""
        path = self.options.effective_journal_path()
        unfinished: List[Dict[str, object]] = []
        if self.options.resume or self.options.resume_only:
            replay = journal_mod.replay(path)
            self.truncated_bytes = replay.truncated_bytes
            unfinished = replay.unfinished
            self.next_id = replay.next_request_id
        else:
            rotated = journal_mod.rotate(path)
            if rotated is not None and self.ops is not None:
                self.ops.emit("journal-rotate", backup=rotated)
        self.journal = Journal(path)
        return unfinished

    def _replay_request(self, record: Dict[str, object]) -> _Request:
        policy = BatchPolicy.from_json(record["policy"])
        return _Request(
            record["request"], None,
            [(name, text) for name, text in record["sources"]],
            policy, record["policy"], record.get("schedule"),
            # Queue-wait deadlines do not survive a crash: the daemon was
            # down for an unknowable wall-clock span, and shedding on it
            # would make resume nondeterministic.
            None,
            resumed=True,
        )

    # -- the executor thread ------------------------------------------------

    def _run_request(self, req: _Request) -> Dict[str, object]:
        queue_wait_ms = (time.monotonic() - req.admitted_at) * 1000.0
        if req.deadline_ms is not None and queue_wait_ms > req.deadline_ms:
            self._journal_append(cancel_record(req.id, "queue-deadline"))
            self.telemetry.record_shed()
            if self.ops is not None:
                self.ops.emit("shed", reason="queue-deadline",
                              request=req.id)
            return {"type": "shed", "request": req.id,
                    "reason": "queue-deadline"}
        schedule = (
            FaultSchedule.from_json(req.schedule_json)
            if req.schedule_json else None
        )
        run_started = time.monotonic()
        with self.tracer.span(
            "server.request",
            request=req.id, files=len(req.sources), resumed=req.resumed,
        ):
            try:
                report = check_batch(
                    req.sources, req.policy,
                    instrumentation=self.instrumentation,
                    fault_schedule=schedule,
                    pool=self.pool,
                )
            except Exception as exc:  # a bug, not an input failure
                self._journal_append(cancel_record(
                    req.id, f"internal: {type(exc).__name__}: {exc}"
                ))
                flightrec.dump(
                    "daemon-exception",
                    {"request": req.id, "exc_type": type(exc).__name__,
                     "message": str(exc)},
                    context=self._crash_context(),
                    traceback_lines=traceback.format_exception(
                        type(exc), exc, exc.__traceback__,
                    ),
                )
                return {"type": "error", "request": req.id, "internal": True,
                        "message": f"{type(exc).__name__}: {exc}"}
        projected = report.to_json()
        done = done_record(
            req.id, report.exit_code, canonicalize(projected),
            resumed=req.resumed,
        )
        self._journal_append(done)
        digest = done["digest"]
        self.served += 1
        finished = time.monotonic()
        self.telemetry.observe_request(
            latency_ms=(finished - req.admitted_at) * 1000.0,
            queue_wait_ms=queue_wait_ms,
            busy_s=finished - run_started,
        )
        self.telemetry.add_respawns(
            int((report.pool or {}).get("respawns", 0))
        )
        self.recycles += int((report.pool or {}).get("recycles", 0))
        if req.resumed:
            self.resumed_digests[req.id] = digest
        return {
            "type": "report",
            "request": req.id,
            "exit_code": report.exit_code,
            "digest": digest,
            "report": projected,
        }

    def _executor(self) -> None:
        while True:
            with self.cond:
                while not self.queue and not self.stopping:
                    self.cond.wait()
                if self.stopping and not self.queue:
                    return
                req = self.queue.popleft()
                self.current = req
            response = self._run_request(req)
            with self.cond:
                self.current = None
            self.results.append((req, response))
            self._wake()

    # -- self-pipe ----------------------------------------------------------

    def _wake(self) -> None:
        if self._wake_w >= 0:
            try:
                os.write(self._wake_w, b"w")
            except OSError:
                pass

    def _on_signal(self, signum: int) -> None:
        # Signal context: flag + wakeup only.
        self.draining = True
        self._wake()

    # -- admission (main thread) --------------------------------------------

    def _retry_after_ms(self) -> int:
        in_flight = 1 if self.current is not None else 0
        return int(
            self.options.retry_after_base_ms * (len(self.queue) + in_flight)
        )

    def _admit(self, conn: _Conn, frame: Dict[str, object]) -> None:
        self._inc("server.requests")
        if self.draining:
            self._inc("server.shed")
            self.telemetry.record_shed()
            if self.ops is not None:
                self.ops.emit("shed", reason="draining")
            self._respond(conn, {
                "type": "draining",
                "retry_after_ms": self._retry_after_ms(),
            })
            return
        if self._max_rss_bytes is not None:
            # Drain idle heartbeat chatter first so the RSS view is
            # current, but only while the executor is provably parked
            # (empty queue, nothing in flight) — it owns the pipes
            # during a batch.
            with self.cond:
                idle = self.current is None and not self.queue
            if idle and self.pool is not None:
                self.pool.flush()
            rss = self.pool.rss_bytes() if self.pool is not None else 0
            if rss >= self._max_rss_bytes:
                self.shed_memory += 1
                self._inc("server.shed_memory")
                self.telemetry.record_shed()
                if self.ops is not None:
                    self.ops.emit("shed", reason="memory-pressure",
                                  rss_bytes=rss,
                                  max_rss_mb=self.options.max_rss_mb)
                self._respond(conn, {
                    "type": "shed",
                    "reason": "memory-pressure",
                    "retry_after_ms": self._retry_after_ms(),
                })
                return
        if len(self.queue) >= self.options.max_queue:
            self._inc("server.overload")
            self.telemetry.record_shed()
            if self.ops is not None:
                self.ops.emit("shed", reason="overload")
            self._respond(conn, {
                "type": "overload",
                "retry_after_ms": self._retry_after_ms(),
            })
            return
        try:
            raw = frame.get("sources")
            if not isinstance(raw, list) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)
                for pair in raw
            ):
                raise ValueError("sources must be a list of [name, text]")
            sources = [(name, text) for name, text in raw]
            policy, policy_json = resolve_policy(
                self.policy, frame.get("policy")
            )
            schedule_json = frame.get("schedule")
            if schedule_json is not None:
                FaultSchedule.from_json(schedule_json)  # validate early
        except (ValueError, TypeError, KeyError) as exc:
            self._inc("server.errors")
            self._respond(conn, {"type": "error", "message": str(exc)})
            return
        rid = self.next_id
        self.next_id += 1
        req = _Request(
            rid, conn, sources, policy, policy_json, schedule_json,
            policy.deadline_ms,
        )
        self._journal_append(begin_record(
            rid, sources, policy_json, schedule_json,
        ))
        conn.requests.append(req)
        with self.cond:
            self.queue.append(req)
            self.cond.notify()
        self._inc("server.accepted")
        self._respond(conn, {"type": "accepted", "request": rid,
                             "queued": len(self.queue)})

    def _total_respawns(self) -> int:
        """Mid-batch respawns (telemetry, from pool stats) plus idle-seat
        revivals the persistent pool performed between batches."""
        idle = self.pool.idle_respawns if self.pool is not None else 0
        return self.telemetry.respawns + idle

    def _snapshot(self) -> Dict[str, object]:
        """The live state that ``health`` and ``stats`` both report: in
        memory, no blocking I/O."""
        pool = self.pool
        return {
            "status": "draining" if self.draining else "ok",
            "queued": len(self.queue),
            "in_flight": 1 if self.current is not None else 0,
            "workers": pool.alive_workers if pool is not None else 0,
            "workers_detail": (
                pool.worker_status() if pool is not None else []
            ),
            "served": self.served,
            "uptime_ms": round(
                (time.monotonic() - self._started_at) * 1000.0, 3
            ),
            "shed_total": self.telemetry.shed_total,
            "respawns": self._total_respawns(),
            "recycles": self.recycles,
            "rss_bytes": pool.rss_bytes() if pool is not None else 0,
        }

    def _health_payload(self) -> Dict[str, object]:
        snap = self._snapshot()
        return {
            "type": "health",
            **snap,
            "queue_wait_ms_p95": self.telemetry.queue_wait_p95(),
            "memory_pressure": (
                self._max_rss_bytes is not None
                and self.pool is not None
                and snap["rss_bytes"] >= self._max_rss_bytes
            ),
            "ops_log_writable": self.ops_log_writable,
            "metrics_file_writable": self.metrics_file_writable,
            "journal_writable": self.journal_writable,
            "disk_headroom": self.disk_headroom,
        }

    def _crash_context(self) -> Dict[str, object]:
        """The daemon-side sections of a crash bundle: effective policy,
        last health snapshot, ops-log and journal tails, worker state."""
        return {
            "policy": self.policy.to_json(),
            "health": self._health_payload(),
            "ops_tail": self.ops.tail(50) if self.ops is not None else [],
            "journal_tail": journal_mod.tail(
                self.options.effective_journal_path()
            ),
            "pool": (
                {
                    "alive": self.pool.alive_workers,
                    "workers_detail": self.pool.worker_status(),
                }
                if self.pool is not None else None
            ),
        }

    def _stats_payload(self) -> Dict[str, object]:
        """The live-telemetry payload: everything in memory, no blocking
        I/O — safe to build on the accept-loop thread."""
        telemetry = self.telemetry.snapshot()
        return {
            "type": "stats",
            **self._snapshot(),
            "latency_ms": telemetry["latency_ms"],
            "queue_wait_ms": telemetry["queue_wait_ms"],
            "worker_utilization": telemetry["worker_utilization"],
            "shed_memory": self.shed_memory,
            "ops_seq": self.ops.seq if self.ops is not None else 0,
        }

    def _events_payload(self, frame: Dict[str, object]) -> Dict[str, object]:
        try:
            tail = int(frame.get("tail", 20))
        except (TypeError, ValueError):
            tail = 20
        events = self.ops.tail(tail) if self.ops is not None else []
        return {
            "type": "events",
            "seq": self.ops.seq if self.ops is not None else 0,
            "events": events,
        }

    def _on_frame(self, conn: _Conn, frame: Dict[str, object]) -> None:
        kind = frame.get("type")
        if kind == "batch":
            self._admit(conn, frame)
        elif kind == "health":
            self._inc("server.health")
            self._respond(conn, self._health_payload())
        elif kind == "stats":
            self._inc("server.stats")
            self._respond(conn, self._stats_payload())
        elif kind == "events":
            self._inc("server.events")
            self._respond(conn, self._events_payload(frame))
        elif kind == "debug-bundle":
            # `fg debug bundle`: force a "manual" crash bundle from the
            # live daemon — same document a real fault would produce.
            self._inc("server.debug_bundle")
            bundle = flightrec.build_bundle(
                "manual", {"requested": "debug-bundle"},
                context=self._crash_context(),
            )
            path = None
            directory = flightrec.bundle_directory()
            if directory:
                try:
                    path = flightrec.write_bundle(bundle, directory)
                except OSError:
                    path = None
            if self.ops is not None:
                self.ops.emit("debug-bundle", path=path)
            self._respond(conn, {"type": "debug-bundle", "path": path,
                                 "bundle": bundle})
        elif kind == "shutdown":
            # Socket-initiated drain: same semantics as SIGTERM.
            self.draining = True
            self._respond(conn, {"type": "shutdown", "draining": True})
        else:
            self._inc("server.errors")
            self._respond(conn, {
                "type": "error",
                "message": f"unknown request type {kind!r}",
            })

    # -- connection lifecycle (main thread) ---------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.setblocking(False)
        conn = _Conn(sock)
        self.conns[conn.fd] = conn
        self.sel.register(sock, selectors.EVENT_READ, conn)
        self._inc("server.connections")

    def _update_events(self, conn: _Conn) -> None:
        if conn.closed:
            return
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        self.sel.modify(conn.sock, events, conn)

    def _respond(self, conn: _Conn, payload: Dict[str, object]) -> None:
        if conn.closed:
            return
        conn.outbuf += proto.encode_frame(payload)
        self._flush_conn(conn)

    def _flush_conn(self, conn: _Conn) -> None:
        while conn.outbuf and not conn.closed:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_conn(conn, "send-failed")
                return
            if sent == 0:
                self._drop_conn(conn, "send-failed")
                return
            conn.outbuf = conn.outbuf[sent:]
        self._update_events(conn)

    def _on_readable(self, conn: _Conn) -> None:
        while not conn.closed:
            try:
                chunk = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_conn(conn, "recv-failed")
                return
            if chunk == b"":
                self._drop_conn(conn, "client-disconnected")
                return
            conn.last_activity = time.monotonic()
            try:
                for frame in conn.reader.feed(chunk):
                    self._on_frame(conn, frame)
            except proto.FrameError:
                # Unrecoverably hostile bytes (oversized length prefix):
                # the protocol's junk-resync already ate what it could.
                self._drop_conn(conn, "protocol-error")
                return

    def _drop_conn(self, conn: _Conn, reason: str) -> None:
        """Close a connection, cancelling its queued requests and
        orphaning its in-flight one (the batch still completes and is
        journaled; only the response is dropped)."""
        if conn.closed:
            return
        conn.closed = True
        if reason == "client-disconnected":
            self._inc("server.disconnects")
        for req in conn.requests:
            req.conn = None
            with self.cond:
                queued = req in self.queue
                if queued:
                    self.queue.remove(req)
            if queued:
                self._journal_append(cancel_record(req.id, reason))
                self._inc("server.cancelled")
        conn.requests = []
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self.conns.pop(conn.fd, None)

    def _close_idle(self) -> None:
        """Slow-loris defense: reap connections that sit idle — stalled
        mid-frame or never completing a request — while owning no admitted
        request."""
        now = time.monotonic()
        for conn in list(self.conns.values()):
            if conn.requests or conn.outbuf:
                continue
            if now - conn.last_activity >= self.options.idle_timeout_s:
                self._inc("server.idle_closed")
                self._drop_conn(conn, "idle-timeout")

    # -- results ------------------------------------------------------------

    def _flush_results(self) -> None:
        while self.results:
            req, response = self.results.popleft()
            self._inc("server.completed")
            if req.resumed:
                self._inc("server.resumed")
            conn = req.conn
            if conn is None or conn.closed:
                continue  # orphaned: work journaled, response dropped
            if req in conn.requests:
                conn.requests.remove(req)
            self._respond(conn, response)

    # -- live telemetry sinks ------------------------------------------------

    def _note_drain(self) -> None:
        """Log the drain transition exactly once (signal handlers only set
        the flag; the event is recorded here on the main loop)."""
        if self.draining and not self._drain_logged:
            self._drain_logged = True
            if self.ops is not None:
                self.ops.emit("drain")

    def _note_metrics_unwritable(self, error: str) -> None:
        if self.metrics_file_writable:
            self.metrics_file_writable = False
            if self.ops is not None:
                self.ops.emit(
                    "metrics-file-unwritable",
                    path=self.options.metrics_file, error=error,
                )

    def _maybe_write_metrics(self) -> None:
        """Write the Prometheus snapshot when due (atomic tmp+rename, so a
        scraper never reads a torn file).

        Metrics stay advisory — a failure never takes the daemon down —
        but it is no longer *silent*: the first failed snapshot emits a
        ``metrics-file-unwritable`` event and flips the health flag, and
        the first successful one after that emits the recovery.
        """
        if self.options.metrics_file is None:
            return
        now = time.monotonic()
        if now < self._metrics_due:
            return
        self._metrics_due = now + max(0.05, self.options.metrics_interval_s)
        if not diskguard.has_headroom(
            self.options.metrics_file, need_bytes=65536
        ):
            self._note_metrics_unwritable("below disk-headroom floor")
            return
        from repro.observability.exporters import prometheus_text

        tmp = self.options.metrics_file + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(prometheus_text(self._stats_payload()))
            os.replace(tmp, self.options.metrics_file)
        except OSError as exc:
            self._note_metrics_unwritable(str(exc))
        else:
            if not self.metrics_file_writable:
                self.metrics_file_writable = True
                if self.ops is not None:
                    self.ops.emit(
                        "metrics-file-recovered",
                        path=self.options.metrics_file,
                    )

    #: Seconds between disk-headroom probes of the durable writers' home.
    DISK_CHECK_INTERVAL_S = 1.0

    def _maybe_check_disk(self) -> None:
        """Watch free space under the journal (the durable writers all
        live next to the socket by default): below the diskguard floor,
        emit one ``disk-pressure`` event and flip the health flag; emit
        the recovery when headroom returns."""
        now = time.monotonic()
        if now < self._disk_due:
            return
        self._disk_due = now + self.DISK_CHECK_INTERVAL_S
        path = self.options.effective_journal_path()
        headroom = diskguard.has_headroom(path)
        if headroom == self.disk_headroom:
            return
        self.disk_headroom = headroom
        if self.ops is not None:
            free = diskguard.free_bytes(path)
            self.ops.emit(
                "disk-pressure" if not headroom else "disk-recovered",
                path=path, free_bytes=free,
                floor_bytes=diskguard.floor_bytes(),
            )

    def _maybe_write_blackbox(self) -> None:
        """Persist the live "blackbox" bundle when due.

        SIGKILL defeats every in-process hook (excepthook, atexit,
        faulthandler), so the daemon keeps a current ``hard-death``
        bundle on disk at all times: a fixed name, rewritten atomically
        on a cadence, and deleted again on clean exit — if the file is
        still there after the process is gone, it *is* the crash bundle.
        """
        directory = flightrec.bundle_directory()
        if directory is None:
            return
        now = time.monotonic()
        if now < self._blackbox_due:
            return
        self._blackbox_due = now + max(
            0.05, self.options.blackbox_interval_s
        )
        detail = {"note": "live blackbox snapshot (removed on clean drain; "
                          "still present after the process is gone means "
                          "the daemon was killed without draining)"}
        try:
            self._blackbox_path = flightrec.write_snapshot(
                "hard-death", detail, directory,
                context=self._crash_context(),
                name=f"live-{os.getpid()}.bundle.json",
            )
        except OSError:
            pass  # forensics are advisory; never take the daemon down

    def _remove_blackbox(self) -> None:
        if self._blackbox_path is not None:
            try:
                os.remove(self._blackbox_path)
            except OSError:
                pass
            self._blackbox_path = None

    # -- the loop -----------------------------------------------------------

    def _next_timeout(self) -> Optional[float]:
        now = time.monotonic()
        candidates = []
        for conn in self.conns.values():
            if conn.requests or conn.outbuf:
                continue
            candidates.append(
                conn.last_activity + self.options.idle_timeout_s - now
            )
        if self.draining:
            candidates.append(0.1)  # poll the exit condition while draining
        if self.options.metrics_file is not None:
            candidates.append(self._metrics_due - now)
        if flightrec.bundle_directory() is not None:
            candidates.append(self._blackbox_due - now)
        candidates.append(self._disk_due - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def _drained(self) -> bool:
        if not self.draining:
            return False
        with self.cond:
            busy = bool(self.queue) or self.current is not None
        return (not busy and not self.results
                and all(not c.outbuf for c in self.conns.values()))

    def _bind(self) -> None:
        path = self.options.socket_path
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.25)
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale socket from a killed daemon
            else:
                raise ServeError(f"a daemon is already serving on {path}")
            finally:
                probe.close()
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.listener.bind(path)
        except OSError as exc:
            self.listener.close()
            self.listener = None
            raise ServeError(f"cannot bind {path}: {exc}") from exc
        self.listener.listen(16)
        self.listener.setblocking(False)

    def serve(self) -> Dict[str, object]:
        """Run the daemon until drained (or, under ``resume_only``, until
        the replayed requests finish).  Returns the exit summary."""
        self._started_at = time.monotonic()
        # The flight recorder's hard-death net covers the whole lifetime,
        # including startup failures; the daemon always has a crash dir
        # (``--crash-dir`` or ``<socket>.crash``).
        flightrec.arm(
            self.options.effective_crash_dir(),
            context_provider=self._crash_context,
        )
        try:
            self.ops = OpsLog(
                self.options.effective_ops_log_path(),
                max_bytes=self.options.ops_log_max_bytes,
            )
        except OSError as exc:
            # Degrade to the in-memory ring, but *loudly*: a warning
            # event plus ``ops_log_writable: false`` in every health
            # payload — an operator should not discover the missing
            # JSONL mirror only when they need it.
            self.ops = OpsLog(None)
            self.ops_log_writable = False
            self.ops.emit(
                "ops-log-unwritable",
                path=self.options.effective_ops_log_path(),
                error=str(exc),
            )
        unfinished = self._prepare_journal()
        self.pool = PersistentPool(
            self.policy, tracer=self.tracer, ops=self.ops,
        )
        try:
            # Eager warm-up: the daemon's reason to exist is amortizing
            # worker spin-up, so pay it before the first request arrives.
            self.pool.ensure()
            if unfinished:
                self.ops.emit("resume", requests=len(unfinished))
            for record in unfinished:
                req = self._replay_request(record)
                self.queue.append(req)
            if self.options.resume_only:
                # No socket, no threads: run the replay set inline.
                while self.queue:
                    req = self.queue.popleft()
                    response = self._run_request(req)
                    self.results.append((req, response))
                self._flush_results()
                return self._summary()
            self._bind()
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            self.sel = selectors.DefaultSelector()
            self.sel.register(self.listener, selectors.EVENT_READ, None)
            self.sel.register(self._wake_r, selectors.EVENT_READ, "wake")
            executor = threading.Thread(
                target=self._executor, name="fg-serve-executor", daemon=True,
            )
            with self.cond:
                if self.queue:
                    self.cond.notify()
            executor.start()
            self.ready.set()
            with notify_on_termination(self._on_signal):
                while not self._drained():
                    for key, mask in self.sel.select(self._next_timeout()):
                        if key.data is None:
                            self._accept()
                        elif key.data == "wake":
                            try:
                                os.read(self._wake_r, 4096)
                            except OSError:
                                pass
                        elif mask & selectors.EVENT_READ:
                            self._on_readable(key.data)
                        elif mask & selectors.EVENT_WRITE:
                            self._flush_conn(key.data)
                    self._flush_results()
                    self._close_idle()
                    self._note_drain()
                    self._maybe_write_metrics()
                    self._maybe_write_blackbox()
                    self._maybe_check_disk()
            with self.cond:
                self.stopping = True
                self.cond.notify_all()
            executor.join(timeout=10.0)
            if executor.is_alive():
                # A wedged drain is itself a fault: record what was still
                # in flight before the interpreter tears the thread down.
                flightrec.dump(
                    "drain-failure",
                    {"queued": len(self.queue),
                     "in_flight": (
                         self.current.id if self.current is not None
                         else None
                     )},
                    context=self._crash_context(),
                )
            # One final snapshot so the file reflects the drained state.
            self._metrics_due = 0.0
            self._maybe_write_metrics()
            return self._summary()
        finally:
            self._teardown()

    def _summary(self) -> Dict[str, object]:
        return {
            "served": self.served,
            "resumed": {
                str(rid): digest
                for rid, digest in sorted(self.resumed_digests.items())
            },
            "truncated_bytes": self.truncated_bytes,
        }

    def _teardown(self) -> None:
        for conn in list(self.conns.values()):
            self._drop_conn(conn, "server-exit")
        if self.sel is not None:
            self.sel.close()
            self.sel = None
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
            self.listener = None
            try:
                os.unlink(self.options.socket_path)
            except OSError:
                pass
        for fd in (self._wake_r, self._wake_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wake_r = self._wake_w = -1
        if self.pool is not None:
            self.pool.close()
        if self.journal is not None:
            self.journal.close()
        if self.ops is not None:
            self.ops.close()
        # Clean exit: retract the live blackbox bundle and stand the
        # atexit hard-death guard down.  A SIGKILLed daemon reaches
        # neither, which is exactly what leaves its bundle behind.  The
        # crash dir is process-global state; un-configure it so a later
        # in-process Server (tests) doesn't dump into this one's dir.
        self._remove_blackbox()
        flightrec.configure(None)
        flightrec.disarm()
