"""Supervised persistent worker-process pool for the batch service.

The only process-isolation mode (``isolate="pool"``; the CLI spellings
``--isolate`` and ``--isolate=subprocess`` select it too).  A
:class:`PersistentPool` owns the worker processes: the ``fg serve``
daemon keeps one for its lifetime, and a one-shot batch opens one sized
to the batch and closes it when the batch ends.  Each worker imports the
pipeline and, under ``prelude``, builds the pre-checked prelude context
at spawn, so no attempt re-checks the prelude.  Every batch borrows the
pool's seats for one supervised loop, which feeds the workers over the
framed pipe protocol (:mod:`repro.service.proto`) from per-worker deques
with work stealing.  A worker runs each task through
:func:`~repro.service.worker.run_attempt`, the thread wall's own attempt
body, and each file's retries run through the same
:class:`~repro.service.batch.TaskState` as in-process batches.  One
reader (:func:`_read_frames`) parses every worker frame, in a batch or
between batches, and one routine (:func:`_stop_worker`) ends every
worker.

**Failure domains.**  A task that merely raises is contained *inside* the
worker (a structured ``"crash"`` result; the worker survives).  The
supervisor's business is process death:

- a worker that exits, is SIGKILLed, goes heartbeat-silent or garbles its
  result stream is killed and reaped at once;
  its in-flight task gets a ``worker-lost`` attempt (retryable under the
  normal :class:`~repro.service.policy.RetryPolicy`/quarantine taxonomy)
  and a replacement is spawned into the same slot, up to the pool-wide
  ``max_respawns`` budget;
- a seat whose worker cannot spawn (fd exhaustion, fork failure) stays
  empty; its queue is drained by the other seats via stealing;
- a worker that blows the attempt deadline is hard-killed after a grace
  window (the in-worker cooperative deadline gets first shot, because a
  self-reported timeout keeps the worker warm); either path records the
  same ``timeout``/``deadline`` attempt;
- with the respawn budget exhausted, dead slots retire (their queues are
  drained by the survivors via stealing), and when *no* worker is alive the
  supervisor degrades to in-process execution — each unfinished task
  continues in :func:`~repro.service.batch.run_in_process`, the thread
  wall's retry loop — so the batch completes with a partial-failure exit
  code at worst, never a hang.

**Determinism.**  Attempt records never mention which worker ran them, and
chaos worker kills are keyed to *(file index, attempt number)* at dispatch
time — not to wall clock — so canonical report digests are byte-identical
across rounds.  Scheduling-dependent counters (``steals``,
``heartbeat_misses``, ``warm_ms``) are declared volatile and stripped from
:meth:`~repro.service.report.BatchReport.canonical_json`.
"""

from __future__ import annotations

import collections
import itertools
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability import NULL_TRACER, flightrec, merge_worker_telemetry
from repro.service import proto
from repro.service.batch import TaskState, run_in_process
from repro.service.faults import FAULT_WORKER_LOST, FaultSchedule
from repro.service.policy import BatchPolicy
from repro.service.report import CrashReport, FileOutcome
from repro.service.worker import (
    AttemptResult,
    task_payload,
    telemetry_request,
)

#: Monotonic suffix for trace ids: unique per supervisor within a process,
#: combined with the pid for cross-process uniqueness.  Never enters the
#: canonical report JSON, so determinism guarantees are unaffected.
_TRACE_SEQ = itertools.count(1)


def _new_trace_id() -> str:
    return f"{os.getpid():x}-{next(_TRACE_SEQ):x}"

#: Grace past the cooperative deadline before the supervisor hard-kills a
#: worker: half the deadline, floored and capped.  Wide enough that a
#: worker's self-reported timeout normally wins (keeping it warm), narrow
#: enough that a genuinely wedged worker is reaped promptly.
GRACE_FRACTION = 0.5
GRACE_MIN_MS = 50.0
GRACE_MAX_MS = 2_000.0

#: A live-but-silent worker (no heartbeat, no result) is declared lost
#: after this many heartbeat periods, with an absolute floor so a loaded
#: machine doesn't reap healthy workers.
HEARTBEAT_MISS_PERIODS = 20
HEARTBEAT_MISS_FLOOR_S = 2.0

#: How long a politely stopped worker (shutdown frame sent, pipes closed)
#: may take to exit before it is killed.
STOP_WAIT_S = 2.0


@dataclass
class PoolStats:
    """What the supervisor did, for the report's ``pool`` block.

    ``steals``, ``heartbeat_misses``, and ``warm_ms`` depend on OS
    scheduling and are stripped from the canonical digest
    (:data:`~repro.service.report.VOLATILE_POOL_FIELDS`); everything else
    is deterministic for a given input/policy/schedule triple.

    ``spawned`` counts the worker processes launched for this batch: seats
    the pool filled before the loop started, plus respawns and recycles.
    A batch on an already warm pool therefore counts only its own
    respawns and recycles.
    """

    workers: int = 0
    spawned: int = 0
    respawns: int = 0
    worker_lost: int = 0
    deadline_kills: int = 0
    retired: int = 0
    degraded: bool = False
    steals: int = 0
    heartbeat_misses: int = 0
    warm_ms: float = 0.0
    #: Resource-governor counters: graceful recycles (never charged to
    #: ``max_respawns``) and the peak heartbeat-sampled worker RSS.  Both
    #: depend on OS memory accounting and heartbeat timing, so they are
    #: volatile like ``steals``.
    recycles: int = 0
    rss_bytes: int = 0

    def to_json(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def counters(self) -> Iterator[Tuple[str, int]]:
        """The ``pool.*`` metric counters: every field but ``warm_ms`` (a
        duration, not a count); ``degraded`` counts only when set."""
        for name, value in self.to_json().items():
            if name != "warm_ms" and value is not False:
                yield f"pool.{name}", int(value)


class _WorkerSlot:
    """A fixed seat at the pool: the process occupying it may be replaced,
    the slot index and its deque persist."""

    __slots__ = ("slot", "proc", "task_w", "result_r", "reader", "queue",
                 "current", "warmed", "last_beat", "retired", "tasks_done",
                 "last_task", "rss_bytes", "tasks_since_spawn",
                 "recycle_pending")

    def __init__(self, slot: int):
        self.slot = slot
        self.proc: Optional[subprocess.Popen] = None
        self.task_w = -1
        self.result_r = -1
        self.reader = proto.FrameReader()
        self.queue: collections.deque = collections.deque()
        # In-flight dispatch: (task, injected tags, dispatch instant).
        self.current: Optional[Tuple[TaskState, Tuple[str, ...], float]] = \
            None
        # Set by the worker's hello frame.  Tasks are only dispatched to
        # warmed workers so the deadline clock never includes interpreter
        # startup or prelude warm-up time.
        self.warmed = False
        self.last_beat = 0.0
        self.retired = False
        self.tasks_done = 0
        # The occupant's last completed attempt as ``worker.task`` span
        # arguments: its dispatch..receive ns bracket and its file,
        # attempt and worker pid.  A crash bundle for this seat records
        # it, so the bundle names the dead process's last finished work.
        self.last_task: Optional[Tuple[int, int, Dict[str, object]]] = None
        # Resource-governor state for the occupant: its last self-sampled
        # RSS (from heartbeat frames), how many tasks this *process* has
        # completed (tasks_done is per-seat and survives respawns), and
        # whether the supervisor owes it a graceful recycle.
        self.rss_bytes: Optional[int] = None
        self.tasks_since_spawn = 0
        self.recycle_pending = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


def _child_env() -> Dict[str, str]:
    """The child's environment, with this package's source root prepended.

    The coordinator's crash-bundle directory (``--crash-dir`` or
    ``$FG_CRASH_DIR``) is exported so worker processes arm their own
    hard-death hooks into the same directory.
    """
    import repro
    from repro.observability import flightrec

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not prior else src_root + os.pathsep + prior
    )
    crash_dir = flightrec.bundle_directory()
    if crash_dir:
        env[flightrec.ENV_CRASH_DIR] = crash_dir
    return env


def _spawn_process(slot: _WorkerSlot, policy: BatchPolicy) -> None:
    """Spawn a worker process into the slot: pipes, child, reader state.

    Failure-path contract (the warm-up audit): if *any* step raises —
    ``os.pipe`` under fd pressure, ``Popen`` under memory pressure —
    every resource created so far is released before the exception
    propagates, so a half-spawned slot never leaks pipes or a child.
    Callers go through :func:`_start_worker`, which also sends the init
    frame.
    """
    task_r = task_w = result_r = result_w = -1
    proc: Optional[subprocess.Popen] = None
    try:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        argv = [sys.executable, "-m", "repro.service.subproc", "--serve",
                "--task-fd", str(task_r), "--result-fd", str(result_w),
                "--heartbeat-ms", str(policy.heartbeat_ms)]
        if policy.max_worker_mem_mb is not None:
            argv += ["--max-mem-mb", str(policy.max_worker_mem_mb)]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            pass_fds=(task_r, result_w),
            env=_child_env(),
        )
    except BaseException:
        for fd in (task_r, task_w, result_r, result_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        if proc is not None:
            proc.kill()
            proc.wait()
        raise
    os.close(task_r)
    os.close(result_w)
    os.set_blocking(result_r, False)
    slot.proc = proc
    slot.task_w = task_w
    slot.result_r = result_r
    slot.reader = proto.FrameReader()
    slot.warmed = False
    slot.retired = False
    slot.last_beat = time.monotonic()
    slot.last_task = None
    slot.rss_bytes = None
    slot.tasks_since_spawn = 0
    slot.recycle_pending = False


def _start_worker(slot: _WorkerSlot, policy: BatchPolicy) -> bool:
    """Spawn a worker into an empty seat and send it the init frame.

    Returns False, leaving the seat empty (no process, no pipes), when
    either step fails with ``OSError``: fd exhaustion, fork failure, or a
    child that died before reading its init frame.
    """
    try:
        _spawn_process(slot, policy)
    except OSError:
        slot.proc = None
        return False
    try:
        proto.write_frame_fd(slot.task_w, {
            "type": "init", "prelude": policy.prelude, "ext": policy.ext,
        })
    except OSError:
        _stop_worker(slot, kill=True)
        return False
    return True


def _stop_worker(slot: _WorkerSlot, *, kill: bool = False) -> Optional[int]:
    """End the seat's worker and leave the seat empty; returns its wait
    status (``None`` for an empty seat).

    A lost or deadline-killed worker (``kill=True``) is killed first; a
    recycled or closed one gets the shutdown frame and :data:`STOP_WAIT_S`
    to exit before it is killed.  The pipes close before any wait, so a
    worker blocked reading its task pipe sees EOF at once.  Unregistering
    the pipe from a selector is the caller's business.
    """
    if kill and slot.proc is not None:
        slot.proc.kill()
    elif slot.task_w >= 0:
        try:
            proto.write_frame_fd(slot.task_w, {"type": "shutdown"})
        except OSError:
            pass
    for fd in (slot.result_r, slot.task_w):
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
    slot.result_r = slot.task_w = -1
    slot.reader = proto.FrameReader()
    if slot.proc is None:
        return None
    try:
        returncode = slot.proc.wait(timeout=STOP_WAIT_S)
    except subprocess.TimeoutExpired:
        slot.proc.kill()
        returncode = slot.proc.wait()
    slot.proc = None
    return returncode


def _read_frames(slot: _WorkerSlot, on_frame=None) -> bool:
    """Read and parse everything the seat's worker has written so far.

    The one read side for both the batch loop and the idle pool.  Every
    frame refreshes ``last_beat``; a hello marks the seat warmed and a
    heartbeat records its self-sampled ``rss_bytes``; then each frame goes
    to ``on_frame(slot, frame)``.  Returns True when the pipe hit EOF or
    carried a malformed frame — the worker is gone or can no longer be
    understood.
    """
    if slot.result_r < 0:
        return False
    while True:
        try:
            chunk = os.read(slot.result_r, 65536)
        except BlockingIOError:
            return False
        except OSError:
            return True
        if chunk == b"":
            return True
        try:
            for frame in slot.reader.feed(chunk):
                slot.last_beat = time.monotonic()
                kind = frame.get("type")
                if kind == "hello":
                    slot.warmed = True
                elif kind == "heartbeat":
                    rss = frame.get("rss_bytes")
                    if isinstance(rss, int) and rss > 0:
                        slot.rss_bytes = rss
                if on_frame is not None:
                    on_frame(slot, frame)
        except proto.FrameError:
            return True


class _Supervisor:
    """One batch's single-threaded event loop over a pool's seats.

    All I/O is non-blocking reads multiplexed through a selector; backoff
    delays are modelled as per-task ``ready_at`` instants folded into the
    select timeout, never as sleeps, so one backing-off file cannot stall
    the others.

    The supervisor borrows the :class:`PersistentPool`'s seats: it
    registers their pipes for the duration of one batch and detaches at
    the end, leaving the surviving workers running for the pool's owner.
    A loss, deadline kill or recycle replaces the process in the shared
    seat, spawned under the *pool's* policy (memory rlimit, heartbeat
    period, prelude warm-up) so a request's overrides never outlive it.
    """

    def __init__(
        self,
        pool: "PersistentPool",
        items: Sequence[Tuple[str, str]],
        policy: BatchPolicy,
        *,
        schedule: Optional[FaultSchedule],
        ambient: Dict[str, object],
        serialized_ambient: List[Dict[str, str]],
        instrumentation=None,
    ):
        self.policy = policy
        self.spawn_policy = pool.policy
        self.schedule = schedule
        self.ambient = ambient
        self.serialized_ambient = serialized_ambient
        self.instrumentation = instrumentation
        self.tracer = (
            instrumentation.tracer if instrumentation is not None
            else pool.tracer
        )
        self.ops = pool.ops
        # The telemetry stanza stamped on every dispatched task frame; the
        # per-dispatch parent-span id is added in _dispatch.
        self.trace_id = (
            _new_trace_id()
            if getattr(self.tracer, "enabled", False) else None
        )
        self._telemetry = telemetry_request(
            instrumentation, trace_id=self.trace_id,
        )
        self.hang_s = schedule.hang_s if schedule is not None else 0.5
        self.check_kwargs = policy.check_kwargs()
        self.slots = list(pool.slots)
        n_workers = len(self.slots)
        for slot in self.slots:
            slot.queue.clear()
            slot.current = None
        self.tasks = [
            TaskState(index, filename, text, index % n_workers)
            for index, (filename, text) in enumerate(items)
        ]
        for task in self.tasks:
            self.slots[task.home].queue.append(task)
        self.kills = [
            [spec, False]
            for spec in (schedule.kills if schedule is not None else ())
        ]
        self.stats = PoolStats(workers=n_workers)
        self.done_count = 0
        # Worker-recycling stagger: the slot index whose graceful recycle
        # is in flight (awaiting the replacement's hello), or None.  At
        # most one seat recycles at a time, so a recycle wave can never
        # take the whole pool cold simultaneously.
        self._recycling: Optional[int] = None
        self._recycle_rss_bytes = (
            int(policy.recycle_rss_mb * 1024 * 1024)
            if policy.recycle_rss_mb is not None else None
        )
        self.sel = selectors.DefaultSelector()
        if policy.deadline_ms is not None:
            grace_ms = min(
                max(policy.deadline_ms * GRACE_FRACTION, GRACE_MIN_MS),
                GRACE_MAX_MS,
            )
            self.kill_after_s = (policy.deadline_ms + grace_ms) / 1000.0
        else:
            self.kill_after_s = None
        self.miss_window_s = max(
            self.spawn_policy.heartbeat_ms / 1000.0 * HEARTBEAT_MISS_PERIODS,
            HEARTBEAT_MISS_FLOOR_S,
        )

    # -- lifecycle ----------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        """Record one operational event when an ops log is attached."""
        if self.ops is not None:
            self.ops.emit(event, **fields)

    def _dump_crash(self, kind: str, detail: Dict[str, object],
                    slot: Optional[_WorkerSlot] = None) -> None:
        """Write a crash bundle for a pool fault (advisory; no crash dir
        configured → no-op).  The seat's last completed attempt is
        recorded first, as one ``worker.task`` span on this clock tagged
        ``worker_pid``, so the bundle names the worker's last finished
        work even when no trace grafted its spans."""
        if flightrec.bundle_directory() is None:
            return
        if slot is not None and slot.last_task is not None:
            flightrec.record_span("worker.task", *slot.last_task)
            slot.last_task = None  # recorded once, never duplicated
        flightrec.dump(kind, detail, context={
            "pool": self.stats.to_json(),
            "policy": self.policy.to_json(),
            "ops_tail": self.ops.tail(50) if self.ops is not None else [],
            "workers": [
                {"slot": s.slot,
                 "pid": s.proc.pid if s.proc is not None else None,
                 "alive": s.alive, "retired": s.retired,
                 "warmed": s.warmed, "tasks_done": s.tasks_done,
                 "queued": len(s.queue),
                 "busy": s.current is not None}
                for s in self.slots
            ],
        })

    def _spawn(self, slot: _WorkerSlot) -> None:
        """Refill a seat mid-batch; a seat that cannot spawn stays empty."""
        if not _start_worker(slot, self.spawn_policy):
            if self._recycling == slot.slot:
                self._recycling = None  # an empty seat can't say hello
            return
        self.sel.register(slot.result_r, selectors.EVENT_READ, slot)
        self.stats.spawned += 1
        self._emit("worker-spawn", slot=slot.slot, pid=slot.proc.pid)

    def _unregister(self, slot: _WorkerSlot) -> None:
        if slot.result_r >= 0:
            try:
                self.sel.unregister(slot.result_r)
            except (KeyError, ValueError):
                pass

    def _respawn_or_retire(self, slot: _WorkerSlot) -> None:
        if self.stats.respawns < self.policy.max_respawns:
            self.stats.respawns += 1
            self._emit("worker-respawn", slot=slot.slot)
            self._spawn(slot)
        else:
            slot.retired = True
            self.stats.retired += 1
            if self._recycling == slot.slot:
                self._recycling = None  # a retired seat can't say hello
            self._emit("worker-retire", slot=slot.slot)
            self._dump_crash("respawn-exhausted", {
                "slot": slot.slot,
                "max_respawns": self.policy.max_respawns,
            })

    # -- dispatch and stealing ---------------------------------------------

    def _next_task(self, slot: _WorkerSlot, now: float) \
            -> Optional[TaskState]:
        for i, task in enumerate(slot.queue):
            if task.ready_at <= now:
                del slot.queue[i]
                return task
        victims = sorted(
            (s for s in self.slots if s is not slot and s.queue),
            key=lambda s: (-len(s.queue), s.slot),
        )
        for victim in victims:
            for i in range(len(victim.queue) - 1, -1, -1):
                if victim.queue[i].ready_at <= now:
                    task = victim.queue[i]
                    del victim.queue[i]
                    self.stats.steals += 1
                    return task
        return None

    def _pending_kill(self, index: int, attempt: int):
        for entry in self.kills:
            spec, fired = entry
            if not fired and spec.applies(index, attempt):
                entry[1] = True
                return spec
        return None

    def _dispatch(self, slot: _WorkerSlot, task: TaskState) -> None:
        specs = (
            self.schedule.for_attempt(task.index, task.attempt)
            if self.schedule is not None else ()
        )
        injected = tuple(spec.tag for spec in specs)
        telemetry = self._telemetry
        if telemetry is not None and self.trace_id is not None:
            parent = self.tracer.current
            if parent is not None:
                telemetry = dict(telemetry, parent_span=parent.id)
        frame = task_payload(
            task.text, task.filename, self.check_kwargs,
            self.serialized_ambient, specs, self.hang_s,
            telemetry=telemetry,
        )
        frame["type"] = "task"
        frame["id"] = task.index
        frame["attempt"] = task.attempt
        # (task, injected tags, monotonic dispatch instant for deadlines,
        #  perf_counter_ns dispatch instant for trace stitching).
        slot.current = (task, injected, time.monotonic(),
                        time.perf_counter_ns())
        kill = self._pending_kill(task.index, task.attempt)
        try:
            proto.write_frame_fd(slot.task_w, frame)
        except OSError:
            self._handle_worker_loss(slot, salvage=False)
            return
        if kill is not None:
            target = (
                slot if kill.worker is None
                else self.slots[kill.worker % len(self.slots)]
            )
            if target.alive:
                # No salvage: the kill is keyed to this dispatch, so the
                # attempt must read worker-lost every round, even if the
                # doomed worker got a result out first.
                self._handle_worker_loss(target, salvage=False)

    def _maybe_recycle(self, slot: _WorkerSlot) -> bool:
        """Gracefully recycle an *idle* marked slot: polite shutdown, reap,
        respawn warm into the same seat.

        Only fires between that seat's tasks (``current is None``), so the
        in-flight attempt always finishes first and no result is lost or
        duplicated; the stagger guard keeps every other seat serving while
        one recycles.  Recycles are charged to ``stats.recycles`` — never
        to the ``max_respawns`` fault budget, because a recycle is the
        governor doing its job, not a worker loss.
        """
        if not slot.recycle_pending or self._recycling is not None:
            return False
        self._recycling = slot.slot
        self.stats.recycles += 1
        self._emit(
            "worker-recycle", slot=slot.slot,
            pid=slot.proc.pid if slot.proc is not None else None,
            rss_bytes=slot.rss_bytes, tasks=slot.tasks_since_spawn,
        )
        self._unregister(slot)
        _stop_worker(slot)
        self._spawn(slot)
        return True

    def _fill_idle(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if (slot.retired or not slot.alive or not slot.warmed
                    or slot.current is not None):
                continue
            if self._maybe_recycle(slot):
                continue
            task = self._next_task(slot, now)
            if task is not None:
                self._dispatch(slot, task)

    # -- attempt resolution -------------------------------------------------

    def _finish_attempt(self, task: TaskState, result: AttemptResult,
                        injected: Tuple[str, ...],
                        fault_override: Optional[str] = None) -> None:
        if result.status == "timeout":
            # Both timeout paths — worker-cooperative and supervisor kill —
            # must produce identical records, so drop the partial report a
            # cooperative cancel may have attached.
            result = AttemptResult(
                status="timeout", duration_ms=result.duration_ms
            )
        task.resolve(result, injected, self.policy, fault_override)
        if task.done:
            self.done_count += 1
            return
        # Retries go to the front of the home queue: same slot by default,
        # stealable when the home slot is busy or retired.
        self.slots[task.home].queue.appendleft(task)

    def _handle_worker_loss(self, slot: _WorkerSlot, *,
                            salvage: bool = True) -> None:
        if salvage:
            self._drain(slot, handle_eof=False)
        pid = slot.proc.pid if slot.proc is not None else None
        self._unregister(slot)
        returncode = _stop_worker(slot, kill=True)
        self.stats.worker_lost += 1
        self._emit("worker-lost", slot=slot.slot, pid=pid,
                   returncode=returncode)
        self._dump_crash("worker-lost", {
            "slot": slot.slot,
            "pid": pid,
            "returncode": returncode,
            "file": slot.current[0].filename if slot.current else None,
        }, slot=slot)
        current, slot.current = slot.current, None
        if current is not None:
            task, injected, t0, _send_ns = current
            duration_ms = round((time.monotonic() - t0) * 1e3, 3)
            result = AttemptResult(
                status="crash",
                crash=CrashReport(
                    exc_type="WorkerLost",
                    message="pool worker died mid-attempt",
                    where="pool",
                    returncode=returncode,
                ),
                duration_ms=duration_ms,
            )
            self._finish_attempt(task, result, injected,
                                 fault_override=FAULT_WORKER_LOST)
        self._respawn_or_retire(slot)

    def _deadline_kill(self, slot: _WorkerSlot) -> None:
        self._drain(slot, handle_eof=False)
        if slot.current is None:
            return  # the result raced in during the grace window
        if not slot.alive:
            self._handle_worker_loss(slot, salvage=False)
            return
        self.stats.deadline_kills += 1
        self._emit("deadline-kill", slot=slot.slot,
                   file=slot.current[0].filename)
        self._dump_crash("deadline-kill", {
            "slot": slot.slot,
            "file": slot.current[0].filename,
            "deadline_ms": self.policy.deadline_ms,
        }, slot=slot)
        self._unregister(slot)
        _stop_worker(slot, kill=True)
        (task, injected, t0, _send_ns), slot.current = slot.current, None
        duration_ms = round((time.monotonic() - t0) * 1e3, 3)
        self._finish_attempt(
            task, AttemptResult(status="timeout", duration_ms=duration_ms),
            injected,
        )
        self._respawn_or_retire(slot)

    # -- the read side ------------------------------------------------------

    def _drain(self, slot: _WorkerSlot, *, handle_eof: bool = True) -> None:
        if _read_frames(slot, self._on_frame) and handle_eof:
            self._handle_worker_loss(slot, salvage=False)

    def _on_frame(self, slot: _WorkerSlot, frame: dict) -> None:
        """The batch's side of a frame; :func:`_read_frames` has already
        done the seat's own bookkeeping."""
        kind = frame.get("type")
        if kind == "hello":
            self.stats.warm_ms += frame.get("warm_ms") or 0.0
            if self._recycling == slot.slot:
                # The recycled seat's replacement is warm: the stagger
                # guard lifts and the next marked seat may recycle.
                self._recycling = None
        elif kind == "result":
            if slot.current is None:
                return  # stale frame from a previous dispatch; drop it
            task, injected, _t0, send_ns = slot.current
            if (frame.get("id") != task.index
                    or frame.get("attempt") != task.attempt):
                return
            recv_ns = time.perf_counter_ns()
            slot.last_task = (send_ns, recv_ns, {
                "file": task.filename, "attempt": task.attempt,
                "worker_pid": slot.proc.pid,
            })
            slot.current = None
            slot.tasks_done += 1
            slot.tasks_since_spawn += 1
            if (self.policy.recycle_after_tasks is not None
                    and slot.tasks_since_spawn
                    >= self.policy.recycle_after_tasks):
                slot.recycle_pending = True
            result = AttemptResult.from_json(frame)
            if result.status == "memory":
                # The worker tripped its memory budget but survived; its
                # heap high-water mark is burned, so retries must land on
                # a fresh process — mark the seat for a graceful recycle.
                slot.recycle_pending = True
                self._emit(
                    "worker-memory-fault", slot=slot.slot,
                    file=task.filename, attempt=task.attempt,
                )
                self._dump_crash("memory", {
                    "slot": slot.slot,
                    "file": task.filename,
                    "attempt": task.attempt,
                    "max_worker_mem_mb": self.spawn_policy.max_worker_mem_mb,
                }, slot=slot)
            # The stitch point: merge what the worker saw — spans offset
            # into this clock, metrics, explain — the moment the result
            # lands, so a later death of this worker loses nothing.
            if result.telemetry is not None:
                merge_worker_telemetry(
                    self.instrumentation, result.telemetry,
                    send_ns=send_ns, recv_ns=recv_ns,
                    span_name="pool.attempt",
                    attrs={
                        "file": task.filename, "attempt": task.attempt,
                        "slot": slot.slot,
                    },
                )
            self._finish_attempt(task, result, injected)
        elif kind == "heartbeat":
            rss = slot.rss_bytes
            if rss is not None:
                if rss > self.stats.rss_bytes:
                    self.stats.rss_bytes = rss
                flightrec.record_metric("pool.rss_bytes", rss)
                if (self._recycle_rss_bytes is not None
                        and rss >= self._recycle_rss_bytes):
                    slot.recycle_pending = True
        # Unknown kinds only refresh last_beat.

    # -- watchdogs ----------------------------------------------------------

    def _check_watchdogs(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if slot.retired or slot.proc is None:
                continue
            if (slot.current is not None and self.kill_after_s is not None
                    and now - slot.current[2] >= self.kill_after_s):
                self._deadline_kill(slot)
                continue
            if now - slot.last_beat >= self.miss_window_s:
                self.stats.heartbeat_misses += 1
                self._handle_worker_loss(slot, salvage=True)

    def _next_timeout(self) -> float:
        now = time.monotonic()
        candidates = [self.miss_window_s]
        for slot in self.slots:
            if slot.current is not None and self.kill_after_s is not None:
                candidates.append(slot.current[2] + self.kill_after_s - now)
            for task in slot.queue:
                if task.ready_at > now:
                    candidates.append(task.ready_at - now)
        return max(0.0, min(candidates))

    # -- degradation --------------------------------------------------------

    def _drain_in_process(self) -> None:
        """Every worker is gone and the respawn budget is spent: finish the
        remaining tasks in-process, continuing each retry state machine."""
        self.stats.degraded = True
        self._emit("pool-degraded")
        for task in self.tasks:
            run_in_process(
                task, self.policy, self.ambient, self.schedule,
                self.instrumentation, self._telemetry,
                span_name="pool.attempt", attrs={"degraded": True},
                finish=self._finish_attempt,
            )

    # -- the loop -----------------------------------------------------------

    def _attach(self) -> None:
        """Register the pool's live seats with this batch's selector and
        restart their heartbeat clocks."""
        now = time.monotonic()
        for slot in self.slots:
            if slot.result_r >= 0:
                self.sel.register(slot.result_r, selectors.EVENT_READ, slot)
                slot.last_beat = now

    def _detach(self) -> None:
        """Unhook the seats without stopping their workers: they stay warm
        for the pool's next batch; only the selector dies."""
        for slot in self.slots:
            self._unregister(slot)
            slot.current = None
            slot.queue.clear()
        self.sel.close()

    def run(self) -> Tuple[List[FileOutcome], PoolStats]:
        with self.tracer.span(
            "pool.supervise",
            workers=len(self.slots), tasks=len(self.tasks),
        ):
            try:
                self._attach()
                while self.done_count < len(self.tasks):
                    if not any(
                        not s.retired and s.alive for s in self.slots
                    ):
                        self._drain_in_process()
                        break
                    self._fill_idle()
                    for key, _mask in self.sel.select(self._next_timeout()):
                        self._drain(key.data)
                    self._check_watchdogs()
            finally:
                self._detach()
            for slot in self.slots:
                with self.tracer.span(
                    "pool.worker",
                    slot=slot.slot, tasks=slot.tasks_done,
                    retired=slot.retired,
                ):
                    pass
        return [task.outcome() for task in self.tasks], self.stats


class PersistentPool:
    """Worker seats that outlive any single batch: the one owner of worker
    processes.

    The ``fg serve`` daemon keeps one for its lifetime; a one-shot
    :func:`~repro.service.check_batch` opens one sized to its batch and
    closes it on the way out.  Each :meth:`run_batch` fills empty or dead
    seats (:meth:`ensure`), lends the seats to one supervised batch, and
    gets the surviving warm workers back.

    Idle workers keep writing heartbeats: 61 bytes each, about 0.6 KB/s
    at the default 100 ms period however many tasks the worker has run
    (Linux, x86-64), so an unread 64 KiB result pipe fills in about
    100 s.  Nothing reads it between batches except :meth:`flush`, which
    the daemon calls only for ``--max-rss-mb`` admission and each batch
    calls before it starts.
    A full pipe is harmless: the worker's heartbeat thread blocks until
    the next batch reads the backlog.

    The pool's own policy fixes everything about its processes: the slot
    count (``policy.pool_workers`` — per-request policies cannot resize
    the pool, which keeps the report's ``workers`` stat identical between
    a resumed replay and the uninterrupted run) and every spawn's memory
    rlimit, heartbeat period and prelude warm-up, mid-batch respawns and
    recycles included.
    """

    def __init__(self, policy: BatchPolicy, tracer=NULL_TRACER, *,
                 ops=None):
        self.policy = policy
        self.tracer = tracer
        self.ops = ops
        self.slots = [_WorkerSlot(i)
                      for i in range(max(1, policy.pool_workers))]
        self.closed = False
        #: Seats revived by :meth:`ensure` after their worker died *between*
        #: batches — mid-batch respawns are counted by each batch's
        #: :class:`PoolStats` instead; the daemon sums both for telemetry.
        self.idle_respawns = 0

    @property
    def alive_workers(self) -> int:
        return sum(1 for slot in self.slots if slot.alive)

    def worker_status(self) -> List[Dict[str, object]]:
        """Per-seat liveness for health/stats payloads (JSON-ready)."""
        return [
            {
                "slot": slot.slot,
                "alive": slot.alive,
                "retired": slot.retired,
                "pid": slot.proc.pid if slot.proc is not None else None,
                "tasks_done": slot.tasks_done,
                "rss_bytes": slot.rss_bytes,
            }
            for slot in self.slots
        ]

    def rss_bytes(self) -> int:
        """Aggregate last-sampled RSS of the live workers, in bytes.

        The serve daemon folds this into admission: requests shed under
        memory pressure instead of piling onto a pool the kernel is about
        to OOM-kill.  Workers that have not heartbeat an ``rss_bytes``
        yet contribute zero (optimistic — admission must not flap while
        the pool warms up).
        """
        return sum(
            slot.rss_bytes or 0 for slot in self.slots if slot.alive
        )

    def ensure(self) -> int:
        """Spawn a worker into every empty or dead seat; returns how many
        were (re)spawned.  A seat that cannot spawn right now stays empty
        (the batch runs on the other seats) and the next call retries it."""
        if self.closed:
            raise RuntimeError("pool is closed")
        spawned = 0
        for slot in self.slots:
            if slot.alive:
                continue
            # A retired seat lost its worker mid-batch: reviving it is a
            # respawn too.
            revival = slot.proc is not None or slot.retired
            _stop_worker(slot, kill=True)
            if not _start_worker(slot, self.policy):
                continue
            spawned += 1
            if revival:
                self.idle_respawns += 1
            if self.ops is not None:
                self.ops.emit(
                    "worker-respawn" if revival else "worker-spawn",
                    slot=slot.slot, pid=slot.proc.pid,
                )
        return spawned

    def flush(self) -> None:
        """Consume idle-time frames (heartbeats, hellos) from every live
        worker through the batch loop's own reader, so a hello that lands
        between batches still marks its seat warmed and the RSS view is
        current.  A pipe that ended or garbled is left to the batch loop,
        which declares its worker lost (or to :meth:`ensure`, which
        revives a dead seat)."""
        for slot in self.slots:
            _read_frames(slot)

    def run_batch(
        self,
        items: Sequence[Tuple[str, str]],
        policy: BatchPolicy,
        *,
        schedule: Optional[FaultSchedule] = None,
        ambient: Optional[Dict[str, object]] = None,
        serialized_ambient: Optional[List[Dict[str, str]]] = None,
        instrumentation=None,
    ) -> Tuple[List[FileOutcome], PoolStats]:
        """Check ``(filename, text)`` pairs on the pool's workers.

        Returns the outcomes in input order plus the batch's
        :class:`PoolStats`.  Never raises for anything the inputs or the
        workers do: the containment contract of
        :func:`repro.service.check_batch` extends here.  With
        ``instrumentation``, worker attempts run under real per-task
        instrumentation and everything they see is stitched back into the
        coordinator bundle; the pool's ``ops`` log receives worker
        lifecycle events.
        """
        if self.closed:
            raise RuntimeError("pool is closed")
        if not items:
            return [], PoolStats(workers=len(self.slots))
        spawned = self.ensure()
        self.flush()
        supervisor = _Supervisor(
            self, items, policy,
            schedule=schedule,
            ambient=ambient if ambient is not None else {},
            serialized_ambient=(
                serialized_ambient if serialized_ambient is not None else []
            ),
            instrumentation=instrumentation,
        )
        outcomes, stats = supervisor.run()
        stats.spawned += spawned
        return outcomes, stats

    def close(self) -> None:
        """Shut every worker down: polite shutdown frame, bounded wait,
        then kill.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for slot in self.slots:
            _stop_worker(slot)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
