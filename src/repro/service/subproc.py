"""Child entry point for pool workers: ``python -m repro.service.subproc
--serve --task-fd N --result-fd M``.

Spawned by :mod:`repro.service.pool`, the worker warms up once — imports
the whole pipeline and builds the pre-checked prelude
(:mod:`repro.prelude.context`), which every later attempt in the process
reuses — then loops over framed tasks on a dedicated task pipe, writing
framed results and periodic heartbeats to a dedicated result pipe.  Stdout
is claimed (:func:`repro.service.proto.shield_stdout`), so a stray
``print`` from checked code or the pipeline lands on stderr, never inside
a pipe.  A heartbeat thread keeps ticking while a task runs, so the
supervisor can tell "busy" from "wedged".

Each task runs through :func:`repro.service.worker.run_attempt`, the same
attempt body as the in-process thread wall, and its
:class:`~repro.service.worker.AttemptResult` ships back as JSON.  An
exception inside a task is contained *by the worker* (a structured
``"crash"`` result; the worker survives for the next task); only
process-killing faults — ``os._exit``, SIGKILL, C-level crashes, and a
``KeyboardInterrupt``/``SystemExit``, which the worker lets through — take
it down, and those are the supervisor's business (the ``worker-lost``
fault kind).  The task frame carries the chaos faults to replay, because
the parent's thread-local fault table does not cross the process boundary
by itself (:func:`repro.service.worker.unpack_task`).
"""

from __future__ import annotations

import os
import sys
import threading
import time


def warm_up(prelude: bool, ext: bool) -> float:
    """Import the pipeline and check a trivial program.

    Run once at worker spawn so every later attempt starts warm: module
    imports, the parser tables, and — with ``prelude=True`` — the
    pre-checked prelude context (of the checker ``ext`` selects), built
    once here and shared by every later attempt in this process.
    Returns the wall time in ms; never raises (a failing warm-up just means
    cold attempts).
    """
    start = time.perf_counter()
    try:
        from repro.pipeline import check_source

        check_source("iadd(1, 2)", "<warmup>", prelude=prelude, ext=ext)
    except Exception:  # noqa: BLE001 — warm-up is best-effort
        pass
    return round((time.perf_counter() - start) * 1e3, 3)


def serve(task_fd: int, result_fd: int, heartbeat_ms: float,
          max_mem_mb=None) -> int:
    """Loop over framed tasks until shutdown or EOF."""
    from repro.observability import flightrec
    from repro.service import proto
    from repro.service.resources import apply_memory_limit, sample_rss_bytes
    from repro.service.worker import run_attempt, unpack_task

    flightrec.arm()  # bundle directory (if any) comes from $FG_CRASH_DIR
    proto.shield_stdout()  # stray stdout writes can never reach a pipe
    apply_memory_limit(max_mem_mb)
    write_lock = threading.Lock()
    stop = threading.Event()

    def send(message: dict) -> None:
        with write_lock:
            proto.write_frame_fd(result_fd, message)

    def heartbeat() -> None:
        while not stop.wait(heartbeat_ms / 1000.0):
            message = {"type": "heartbeat", "pid": os.getpid()}
            # Self-sampled RSS rides every heartbeat so the supervisor
            # can recycle bloated workers without touching /proc itself.
            rss = sample_rss_bytes()
            if rss is not None:
                message["rss_bytes"] = rss
            try:
                send(message)
            except OSError:
                return

    threading.Thread(
        target=heartbeat, daemon=True, name="fg-pool-heartbeat"
    ).start()

    try:
        while True:
            frame = proto.read_frame_fd(task_fd)
            if frame is None:
                flightrec.disarm()
                return 0  # supervisor closed the task pipe
            kind = frame.get("type")
            if kind == "init":
                warm_ms = warm_up(
                    frame.get("prelude", False), frame.get("ext", False)
                )
                send({
                    "type": "hello",
                    "pid": os.getpid(),
                    "warm_ms": warm_ms,
                })
            elif kind == "task":
                start_ns = time.perf_counter_ns()
                try:
                    check_kwargs, faults = unpack_task(frame)
                    result = run_attempt(
                        frame["text"], frame["filename"], check_kwargs,
                        faults, None, frame["telemetry"],
                        fatal=(KeyboardInterrupt, SystemExit),
                    )
                finally:
                    # Always-on forensics: one coarse span per task, so
                    # a bundle this worker dumps itself (its hard-death
                    # net) has its history even with instrumentation off.
                    flightrec.record_span(
                        "worker.task", start_ns, time.perf_counter_ns(),
                        {"file": frame["filename"],
                         "attempt": frame.get("attempt")},
                    )
                send(dict(
                    result.to_json(), type="result", id=frame.get("id"),
                    attempt=frame.get("attempt"),
                ))
            elif kind == "shutdown":
                flightrec.disarm()
                return 0
            # Unknown frame types are ignored: forward compatibility.
    except (OSError, proto.FrameError):
        # A dead supervisor (broken pipes) is a clean exit, not a crash.
        flightrec.disarm()
        return 0
    finally:
        stop.set()


def _parse_serve_args(argv) -> dict:
    options = {"heartbeat_ms": 100.0, "max_mem_mb": None}
    it = iter(argv)
    for arg in it:
        if arg == "--task-fd":
            options["task_fd"] = int(next(it))
        elif arg == "--result-fd":
            options["result_fd"] = int(next(it))
        elif arg == "--heartbeat-ms":
            options["heartbeat_ms"] = float(next(it))
        elif arg == "--max-mem-mb":
            options["max_mem_mb"] = float(next(it))
        else:
            raise SystemExit(f"subproc --serve: unknown argument {arg!r}")
    if "task_fd" not in options or "result_fd" not in options:
        raise SystemExit("subproc --serve: --task-fd and --result-fd "
                         "are required")
    return options


if __name__ == "__main__":
    opts = _parse_serve_args([a for a in sys.argv[1:] if a != "--serve"])
    sys.exit(serve(
        opts["task_fd"], opts["result_fd"], opts["heartbeat_ms"],
        max_mem_mb=opts["max_mem_mb"],
    ))
