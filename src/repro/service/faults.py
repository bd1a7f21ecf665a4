"""Fault taxonomy and deterministic chaos schedules for the batch service.

Two layers:

**Taxonomy.**  An attempt that doesn't end in a report ends in a *fault*,
classified as ``"deadline"`` (the watchdog or the cooperative
:class:`~repro.diagnostics.limits.DeadlineExceededError` cut it off) or
``"crash"`` (a non-``Diagnostic`` exception escaped, or the isolated worker
died).  Both are treated as **transient** — :func:`is_retryable` — because
a deadline miss may be load and a crash may be an OOM kill; if the failure
is actually deterministic the retry loop keeps failing and the circuit
breaker quarantines the input instead of starving the batch.  Diagnostics
(type errors, parse errors) are *results*, not faults, and are never
retried.

**Chaos schedules.**  A :class:`FaultSchedule` is a declarative, fully
deterministic plan of injected faults — ``(file index × pipeline stage ×
fault kind × attempt set)`` — layered over the thread-local
:func:`repro.pipeline.inject_fault` hook.  Being plain data, a schedule
crosses the process boundary as JSON, so ``isolate="pool"`` workers
replay exactly the same faults.  The CLI accepts the compact text
form (``fg batch --chaos "1:check:crash,2:parse:hang"``) and the chaos
harness (:func:`repro.testing.run_chaos`) derives schedules from a seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Fault-taxonomy kinds an attempt can fail with.  ``worker-lost`` is the
#: pool supervisor's kind: the worker *process* died (SIGKILL, OOM,
#: heartbeat silence) with the attempt in flight — transient like the
#: others, because the replacement worker usually completes the retry.
FAULT_DEADLINE = "deadline"
FAULT_CRASH = "crash"
FAULT_WORKER_LOST = "worker-lost"
#: ``"memory"`` is the governor's kind: the attempt tripped a per-worker
#: memory budget (a contained :class:`MemoryError` under an rlimit) —
#: transient, because the retry lands on a freshly recycled worker with a
#: clean heap.
FAULT_MEMORY = "memory"

#: Injectable chaos kinds: ``crash`` raises inside the stage, ``hang``
#: sleeps past the deadline, ``kill`` takes the whole worker down
#: (``os._exit`` in a subprocess; a contained ``SystemExit`` in a thread),
#: ``noise`` prints to stdout mid-stage — harmless by contract, because
#: the result channel is framed on a shielded fd; it exists to prove that.
#: ``memhog`` allocates until the worker's memory rlimit trips (raising
#: :class:`MemoryError` immediately when no rlimit is in force, so chaos
#: never eats the host's actual RAM).
CHAOS_KINDS = ("crash", "hang", "kill", "noise", "memhog")


def is_retryable(fault_kind: Optional[str]) -> bool:
    """Transient faults are worth retrying; diagnosed programs are not."""
    return fault_kind in (
        FAULT_DEADLINE, FAULT_CRASH, FAULT_WORKER_LOST, FAULT_MEMORY,
    )


class ChaosCrash(RuntimeError):
    """The exception an injected ``crash`` fault raises (identifiable, so
    tests can tell a scheduled crash from a genuine bug)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` at ``stage`` of file ``index``.

    ``attempts`` restricts firing to those attempt numbers (``None`` =
    every attempt, modelling a deterministic fault; ``frozenset({0})``
    models a transient one that a retry outruns).
    """

    index: int
    stage: str
    kind: str
    attempts: Optional[FrozenSet[int]] = None

    def __post_init__(self):
        from repro.faultinject import STAGES

        if self.stage not in STAGES:
            raise ValueError(f"unknown pipeline stage: {self.stage!r}")
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind: {self.kind!r}")
        if self.index < 0:
            raise ValueError("file index must be non-negative")

    @property
    def tag(self) -> str:
        return f"{self.stage}:{self.kind}"

    def applies(self, index: int, attempt: int) -> bool:
        if index != self.index:
            return False
        return self.attempts is None or attempt in self.attempts

    def materialize(self, hang_s: float, *, in_subprocess: bool = False):
        """The concrete fault object ``inject_fault`` installs."""
        if self.kind == "crash":
            return ChaosCrash(f"chaos: injected crash at {self.stage}")
        if self.kind == "hang":
            return lambda: time.sleep(hang_s)
        if self.kind == "noise":
            # A stray print: corrupts an unframed result-on-stdout protocol,
            # lands on stderr once the worker has shielded fd 1.
            stage = self.stage
            return lambda: print(f"chaos: stray stdout noise at {stage}")
        if self.kind == "memhog":
            # Allocate until the worker's own rlimit trips. Guarded: with
            # no finite limit in force, raise MemoryError immediately —
            # chaos must never exhaust the host's real RAM.
            stage = self.stage

            def _hog():
                from repro.service.resources import (
                    current_memory_limit_bytes,
                )

                blocks = []
                if current_memory_limit_bytes() is not None:
                    try:
                        while True:
                            blocks.append(bytearray(1 << 20))
                    except MemoryError:
                        # Free before raising so building the crash
                        # report has heap to work with, and so the
                        # traceback doesn't pin the hog.
                        del blocks[:]
                raise MemoryError(
                    f"chaos: memory exhaustion at {stage}"
                ) from None

            return _hog
        # "kill": genuine worker death when isolated; in a thread the whole
        # process is not ours to kill, so it degrades to a contained crash.
        if in_subprocess:
            import os

            return lambda: os._exit(13)
        return SystemExit(13)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "stage": self.stage,
            "kind": self.kind,
            "attempts": (
                sorted(self.attempts) if self.attempts is not None else None
            ),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultSpec":
        attempts = data.get("attempts")
        return cls(
            index=data["index"],
            stage=data["stage"],
            kind=data["kind"],
            attempts=frozenset(attempts) if attempts is not None else None,
        )


@dataclass(frozen=True)
class WorkerKillSpec:
    """SIGKILL a pool worker at the dispatch of one (file, attempt) pair.

    Keyed to *which task is being handed out*, never to wall clock or to a
    global dispatch ordinal — both of those depend on OS scheduling, and
    the chaos harness asserts byte-identical canonical reports across
    rounds.  ``worker=None`` kills whichever worker received the dispatch
    (the fully deterministic form); an explicit slot index kills that
    worker instead, taking down whatever it happens to be running.
    """

    index: int
    attempt: int = 0
    worker: Optional[int] = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("file index must be non-negative")
        if self.attempt < 0:
            raise ValueError("attempt must be non-negative")

    def applies(self, index: int, attempt: int) -> bool:
        return index == self.index and attempt == self.attempt

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "attempt": self.attempt,
            "worker": self.worker,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "WorkerKillSpec":
        return cls(
            index=data["index"],
            attempt=data.get("attempt", 0),
            worker=data.get("worker"),
        )

    @classmethod
    def parse(cls, text: str) -> "WorkerKillSpec":
        """Parse the CLI form ``INDEX[:ATTEMPT[:WORKER]]``."""
        parts = text.strip().split(":")
        if not 1 <= len(parts) <= 3:
            raise ValueError(
                f"bad kill spec {text!r}: want INDEX[:ATTEMPT[:WORKER]]"
            )
        try:
            index = int(parts[0])
            attempt = int(parts[1]) if len(parts) > 1 else 0
            worker = int(parts[2]) if len(parts) > 2 else None
        except ValueError:
            raise ValueError(
                f"bad kill spec {text!r}: fields must be integers"
            ) from None
        return cls(index=index, attempt=attempt, worker=worker)


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic set of scheduled faults plus the hang duration.

    ``kills`` only applies under ``isolate="pool"`` — the other isolation
    modes have no supervised worker to kill.
    """

    specs: Tuple[FaultSpec, ...] = ()
    #: How long an injected ``hang`` sleeps; pick it well past the deadline.
    hang_s: float = 0.5
    kills: Tuple[WorkerKillSpec, ...] = ()

    def for_attempt(self, index: int, attempt: int) -> Tuple[FaultSpec, ...]:
        """The faults that fire on this (file, attempt), stage-ordered."""
        return tuple(
            sorted(
                (s for s in self.specs if s.applies(index, attempt)),
                key=lambda s: (s.stage, s.kind),
            )
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "specs": [s.to_json() for s in self.specs],
            "hang_s": self.hang_s,
            "kills": [k.to_json() for k in self.kills],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultSchedule":
        return cls(
            specs=tuple(FaultSpec.from_json(s) for s in data["specs"]),
            hang_s=data.get("hang_s", 0.5),
            kills=tuple(
                WorkerKillSpec.from_json(k) for k in data.get("kills", ())
            ),
        )

    @classmethod
    def parse(cls, text: str, *, hang_s: float = 0.5) -> "FaultSchedule":
        """Parse the CLI form: ``INDEX:STAGE:KIND[:ATTEMPTS][,...]``.

        ``ATTEMPTS`` is ``*`` (default, every attempt), one number, or an
        inclusive range ``A-B``.  Example: ``"1:check:crash:0,2:parse:hang"``.
        """
        specs: List[FaultSpec] = []
        for chunk in filter(None, (c.strip() for c in text.split(","))):
            parts = chunk.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"bad chaos spec {chunk!r}: want INDEX:STAGE:KIND"
                    "[:ATTEMPTS]"
                )
            index_s, stage, kind = parts[:3]
            try:
                index = int(index_s)
            except ValueError:
                raise ValueError(
                    f"bad chaos spec {chunk!r}: file index must be an int"
                ) from None
            attempts: Optional[FrozenSet[int]] = None
            if len(parts) == 4 and parts[3] != "*":
                spec = parts[3]
                try:
                    if "-" in spec:
                        lo, hi = spec.split("-", 1)
                        attempts = frozenset(range(int(lo), int(hi) + 1))
                    else:
                        attempts = frozenset({int(spec)})
                except ValueError:
                    raise ValueError(
                        f"bad chaos spec {chunk!r}: attempts must be N, "
                        "A-B, or *"
                    ) from None
            specs.append(FaultSpec(index, stage, kind, attempts))
        return cls(specs=tuple(specs), hang_s=hang_s)


# ---------------------------------------------------------------------------
# Ambient-fault propagation across the subprocess boundary
# ---------------------------------------------------------------------------

def serialize_exception_faults(
    faults: Dict[str, object]
) -> List[Dict[str, str]]:
    """Project a thread's fault table to JSON for a subprocess worker.

    Only exception instances cross the boundary (as type name + message);
    a callable fault has no portable representation — ship a declarative
    :class:`FaultSpec` instead.
    """
    entries: List[Dict[str, str]] = []
    for stage in sorted(faults):
        fault = faults[stage]
        if not isinstance(fault, BaseException):
            raise TypeError(
                f"cannot propagate callable fault at stage {stage!r} to a "
                "subprocess; use a FaultSchedule spec instead"
            )
        entries.append({
            "stage": stage,
            "exc_type": type(fault).__name__,
            "message": str(fault),
        })
    return entries


def deserialize_exception_faults(
    entries: List[Dict[str, str]]
) -> Dict[str, BaseException]:
    """Rebuild a fault table in the subprocess child.

    Exception types resolve from builtins; anything else becomes a
    ``RuntimeError`` carrying the original type name in its message.
    """
    import builtins

    faults: Dict[str, BaseException] = {}
    for entry in entries:
        exc_type = getattr(builtins, entry["exc_type"], None)
        if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
            exc: BaseException = exc_type(entry["message"])
        else:
            exc = RuntimeError(f"{entry['exc_type']}: {entry['message']}")
        faults[entry["stage"]] = exc
    return faults
