"""Structured results for the batch checking service.

A batch run never loses a file's result: every input ends as exactly one
:class:`FileOutcome`, whatever happened to it — checked clean, diagnosed,
timed out, crashed, or quarantined by the circuit breaker.  Worker death is
*contained*: it becomes a :class:`CrashReport` attached to that file's
outcome while the rest of the batch completes.

The aggregate :class:`BatchReport` is **deterministic**: the same inputs,
policy, and fault schedule produce the same report, byte-for-byte, modulo
the timing fields listed in :data:`TIMING_FIELDS` —
:meth:`BatchReport.canonical_json` strips them (and reduces crash
tracebacks to their frames), and the chaos harness
(:func:`repro.testing.run_chaos`) diffs the canonical bytes across runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Report schema version (bump on breaking shape changes).
SCHEMA = "repro/batch-report v1"

#: Per-file outcome statuses, in "worst wins" order for the rollup.
#: ``"memory"`` is a contained per-worker memory-budget trip — worse than
#: a timeout (the attempt died, not just ran long), better than a crash
#: (the containment wall held and the worker survived).
STATUSES = ("ok", "diagnostics", "timeout", "memory", "crash")

#: JSON keys holding measured wall-clock quantities; everything else in a
#: batch report is required to be run-to-run stable.
TIMING_FIELDS = frozenset({"duration_ms", "elapsed_ms"})

#: Pool-supervisor counters that depend on OS scheduling (who stole what,
#: whether a heartbeat squeaked in) rather than on the input/policy/chaos
#: triple; stripped from the canonical digest alongside the timing fields.
#: ``respawns``, ``worker_lost``, and ``degraded`` are *not* here — those
#: are part of the deterministic chaos contract.  ``spawned`` joined the
#: volatile set with the serve daemon's persistent pool: a warm pool runs
#: a batch with zero fresh spawns where a cold one spawns every slot, and
#: the canonical report must not depend on which daemon lifetime served
#: the request.
VOLATILE_POOL_FIELDS = frozenset(
    {"steals", "heartbeat_misses", "warm_ms", "spawned", "rss_bytes",
     "recycles"}
)

#: Resource-governor policy knobs.  They shape *how* a batch runs (memory
#: rlimits, worker recycling) but must never change *what* it reports —
#: the acceptance contract is byte-identical digests governor-on vs
#: governor-off — so they are stripped from the canonical form exactly
#: like timing.  The policy echo in :meth:`BatchPolicy.to_json` still
#: records them for humans and for journal replay.
GOVERNOR_POLICY_FIELDS = frozenset(
    {"max_worker_mem_mb", "recycle_rss_mb", "recycle_after_tasks"}
)

#: Extended exit codes for ``fg batch`` / ``fg client`` (0–3 shared with
#: the single-file contract; see docs/DIAGNOSTICS.md).
EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_DEADLINE = 4
EXIT_PARTIAL = 5
#: ``fg client`` only: the serve daemon shed the request at admission
#: (bounded queue full, or draining); the response carries a
#: deterministic ``retry_after_ms`` hint.
EXIT_OVERLOAD = 6


@dataclass(frozen=True)
class CrashReport:
    """A contained worker death, attached to the file that caused it.

    ``where`` says which containment wall caught it: ``"worker"`` (the
    in-process worker thread, or an exception a pool worker contained) or
    ``"pool"`` (a persistent pool worker was lost with this attempt in
    flight; the supervisor recorded it as the ``worker-lost`` fault and
    ``returncode`` carries its wait status, negative for a signal kill).
    """

    exc_type: str
    message: str
    where: str = "worker"
    traceback: Tuple[str, ...] = ()
    returncode: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "exc_type": self.exc_type,
            "message": self.message,
            "where": self.where,
            "traceback": list(self.traceback),
            "returncode": self.returncode,
        }


@dataclass(frozen=True)
class AttemptRecord:
    """One try at one file: how it ended and what the retry policy did next.

    ``fault`` is the taxonomy kind for failures (``"deadline"``/``"crash"``,
    ``None`` for ok/diagnosed attempts); ``backoff_ms`` is the delay the
    deterministic schedule imposed *after* this attempt (0 when this was the
    last); ``injected`` lists the chaos faults installed for this attempt
    (``"stage:kind"`` tags), so the chaos harness can assert every injected
    fault is reported exactly once.  ``duration_ms`` is a timing field.
    """

    attempt: int
    status: str
    fault: Optional[str] = None
    retryable: bool = False
    backoff_ms: float = 0.0
    injected: Tuple[str, ...] = ()
    duration_ms: float = 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "status": self.status,
            "fault": self.fault,
            "retryable": self.retryable,
            "backoff_ms": self.backoff_ms,
            "injected": list(self.injected),
            "duration_ms": self.duration_ms,
        }


@dataclass(frozen=True)
class FileOutcome:
    """The final word on one input file.

    ``status`` is the last attempt's status; ``quarantined`` is set when the
    circuit breaker opened (N consecutive failures) before the retry budget
    ran out, so retries couldn't starve the batch.
    """

    file: str
    index: int
    status: str
    ok: bool
    quarantined: bool = False
    attempts: Tuple[AttemptRecord, ...] = ()
    diagnostics: Tuple[Dict[str, object], ...] = ()
    severities: Dict[str, int] = field(default_factory=dict)
    rendered: str = ""
    crash: Optional[CrashReport] = None

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "index": self.index,
            "status": self.status,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "attempts": [a.to_json() for a in self.attempts],
            "diagnostics": list(self.diagnostics),
            "severities": dict(self.severities),
            "rendered": self.rendered,
            "crash": self.crash.to_json() if self.crash else None,
        }


@dataclass(frozen=True)
class BatchReport:
    """Everything one batch run produced, in input order.

    The exit-code contract extends the single-file 0/1/2/3 one so partial
    failure, deadline exhaustion, and total failure are distinguishable:

    - 0 — every file checked clean;
    - 1 — the batch completed; some files have diagnostics (input errors);
    - 4 — deadline exhaustion: at least one file timed out (and none
      crashed);
    - 5 — partial failure: crash or memory-budget containment engaged for
      at least one file (usage errors stay 2 and a bug in the batch
      driver itself stays 3, both decided by the CLI).
    """

    files: Tuple[FileOutcome, ...]
    policy: Dict[str, object] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    #: Pool-supervisor stats (``PoolStats.to_json()``) when the batch ran
    #: under ``isolate="pool"``; ``None`` for the other isolation modes.
    pool: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.files)

    @property
    def quarantine(self) -> Tuple[str, ...]:
        return tuple(f.file for f in self.files if f.quarantined)

    @property
    def exit_code(self) -> int:
        statuses = {f.status for f in self.files}
        if "crash" in statuses or "memory" in statuses:
            return EXIT_PARTIAL
        if "timeout" in statuses:
            return EXIT_DEADLINE
        if any(f.severities.get("error") for f in self.files):
            return EXIT_DIAGNOSTICS
        return EXIT_OK

    def rollup(self) -> Dict[str, object]:
        """Counts by status plus the severity totals across every report."""
        by_status = {status: 0 for status in STATUSES}
        severities = {"error": 0, "warning": 0, "note": 0}
        retries = 0
        for outcome in self.files:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
            retries += outcome.retries
            for severity, count in outcome.severities.items():
                severities[severity] = severities.get(severity, 0) + count
        return {
            "files": len(self.files),
            **by_status,
            "quarantined": len(self.quarantine),
            "retries": retries,
            "severities": severities,
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "policy": dict(self.policy),
            "files": [f.to_json() for f in self.files],
            "rollup": self.rollup(),
            "quarantine": list(self.quarantine),
            "exit_code": self.exit_code,
            "elapsed_ms": self.elapsed_ms,
            "pool": dict(self.pool) if self.pool is not None else None,
        }

    def canonical_json(self) -> str:
        """The determinism surface: JSON with timing and scheduling-volatile
        fields stripped."""
        return canonicalize(self.to_json())

    def render(self) -> str:
        """Human-readable per-file table + rollup (the non-JSON CLI view)."""
        return render_report(self.to_json())

    def __len__(self) -> int:
        return len(self.files)


def render_report(report_json: Dict[str, object]) -> str:
    """The human view of a report's JSON form (:meth:`BatchReport.to_json`):
    a per-file table with retry/quarantine flags and contained crashes,
    then the rollup, pool and quarantine lines.  ``fg batch`` renders its
    own report with it and ``fg client`` the one the daemon sends."""
    lines: List[str] = []
    for outcome in report_json["files"]:
        label = outcome["status"]
        if label == "diagnostics":
            label = f"error({outcome['severities'].get('error', 0)})"
        flags = []
        if len(outcome["attempts"]) > 1:
            flags.append(f"attempts={len(outcome['attempts'])}")
        if outcome["quarantined"]:
            flags.append("quarantined")
        suffix = ("  [" + ", ".join(flags) + "]") if flags else ""
        lines.append(f"{label:<12} {outcome['file']}{suffix}")
        crash = outcome["crash"]
        if crash is not None:
            lines.append(
                f"{'':<12} contained {crash['where']} crash: "
                f"{crash['exc_type']}: {crash['message']}"
            )
    roll = report_json["rollup"]
    lines.append(
        "-- rollup: "
        + " ".join(f"{k}={roll[k]}" for k in
                   ("files", "ok", "diagnostics", "timeout", "memory",
                    "crash", "quarantined", "retries"))
    )
    pool = report_json["pool"]
    if pool is not None:
        lines.append(
            "-- pool: "
            + " ".join(f"{k}={pool[k]}" for k in
                       ("workers", "respawns", "worker_lost", "steals",
                        "retired", "degraded")
                       if k in pool)
        )
    if report_json["quarantine"]:
        lines.append("-- quarantine: " + ", ".join(report_json["quarantine"]))
    return "\n".join(lines)


_NONCANONICAL_FIELDS = (
    TIMING_FIELDS | VOLATILE_POOL_FIELDS | GOVERNOR_POLICY_FIELDS
)


#: A traceback frame line: ``  File "<path>", line <n>, in <function>``.
_FRAME_LINE = re.compile(r'\s*File "(?P<path>[^"]*)", line \d+, in (?P<fn>.*)')


def canonicalize(report_json) -> str:
    """Canonical form of an already-projected report dict.

    The serve daemon ships ``BatchReport.to_json()`` envelopes over the
    wire and into the journal; this is :meth:`BatchReport.canonical_json`
    for consumers that only hold the JSON — same stripping, same key
    order, byte-identical output.  Crash tracebacks are projected onto
    their frames, ``<basename> in <function>``, so a digest does not
    depend on where the checkout lives or on line numbers and source
    text (the raw traceback stays in the non-canonical JSON).
    """
    return json.dumps(
        _canonical(report_json), sort_keys=True, indent=None
    )


def _canonical(value):
    if isinstance(value, dict):
        return {
            k: _frames(v) if k == "traceback" else _canonical(v)
            for k, v in value.items()
            if k not in _NONCANONICAL_FIELDS
        }
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def _frames(lines):
    frames = []
    for line in lines:
        match = _FRAME_LINE.match(line)
        if match is not None:
            path = match["path"].replace("\\", "/")
            frames.append(f"{path.rsplit('/', 1)[-1]} in {match['fn']}")
    return frames
