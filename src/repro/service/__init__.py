"""``repro.service``: the fault-isolated batch checking service.

PR 1 made one ``check_source`` call fault-tolerant; this package protects a
*batch* of them from each other.  ``check_batch(sources, policy)`` runs
many checks under a worker pool with per-task deadlines (watchdog +
cooperative cancellation), optional process isolation in a supervised
pool of persistent workers (``isolate="pool"``) for interpreter-killing
failures, crash containment (worker death becomes a
structured ``CrashReport`` on that file's outcome while the rest of the
batch completes), a deterministic retry policy driven by a fault taxonomy
(deadline misses and crashes are transient and retryable; type errors are
results, never retried), and a circuit breaker that quarantines an input
after N consecutive failures.  Results aggregate into a ``BatchReport``
that is byte-identical across runs modulo timing fields.

Surfaces: the ``fg batch`` subcommand (``repro.tools.cli``) with the
extended exit-code contract (4 = deadline exhaustion, 5 = partial failure,
6 = overload shed by the daemon), the ``fg serve`` daemon
(:mod:`repro.service.server`) — a Unix-socket front end with bounded
admission, graceful drain, and a crash-safe request journal
(:mod:`repro.service.journal`) — its client (:mod:`repro.service.client`
/ ``fg client``), and the chaos harness :func:`repro.testing.run_chaos`,
which replays deterministic :class:`FaultSchedule` plans and asserts the
batch always terminates, never loses a result, and reports every injected
fault exactly once.  Schemas and exit codes are documented in
docs/DIAGNOSTICS.md.

Importing this package loads none of its modules; each name below loads
its own module on first access (DESIGN.md, "Cold start").
"""

from repro._lazy import lazy_exports

#: The client needs only the wire protocol, the daemon never loads the
#: checker, and a pool worker loads only its own modules.
__getattr__, __dir__ = lazy_exports(globals(), {
    name: (f"repro.service.{module}", name)
    for module, names in {
        "batch": ("check_batch",),
        "client": (
            "ClientError", "ConnectionLost", "ProtocolError",
            "ServerUnavailable", "check_remote", "debug_bundle", "events",
            "health", "request_shutdown", "stats",
        ),
        "journal": ("Journal", "JournalError", "replay"),
        "server": ("ServeError", "ServeOptions", "Server", "resolve_policy"),
        "signals": (
            "TERMINATION_SIGNALS", "TerminationRequested",
            "notify_on_termination", "raise_on_termination",
        ),
        "faults": (
            "CHAOS_KINDS", "ChaosCrash", "FAULT_CRASH", "FAULT_DEADLINE",
            "FAULT_MEMORY", "FAULT_WORKER_LOST", "FaultSchedule", "FaultSpec",
            "WorkerKillSpec", "is_retryable",
        ),
        "policy": ("ISOLATION_MODES", "BatchPolicy", "RetryPolicy"),
        "pool": ("PersistentPool", "PoolStats"),
        "report": (
            "EXIT_DEADLINE", "EXIT_OVERLOAD", "EXIT_PARTIAL", "AttemptRecord",
            "BatchReport", "CrashReport", "FileOutcome", "TIMING_FIELDS",
            "VOLATILE_POOL_FIELDS", "canonicalize",
        ),
        "worker": ("run_with_deadline",),
    }.items()
    for name in names
})

__all__ = [
    "AttemptRecord",
    "BatchPolicy",
    "BatchReport",
    "CHAOS_KINDS",
    "ChaosCrash",
    "ClientError",
    "ConnectionLost",
    "CrashReport",
    "EXIT_DEADLINE",
    "EXIT_OVERLOAD",
    "EXIT_PARTIAL",
    "FAULT_CRASH",
    "FAULT_DEADLINE",
    "FAULT_MEMORY",
    "FAULT_WORKER_LOST",
    "FaultSchedule",
    "FaultSpec",
    "FileOutcome",
    "ISOLATION_MODES",
    "Journal",
    "JournalError",
    "PersistentPool",
    "PoolStats",
    "ProtocolError",
    "RetryPolicy",
    "ServeError",
    "ServeOptions",
    "Server",
    "ServerUnavailable",
    "TERMINATION_SIGNALS",
    "TIMING_FIELDS",
    "TerminationRequested",
    "VOLATILE_POOL_FIELDS",
    "WorkerKillSpec",
    "canonicalize",
    "check_batch",
    "check_remote",
    "debug_bundle",
    "events",
    "health",
    "is_retryable",
    "notify_on_termination",
    "raise_on_termination",
    "replay",
    "request_shutdown",
    "resolve_policy",
    "run_with_deadline",
    "stats",
]
