"""Batch execution policy: concurrency, deadlines, retries, quarantine.

Everything here is declarative and JSON-projectable, so the policy echo in
a :class:`~repro.service.report.BatchReport` pins exactly what the run was
configured to do — part of the report's determinism surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.diagnostics.limits import DEFAULT_LIMITS, Limits

#: Worker isolation modes: ``"none"`` runs attempts on watchdogged daemon
#: threads in-process; ``"pool"`` runs them in a supervised pool of
#: persistent, prelude-warmed worker processes (:mod:`repro.service.pool`)
#: so even C-level faults and OOM kills are contained.
ISOLATION_MODES = ("none", "pool")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for transient faults.

    The backoff before retry *k* (0-based) is
    ``backoff_base_ms * backoff_factor**k`` capped at ``backoff_cap_ms`` —
    a pure function of the policy, so retry records in a batch report are
    byte-identical across runs.
    """

    max_retries: int = 0
    backoff_base_ms: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 10_000.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be non-negative")

    def backoff_ms(self, failure_index: int) -> float:
        """Scheduled delay after the ``failure_index``-th failed attempt."""
        if self.backoff_base_ms <= 0:
            return 0.0
        return min(
            self.backoff_base_ms * self.backoff_factor ** failure_index,
            self.backoff_cap_ms,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "max_retries": self.max_retries,
            "backoff_base_ms": self.backoff_base_ms,
            "backoff_factor": self.backoff_factor,
            "backoff_cap_ms": self.backoff_cap_ms,
        }


@dataclass(frozen=True)
class BatchPolicy:
    """How :func:`repro.service.check_batch` runs a batch.

    ``quarantine_after`` is the circuit breaker: after that many
    *consecutive* failed attempts on one input, the breaker opens and the
    input is quarantined even if retry budget remains — one pathological
    file can delay the batch by at most ``quarantine_after`` deadlines.
    """

    jobs: int = 1
    deadline_ms: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine_after: int = 3
    isolate: str = "none"
    # Pool-mode supervision (ignored by the other isolation modes).
    pool_workers: int = 2
    max_respawns: int = 4
    heartbeat_ms: float = 100.0
    # Resource governor. These are operational knobs, not semantics:
    # report.py strips them from the canonical digest so a governed run
    # and an ungoverned run of the same batch hash identically.
    max_worker_mem_mb: Optional[float] = None
    recycle_rss_mb: Optional[float] = None
    recycle_after_tasks: Optional[int] = None
    # Per-file check_source configuration.
    prelude: bool = False
    ext: bool = False
    max_errors: int = 20
    limits: Optional[Limits] = None
    verify: bool = False
    evaluate: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")
        if self.max_errors < 1:
            raise ValueError("max_errors must be at least 1")
        if self.isolate not in ISOLATION_MODES:
            raise ValueError(
                f"isolate must be one of {ISOLATION_MODES}, "
                f"not {self.isolate!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.pool_workers < 1:
            raise ValueError("pool_workers must be at least 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be positive")
        if self.max_worker_mem_mb is not None and self.max_worker_mem_mb <= 0:
            raise ValueError("max_worker_mem_mb must be positive")
        if self.recycle_rss_mb is not None and self.recycle_rss_mb <= 0:
            raise ValueError("recycle_rss_mb must be positive")
        if (self.recycle_after_tasks is not None
                and self.recycle_after_tasks < 1):
            raise ValueError("recycle_after_tasks must be at least 1")

    def effective_limits(self) -> Limits:
        """The per-attempt limits, with the cooperative deadline folded in."""
        from dataclasses import replace

        base = self.limits if self.limits is not None else DEFAULT_LIMITS
        if self.deadline_ms is None:
            return base
        return replace(base, deadline_ms=self.deadline_ms)

    def check_kwargs(self) -> Dict[str, object]:
        """The per-file :func:`~repro.pipeline.check_source` keywords."""
        return {
            "prelude": self.prelude,
            "ext": self.ext,
            "max_errors": self.max_errors,
            "limits": self.effective_limits(),
            "verify": self.verify,
            "evaluate": self.evaluate,
        }

    def to_json(self) -> Dict[str, object]:
        """Project *every* field, so the report's policy echo pins the run.

        Generic on purpose: hand-picking keys is how ``deadline_ms``
        silently fell out of the ``limits`` echo once — a field added to
        this policy or to :class:`~repro.diagnostics.limits.Limits` now
        shows up here without anyone remembering to add it.
        """
        from dataclasses import fields

        blob: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "retry":
                blob[spec.name] = (
                    value.to_json() if value is not None else None
                )
            elif spec.name == "limits":
                blob[spec.name] = (
                    value if value is not None else DEFAULT_LIMITS
                ).to_json()
            else:
                blob[spec.name] = value
        return blob

    @classmethod
    def from_json(cls, blob: Dict[str, object]) -> "BatchPolicy":
        """Rebuild a policy from its :meth:`to_json` echo — exactly.

        The serve daemon's journal stores the *resolved* policy of every
        admitted request; replay after a crash reconstructs it with this,
        and ``from_json(p.to_json()).to_json() == p.to_json()`` is the
        round-trip contract that makes resumed reports byte-identical
        (pinned by ``tests/service/test_journal.py``).  Unknown keys are
        rejected loudly — a journal written by a newer policy must not
        silently replay under a truncated one.  The retired
        ``isolate="subprocess"`` mode reads as ``"pool"``, so journals from
        daemons that still offered it replay.
        """
        from dataclasses import fields

        known = {spec.name for spec in fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(
                f"unknown BatchPolicy field(s) in echo: {sorted(unknown)}"
            )
        kwargs: Dict[str, object] = dict(blob)
        if kwargs.get("isolate") == "subprocess":
            kwargs["isolate"] = "pool"
        if kwargs.get("retry") is not None:
            kwargs["retry"] = RetryPolicy(**kwargs["retry"])
        if kwargs.get("limits") is not None:
            kwargs["limits"] = Limits(**kwargs["limits"])
        return cls(**kwargs)
