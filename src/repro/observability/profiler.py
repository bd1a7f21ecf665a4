"""Deterministic hot-path profiling and per-stage memory accounting.

The :class:`~repro.observability.tracer.Tracer` already records *every*
span (no sampling), so a profile is a pure aggregation of the span stream:
:func:`profile_tracer` folds the tree into one row per callsite (span
name) with call counts and inclusive/exclusive times.  Because nothing is
sampled, two runs of the same program produce the same rows in the same
order — only the timing columns differ (``tests/observability/
test_profiler.py`` enforces this byte-for-byte, modulo timings).

Rows are ordered by **call count (descending), then name** — both
deterministic quantities — never by time, so the table shape is stable
across runs and machines.

:class:`MemoryAccountant` is the memory half: the pipeline wraps each
stage in :meth:`MemoryAccountant.stage`, which resets :mod:`tracemalloc`'s
peak and records the high-water mark per stage.  Like every other
instrument it is a strict opt-in: :data:`~repro.observability.
NULL_INSTRUMENTATION` carries ``memory=None`` and the disabled path never
touches ``tracemalloc`` (``tests/observability/test_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class HotSpot:
    """One aggregated callsite: every span sharing a name, folded.

    ``inclusive_ns`` sums each span's full duration; ``exclusive_ns``
    subtracts time spent in child spans, so the column answers "where did
    the time *itself* go" rather than "what was on the stack".
    """

    name: str
    calls: int
    inclusive_ns: int
    exclusive_ns: int

    @property
    def inclusive_ms(self) -> float:
        return round(self.inclusive_ns / 1e6, 3)

    @property
    def exclusive_ms(self) -> float:
        return round(self.exclusive_ns / 1e6, 3)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "calls": self.calls,
            "inclusive_ms": self.inclusive_ms,
            "exclusive_ms": self.exclusive_ms,
        }


@dataclass(frozen=True)
class Profile:
    """The aggregated hot-path table for one traced run."""

    hotspots: List[HotSpot]
    span_count: int

    @property
    def total_exclusive_ms(self) -> float:
        """Sum of exclusive time across callsites (total traced time)."""
        return round(
            sum(h.exclusive_ns for h in self.hotspots) / 1e6, 3
        )

    def to_json(self) -> Dict[str, object]:
        """JSON-ready projection (the ``"profile"`` envelope payload)."""
        return {
            "hotspots": [h.to_dict() for h in self.hotspots],
            "span_count": self.span_count,
            "total_exclusive_ms": self.total_exclusive_ms,
        }

    def render(self) -> str:
        """An aligned text table, hottest-by-call-count first."""
        if not self.hotspots:
            return "-- no spans recorded (profile needs a live tracer)"
        lines = [
            f"{'callsite':<36} {'calls':>7} {'incl ms':>10} {'excl ms':>10}"
        ]
        for h in self.hotspots:
            lines.append(
                f"{h.name:<36} {h.calls:>7} "
                f"{h.inclusive_ms:>10.3f} {h.exclusive_ms:>10.3f}"
            )
        return "\n".join(lines)


def profile_tracer(tracer) -> Profile:
    """Aggregate a tracer's span stream into a :class:`Profile`.

    Works on any object with a ``spans`` list (a :class:`Tracer` or the
    null tracer, which yields an empty profile).  Open spans contribute a
    zero duration, so profiling a tracer mid-run is safe.  A span nested
    inside a same-name ancestor (recursion) adds nothing to its name's
    inclusive time, which the outermost span of the chain already covers.
    """
    calls: Dict[str, int] = {}
    inclusive: Dict[str, int] = {}
    exclusive: Dict[str, int] = {}
    spans = tracer.spans
    by_id = {span.id: span for span in spans}
    for span in spans:
        dur = span.duration_ns
        child_time = sum(c.duration_ns for c in span.children)
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None and ancestor.name != name:
            ancestor = by_id.get(ancestor.parent_id)
        inclusive[name] = inclusive.get(name, 0) + (
            dur if ancestor is None else 0
        )
        # Clamp: an open child inside a closed parent could push this
        # negative; exclusive time is by definition non-negative.
        exclusive[name] = exclusive.get(name, 0) + max(0, dur - child_time)
    hotspots = [
        HotSpot(name, calls[name], inclusive[name], exclusive[name])
        for name in sorted(calls, key=lambda n: (-calls[n], n))
    ]
    return Profile(hotspots=hotspots, span_count=len(spans))


class MemoryAccountant:
    """Per-stage peak-memory accounting via :mod:`tracemalloc`.

    The pipeline calls :meth:`stage` around each stage; the accountant
    resets the tracemalloc peak on entry and records the high-water mark
    on exit (keeping the max across repeated entries of the same stage
    name).  If tracemalloc was not already tracing, the accountant starts
    it for the stage and stops it afterwards, so enabling memory
    accounting for one run leaves no process-wide residue.
    """

    __slots__ = ("peaks",)

    def __init__(self):
        #: Peak traced bytes per stage name.
        self.peaks: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        import tracemalloc

        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            _, peak = tracemalloc.get_traced_memory()
            prior = self.peaks.get(name)
            self.peaks[name] = peak if prior is None else max(prior, peak)
            if started_here:
                tracemalloc.stop()

    def peaks_kb(self) -> Dict[str, float]:
        """Peak KiB per stage, sorted by stage name (JSON-ready)."""
        return {
            name: round(self.peaks[name] / 1024, 1)
            for name in sorted(self.peaks)
        }

    def render(self) -> str:
        if not self.peaks:
            return "-- no memory accounted"
        return "\n".join(
            f"{name:<36} {kb:>10.1f} KiB"
            for name, kb in self.peaks_kb().items()
        )

    def __len__(self) -> int:
        return len(self.peaks)


def format_profile(profile: Profile,
                   memory: Optional[MemoryAccountant] = None) -> str:
    """The human ``fg profile`` / REPL ``:profile`` report."""
    parts = ["-- hot paths (by call count; incl = with children):",
             profile.render()]
    if memory is not None and len(memory):
        parts.append("-- peak memory by stage:")
        parts.append(memory.render())
    return "\n".join(parts)
