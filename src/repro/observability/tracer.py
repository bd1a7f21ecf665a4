"""Hierarchical, timed spans for the checking pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per traced
operation — with monotonic ids, parent links, and ``perf_counter_ns``
timestamps.  The pipeline wraps its stages (parse, check, verify, evaluate)
in spans; the typechecker adds fine-grained spans for per-binding checks,
where-clause satisfaction, and model lookup; the congruence module adds
closure-construction and merge spans.

Tracing must be *near-free when off*: every instrumented module holds a
tracer that is the shared :data:`NULL_TRACER` by default, whose
:meth:`~NullTracer.span` returns one reusable no-op context manager (the
null-object pattern), and the hottest call sites additionally guard on
:attr:`Tracer.enabled` so no span ever allocates on the disabled path.
``tests/observability/test_overhead.py`` enforces the budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional

from repro.observability.flightrec import record_span as _flightrec_span


class Span:
    """One timed operation: name, attributes, children, and nanosecond
    timestamps.  ``end_ns`` is ``None`` while the span is still open."""

    __slots__ = ("id", "name", "parent_id", "start_ns", "end_ns", "attrs",
                 "children")

    def __init__(self, id_: int, name: str, parent_id: Optional[int],
                 start_ns: int, attrs: Dict[str, object]):
        self.id = id_
        self.name = name
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.children: List["Span"] = []

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def __repr__(self):
        return f"<span #{self.id} {self.name!r} {self.duration_ns}ns>"


class _SpanHandle:
    """Context manager that closes one span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self._span)


class _NullHandle:
    """The reusable no-op context manager the null tracer hands out."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Records a tree of timed spans.

    Spans nest by dynamic scope: ``tracer.span(...)`` opens a child of the
    innermost open span (or a new root) and the returned context manager
    closes it.  Exceptions propagate — a span that ends by exception is
    closed like any other, so the recovery machinery in the checker keeps
    the tree consistent.

    ``clock`` is injectable for deterministic tests; it must return
    monotonically non-decreasing integers (nanoseconds).
    """

    enabled = True

    __slots__ = ("_clock", "_next_id", "_stack", "roots", "_spans")

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._next_id = 1
        self._stack: List[Span] = []
        self.roots: List[Span] = []
        self._spans: List[Span] = []

    def span(self, name: str, /, **attrs) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("check", file=f):``.

        ``name`` is positional-only so a span attribute may also be
        called ``name``.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name,
                    parent.id if parent is not None else None,
                    self._clock(), attrs)
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._spans.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def adopt(self, name: str, start_ns: int, end_ns: int, *,
              parent: Optional[Span] = None,
              attrs: Optional[Dict[str, object]] = None) -> Span:
        """Record an already-timed span (cross-process telemetry stitching).

        Unlike :meth:`span`, the caller supplies both timestamps and an
        explicit ``parent`` (``None`` adopts under the innermost open span,
        or as a new root).  The open-span stack is never touched — adopted
        spans are history, not dynamic scope — so grafting a worker's span
        tree cannot disturb live ``with tracer.span(...)`` nesting.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name,
                    parent.id if parent is not None else None,
                    int(start_ns), dict(attrs or {}))
        span.end_ns = int(end_ns)
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._spans.append(span)
        _flightrec_span(name, span.start_ns, span.end_ns, span.attrs)
        return span

    def _finish(self, span: Span) -> None:
        span.end_ns = self._clock()
        _flightrec_span(span.name, span.start_ns, span.end_ns, span.attrs)
        # Normal exits pop exactly the top; pop defensively past any spans
        # a non-local exit (error recovery) left open below this one.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                return
            if top.end_ns is None:
                top.end_ns = span.end_ns

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` (cross-process dispatch
        stamps its id on task frames as the worker's logical parent)."""
        return self._stack[-1] if self._stack else None

    @property
    def spans(self) -> List[Span]:
        """Every span recorded so far, in creation (preorder) order."""
        return list(self._spans)

    def walk(self) -> Iterator[tuple]:
        """Yield ``(depth, span)`` pairs in tree preorder."""
        def go(span: Span, depth: int):
            yield depth, span
            for child in span.children:
                yield from go(child, depth + 1)

        for root in self.roots:
            yield from go(root, 0)

    def __len__(self) -> int:
        return len(self._spans)


class NullTracer:
    """The disabled tracer: a stateless null object.

    ``span`` returns one shared no-op context manager — no allocation, no
    timestamps.  Hot call sites should additionally guard on ``enabled``
    and skip building attribute dicts entirely.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str, /, **attrs) -> _NullHandle:
        return _NULL_HANDLE

    def adopt(self, name, start_ns, end_ns, *, parent=None, attrs=None):
        return None

    @property
    def current(self):
        return None

    @property
    def roots(self):
        return []

    @property
    def spans(self):
        return []

    def walk(self):
        return iter(())

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer every instrumented module defaults to.
NULL_TRACER = NullTracer()


@contextmanager
def stage_span(name: str, tracer, timings: Optional[Dict[str, float]],
               memory=None):
    """Wrap one pipeline stage in a tracer span, optional timing, and
    (when a :class:`~repro.observability.MemoryAccountant` is threaded
    through) per-stage peak-memory accounting.  ``fg runf`` shares it
    without loading the F_G pipeline."""
    start = time.perf_counter_ns() if timings is not None else 0
    accounting = memory.stage(name) if memory is not None else nullcontext()
    with tracer.span(f"pipeline.{name}"), accounting:
        try:
            yield
        finally:
            if timings is not None:
                elapsed = (time.perf_counter_ns() - start) / 1e6
                timings[name] = round(timings.get(name, 0.0) + elapsed, 3)
