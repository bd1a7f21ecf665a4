"""The benchmark's own spans: recorded around calls into each layer.

Spans are kept in memory (name, parent, start, end) and turned into a
layer table once the run ends: a layer's self time is its span's duration
minus the part its child spans cover, so the layers of one verdict add up
to the verdict's root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple


class Spans:
    def __init__(self) -> None:
        #: (id, parent id or -1, name, start_ns, end_ns)
        self.records: List[Tuple[int, int, str, int, int]] = []
        self._stack: List[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append((sid, parent, name, start, end))

    def add(self, name: str, parent: Optional[int], start_ns: int,
            end_ns: int) -> int:
        """Record an already-timed span (for intervals measured elsewhere,
        such as the timing fields of a served report).  Returns its id."""
        sid = self._next
        self._next += 1
        self.records.append(
            (sid, -1 if parent is None else parent, name, start_ns, end_ns)
        )
        return sid

    def self_times_ns(self) -> Dict[str, int]:
        """Self time summed per span name."""
        child_ns: Dict[int, int] = {}
        for _, parent, _, start, end in self.records:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        table: Dict[str, int] = {}
        for sid, _, name, start, end in self.records:
            own = (end - start) - child_ns.get(sid, 0)
            table[name] = table.get(name, 0) + own
        return table

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _, _, n, start, end in self.records
                   if n == name)
