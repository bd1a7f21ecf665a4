"""The pipeline's fault-injection table: which exception fires at which stage.

:func:`inject_fault` plants an artificial internal error at a named stage
of :func:`repro.pipeline.check_source` so the CLI's "internal error" path
(exit code 3) is testable.  Fault state is **thread-local**: a fault
injected in one thread never fires in a batch worker running concurrently
in another.  :func:`current_faults` / :func:`install_faults` move a fault
table across a thread boundary on purpose (the batch service does this for
its watchdogged workers), and :mod:`repro.service.faults` serializes
declarative fault specs across the process boundary for ``isolate="pool"``
workers.

The table lives apart from the pipeline and imports nothing from the
checker, so the batch coordinator and the ``fg serve`` daemon can hand
fault tables around without loading it.  The pipeline reads the table at
each stage (``repro.pipeline._maybe_fault``) and re-exports these names.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

#: Pipeline stages, in order; :func:`inject_fault` targets one by name.
STAGES = ("parse", "check", "evaluate", "verify")


class _FaultState(threading.local):
    """Per-thread fault table (stage name → exception or callable)."""

    def __init__(self):
        self.faults: Dict[str, object] = {}


_FAULT_STATE = _FaultState()

_MISSING = object()


@contextmanager
def inject_fault(stage: str, exc):
    """Fire ``exc`` when *this thread's* pipeline reaches ``stage``.

    ``exc`` is either an exception instance (raised at the stage) or a
    zero-argument callable (called at the stage — the chaos harness uses
    this to inject hangs via ``time.sleep``).  State is thread-local; use
    :func:`current_faults`/:func:`install_faults` to hand a fault table to
    a worker thread.  Nested injections at the same stage restore the outer
    fault on exit.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown pipeline stage: {stage!r}")
    faults = _FAULT_STATE.faults
    prior = faults.get(stage, _MISSING)
    faults[stage] = exc
    try:
        yield
    finally:
        if prior is _MISSING:
            faults.pop(stage, None)
        else:
            faults[stage] = prior


def current_faults() -> Dict[str, object]:
    """A snapshot of the calling thread's fault table (for propagation)."""
    return dict(_FAULT_STATE.faults)


@contextmanager
def install_faults(faults: Optional[Dict[str, object]]):
    """Install a whole fault table in the current thread; restore on exit.

    Worker threads (and the subprocess child entry point) run their task
    under this so faults injected by the coordinating thread — or shipped
    in a chaos schedule — fire inside the isolated worker.
    """
    if not faults:
        yield
        return
    state = _FAULT_STATE.faults
    saved = dict(state)
    state.update(faults)
    try:
        yield
    finally:
        state.clear()
        state.update(saved)
