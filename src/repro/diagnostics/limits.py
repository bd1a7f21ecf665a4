"""Resource limits for the checking pipeline.

Deeply nested programs used to crash the checker and both evaluators with a
raw :class:`RecursionError`, and the evaluators worked around it by
*permanently* raising ``sys.setrecursionlimit`` — a process-wide side effect.
This module replaces both with scoped, configurable guards:

- :class:`Limits` — per-run depth/fuel budgets for typechecking, congruence
  closure, and evaluation, plus the (scoped) Python stack limit;
- :class:`Budget` — the mutable counters for one pipeline run;
- :class:`ResourceLimitError` — a :class:`Diagnostic` (so the normal error
  path reports it) raised when a budget is exhausted;
- :func:`scoped_recursion_limit` / :func:`resource_scope` — context managers
  that raise the interpreter recursion limit *and restore it*, converting
  any :class:`RecursionError` that still escapes into a
  :class:`ResourceLimitError`.

Every public entry point (parse, typecheck, evaluate, the CLI, the REPL)
runs under :func:`resource_scope`, so ``sys.getrecursionlimit()`` is
unchanged after any public API call and malformed or pathological input
surfaces as a positioned diagnostic, never a Python traceback.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.diagnostics.errors import Diagnostic


class ResourceLimitError(Diagnostic):
    """Raised when a depth or fuel budget is exhausted.

    A resource limit is a property of the *run*, not necessarily of the
    program: the same program may check fine under a larger budget.  The
    ``limit`` attribute names the budget that tripped.
    """

    kind = "resource limit"

    def __init__(self, message: str, span=None, limit: str = "depth"):
        super().__init__(message, span)
        self.limit = limit


class DeadlineExceededError(ResourceLimitError):
    """Raised when a run's wall-clock deadline expires mid-check.

    The cooperative half of deadline enforcement: :class:`Budget` polls the
    clock at its metered call sites (checker depth, evaluator fuel) and
    raises this the moment the deadline is behind us, so a slow-but-metered
    run cancels in-band with a positioned diagnostic.  The batch service's
    watchdog (:mod:`repro.service.worker`) is the preemptive backstop for
    code that never reaches a metered call site.
    """

    kind = "deadline exceeded"

    def __init__(self, message: str, span=None):
        super().__init__(message, span, limit="deadline")


@dataclass(frozen=True)
class Limits:
    """Configurable resource budgets for one checking/evaluation run.

    ``None`` disables the corresponding budget.  The defaults are generous
    enough for every realistic program while keeping pathological input
    (e.g. a 10k-deep type application) well clear of the Python stack.
    """

    #: Maximum nesting depth of the typechecker's term recursion.
    max_check_depth: Optional[int] = 4_000
    #: Maximum number of hash-consed nodes in one congruence solver.
    max_congruence_nodes: Optional[int] = 1_000_000
    #: Maximum number of evaluation steps ("fuel"); ``None`` = run forever.
    max_eval_steps: Optional[int] = None
    #: Scoped Python recursion limit used while a guarded call runs.
    python_stack_limit: int = 50_000
    #: Wall-clock deadline for one metered run, in milliseconds; ``None``
    #: disables cooperative deadline checks.  The clock starts when a
    #: :class:`Budget` is constructed from these limits.
    deadline_ms: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        """Every field by name, in declaration order.

        The dict ``dataclasses.asdict`` builds, without its deep copy of
        each value: every field is a scalar.
        """
        return {name: getattr(self, name) for name in _LIMIT_FIELDS}


_LIMIT_FIELDS = tuple(spec.name for spec in fields(Limits))

#: The default budgets used when a caller passes ``limits=None``.
DEFAULT_LIMITS = Limits()


class Budget:
    """Mutable counters for one run, created from a :class:`Limits`.

    The typechecker calls :meth:`enter_depth`/:meth:`leave_depth` around
    each recursive step; evaluators call :meth:`spend_fuel` once per step.
    Both raise :class:`ResourceLimitError` when the budget is exhausted.
    """

    __slots__ = ("limits", "_depth", "_fuel", "steps_taken", "peak_depth",
                 "_deadline_at", "_deadline_poll", "_deadline_hit")

    def __init__(self, limits: Optional[Limits] = None):
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._depth = 0
        self._fuel = self.limits.max_eval_steps
        #: Evaluation steps metered so far (observability reads this).
        self.steps_taken = 0
        #: Deepest checker nesting reached (observability reads this).
        self.peak_depth = 0
        deadline_ms = self.limits.deadline_ms
        self._deadline_at = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None else None
        )
        self._deadline_poll = 0
        self._deadline_hit = False

    # -- wall-clock deadline ----------------------------------------------

    def check_deadline(self, span=None) -> None:
        """Raise :class:`DeadlineExceededError` once the deadline passed.

        Polls the clock every 16th metered call (cheap on the hot path);
        after the first trip, every call raises immediately so error
        recovery can't limp on past a dead deadline.
        """
        if self._deadline_at is None:
            return
        if not self._deadline_hit:
            self._deadline_poll += 1
            if self._deadline_poll & 0xF:
                return
            if time.monotonic() <= self._deadline_at:
                return
            self._deadline_hit = True
        raise DeadlineExceededError(
            f"run exceeded its {self.limits.deadline_ms}ms deadline; "
            "re-run with a larger --deadline-ms budget if this program "
            "genuinely needs more time",
            span,
        )

    # -- typechecker depth ------------------------------------------------

    def enter_depth(self, span=None) -> None:
        self.check_deadline(span)
        self._depth += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
        cap = self.limits.max_check_depth
        if cap is not None and self._depth > cap:
            # Leave the counter consistent for callers that recover.
            self._depth -= 1
            raise ResourceLimitError(
                f"program nesting exceeds the checker depth limit ({cap}); "
                "re-run with a larger --depth budget if this program is "
                "genuinely this deep",
                span,
                limit="depth",
            )

    def leave_depth(self) -> None:
        self._depth -= 1

    @property
    def depth(self) -> int:
        """The checker's current nesting depth."""
        return self._depth

    def resume(self, depth: int, peak_depth: int) -> None:
        """Continue a run that already stands ``depth`` deep and has
        reached ``peak_depth`` — a pre-checked prefix such as the prelude
        (:mod:`repro.prelude.context`)."""
        self._depth = depth
        self.peak_depth = max(self.peak_depth, peak_depth)

    # -- evaluator fuel ---------------------------------------------------

    def spend_fuel(self, span=None) -> None:
        if self._deadline_at is not None:
            self.check_deadline(span)
        self.steps_taken += 1
        if self._fuel is None:
            return
        if self._fuel <= 0:
            raise ResourceLimitError(
                f"evaluation exceeded the fuel budget "
                f"({self.limits.max_eval_steps} steps); the program may "
                "not terminate — re-run with a larger --fuel budget",
                span,
                limit="fuel",
            )
        self._fuel -= 1


@contextmanager
def scoped_recursion_limit(limit: int):
    """Raise the Python recursion limit to ``limit``; restore it on exit.

    Never *lowers* the limit (a caller may already have raised it), and
    restores the previous value even when the body raises.  The restore is
    guarded: an abandoned worker thread finishing long after its watchdog
    gave up on it only restores the limit if nobody else has changed it in
    the meantime, so a timed-out check can never clobber the budget of the
    check now running (``tests/service/test_limits_hygiene.py``).
    """
    prior = sys.getrecursionlimit()
    raised = limit > prior
    if raised:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        if raised and sys.getrecursionlimit() == limit:
            sys.setrecursionlimit(prior)


@contextmanager
def resource_scope(limits: Optional[Limits] = None, span=None):
    """Run the body under a scoped stack limit; convert stack overflow.

    Any :class:`RecursionError` escaping the body — Python's stack giving
    out before an explicit depth budget tripped — is converted into a
    catchable :class:`ResourceLimitError` diagnostic.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    with scoped_recursion_limit(limits.python_stack_limit):
        try:
            yield
        except RecursionError:
            raise ResourceLimitError(
                "program nesting exhausted the interpreter stack "
                f"(limit {limits.python_stack_limit}); the input is more "
                "deeply nested than this pipeline supports",
                span,
                limit="stack",
            ) from None
