"""Always-on flight recorder and ``repro/crash-bundle v1`` forensics.

Every process in the serving stack — the batch coordinator, persistent
pool workers, and the ``fg serve`` daemon — keeps a :class:`FlightRecorder`: four fixed-size
rings (recently *completed* spans, ops events, metric samples, and
model-resolution decisions) fed by one guarded call at each existing
hook point (``Tracer._finish``/``adopt``, ``MetricsRegistry.observe``,
``OpsLog.emit``, ``ExplainLog.finish``).  The rings are ``deque``\\ s with
``maxlen``; recording is an append of a small tuple, so the always-on
cost is bounded and allocation-free beyond the ring itself.  Capacity
comes from ``$FG_FLIGHTREC_RING`` (default 256); ``0`` disables the
rings entirely, which the digest-invariance and overhead tests use as
the recorder-off baseline.

On a fault the recorder's contents become a **crash bundle** — a
versioned JSON document (:data:`SCHEMA`) holding the rings, the journal
and ops-log tails, pool/worker state, the effective policy, the last
health snapshot, and the Python traceback.  :func:`dump` writes one
atomically into the configured bundle directory (``--crash-dir`` /
``$FG_CRASH_DIR``; the daemon defaults to ``<socket>.crash``) and is
advisory by construction: with no directory configured it returns
``None``, and it never raises.  Nothing here ever touches report JSON,
so canonical digests are recorder-invariant by construction.

Hard process death cannot run Python code, so :func:`arm` installs a
three-layer net: an ``sys.excepthook`` chain (uncaught exceptions), an
``atexit`` guard that fires only when :func:`disarm` was never reached
(ab-normal interpreter exit), and ``faulthandler`` writing native-fault
tracebacks beside the bundles.  SIGKILL defeats all three by design;
the daemon covers it by periodically persisting a live "blackbox"
bundle that survives on disk and is removed again on clean exit.

This module is standard-library only and imports nothing from
``repro`` — it sits below ``tracer``/``telemetry`` in the import graph
so the hook points can call into it without cycles.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
import traceback as _traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional

#: The crash-bundle format written by :func:`dump` / :func:`write_bundle`.
SCHEMA = "repro/crash-bundle v1"

#: Ring capacity override (``0`` disables recording).
ENV_RING = "FG_FLIGHTREC_RING"

#: Bundle directory fallback when no ``--crash-dir`` was given.
ENV_CRASH_DIR = "FG_CRASH_DIR"

#: Crash-bundle retention: :func:`dump` prunes the directory to the
#: newest this-many ``crash-*`` bundles (the ``live-*`` blackbox is never
#: pruned), so forensics on a long-lived daemon cannot fill the disk.
ENV_CRASH_KEEP = "FG_CRASH_KEEP"
DEFAULT_CRASH_KEEP = 32

DEFAULT_CAPACITY = 256

#: The fault taxonomy a bundle's ``fault.kind`` draws from.  ``dump``
#: accepts unknown kinds (forensics must never be the thing that
#: crashes), but ``fg doctor`` classifies these.
FAULT_KINDS = (
    "crash-report",        # a checked file died (CrashReport on the outcome)
    "memory",              # a worker tripped its per-worker memory budget
    "worker-lost",         # pool worker vanished mid-attempt
    "deadline-kill",       # watchdog hard-killed a worker past its deadline
    "respawn-exhausted",   # respawn budget spent; seat retired
    "daemon-exception",    # unhandled exception on the daemon's executor
    "drain-failure",       # SIGTERM drain did not finish in time
    "hard-death",          # process died without reaching a clean exit
    "manual",              # forced via fg debug bundle / the debug request
)


def ring_capacity_from_env(default: int = DEFAULT_CAPACITY) -> int:
    raw = os.environ.get(ENV_RING)
    if raw is None:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return default


class FlightRecorder:
    """Bounded rings of recent execution state, always recording.

    ``capacity == 0`` is the disabled recorder: every ``record_*`` call
    returns after one attribute load and branch, and :meth:`snapshot`
    returns empty rings.
    """

    __slots__ = ("capacity", "_spans", "_events", "_metrics",
                 "_resolutions")

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = ring_capacity_from_env()
        self.capacity = max(0, int(capacity))
        maxlen = self.capacity if self.capacity else 1
        self._spans: deque = deque(maxlen=maxlen)
        self._events: deque = deque(maxlen=maxlen)
        self._metrics: deque = deque(maxlen=maxlen)
        self._resolutions: deque = deque(maxlen=maxlen)

    # -- recording (hot path: one branch + one deque append) --------------

    def record_span(self, name: str, start_ns: int, end_ns: int,
                    attrs: Optional[Dict[str, object]] = None) -> None:
        if self.capacity:
            self._spans.append((name, start_ns, end_ns, attrs))

    def record_event(self, record: Dict[str, object]) -> None:
        if self.capacity:
            self._events.append(record)

    def record_metric(self, name: str, value) -> None:
        if self.capacity:
            self._metrics.append((name, value))

    def record_resolution(self, entry: Dict[str, object]) -> None:
        if self.capacity:
            self._resolutions.append(entry)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready projection of all four rings (oldest first)."""
        if not self.capacity:
            return {"capacity": 0, "spans": [], "ops": [], "metrics": [],
                    "resolutions": []}
        return {
            "capacity": self.capacity,
            "spans": [
                {"name": name, "start_ns": start, "end_ns": end,
                 "attrs": attrs}
                for name, start, end, attrs in list(self._spans)
            ],
            "ops": list(self._events),
            "metrics": [
                {"name": name, "value": value}
                for name, value in list(self._metrics)
            ],
            "resolutions": list(self._resolutions),
        }

    def clear(self) -> None:
        self._spans.clear()
        self._events.clear()
        self._metrics.clear()
        self._resolutions.clear()

    def __len__(self) -> int:
        return (len(self._spans) + len(self._events) + len(self._metrics)
                + len(self._resolutions))


class NullFlightRecorder(FlightRecorder):
    """A permanently-off recorder (ring capacity 0)."""

    def __init__(self):
        super().__init__(capacity=0)


# ---------------------------------------------------------------------------
# The process-wide recorder and bundle directory
# ---------------------------------------------------------------------------

_recorder: FlightRecorder = FlightRecorder()
_directory: Optional[str] = None


def recorder() -> FlightRecorder:
    """The process-wide always-on recorder."""
    return _recorder


def install(rec: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide recorder (tests; ring-0 baselines).
    Returns the previous one so callers can restore it."""
    global _recorder
    previous = _recorder
    _recorder = rec
    return previous


def configure(directory: Optional[str]) -> None:
    """Set the bundle directory for this process's :func:`dump` calls."""
    global _directory
    _directory = directory


def bundle_directory() -> Optional[str]:
    """The effective bundle directory: explicit :func:`configure` value,
    else ``$FG_CRASH_DIR``, else ``None`` (dumps disabled)."""
    return _directory or os.environ.get(ENV_CRASH_DIR) or None


# -- module-level hook entry points (what tracer/metrics/ops/explain call) --

def record_span(name: str, start_ns: int, end_ns: int,
                attrs: Optional[Dict[str, object]] = None) -> None:
    rec = _recorder
    if rec.capacity:
        rec._spans.append((name, start_ns, end_ns, attrs))


def record_event(record: Dict[str, object]) -> None:
    rec = _recorder
    if rec.capacity:
        rec._events.append(record)


def record_metric(name: str, value) -> None:
    rec = _recorder
    if rec.capacity:
        rec._metrics.append((name, value))


def record_resolution(entry: Dict[str, object]) -> None:
    rec = _recorder
    if rec.capacity:
        rec._resolutions.append(entry)


# ---------------------------------------------------------------------------
# Crash bundles
# ---------------------------------------------------------------------------

#: Keys every valid bundle carries (``validate_bundle`` enforces these).
BUNDLE_KEYS = (
    "schema", "fault", "pid", "argv", "python", "created_ts_ms",
    "rings", "traceback", "journal_tail", "ops_tail", "pool", "policy",
    "health",
)

_dump_seq = 0


def _document(
    kind: str,
    detail: Optional[Dict[str, object]],
    rec: Optional[FlightRecorder],
    context: Optional[Dict[str, object]],
    traceback_lines: Optional[List[str]],
) -> Dict[str, object]:
    """The ``repro/crash-bundle v1`` sections, not yet made JSON-safe."""
    source = rec if rec is not None else _recorder
    bundle: Dict[str, object] = {
        "schema": SCHEMA,
        "fault": {"kind": kind, "detail": dict(detail or {})},
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "python": sys.version.split()[0],
        "created_ts_ms": int(time.time() * 1000),
        "rings": source.snapshot(),
        "traceback": list(traceback_lines or []),
        "journal_tail": [],
        "ops_tail": [],
        "pool": None,
        "policy": None,
        "health": None,
    }
    if context:
        bundle.update(context)
    return bundle


def _encode(bundle: Dict[str, object]) -> str:
    """A bundle file's text: one line of JSON from the C encoder.  Ring
    attrs and context sections can carry arbitrary objects (span attrs are
    caller-supplied); ``default=str`` makes them strings."""
    return json.dumps(bundle, default=str)


def build_bundle(
    kind: str,
    detail: Optional[Dict[str, object]] = None,
    *,
    rec: Optional[FlightRecorder] = None,
    context: Optional[Dict[str, object]] = None,
    traceback_lines: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Assemble a ``repro/crash-bundle v1`` document from the recorder.

    ``context`` overlays the coordinator-side sections (``journal_tail``,
    ``ops_tail``, ``pool``, ``policy``, ``health`` — or anything else a
    dump site knows); absent sections stay at their empty defaults so
    the schema is total.  The document is JSON-safe: it is what reading
    back its bundle file gives, so it survives both the framed wire
    (plain ``json.dumps``) and the disk writer.
    """
    return json.loads(_encode(
        _document(kind, detail, rec, context, traceback_lines)
    ))


def validate_bundle(bundle) -> List[str]:
    """Schema check: a list of problems, empty when the bundle is valid."""
    problems: List[str] = []
    if not isinstance(bundle, dict):
        return ["bundle is not an object"]
    if bundle.get("schema") != SCHEMA:
        problems.append(
            f"schema is {bundle.get('schema')!r}, expected {SCHEMA!r}"
        )
    for key in BUNDLE_KEYS:
        if key not in bundle:
            problems.append(f"missing key {key!r}")
    fault = bundle.get("fault")
    if not isinstance(fault, dict) or not isinstance(fault.get("kind"), str):
        problems.append("fault must be an object with a string 'kind'")
    elif not fault["kind"]:
        problems.append("fault.kind must be non-empty")
    if not isinstance(bundle.get("pid"), int):
        problems.append("pid must be an integer")
    if not isinstance(bundle.get("created_ts_ms"), int):
        problems.append("created_ts_ms must be an integer")
    rings = bundle.get("rings")
    if not isinstance(rings, dict):
        problems.append("rings must be an object")
    else:
        for ring in ("spans", "ops", "metrics", "resolutions"):
            if not isinstance(rings.get(ring), list):
                problems.append(f"rings.{ring} must be a list")
    for key in ("traceback", "journal_tail", "ops_tail"):
        if key in bundle and not isinstance(bundle[key], list):
            problems.append(f"{key} must be a list")
    return problems


def write_bundle(bundle: Dict[str, object], directory: str,
                 name: Optional[str] = None) -> str:
    """Atomically write a bundle file; returns its path."""
    return _write(_encode(bundle), bundle, directory, name)


def write_snapshot(
    kind: str,
    detail: Optional[Dict[str, object]],
    directory: str,
    *,
    context: Optional[Dict[str, object]] = None,
    name: Optional[str] = None,
    traceback_lines: Optional[List[str]] = None,
) -> str:
    """:func:`build_bundle` then :func:`write_bundle`, with the document
    serialized once; returns the file's path."""
    bundle = _document(kind, detail, None, context, traceback_lines)
    return _write(_encode(bundle), bundle, directory, name)


def _write(text: str, bundle: Dict[str, object], directory: str,
           name: Optional[str]) -> str:
    """Write ``text``, the encoding of ``bundle``, as a bundle file.

    The write goes through a same-directory temp file and ``os.replace``
    so a reader (or a SIGKILL landing mid-write) never sees a torn
    bundle — the same discipline the daemon's metrics snapshot uses.
    """
    global _dump_seq
    os.makedirs(directory, exist_ok=True)
    if name is None:
        _dump_seq += 1
        kind = bundle.get("fault", {}).get("kind", "unknown")
        name = (f"crash-{kind}-{bundle.get('pid', 0)}-"
                f"{bundle.get('created_ts_ms', 0)}-{_dump_seq}.bundle.json")
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def read_bundle(path) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def find_bundles(directory) -> List[str]:
    """All bundle files under ``directory``, oldest first."""
    try:
        names = [n for n in os.listdir(directory)
                 if n.endswith(".bundle.json")]
    except OSError:
        return []
    paths = [os.path.join(directory, n) for n in names]
    return sorted(paths, key=lambda p: (_mtime(p), p))


def latest_bundle(directory) -> Optional[str]:
    found = find_bundles(directory)
    return found[-1] if found else None


def _mtime(path: str) -> float:
    try:
        return os.stat(path).st_mtime
    except OSError:
        return 0.0


def crash_keep_from_env(default: int = DEFAULT_CRASH_KEEP) -> int:
    raw = os.environ.get(ENV_CRASH_KEEP)
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def prune_bundles(directory, keep: Optional[int] = None) -> List[str]:
    """Retention: delete the oldest ``crash-*`` bundles beyond ``keep``.

    Only auto-named crash bundles are candidates — the daemon's ``live-*``
    blackbox and any explicitly named bundle survive, and ``find_bundles``
    / ``latest_bundle`` are unaffected for what remains.  Returns the
    paths removed.  Advisory: errors are swallowed per file.
    """
    if keep is None:
        keep = crash_keep_from_env()
    crash = [p for p in find_bundles(directory)
             if os.path.basename(p).startswith("crash-")]
    removed: List[str] = []
    for path in crash[:max(0, len(crash) - keep)]:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            pass
    return removed


def dump(
    kind: str,
    detail: Optional[Dict[str, object]] = None,
    *,
    context: Optional[Dict[str, object]] = None,
    directory: Optional[str] = None,
    name: Optional[str] = None,
    traceback_lines: Optional[List[str]] = None,
) -> Optional[str]:
    """Write a crash bundle for fault ``kind``; the one call fault sites
    make.  Advisory: no configured directory → ``None``; any failure
    while assembling or writing → ``None`` (forensics never raises into
    the fault path it is documenting)."""
    target = directory or bundle_directory()
    if not target:
        return None
    try:
        from repro.observability import diskguard

        if not diskguard.has_headroom(target, need_bytes=1 << 20):
            # A full disk is exactly when bundles get written; retention
            # may have freed room, so prune first and re-check once.
            prune_bundles(target)
            if not diskguard.has_headroom(target, need_bytes=1 << 20):
                return None
        path = write_snapshot(kind, detail, target, context=context,
                              name=name, traceback_lines=traceback_lines)
        prune_bundles(target)
        return path
    except Exception:  # noqa: BLE001 — advisory by contract
        return None


# ---------------------------------------------------------------------------
# Hard-death hooks
# ---------------------------------------------------------------------------

_arm_state: Dict[str, Any] = {
    "armed": False,       # hooks installed (once per process)
    "clean": True,        # disarm() reached; the atexit guard stands down
    "context_provider": None,
    "faulthandler_file": None,
}


def arm(
    directory: Optional[str] = None,
    *,
    context_provider: Optional[Callable[[], Dict[str, object]]] = None,
) -> None:
    """Install the hard-death net for this process.

    Layers: a chained ``sys.excepthook`` (uncaught exception → bundle
    with the real traceback, then the previous hook runs), an ``atexit``
    guard that dumps only if :func:`disarm` was never called, and
    ``faulthandler`` writing native-fault tracebacks to
    ``fault-<pid>.txt`` beside the bundles.  Safe to call repeatedly;
    the hooks install once."""
    if directory:
        configure(directory)
    _arm_state["context_provider"] = context_provider
    _arm_state["clean"] = False
    if _arm_state["armed"]:
        return
    _arm_state["armed"] = True

    previous_hook = sys.excepthook

    def _flightrec_excepthook(exc_type, exc, tb):
        _arm_state["clean"] = True  # the atexit guard must not double-dump
        dump(
            "hard-death",
            {"exc_type": getattr(exc_type, "__name__", str(exc_type)),
             "message": str(exc)},
            context=_armed_context(),
            traceback_lines=_traceback.format_exception(exc_type, exc, tb),
        )
        previous_hook(exc_type, exc, tb)

    sys.excepthook = _flightrec_excepthook
    atexit.register(_atexit_guard)
    try:
        import faulthandler

        target = bundle_directory()
        if target:
            os.makedirs(target, exist_ok=True)
            fh = open(os.path.join(target, f"fault-{os.getpid()}.txt"), "w")
            faulthandler.enable(file=fh)
            _arm_state["faulthandler_file"] = fh
    except Exception:  # noqa: BLE001 — the net is best-effort
        pass


def disarm() -> None:
    """Mark this process's exit as clean; the atexit guard stands down."""
    _arm_state["clean"] = True


def _armed_context() -> Optional[Dict[str, object]]:
    provider = _arm_state.get("context_provider")
    if provider is None:
        return None
    try:
        return provider()
    except Exception:  # noqa: BLE001 — context is best-effort
        return None


def _atexit_guard() -> None:
    if _arm_state["clean"]:
        return
    dump(
        "hard-death",
        {"note": "interpreter exited before a clean disarm"},
        context=_armed_context(),
        traceback_lines=_traceback.format_stack(),
    )


#: Package-level aliases (``repro.observability`` re-exports these under
#: names that stay unambiguous outside this module).
CRASH_BUNDLE_SCHEMA = SCHEMA
flight_recorder = recorder
