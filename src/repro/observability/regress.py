"""Bench-trajectory records and the performance regression gate.

``BENCH_<tag>.json`` files used to be written once and never read.  This
module gives them a versioned schema and a memory: a **bench record** is
one run's benchmark medians, deterministic metrics snapshot, hot-path
profile, and per-stage peak memory, stamped with schema/version/git
metadata; :func:`compare_records` pairs two records by benchmark name and
turns the median deltas into a verdict table (``ok`` / ``regressed`` /
``improved`` / ``new`` / ``missing``) with a noise threshold, which the
``fg bench --compare`` subcommand and the CI perf gate translate into an
exit code.

One producer writes records: the pytest-benchmark session under
``benchmarks/`` (``benchmarks/conftest.py``), through :func:`build_record`.
Every row there is a pytest-benchmark test with at least one warm-up
round; this module times nothing itself.

Everything is standard library only; the comparator never imports the
pipeline, so it stays importable in a bare CI step.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The record format this module reads and writes.
BENCH_SCHEMA = "repro/bench-record"
BENCH_VERSION = 1

#: Default regression threshold: a benchmark median must grow past this
#: multiple of its old value to count as regressed (generous, to dodge
#: shared-runner noise).
DEFAULT_THRESHOLD = 1.5

#: Medians below this (seconds) are pure timer noise; deltas between two
#: sub-floor medians never regress.
DEFAULT_NOISE_FLOOR_S = 0.0005


def default_tag() -> str:
    """The bench tag: ``$BENCH_TAG`` if set, else today's date."""
    return os.environ.get("BENCH_TAG") or time.strftime("%Y%m%d")


def record_path(tag: str, root: Path) -> Path:
    """Where a record for ``tag`` lives under ``root``."""
    return Path(root) / f"BENCH_{tag}.json"


def git_meta() -> Dict[str, Optional[str]]:
    """Best-effort ``{"commit", "branch"}`` — ``None`` outside a checkout."""
    import subprocess

    def run(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                argv, capture_output=True, text=True, timeout=5,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None if out.returncode == 0 else None

    return {
        "commit": run("git", "rev-parse", "HEAD"),
        "branch": run("git", "rev-parse", "--abbrev-ref", "HEAD"),
    }


def build_record(
    tag: str,
    benchmarks: Sequence[Dict[str, object]],
    *,
    metrics: Optional[Dict[str, object]] = None,
    profile: Optional[Dict[str, object]] = None,
    memory_peak_kb: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one versioned bench record (the only record constructor).

    ``benchmarks`` rows carry at least ``name`` and ``median_s``; rows
    without a usable median are kept (they round-trip) but the comparator
    skips them.
    """
    import platform

    record: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "version": BENCH_VERSION,
        "tag": tag,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git": git_meta(),
        "python": platform.python_version(),
        "benchmarks": list(benchmarks),
        "metrics": metrics,
        "profile": profile,
        "memory_peak_kb": memory_peak_kb,
    }
    if extra:
        record.update(extra)
    return record


def write_record(record: Dict[str, object], path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def load_record(path) -> Dict[str, object]:
    """Load a bench record, normalizing pre-schema (PR 3) payloads.

    The legacy ``BENCH_pr3.json`` shape (``{"pr": 3, "benchmarks": [...],
    "instrumented_run": {...}}``) is lifted into a v1 record so the gate
    can compare today's run against the committed history.  An
    unrecognizably-shaped file raises ``ValueError`` with the path.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValueError(f"{path}: not a bench record (no benchmarks key)")
    if payload.get("schema") == BENCH_SCHEMA:
        version = payload.get("version")
        if version != BENCH_VERSION:
            raise ValueError(
                f"{path}: bench-record version {version!r} is not "
                f"supported (this build reads version {BENCH_VERSION})"
            )
        return payload
    # Legacy (pre-schema) payload: adapt in place.
    run = payload.get("instrumented_run") or {}
    return {
        "schema": BENCH_SCHEMA,
        "version": BENCH_VERSION,
        "tag": payload.get("tag") or f"pr{payload.get('pr', '?')}",
        "created": None,
        "git": {"commit": None, "branch": None},
        "python": None,
        "benchmarks": payload["benchmarks"],
        "metrics": run.get("stats"),
        "profile": None,
        "memory_peak_kb": None,
    }


# ---------------------------------------------------------------------------
# The comparator
# ---------------------------------------------------------------------------

#: Verdicts, in severity order for rendering.
VERDICTS = ("regressed", "missing", "new", "improved", "ok")


@dataclass(frozen=True)
class CompareRow:
    """One benchmark's pairing across two records."""

    name: str
    old_median_s: Optional[float]
    new_median_s: Optional[float]
    ratio: Optional[float]
    verdict: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "old_median_s": self.old_median_s,
            "new_median_s": self.new_median_s,
            "ratio": self.ratio,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class Comparison:
    """The verdict table for one OLD-vs-NEW record pairing."""

    old_tag: str
    new_tag: str
    threshold: float
    noise_floor_s: float
    rows: List[CompareRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[CompareRow]:
        return [r for r in self.rows if r.verdict == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        """The gate's contract: 0 clean, 1 when anything regressed."""
        return 0 if self.ok else 1

    def to_json(self) -> Dict[str, object]:
        return {
            "old_tag": self.old_tag,
            "new_tag": self.new_tag,
            "threshold": self.threshold,
            "noise_floor_s": self.noise_floor_s,
            "ok": self.ok,
            "verdict": "ok" if self.ok else "regressed",
            "rows": [r.to_dict() for r in self.rows],
        }

    def render(self) -> str:
        """The human verdict table, worst verdicts first."""
        if not self.rows:
            return "-- no benchmarks to compare"

        def fmt_s(value: Optional[float]) -> str:
            return f"{value * 1e3:.3f}" if value is not None else "-"

        lines = [
            f"bench trajectory: {self.old_tag} -> {self.new_tag} "
            f"(threshold {self.threshold}x)",
            f"{'benchmark':<42} {'old ms':>10} {'new ms':>10} "
            f"{'ratio':>7}  verdict",
        ]
        order = {v: i for i, v in enumerate(VERDICTS)}
        for row in sorted(self.rows,
                          key=lambda r: (order[r.verdict], r.name)):
            ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
            lines.append(
                f"{row.name:<42} {fmt_s(row.old_median_s):>10} "
                f"{fmt_s(row.new_median_s):>10} {ratio:>7}  {row.verdict}"
            )
        n_reg = len(self.regressions)
        lines.append(
            "verdict: ok" if self.ok
            else f"verdict: REGRESSED ({n_reg} benchmark"
                 f"{'s' if n_reg != 1 else ''} past {self.threshold}x)"
        )
        return "\n".join(lines)


def _medians(record: Dict[str, object]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in record.get("benchmarks", ()) or ():
        name, median = row.get("name"), row.get("median_s")
        if isinstance(name, str) and isinstance(median, (int, float)):
            out[name] = float(median)
    return out


def compare_records(
    old: Dict[str, object],
    new: Dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor_s: float = DEFAULT_NOISE_FLOOR_S,
) -> Comparison:
    """Pair two records by benchmark name and judge every median delta.

    - both medians present: ``regressed`` when ``new > old * threshold``
      *and* the new median clears the noise floor; ``improved`` when it
      shrank by the same factor; else ``ok``;
    - only in ``old``: ``missing`` (the benchmark disappeared — visible,
      but not a gate failure on its own);
    - only in ``new``: ``new`` (no history yet).
    """
    old_m, new_m = _medians(old), _medians(new)
    rows: List[CompareRow] = []
    for name in sorted(set(old_m) | set(new_m)):
        o, n = old_m.get(name), new_m.get(name)
        if o is None:
            rows.append(CompareRow(name, None, n, None, "new"))
            continue
        if n is None:
            rows.append(CompareRow(name, o, None, None, "missing"))
            continue
        ratio = (n / o) if o > 0 else None
        if (ratio is not None and ratio > threshold
                and n > noise_floor_s):
            verdict = "regressed"
        elif ratio is not None and ratio < 1 / threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(CompareRow(name, o, n, ratio, verdict))
    return Comparison(
        old_tag=str(old.get("tag", "?")),
        new_tag=str(new.get("tag", "?")),
        threshold=threshold,
        noise_floor_s=noise_floor_s,
        rows=rows,
    )
