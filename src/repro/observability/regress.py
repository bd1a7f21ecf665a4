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

Producers of the record shape:

- ``benchmarks/conftest.py`` — the pytest-benchmark session writer;
- ``fg bench`` — :func:`run_bench_suite`, a self-contained suite over the
  paper's two algorithmic hot paths (congruence closure, §4, and
  dictionary-passing translation, §5) plus the crash-resilience fuzzer's
  per-iteration timings (:func:`fuzz_benchmark_row`);
- :func:`build_record` — the one constructor both go through, so the two
  writers cannot drift.

Everything is standard library only; the comparator never imports the
pipeline, so it stays importable in a bare CI step.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


# ---------------------------------------------------------------------------
# The built-in suite behind ``fg bench``
# ---------------------------------------------------------------------------


def _int_list_src(n: int) -> str:
    out = "nil[int]"
    for i in reversed(range(n)):
        out = f"cons[int]({i}, {out})"
    return out


def _figure5(n: int) -> str:
    """The paper's Figure 5 ``accumulate`` (dictionary-passing hot path)."""
    return rf"""
    concept Semigroup<t> {{ binary_op : fn(t, t) -> t; }} in
    concept Monoid<t> {{ refines Semigroup<t>; identity_elt : t; }} in
    let accumulate = /\t where Monoid<t>.
      fix (\accum : fn(list t) -> t.
        \ls : list t.
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
    model Semigroup<int> {{ binary_op = iadd; }} in
    model Monoid<int> {{ identity_elt = 0; }} in
    accumulate[int]({_int_list_src(n)})
    """


def _congruence_src(chains: int) -> str:
    """Same-type constraint chains: the congruence-closure hot path (§4)."""
    vars_ = [f"t{i}" for i in range(chains)]
    eqs = ", ".join(f"t{i} == t{i + 1}" for i in range(chains - 1))
    wheres = ", ".join(f"Eq<{v}>" for v in vars_)
    apps = ", ".join("int" for _ in vars_)
    return rf"""
    concept Eq<t> {{ eq : fn(t, t) -> bool; }} in
    model Eq<int> {{ eq = ieq; }} in
    let chain = /\{", ".join(vars_)} where {wheres}, {eqs}.
      \x : t0. \y : t{chains - 1}. Eq<t0>.eq(x, y) in
    chain[{apps}](1)(1)
    """


def fuzz_benchmark_row(fuzz_stats: Dict[str, object],
                       name: str = "fuzz.iteration") -> Dict[str, object]:
    """A benchmark row from :func:`repro.testing.run_fuzz` timing output.

    The fuzzer times every mutant's trip through the pipeline; its
    ``stats["timing"]`` summary feeds the same record shape as any other
    benchmark, so fuzz throughput rides the same regression gate.
    """
    timing = fuzz_stats.get("timing") or {}
    return {
        "name": name,
        "group": "fuzz",
        "rounds": fuzz_stats.get("mutants", 0),
        "mean_s": timing.get("iter_mean_s"),
        "median_s": timing.get("iter_median_s"),
        "stddev_s": timing.get("iter_stddev_s"),
        "min_s": timing.get("iter_min_s"),
        "max_s": timing.get("iter_max_s"),
    }


def _isolation_corpus() -> List[Tuple[str, str]]:
    """The ``examples/fg`` corpus for the isolation-mode comparison.

    Falls back to synthetic Figure 5 programs when the checkout's example
    directory is absent (installed-package runs), so the benchmark names
    stay stable either way.
    """
    examples = Path(__file__).resolve().parents[3] / "examples" / "fg"
    if examples.is_dir():
        items = [
            (path.name, path.read_text())
            for path in sorted(examples.glob("*.fg"))
        ]
        if items:
            return items
    return [(f"fig5_{n}.fg", _figure5(n)) for n in (4, 8, 16, 24, 32, 48)]


def isolation_benchmark_rows(
    rounds: int,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Time the ``examples/fg`` corpus as a pool-isolated batch.

    ``batch.isolate_pool`` pays ``pool_workers`` interpreter spawns per
    batch and reuses the warm workers for every file; the batch runs with
    parallelism 2 and no fault schedule, so the row is pure isolation
    overhead plus checking.
    """
    from repro.service import BatchPolicy, RetryPolicy, check_batch

    items = _isolation_corpus()
    name = "batch.isolate_pool"
    policy = BatchPolicy(
        jobs=2, deadline_ms=30_000.0, retry=RetryPolicy(max_retries=0),
        isolate="pool", pool_workers=2,
    )
    if progress:
        progress(f"bench {name} ({rounds} rounds, {len(items)} files)")
    return [_timed_row(
        name, "isolation", lambda: check_batch(items, policy), rounds,
    )]


def serve_benchmark_rows(
    rounds: int,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Time a warm ``fg serve`` round trip against the isolation corpus.

    ``batch.isolate_pool`` pays ``pool_workers`` interpreter spawns *per
    batch*; the daemon pays them once per lifetime.  This row times a full
    client round trip (connect, frame, check on the already-warm pool,
    response) against the same corpus and policy, so the pair
    ``serve.warm_request`` vs ``batch.isolate_pool`` is the daemon's
    amortization argument in one comparison.  One unmeasured warm-up
    request runs first so every measured round hits warm workers.

    Three companion rows price the PR-8 telemetry: ``serve.stats_request``
    times the memory-only live-stats probe (it must stay orders of
    magnitude under a batch round trip — it is served on the accept
    loop), and ``serve.warm_request_traced`` repeats the round trip
    against a daemon with full instrumentation, so the tracing-on vs
    tracing-off delta (span shipping, clock normalization, grafting) is
    one comparison in every record.
    """
    import os
    import tempfile
    import threading

    from repro.observability import (
        Instrumentation, MetricsRegistry, Tracer,
    )
    from repro.service import (
        BatchPolicy,
        RetryPolicy,
        ServeOptions,
        Server,
        check_remote,
        request_shutdown,
        stats,
    )

    items = _isolation_corpus()
    rows: List[Dict[str, object]] = []
    for name, instrumented in (
        ("serve.warm_request", False),
        ("serve.warm_request_traced", True),
    ):
        policy = BatchPolicy(
            jobs=2, deadline_ms=30_000.0, retry=RetryPolicy(max_retries=0),
            isolate="pool", pool_workers=2,
        )
        instrumentation = (
            Instrumentation(tracer=Tracer(), metrics=MetricsRegistry())
            if instrumented else None
        )
        with tempfile.TemporaryDirectory(
            prefix="fgbench", dir="/tmp"  # AF_UNIX paths must stay short
        ) as tmp:
            options = ServeOptions(socket_path=os.path.join(tmp, "fg.sock"))
            server = Server(policy, options, instrumentation)
            thread = threading.Thread(target=server.serve, daemon=True)
            thread.start()
            if not server.ready.wait(20.0):
                raise RuntimeError("bench daemon never became ready")
            try:
                check_remote(options.socket_path, items, timeout=120.0)
                if progress:
                    progress(f"bench {name} ({rounds} rounds, "
                             f"{len(items)} files)")

                def run() -> None:
                    response = check_remote(
                        options.socket_path, items, timeout=120.0,
                    )
                    assert response.get("type") == "report", response

                rows.append(_timed_row(name, "isolation", run, rounds))
                if not instrumented:
                    stats_rounds = rounds * 10
                    if progress:
                        progress(f"bench serve.stats_request "
                                 f"({stats_rounds} rounds)")

                    def probe() -> None:
                        snapshot = stats(options.socket_path, timeout=30.0)
                        assert snapshot.get("type") == "stats", snapshot

                    rows.append(_timed_row("serve.stats_request", "serve",
                                           probe, stats_rounds))
            finally:
                request_shutdown(options.socket_path)
                thread.join(timeout=30.0)
    return rows


def flightrec_benchmark_rows(
    rounds: int,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Time an instrumented check with the flight recorder on vs ring 0.

    ``flightrec.overhead`` runs with the default ring capacity (every
    span, metric sample, and resolution lands in the recorder);
    ``flightrec.baseline_ring0`` runs the identical workload with a
    :class:`~repro.observability.flightrec.NullFlightRecorder`
    installed.  The pair pins the "near-zero overhead" claim: the
    recorder-on median rides the same 1.5x regression gate as every
    other row, against a baseline measured in the same process.
    """
    from repro.observability import (
        Instrumentation, MetricsRegistry, Tracer, flightrec,
    )
    from repro.observability.flightrec import NullFlightRecorder
    from repro.pipeline import check_source

    source = _figure5(16)

    def checked(rec) -> Callable[[], None]:
        def run() -> None:
            previous = flightrec.install(rec)
            try:
                inst = Instrumentation(
                    tracer=Tracer(), metrics=MetricsRegistry(),
                )
                outcome = check_source(
                    source, "<flightrec-bench>", instrumentation=inst,
                )
                assert outcome.ok, "flightrec bench program must check"
            finally:
                flightrec.install(previous)
        return run

    rows: List[Dict[str, object]] = []
    for name, rec in (
        ("flightrec.overhead", flightrec.FlightRecorder()),
        ("flightrec.baseline_ring0", NullFlightRecorder()),
    ):
        if progress:
            progress(f"bench {name} ({rounds} rounds)")
        rows.append(_timed_row(name, "flightrec", checked(rec), rounds))
    return rows


def _timed_row(name: str, group: str, fn: Callable[[], None],
               rounds: int) -> Dict[str, object]:
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "name": name,
        "group": group,
        "rounds": rounds,
        "mean_s": statistics.fmean(samples),
        "median_s": statistics.median(samples),
        "stddev_s": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "min_s": min(samples),
        "max_s": max(samples),
    }


def run_bench_suite(
    *,
    rounds: int = 5,
    fuzz_mutants: int = 25,
    isolation_rounds: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """The self-contained ``fg bench`` suite over the paper's hot paths.

    Returns ``(benchmark_rows, instrumented)`` where ``instrumented`` has
    the one fully observed run's ``metrics``/``profile``/``memory_peak_kb``
    for :func:`build_record`.  Deterministic work, wall-clock timings.
    ``isolation_rounds`` controls the pool batch row
    (:func:`isolation_benchmark_rows`) and the warm-daemon round trip
    (:func:`serve_benchmark_rows`); both spawn real worker processes, so
    ``0`` skips them.
    """
    from repro.diagnostics.limits import resource_scope
    from repro.observability import (
        Instrumentation, MemoryAccountant, MetricsRegistry, Tracer,
    )
    from repro.observability.profiler import profile_tracer
    from repro.pipeline import check_source
    from repro.testing import run_fuzz

    fig5_check, fig5_eval = _figure5(16), _figure5(64)
    congruence = _congruence_src(8)

    def checked(src: str, **kw) -> None:
        outcome = check_source(src, "<bench>", **kw)
        assert outcome.ok, outcome.report.render()

    cases: List[Tuple[str, str, Callable[[], None]]] = [
        ("check.fig5_accumulate", "pipeline",
         lambda: checked(fig5_check)),
        ("translate.dictionary_passing", "pipeline",
         lambda: checked(fig5_check, verify=True)),
        ("evaluate.fig5_n64", "pipeline",
         lambda: checked(fig5_eval, evaluate=True)),
        ("congruence.same_type_chain", "congruence",
         lambda: checked(congruence)),
    ]
    rows: List[Dict[str, object]] = []
    with resource_scope():
        for name, group, fn in cases:
            if progress:
                progress(f"bench {name} ({rounds} rounds)")
            rows.append(_timed_row(name, group, fn, rounds))
        rows.extend(flightrec_benchmark_rows(rounds, progress))
        if fuzz_mutants > 0:
            if progress:
                progress(f"bench fuzz.iteration ({fuzz_mutants} mutants)")
            rows.append(fuzz_benchmark_row(
                run_fuzz(mutants=fuzz_mutants, seed=0, verify=False)
            ))

        # One fully observed run: metrics + hot-path profile + memory.
        if progress:
            progress("instrumented run (profile + memory accounting)")
        inst = Instrumentation(
            tracer=Tracer(), metrics=MetricsRegistry(),
            memory=MemoryAccountant(),
        )
        outcome = check_source(
            fig5_eval, "<bench>", evaluate=True, verify=True,
            instrumentation=inst,
        )
    # Worker processes are spawned outside the resource scope: the rlimit
    # fence is per-process policy, not something to time the pool against.
    if isolation_rounds > 0:
        rows.extend(isolation_benchmark_rows(isolation_rounds, progress))
        rows.extend(serve_benchmark_rows(isolation_rounds, progress))
    instrumented = {
        "metrics": outcome.stats,
        "profile": profile_tracer(inst.tracer).to_json(),
        "memory_peak_kb": inst.memory.peaks_kb(),
    }
    return rows, instrumented
