"""The in-process workloads: ``check_source`` verdicts in this interpreter.

Untimed, one verdict is one ``repro.pipeline.check_source`` call with
verify and evaluate on.  The traced run re-expresses the same verdict as
the public stage calls it is made of, each inside a benchmark span, and
probes the layers that sit beside the verdict (the lexer, the System F
checker alone, the fixed prelude cost).
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, child_env, host_factors, latency_metrics, metric, reference_ms,
    run_rounds, timed_at_reference,
)
from spans import Spans
from workloads import Case, judge

from repro.diagnostics.limits import Budget, resource_scope
from repro.diagnostics.reporter import DiagnosticReporter
from repro.diagnostics.source import SourceText
from repro.fg.typecheck import typecheck_all, verify_translation
from repro.observability import Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro import prelude as fg_prelude
from repro.syntax import parse_fg_resilient, tokenize
from repro.systemf import evaluate, type_of

#: A fresh interpreter's first verdict: import plus one check.
_SETUP_CHILD = """\
import json, sys
from repro.pipeline import check_source
case = json.loads(sys.stdin.read())
out = check_source(case["text"], case["name"], prelude=case["prelude"],
                   verify=True, evaluate=True)
sys.exit(0 if out.ok == (case["expect"][0] == "accept") else 1)
"""


def _verdict(case: Case, instrumentation=None):
    """One ``check_source`` verdict: (mismatch reason or None, outcome)."""
    out = check_source(case.text, case.name, prelude=case.prelude,
                       verify=True, evaluate=True,
                       instrumentation=instrumentation)
    return judge(case, out.ok, out.value,
                 [d.kind for d in out.report.diagnostics]), out


def setup_sample(case: Case) -> float:
    """Seconds from spawning a fresh interpreter to its first verdict."""
    payload = json.dumps(case.to_json())

    def spawn() -> None:
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], input=payload, text=True,
            cwd=ROOT, env=child_env(), capture_output=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr[-400:]}")

    return timed_at_reference(spawn)


def measure(cases: List[Case], rounds: int) -> Tuple[dict, int, int]:
    """Untraced run: returns (metrics, attempted, failed)."""
    failures: List[str] = []
    for case in cases:  # warm-up: imports, caches, first-call costs
        reason, _ = _verdict(case)
        if reason:
            failures.append(f"{case.name}: {reason}")
    rounds_ms: List[List[float]] = []
    raw: List[float] = []

    def one_round() -> None:
        refs, times = [reference_ms()], []
        for case in cases:
            t0 = time.perf_counter_ns()
            reason, _ = _verdict(case)
            times.append((time.perf_counter_ns() - t0) / 1e6)
            refs.append(reference_ms())
            if reason:
                failures.append(f"{case.name}: {reason}")
        rounds_ms.append([t * f for t, f in zip(times, host_factors(refs))])
        raw.extend(times)

    setups = run_rounds(rounds, one_round, lambda: setup_sample(cases[0]))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in failures[:10]:
        print(f"fgbench: mismatch {line}", file=sys.stderr)
    print(f"fgbench: unscaled latency p50 {statistics.median(raw):.3f} ms",
          file=sys.stderr)
    return (latency_metrics(rounds_ms, setups, peak_mb),
            len(raw) + len(cases), len(failures))


# -- traced run -------------------------------------------------------------


def _traced_verdict(case: Case, spans: Spans, registry: MetricsRegistry
                    ) -> Tuple[Optional[str], object]:
    """One verdict through the public stage calls, one span per layer.
    Returns (mismatch reason or None, System F term or None)."""
    inst = Instrumentation(metrics=registry)
    value, sf_term = None, None
    with spans.span("verdict"):
        text = fg_prelude.wrap(case.text) if case.prelude else case.text
        reporter = DiagnosticReporter(max_errors=20)
        with spans.span("syntax.parse"), resource_scope(None):
            term, _ = parse_fg_resilient(text, case.name, max_errors=20,
                                         reporter=reporter)
        ok = term is not None and reporter.finish().ok
        if ok:
            with spans.span("fg.check"):
                _, sf_term, _ = typecheck_all(term, reporter=reporter,
                                              instrumentation=inst)
            ok = reporter.finish().ok and sf_term is not None
        if ok:
            with spans.span("fg.verify"):
                verify_translation(term)
            budget = Budget(None)
            with spans.span("systemf.eval"):
                value = evaluate(sf_term, budget=budget)
            registry.inc("eval.steps", budget.steps_taken)
    kinds = [d.kind for d in reporter.finish().diagnostics]
    return judge(case, ok, value, kinds), (sf_term if ok else None)


_COUNTERS = {
    "congruence.unions": "congruence.unions",
    "congruence.finds": "congruence.finds",
    "congruence.solvers": "congruence.solvers",
    "fg.model_lookups": "model_lookup.attempts",
    "systemf.eval_steps": "eval.steps",
}


def trace(cases: List[Case], rounds: int) -> Tuple[dict, int, int, dict]:
    """Traced run: returns (per-layer metrics, attempted, failed, table)."""
    spans = Spans()
    failures: List[str] = []
    counts_per_round: List[Dict[str, int]] = []
    walls_ns = {"untraced": 0, "traced": 0}
    reject_ms: Dict[str, List[float]] = {"parse": [], "check": []}
    tokens, lex_ns, type_ns, type_n, glue_ms = 0, 0, 0, 0, 0.0
    prelude_ms: List[float] = []
    uses_prelude = any(c.prelude for c in cases)
    verdicts = 0
    for case in cases:  # warm-up, untraced
        _verdict(case)

    def one_round() -> None:
        nonlocal tokens, lex_ns, type_ns, type_n, glue_ms, verdicts
        registry = MetricsRegistry()
        for case in cases:
            # Untraced: check_source with only its own stage timers on,
            # so its glue (wall minus stages) is measured directly.
            t0 = time.perf_counter_ns()
            reason, out = _verdict(case, Instrumentation())
            t1 = time.perf_counter_ns()
            timings = out.stats["timings_ms"]
            glue_ms += (t1 - t0) / 1e6 - sum(
                ms for stage, ms in timings.items() if stage != "total")
            traced_reason, sf_term = _traced_verdict(case, spans, registry)
            t2 = time.perf_counter_ns()
            walls_ns["untraced"] += t1 - t0
            walls_ns["traced"] += t2 - t1
            verdicts += 1
            for r in (reason, traced_reason):
                if r:
                    failures.append(f"{case.name}: {r}")
            if case.expect[0] == "reject":
                reject_ms[case.expect[1]].append((t1 - t0) / 1e6)
            # Layers beside the verdict, probed on their own.
            source = SourceText(
                fg_prelude.wrap(case.text) if case.prelude else case.text,
                case.name,
            )
            t3 = time.perf_counter_ns()
            tokens += len(tokenize(source, DiagnosticReporter()))
            lex_ns += time.perf_counter_ns() - t3
            if sf_term is not None:
                t4 = time.perf_counter_ns()
                type_of(sf_term)
                type_ns += time.perf_counter_ns() - t4
                type_n += 1
        if uses_prelude:
            t5 = time.perf_counter_ns()
            fg_prelude.typecheck("0")
            prelude_ms.append((time.perf_counter_ns() - t5) / 1e6)
        counts_per_round.append(registry.snapshot()["counters"])

    run_rounds(rounds, one_round, lambda: 0.0)
    counts = counts_per_round[0]
    if any(c != counts for c in counts_per_round[1:]):
        failures.append("per-layer counts differ between identical rounds")

    self_ns = spans.self_times_ns()
    layers = {name: ns / 1e6 / verdicts
              for name, ns in sorted(self_ns.items())}
    table_sum = sum(self_ns.values())
    residual_pct = abs(table_sum - walls_ns["traced"]) \
        / walls_ns["traced"] * 100.0
    hits = counts.get("congruence.cache_hits", 0)
    solvers = counts.get("congruence.solvers", 0)

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    out = {
        "syntax.parse_ms": metric(layers.get("syntax.parse", 0.0), "ms"),
        "syntax.tokens_per_s": metric(tokens / (lex_ns / 1e9), "1/s"),
        "prelude.fixed_ms": metric(med(prelude_ms), "ms"),
        "fg.check_ms": metric(layers.get("fg.check", 0.0), "ms"),
        "fg.verify_ms": metric(layers.get("fg.verify", 0.0), "ms"),
        "systemf.type_ms": metric(
            type_ns / 1e6 / type_n if type_n else 0.0, "ms"),
        "systemf.eval_ms": metric(layers.get("systemf.eval", 0.0), "ms"),
        "pipeline.glue_ms": metric(glue_ms / verdicts, "ms"),
        "diagnostics.parse_reject_ms": metric(med(reject_ms["parse"]), "ms"),
        "diagnostics.check_reject_ms": metric(med(reject_ms["check"]), "ms"),
        "congruence.cache_hit_ratio": metric(
            hits / (hits + solvers) if hits + solvers else 0.0, "ratio"),
        "trace.overhead_pct": metric(
            (walls_ns["traced"] / walls_ns["untraced"] - 1.0) * 100.0, "%"),
        "layers.residual_pct": metric(residual_pct, "%"),
    }
    for name, counter in _COUNTERS.items():
        out[name] = metric(counts.get(counter, 0), "count")
    table = {
        "verdicts": verdicts,
        "verdict_wall_ms": walls_ns["traced"] / 1e6 / verdicts,
        "table_sum_ms": table_sum / 1e6 / verdicts,
        "layers_ms": layers,
        "counts_per_round": counts,
    }
    for line in failures[:10]:
        print(f"fgbench: mismatch {line}", file=sys.stderr)
    return out, 2 * verdicts, len(failures), table
