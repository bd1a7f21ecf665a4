"""The ``serve-edits`` workload: a real ``fg serve`` child process.

One closed-loop client sends single-file ``batch`` requests through
``repro.service.client.check_remote``, each with its own ``prelude``/
``verify`` policy override, and waits for every reply before the next.
The daemon runs one pool worker; its socket, journal, ops log and crash
directory live in a scratch directory under ``fgbench/.run`` that is
removed after a clean ``shutdown`` drain.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, RUN_DIR, child_env, host_factors, latency_metrics, metric,
    reference_ms, run_rounds, timed_at_reference,
)
from spans import Spans
from workloads import Case, judge

from repro.service import client

class Daemon:
    """One ``fg serve --pool-workers 1`` child, health-gated."""

    def __init__(self) -> None:
        os.makedirs(RUN_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=RUN_DIR)
        self.socket = os.path.join(self.dir, "d.sock")
        self.log = open(os.path.join(self.dir, "stderr.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--socket", self.socket, "--pool-workers", "1"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self._tail()}")
            try:
                snap = client.health(self.socket, timeout=5.0)
            except client.ClientError:
                time.sleep(0.005)
                continue
            if snap.get("status") == "ok" and snap.get("workers", 0) >= 1:
                return
            time.sleep(0.005)
        raise RuntimeError("daemon did not become healthy")

    def request(self, case: Case) -> Tuple[int, Dict[str, object]]:
        """One verdict: (round-trip ns, terminal response)."""
        start = time.perf_counter_ns()
        response = client.check_remote(
            self.socket, [(case.name, case.text)],
            policy_overrides={"prelude": case.prelude,
                              "verify": case.verify},
            timeout=60.0,
        )
        return time.perf_counter_ns() - start, response

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the daemon plus its pool worker."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def shutdown(self) -> None:
        """Clean drain; the daemon must exit 0.  Always reaps the child and
        removes the scratch directory."""
        try:
            client.request_shutdown(self.socket, timeout=30.0)
            code = self.proc.wait(timeout=60)
            if code != 0:
                raise RuntimeError(f"daemon drained with exit {code}: "
                                   f"{self._tail()}")
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
            shutil.rmtree(self.dir, ignore_errors=True)
            if os.path.exists(self.dir):
                raise RuntimeError(f"scratch directory left: {self.dir}")

    def _tail(self) -> str:
        try:
            with open(os.path.join(self.dir, "stderr.log"), "rb") as fh:
                return fh.read()[-400:].decode(errors="replace")
        except OSError:
            return ""


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _outcome(case: Case, response: Dict[str, object]) -> Optional[str]:
    """Judge a served verdict; shed, overload, transport or crash replies
    are failures too."""
    if response.get("type") != "report":
        return f"response {response.get('type')}: {response}"
    files = response["report"]["files"]
    if len(files) != 1 or files[0]["status"] not in ("ok", "diagnostics"):
        return f"file status {files[0]['status'] if files else None}"
    kinds = [d["kind"] for d in files[0]["diagnostics"]]
    return judge(case, files[0]["status"] == "ok", None, kinds,
                 evaluated=False)


def setup_sample(case: Case) -> float:
    """Seconds from spawning a daemon to its first answered request."""
    daemon: List[Daemon] = []

    def first_answer() -> None:
        daemon.append(Daemon())
        daemon[0].wait_healthy()
        _, response = daemon[0].request(case)
        reason = _outcome(case, response)
        if reason:
            raise RuntimeError(f"set-up request failed: {reason}")

    try:
        return timed_at_reference(first_answer)
    finally:
        if daemon:
            daemon[0].shutdown()


def _run_daemon(cases: List[Case], rounds: int, traced: bool):
    """Start the measured daemon, warm it, run rounds, shut it down."""
    daemon = Daemon()
    failures: List[str] = []
    rounds_ms: List[List[float]] = []
    spans = Spans()
    extra = {"retries": 0, "untraced_ms": [], "traced_ms": []}
    done = 0
    try:
        daemon.wait_healthy()
        for case in cases[:5]:  # warm-up, excluded from timing
            _, response = daemon.request(case)
            reason = _outcome(case, response)
            if reason:
                failures.append(f"{case.name}: {reason}")

        def one_round() -> None:
            nonlocal done
            # Traced runs alternate traced and untraced rounds so the
            # tracing overhead is measured on the same daemon.
            record = traced and done % 2 == 1
            done += 1
            refs, times = [reference_ms()], []
            for case in cases:
                rtt_ns, response = daemon.request(case)
                times.append(rtt_ns / 1e6)
                refs.append(reference_ms())
                reason = _outcome(case, response)
                if reason:
                    failures.append(f"{case.name}: {reason}")
                    continue
                if traced:
                    extra["traced_ms" if record else "untraced_ms"].append(
                        rtt_ns / 1e6)
                    extra["retries"] += response["report"]["rollup"][
                        "retries"]
                if record:
                    _record(spans, rtt_ns, response["report"])
            rounds_ms.append(
                [t * f for t, f in zip(times, host_factors(refs))])

        setups = run_rounds(
            rounds, one_round,
            (lambda: 0.0) if traced else (lambda: setup_sample(cases[0])),
        )
        stats = client.stats(daemon.socket, timeout=10.0)
        peak_mb = daemon.peak_rss_mb()
    finally:
        daemon.shutdown()
    if stats.get("shed_total", 0):
        failures.append(f"daemon shed {stats['shed_total']} request(s)")
    if stats.get("respawns", 0):
        failures.append(f"pool respawned {stats['respawns']} worker(s)")
    for line in failures[:10]:
        print(f"fgbench: mismatch {line}", file=sys.stderr)
    attempted = sum(map(len, rounds_ms)) + min(5, len(cases))
    return (rounds_ms, setups, peak_mb, stats, spans, extra, attempted,
            failures)


def _record(spans: Spans, rtt_ns: int, report: Dict[str, object]) -> None:
    """The layers of one round trip, from the benchmark's clock and the
    report's own timing fields: client front end (rtt - batch elapsed),
    batch dispatch (elapsed - attempt durations), and the pool attempt."""
    elapsed_ns = int(report["elapsed_ms"] * 1e6)
    attempt_ns = int(sum(a["duration_ms"] for f in report["files"]
                         for a in f["attempts"]) * 1e6)
    elapsed_ns = min(elapsed_ns, rtt_ns)
    attempt_ns = min(attempt_ns, elapsed_ns)
    root = spans.add("service.front", None, 0, rtt_ns)
    batch = spans.add("service.dispatch", root, 0, elapsed_ns)
    spans.add("pool.attempt", batch, 0, attempt_ns)


def measure(cases: List[Case], rounds: int) -> Tuple[dict, int, int]:
    rounds_ms, setups, peak_mb, _, _, _, attempted, failures = _run_daemon(
        cases, rounds, traced=False)
    return (latency_metrics(rounds_ms, setups, peak_mb), attempted,
            len(failures))


def trace(cases: List[Case], rounds: int) -> Tuple[dict, int, int, dict]:
    _, _, _, stats, spans, extra, attempted, failures = _run_daemon(
        cases, rounds, traced=True)
    self_ns = spans.self_times_ns()
    n = len(extra["traced_ms"])
    layers = {name: ns / 1e6 / n for name, ns in sorted(self_ns.items())}
    rtt_ms = spans.total_ns("service.front") / 1e6 / n
    table_sum = sum(layers.values())
    overhead = (statistics.median(extra["traced_ms"])
                / statistics.median(extra["untraced_ms"]) - 1.0) * 100.0
    out = {
        "client.rtt_ms": metric(rtt_ms, "ms"),
        "service.front_ms": metric(layers["service.front"], "ms"),
        "service.dispatch_ms": metric(layers["service.dispatch"], "ms"),
        "pool.attempt_ms": metric(layers["pool.attempt"], "ms"),
        "server.queue_wait_ms": metric(
            stats["queue_wait_ms"]["p50"] or 0.0, "ms"),
        "server.worker_utilization": metric(
            stats["worker_utilization"], "ratio"),
        "pool.respawns": metric(stats.get("respawns", 0), "count"),
        "batch.retries": metric(extra["retries"], "count"),
        "trace.overhead_pct": metric(overhead, "%"),
        "layers.residual_pct": metric(
            abs(table_sum - rtt_ms) / rtt_ms * 100.0, "%"),
    }
    table = {
        "verdicts": n,
        "verdict_wall_ms": rtt_ms,
        "table_sum_ms": table_sum,
        "layers_ms": layers,
    }
    return out, attempted, len(failures), table
