"""Shared plumbing: the checkout, round scheduling, and small statistics."""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Callable, Dict, List

#: The checkout the benchmark runs in (its working directory).
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Scratch space for daemon sockets, journals and the layer tables; inside
#: the benchmark's own directory, ignored by git.
RUN_DIR = os.path.join("fgbench", ".run")

#: Fresh-process set-up samples taken per run, spread through the rounds.
SETUP_SAMPLES = 7
#: Rounds always run, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Seconds one round of each workload takes at reference speed.  A run
#: does ``--seconds / ROUND_SECONDS`` rounds: a fixed amount of work, so a
#: slow stretch of the host lengthens the run instead of shrinking it.
ROUND_SECONDS = {
    "prelude-lib": 2.8,
    "generic-stress": 0.9,
    "broken-edits": 1.0,
    "serve-edits": 1.7,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- host-speed reference ---------------------------------------------------
#
# The host this benchmark was tuned on changes speed by up to 1.7x within
# seconds, with CPU time equal to wall time.  Every timed verdict is paired
# with a fixed piece of reference work done by this file alone -- build a
# tree of slotted objects and walk it with copied dict environments, the
# same kind of work a type checker does -- and reported at the speed at
# which that reference takes REFERENCE_MS.  The checker never runs the
# reference code, so a change to the checker cannot move it.

#: Nominal duration of one reference pass; times are scaled to it.
REFERENCE_MS = 2.0


class _Node:
    __slots__ = ("kind", "kids", "val")

    def __init__(self, kind, kids, val):
        self.kind, self.kids, self.val = kind, kids, val


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), i)
    return _Node("app" if i % 2 else "lam",
                  tuple(_build(depth - 1, i * 3 + j) for j in range(3)), None)


def _walk(node: _Node, env: Dict[int, int]) -> int:
    if node.kind == "leaf":
        return env.get(node.val % 7, 0) + 1
    inner = dict(env)
    inner[len(inner) % 7] = len(node.kids)
    return sum(_walk(kid, inner) for kid in node.kids)


def reference_ms() -> float:
    """Milliseconds one pass of the reference work takes right now."""
    start = time.perf_counter_ns()
    _walk(_build(6, 1), {})
    return (time.perf_counter_ns() - start) / 1e6


def host_factors(refs: List[float], window: int = 3) -> List[float]:
    """Scale factors for the timings taken between consecutive reference
    samples: timing ``i`` ran between ``refs[i]`` and ``refs[i + 1]`` and is
    scaled by ``REFERENCE_MS`` over the median of the samples around it."""
    return [
        REFERENCE_MS / statistics.median(
            refs[max(0, i - window + 1):i + window + 1])
        for i in range(len(refs) - 1)
    ]


def timed_at_reference(step: Callable[[], None]) -> float:
    """Seconds ``step`` takes, at reference speed (for set-up samples)."""
    before = [reference_ms() for _ in range(3)]
    start = time.perf_counter()
    step()
    elapsed = time.perf_counter() - start
    after = [reference_ms() for _ in range(3)]
    return elapsed * REFERENCE_MS / statistics.median(before + after)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_rounds(rounds: int, one_round: Callable[[], None],
               setup_sample: Callable[[], float]) -> List[float]:
    """Run ``one_round`` ``rounds`` times, with ``SETUP_SAMPLES`` calls of
    ``setup_sample`` spread evenly between them.  Returns the samples."""
    setups: List[float] = []
    for i in range(rounds):
        due = math.ceil((i + 1) * SETUP_SAMPLES / rounds)
        while len(setups) < due:
            setups.append(setup_sample())
        one_round()
    return setups


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def latency_metrics(rounds_ms: List[List[float]], setups_s: List[float],
                    peak_rss_mb: float) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics every workload reports, from each round's
    verdict latencies.  Each statistic is taken per round and the median
    over rounds is reported, so one disturbed round cannot move it."""
    def over_rounds(stat: Callable[[List[float]], float]) -> float:
        return statistics.median(stat(r) for r in rounds_ms)

    return {
        "latency_ms_p50": metric(over_rounds(statistics.median), "ms"),
        "latency_ms_p90": metric(
            over_rounds(lambda r: percentile(r, 90)), "ms"),
        "verdicts_per_s": metric(
            over_rounds(lambda r: len(r) / (sum(r) / 1000.0)), "1/s"),
        "setup_s": metric(statistics.median(setups_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
