"""Benchmark of the F_G checker on seeded workloads with known answers.

Run from the root of a checkout::

    python3 fgbench/run.py --workload prelude-lib --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the inputs and their answers):

- ``prelude-lib``    short programs over the prelude's generic algorithms,
                     plus the example corpus, checked under the prelude;
- ``generic-stress`` the paper-figure shapes (Figures 5-7, section 5
                     ``merge`` and k same-type-constrained iterators), no
                     prelude;
- ``broken-edits``   programs of the first two, each with one seeded edit
                     of known outcome (parse or check rejection);
- ``serve-edits``    a fixed mix of all three in seeded order, one file per
                     request to a real ``fg serve`` child process.

Every run does a fixed, seeded batch of work per round, for a fixed number
of rounds: ``--seconds`` over the time one round takes at reference speed
(``common.ROUND_SECONDS``).  With ``--trace 0`` it
prints the end-to-end metrics (untraced); with ``--trace 1`` the per-layer
metrics of a traced run, and writes that run's layer table to
``fgbench/.run/layers-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A verdict that differs from its known answer, a shed request
or a transport error counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads
from common import RUN_DIR, SRC, rounds_for

#: Per-layer metric names reported by every traced run; a layer the
#: workload does not exercise reports 0.
PER_LAYER = {
    "syntax.parse_ms": "ms", "syntax.tokens_per_s": "1/s",
    "prelude.fixed_ms": "ms", "fg.check_ms": "ms", "fg.verify_ms": "ms",
    "systemf.type_ms": "ms", "systemf.eval_ms": "ms",
    "pipeline.glue_ms": "ms", "diagnostics.parse_reject_ms": "ms",
    "diagnostics.check_reject_ms": "ms", "client.rtt_ms": "ms",
    "service.front_ms": "ms", "service.dispatch_ms": "ms",
    "pool.attempt_ms": "ms", "server.queue_wait_ms": "ms",
    "server.worker_utilization": "ratio", "congruence.unions": "count",
    "congruence.finds": "count", "congruence.solvers": "count",
    "congruence.cache_hit_ratio": "ratio", "fg.model_lookups": "count",
    "systemf.eval_steps": "count", "pool.respawns": "count",
    "batch.retries": "count", "trace.overhead_pct": "%",
    "layers.residual_pct": "%",
}

#: How far the layer table may miss the verdict wall time it decomposes.
LAYER_TOLERANCE_PCT = 5.0


def _fail(message: str) -> None:
    print(f"fgbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_checker() -> None:
    """Import the checker from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "pipeline.py")):
        _fail(f"no checker sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _fail(f"imported repro from {repro.__file__}, not {SRC}")


def _self_check(workload: str, seed: int) -> list:
    """Same seed => byte-identical inputs; another seed => different."""
    cases = workloads.make(workload, seed)
    again = workloads.make(workload, seed)
    other = workloads.make(workload, seed + 1)
    if workloads.digest(cases) != workloads.digest(again):
        _fail("the same seed gave different inputs")
    if workloads.digest(cases) == workloads.digest(other):
        _fail("different seeds gave identical inputs")
    return cases


def _write_table(workload: str, seed: int, table: dict) -> None:
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"layers-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
    print(f"fgbench: layer table ({table['verdicts']} verdicts, "
          f"{table['verdict_wall_ms']:.3f} ms each) -> {path}",
          file=sys.stderr)
    for name, ms in table["layers_ms"].items():
        print(f"  {name:<20} {ms:9.3f} ms", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checker()
    # One CPU for this process and every child it starts (set-up
    # interpreters, the daemon and its worker): the host-speed reference
    # is then measured on the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cases = _self_check(args.workload, args.seed)
    rounds = rounds_for(args.workload, args.seconds)
    print(f"fgbench: {args.workload} seed={args.seed} inputs="
          f"{workloads.digest(cases)[:16]} ({len(cases)} per round, "
          f"{rounds} rounds)", file=sys.stderr)
    if args.workload == "serve-edits":
        import serve as runner
    else:
        import inproc as runner

    if not args.trace:
        metrics, attempted, failed = runner.measure(cases, rounds)
        correct = failed == 0
    else:
        layer, attempted, failed, table = runner.trace(cases, rounds)
        _write_table(args.workload, args.seed, table)
        residual = layer["layers.residual_pct"]["value"]
        correct = failed == 0 and residual <= LAYER_TOLERANCE_PCT
        if residual > LAYER_TOLERANCE_PCT:
            print(f"fgbench: layer table misses verdict wall time by "
                  f"{residual:.2f}% (> {LAYER_TOLERANCE_PCT}%)",
                  file=sys.stderr)
        metrics = {name: layer.get(name, {"value": 0, "unit": unit})
                   for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
