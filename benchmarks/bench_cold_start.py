"""Cold start: what a fresh interpreter pays before its first useful work.

Each round spawns a new Python process, so the rows price exactly what
the package inits and an entry point's own imports load (plus the
interpreter's start-up, the same in every row):

- ``test_cold_first_prelude_verdict`` — import the pipeline and check one
  program at the prelude with verify and evaluate on (a one-shot ``fg
  run --prelude``, a respawned pool worker's warm-up);
- ``test_cold_import_client`` — ``import repro.service.client`` (every
  ``fg client`` run);
- ``test_cold_import_server`` — ``import repro.service.server`` (the
  ``fg serve`` daemon before it binds its socket).

The children inherit the environment, so they compile from source or
read cached bytecode exactly as the session does; compare rows only
between records taken at the same bytecode state.

The parent waits on each child without polling: ``Popen.wait`` with a
timeout sleeps in steps that grow to 50 ms, which would round every row
to that step.  A blocking wait returns when the child exits, and a timer
kills a child that outlives the 120 s bound.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Seconds a child may run before it is killed and the round fails.
_TIMEOUT_S = 120.0

_FIRST_VERDICT = (
    "from repro.pipeline import check_source\n"
    "out = check_source('let x = iadd(20, 22) in x', prelude=True,\n"
    "                   verify=True, evaluate=True)\n"
    "assert out.ok and out.value == 42\n"
)


def _spawn(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    child = subprocess.Popen([sys.executable, "-c", code], env=env)
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        child.kill()

    timer = threading.Timer(_TIMEOUT_S, expire)
    timer.start()
    try:
        returncode = child.wait()
    finally:
        timer.cancel()
    if expired.is_set():
        raise subprocess.TimeoutExpired(child.args, _TIMEOUT_S)
    if returncode:
        raise subprocess.CalledProcessError(returncode, child.args)


@pytest.mark.benchmark(group="cold-start")
class TestColdStart:
    def test_cold_first_prelude_verdict(self, benchmark):
        benchmark.pedantic(_spawn, args=(_FIRST_VERDICT,), rounds=10,
                           iterations=1, warmup_rounds=1)

    def test_cold_import_client(self, benchmark):
        benchmark.pedantic(_spawn, args=("import repro.service.client",),
                           rounds=10, iterations=1, warmup_rounds=1)

    def test_cold_import_server(self, benchmark):
        benchmark.pedantic(_spawn, args=("import repro.service.server",),
                           rounds=10, iterations=1, warmup_rounds=1)
