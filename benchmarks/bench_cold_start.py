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
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

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
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


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
