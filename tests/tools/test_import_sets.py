"""Each entry point loads only the modules its own work runs.

Every case runs a fresh child interpreter (this process has long since
loaded everything) and reads every module it loaded, standard library
included:

- a library verdict (``check_source`` with the prelude, verify and
  evaluate) loads no interpreter, printer, System F parser, exporter,
  profiler, telemetry or tool module;
- a pool-mode ``fg serve`` daemon that has answered a request holds no
  checker module: its workers check, it only forwards; nor OpenSSL
  (``hashlib``), a thread pool or the exporters, which it never runs;
  with ``--metrics-file`` it loads the exporters and writes valid
  Prometheus text;
- the client loads the wire protocol, not the daemon;
- ``fg run`` and ``fg check`` load neither the REPL nor the printers the
  subcommand does not print with;
- ``fg runf``, which checks and runs System F only, loads no F_G module;
- every package's public names resolve to the objects the eager imports
  gave before the package inits re-exported on demand.
"""

import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_REPORT = textwrap.dedent("""
    import json as _json, sys as _sys
    print(_json.dumps(sorted(_sys.modules)))
""")


def _child(code: str, tmp_path=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=str(tmp_path) if tmp_path else None,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(code: str, tmp_path=None) -> set:
    """The modules a fresh interpreter holds after ``code``."""
    out = _child(textwrap.dedent(code) + _REPORT, tmp_path)
    return set(json.loads(out.strip().splitlines()[-1]))


def _under(modules: set, *prefixes: str) -> set:
    return {m for m in modules
            for p in prefixes if m == p or m.startswith(p + ".")}


def test_a_verdict_loads_no_tool_printer_or_interpreter():
    loaded = _loaded("""
        from repro.pipeline import check_source
        out = check_source("let x = iadd(1, 2) in x", prelude=True,
                           verify=True, evaluate=True)
        assert out.ok and out.verified and out.value == 3, out.report.render()
    """)
    assert {"repro.fg.typecheck", "repro.prelude.context",
            "repro.systemf.eval"} <= loaded
    assert not _under(
        loaded, "repro.fg.interp", "repro.fg.pretty", "repro.systemf.pretty",
        "repro.syntax.parser_f", "repro.observability.exporters",
        "repro.observability.profiler", "repro.observability.telemetry",
        "repro.tools",
    )


#: A pool-mode daemon, in this process, that answers one request and
#: drains; ``{options}`` adds ``ServeOptions`` fields.
_POOL_DAEMON = """
    import threading
    from repro.service import (
        BatchPolicy, ServeOptions, Server, check_remote, request_shutdown,
    )
    server = Server(BatchPolicy(isolate="pool", pool_workers=1),
                    ServeOptions(socket_path="fg.sock"{options}))
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    assert server.ready.wait(30.0)
    response = check_remote(
        "fg.sock", [("id.fg", "let id = \\\\x : int. x in id(41)")],
        timeout=60.0,
    )
    assert response["type"] == "report", response
    assert response["exit_code"] == 0, response
    request_shutdown("fg.sock")
    thread.join(30.0)
    assert not thread.is_alive()
"""


@pytest.fixture(scope="module")
def pool_daemon(tmp_path_factory):
    """The modules a pool-mode daemon holds after answering a request."""
    return _loaded(_POOL_DAEMON.format(options=""),
                   tmp_path_factory.mktemp("daemon"))


def test_a_pool_daemon_that_answered_holds_no_checker(pool_daemon):
    assert {"repro.service.server", "repro.service.pool"} <= pool_daemon
    assert not _under(
        pool_daemon, "repro.fg", "repro.systemf", "repro.syntax",
        "repro.prelude", "repro.pipeline", "repro.extensions", "repro.tools",
    )


def test_a_pool_daemon_loads_no_openssl_thread_pool_or_exporter(
        pool_daemon):
    assert "repro.service.journal" in pool_daemon
    assert not _under(
        pool_daemon, "hashlib", "_hashlib", "concurrent.futures",
        "repro.observability.exporters",
    )


#: One Prometheus text sample: a gauge, an optional quantile label, a
#: number.
_SAMPLE = re.compile(
    r'fg_[a-z_]+(\{quantile="[0-9.]+"\})? -?[0-9.]+(e[+-]?[0-9]+)?'
)


def test_a_metrics_file_loads_the_exporter_and_writes_prometheus_text(
        tmp_path):
    loaded = _loaded(_POOL_DAEMON.format(
        options=", metrics_file='fg.prom'"
    ), tmp_path)
    assert "repro.observability.exporters" in loaded
    lines = (tmp_path / "fg.prom").read_text().splitlines()
    assert "fg_served 1" in lines
    families = set()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind == "gauge"
            assert lines[i - 1].startswith(f"# HELP {name} ")
            families.add(name)
        elif not line.startswith("# HELP "):
            assert _SAMPLE.fullmatch(line), line
            assert line.split("{")[0].split(" ")[0] in families, line


def test_the_client_loads_only_the_wire_protocol():
    loaded = _loaded("import repro.service.client")
    assert not _under(
        loaded, "repro.service.server", "repro.service.pool",
        "repro.service.batch", "repro.service.journal", "repro.fg",
        "repro.systemf", "repro.syntax", "repro.prelude", "repro.pipeline",
    )


@pytest.mark.parametrize("command, printer, unused", [
    ("run", "repro.systemf.eval", ("repro.fg.pretty", "repro.systemf.pretty")),
    ("check", "repro.fg.pretty", ("repro.systemf.pretty",)),
])
def test_one_shot_commands_load_no_repl(command, printer, unused):
    loaded = _loaded(f"""
        from repro.tools.cli import main
        assert main([{command!r}, "-e", "iadd(1, 2)"]) == 0
    """)
    assert printer in loaded
    assert not _under(loaded, "repro.tools.repl", "repro.fg.interp",
                      "repro.syntax.parser_f", *unused)


def test_runf_loads_no_f_g_module():
    loaded = _loaded("""
        from repro.tools.cli import main
        assert main(["runf", "-e", "iadd(1, 2)"]) == 0
    """)
    assert {"repro.syntax.parser_f", "repro.systemf.eval"} <= loaded
    assert not _under(loaded, "repro.fg", "repro.prelude", "repro.pipeline",
                      "repro.extensions", "repro.syntax.parser_fg")


#: Each package's ``__all__`` and the object every name gave when the
#: package inits imported eagerly: ``"attr as name"`` from the module
#: named, where the package itself names what its init defines.
PARENT_EXPORTS = {
    "repro": {
        "repro": ("__version__", "fg_check", "fg_check_all", "fg_run",
                  "fg_translate", "fg_verify"),
        "repro.fg.pretty": ("pretty_term as fg_pretty_term",
                            "pretty_type as fg_pretty_type"),
        "repro.syntax.parser_f": ("parse_program as parse_f",),
        "repro.syntax.parser_fg": ("parse_program as parse_fg",),
        "repro.systemf.eval": ("evaluate as f_evaluate",),
        "repro.systemf.pretty": ("pretty_term as f_pretty_term",
                                 "pretty_type as f_pretty_type"),
        "repro.systemf.typecheck": ("type_of as f_type_of",),
    },
    "repro.fg": {
        "repro.fg.congruence": ("CongruenceSolver", "solver_for_equalities"),
        "repro.fg.env": ("Env", "ModelInfo"),
        "repro.fg.interp": ("interpret",),
        "repro.fg.pretty": ("pretty_term", "pretty_type"),
        "repro.fg.typecheck": ("Checker", "evaluate", "translate", "type_of",
                               "typecheck", "typecheck_all",
                               "verify_translation"),
        # the submodule itself
        "repro.fg.ast": ("<module> as ast",),
    },
    "repro.syntax": {
        "repro.syntax.lexer": ("Token", "TokenStream", "Tokens", "stream",
                               "tokenize"),
        "repro.syntax.parser_f": ("parse_program as parse_f",
                                  "parse_type as parse_f_type"),
        "repro.syntax.parser_fg": ("parse_program as parse_fg",
                                   "parse_program_resilient as "
                                   "parse_fg_resilient",
                                   "parse_type as parse_fg_type"),
    },
    "repro.systemf": {
        "repro.systemf.ast": ("App", "BOOL", "BoolLit", "Fix", "INT", "If",
                              "IntLit", "Lam", "Let", "Nth", "TBase", "TFn",
                              "TForall", "TList", "TTuple", "TVar", "Term",
                              "Tuple_", "TyApp", "TyLam", "Type", "Var",
                              "free_type_vars", "substitute", "types_equal"),
        "repro.systemf.builtins": ("BUILTIN_TYPES", "make_prim_values"),
        "repro.systemf.eval": ("Env", "evaluate"),
        "repro.systemf.pretty": ("pretty_term", "pretty_type"),
        "repro.systemf.typecheck": ("TypeEnv", "type_of"),
    },
    "repro.observability": {
        "repro.observability": ("Instrumentation", "NULL_INSTRUMENTATION"),
        "repro.observability.explain": ("ExplainLog", "format_span"),
        "repro.observability.exporters": ("chrome_trace", "chrome_trace_json",
                                          "prometheus_text", "render_tree",
                                          "spans_from_jsonl", "to_jsonl"),
        "repro.observability.flightrec": ("CRASH_BUNDLE_SCHEMA",
                                          "FlightRecorder",
                                          "NullFlightRecorder",
                                          "build_bundle", "flight_recorder",
                                          "read_bundle", "validate_bundle",
                                          "write_bundle"),
        "repro.observability.metrics": ("Histogram", "MetricsRegistry"),
        "repro.observability.profiler": ("HotSpot", "MemoryAccountant",
                                         "Profile", "format_profile",
                                         "profile_tracer"),
        "repro.observability.telemetry": ("OpsLog", "ServerTelemetry",
                                          "WindowReservoir",
                                          "clock_offset_ns",
                                          "graft_spans",
                                          "merge_worker_telemetry",
                                          "read_ops_log", "spans_to_wire"),
        "repro.observability.tracer": ("NULL_TRACER", "NullTracer", "Span",
                                       "Tracer"),
    },
    "repro.service": {
        "repro.service.batch": ("check_batch",),
        "repro.service.client": ("ClientError", "ConnectionLost",
                                 "ProtocolError", "ServerUnavailable",
                                 "check_remote", "debug_bundle", "events",
                                 "health", "request_shutdown", "stats"),
        "repro.service.faults": ("CHAOS_KINDS", "ChaosCrash", "FAULT_CRASH",
                                 "FAULT_DEADLINE", "FAULT_MEMORY",
                                 "FAULT_WORKER_LOST", "FaultSchedule",
                                 "FaultSpec", "WorkerKillSpec",
                                 "is_retryable"),
        "repro.service.journal": ("Journal", "JournalError", "replay"),
        "repro.service.policy": ("BatchPolicy", "ISOLATION_MODES",
                                 "RetryPolicy"),
        "repro.service.pool": ("PersistentPool", "PoolStats"),
        "repro.service.report": ("AttemptRecord", "BatchReport",
                                 "CrashReport", "EXIT_DEADLINE",
                                 "EXIT_OVERLOAD", "EXIT_PARTIAL",
                                 "FileOutcome", "TIMING_FIELDS",
                                 "VOLATILE_POOL_FIELDS", "canonicalize"),
        "repro.service.server": ("ServeError", "ServeOptions", "Server",
                                 "resolve_policy"),
        "repro.service.signals": ("TERMINATION_SIGNALS",
                                  "TerminationRequested",
                                  "notify_on_termination",
                                  "raise_on_termination"),
        "repro.service.worker": ("run_with_deadline",),
    },
}


@pytest.mark.parametrize("package", sorted(PARENT_EXPORTS))
def test_public_names_resolve_as_before(package):
    # Star-import first, in a fresh interpreter, so every lazy name is
    # served by the package's own lookup before its source module is
    # imported directly.
    _child(f"""
        import importlib, sys
        package, exports = {package!r}, {PARENT_EXPORTS[package]!r}
        star = {{}}
        exec(f"from {{package}} import *", star)
        pkg = sys.modules[package]
        expected = {{}}
        for source, specs in exports.items():
            for spec in specs:
                attr, _, name = spec.partition(" as ")
                expected[name or attr] = (source, attr)
        assert sorted(pkg.__all__) == sorted(expected), pkg.__all__
        assert set(pkg.__all__) <= set(dir(pkg))
        for name, (source, attr) in expected.items():
            module = importlib.import_module(source)
            want = module if attr == "<module>" else getattr(module, attr)
            assert star[name] is want, (name, source, attr)
            assert getattr(pkg, name) is want, (name, source, attr)
    """)


@pytest.mark.parametrize("first", [
    "import repro.fg.typecheck",
    "import repro.fg",
    "import repro.testing",
    "from repro.fg import pretty_type, interpret",
    "import repro.pipeline",
])
def test_fg_typecheck_stays_the_entry_point_function(first):
    _child(f"""
        {first}
        import importlib, sys
        import repro.fg
        module = sys.modules["repro.fg.typecheck"]
        repro.fg.pretty_type, repro.fg.interpret
        importlib.import_module("repro.fg.interp")
        assert callable(repro.fg.typecheck)
        assert repro.fg.typecheck is module.typecheck
        from repro.testing import check_src
        assert check_src("iadd(1, 2)") is not None
    """)
