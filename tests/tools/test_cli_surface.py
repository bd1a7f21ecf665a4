"""The ``fg`` driver's command-line surface, pinned.

Every subcommand parses a fixed set of argument lists (its minimum, each
flag alone, every ``--isolate`` spelling) and the resulting Namespace must
match the one recorded here: a dropped flag, a changed type, default,
choice, ``nargs``/``const`` or metavar each show up as a mismatch.  The
tables were recorded from the driver before its shared flags were
declared once, so they also pin that refactor.  Argparse's parent-parser
and abbreviation behaviour differ across Python versions, so this file
runs on the declared floor (3.9) in CI as well.
"""

import pytest

from repro.tools import cli

#: Stands for each single-program subcommand (run, check, translate,
#: verify, runf, profile): they take the same flags.
FILE_COMMAND = "<file command>"
FILE_COMMANDS = ("run", "check", "translate", "verify", "runf", "profile")

#: Each subcommand's option strings (besides -h/--help) and positionals.
OPTIONS = {
    "batch": (
        "--backoff-ms --chaos --crash-dir --deadline-ms --depth --explain "
        "--ext --fuel --heartbeat-ms --isolate --jobs --json --kill-worker "
        "--max-errors --max-respawns --max-worker-mem-mb --pool-workers "
        "--prelude --quarantine-after --recycle-after-tasks --recycle-rss-mb "
        "--retries --stats --trace --verify".split(),
        ["files"],
    ),
    "bench": (
        "--compare --json --threshold".split(),
        [],
    ),
    "client": (
        "--chaos --deadline-ms --ext --health --interval-ms --json --prelude "
        "--retries --shutdown --socket --tail --timeout --verify "
        "--watch".split(),
        ["files"],
    ),
    "debug": (
        "--json --out --socket --timeout".split(),
        ["what"],
    ),
    "doctor": (
        "--json --serve-socket --tail --timeout".split(),
        ["bundle"],
    ),
    "repl": (
        [],
        [],
    ),
    "serve": (
        "--backoff-ms --crash-dir --deadline-ms --ext --heartbeat-ms "
        "--idle-timeout-ms --journal --json --max-errors --max-queue "
        "--max-respawns --max-rss-mb --max-worker-mem-mb --metrics-file "
        "--metrics-interval-ms --ops-log --ops-log-max-bytes --pool-workers "
        "--prelude --quarantine-after --recycle-after-tasks --recycle-rss-mb "
        "--resume --resume-only --retries --retry-after-ms --socket --stats "
        "--trace --verify".split(),
        [],
    ),
    FILE_COMMAND: (
        "--deadline-ms --depth --explain --expr --ext --fuel --json "
        "--max-errors --prelude --profile --stats --trace -e".split(),
        ["file"],
    ),
}

#: Each subcommand's minimal argument list and its whole Namespace.
MINIMUM = {
    "batch": (
        ["a.fg"],
        {"backoff_ms": 0.0, "chaos": None, "command": "batch",
         "crash_dir": None, "deadline_ms": None, "depth": None,
         "explain": False, "ext": False, "files": ["a.fg"], "fuel": None,
         "heartbeat_ms": 100.0, "isolate": None, "jobs": 1, "json": False,
         "kill_worker": None, "max_errors": 20, "max_respawns": 4,
         "max_worker_mem_mb": None, "pool_workers": 2, "prelude": False,
         "profile": False, "quarantine_after": 3, "recycle_after_tasks": None,
         "recycle_rss_mb": None, "retries": 0, "stats": False, "trace": None,
         "verify": False},
    ),
    "bench": (
        ["--compare", "old.json", "new.json"],
        {"command": "bench", "compare": ["old.json", "new.json"],
         "json": False, "threshold": None},
    ),
    "client": (
        ["--socket", "s.sock"],
        {"chaos": None, "command": "client", "deadline_ms": None, "ext": False,
         "files": [], "health": False, "interval_ms": 1000.0, "json": False,
         "prelude": False, "retries": None, "shutdown": False,
         "socket": "s.sock", "tail": 20, "timeout": None, "verify": False,
         "watch": False},
    ),
    "debug": (
        ["bundle", "--socket", "s.sock"],
        {"command": "debug", "json": False, "out": None, "socket": "s.sock",
         "timeout": 10.0, "what": "bundle"},
    ),
    "doctor": (
        [],
        {"bundle": None, "command": "doctor", "json": False,
         "serve_socket": None, "tail": 10, "timeout": 10.0},
    ),
    "repl": (
        [],
        {"command": "repl"},
    ),
    "serve": (
        ["--socket", "s.sock"],
        {"backoff_ms": 0.0, "command": "serve", "crash_dir": None,
         "deadline_ms": None, "explain": False, "ext": False,
         "heartbeat_ms": 100.0, "idle_timeout_ms": 10000.0, "journal": None,
         "json": False, "max_errors": 20, "max_queue": 8, "max_respawns": 4,
         "max_rss_mb": None, "max_worker_mem_mb": None, "metrics_file": None,
         "metrics_interval_ms": 2000.0, "ops_log": None,
         "ops_log_max_bytes": None, "pool_workers": 2, "prelude": False,
         "profile": False, "quarantine_after": 3, "recycle_after_tasks": None,
         "recycle_rss_mb": None, "resume": False, "resume_only": False,
         "retries": 0, "retry_after_ms": 100, "socket": "s.sock",
         "stats": False, "trace": None, "verify": False},
    ),
    FILE_COMMAND: (
        [],
        {"deadline_ms": None, "depth": None, "explain": False, "expr": None,
         "ext": False, "file": None, "fuel": None, "json": False,
         "max_errors": 20, "prelude": False, "profile": False, "stats": False,
         "trace": None},
    ),
}

#: (subcommand, arguments after its minimum, the Namespace entries
#: that differ from the minimum's).  FILE_COMMAND cases run for
#: every single-program subcommand.
CASES = [
    ("batch", ["b.fg", "dir"], {"files": ["a.fg", "b.fg", "dir"]}),
    ("batch", ["--jobs", "7"], {"jobs": 7}),
    ("batch", ["--deadline-ms", "2.5"], {"deadline_ms": 2.5}),
    ("batch", ["--retries", "7"], {"retries": 7}),
    ("batch", ["--backoff-ms", "2.5"], {"backoff_ms": 2.5}),
    ("batch", ["--quarantine-after", "7"], {"quarantine_after": 7}),
    ("batch", ["--isolate"], {"isolate": "pool"}),
    ("batch", ["--isolate", "subprocess"], {"isolate": "subprocess"}),
    ("batch", ["--isolate", "pool"], {"isolate": "pool"}),
    ("batch", ["--pool-workers", "7"], {"pool_workers": 7}),
    ("batch", ["--max-respawns", "7"], {"max_respawns": 7}),
    ("batch", ["--heartbeat-ms", "2.5"], {"heartbeat_ms": 2.5}),
    ("batch", ["--max-worker-mem-mb", "2.5"], {"max_worker_mem_mb": 2.5}),
    ("batch", ["--recycle-rss-mb", "2.5"], {"recycle_rss_mb": 2.5}),
    ("batch", ["--recycle-after-tasks", "7"], {"recycle_after_tasks": 7}),
    ("batch", ["--chaos", "1:check:crash"], {"chaos": ["1:check:crash"]}),
    ("batch", ["--kill-worker", "0"], {"kill_worker": ["0"]}),
    ("batch", ["--crash-dir", "v.json"], {"crash_dir": "v.json"}),
    ("batch", ["--prelude"], {"prelude": True}),
    ("batch", ["--ext"], {"ext": True}),
    ("batch", ["--verify"], {"verify": True}),
    ("batch", ["--max-errors", "7"], {"max_errors": 7}),
    ("batch", ["--fuel", "7"], {"fuel": 7}),
    ("batch", ["--depth", "7"], {"depth": 7}),
    ("batch", ["--json"], {"json": True}),
    ("batch", ["--stats"], {"stats": True}),
    ("batch", ["--trace"], {"trace": "-"}),
    ("batch", ["--trace", "v.json"], {"trace": "v.json"}),
    ("batch", ["--explain"], {"explain": True}),
    ("bench", ["--threshold", "2.5"], {"threshold": 2.5}),
    ("bench", ["--json"], {"json": True}),
    ("client", ["stats"], {"files": ["stats"]}),
    ("client", ["a.fg", "b.fg"], {"files": ["a.fg", "b.fg"]}),
    ("client", ["--health"], {"health": True}),
    ("client", ["--shutdown"], {"shutdown": True}),
    ("client", ["--deadline-ms", "2.5"], {"deadline_ms": 2.5}),
    ("client", ["--retries", "7"], {"retries": 7}),
    ("client", ["--prelude"], {"prelude": True}),
    ("client", ["--ext"], {"ext": True}),
    ("client", ["--verify"], {"verify": True}),
    ("client", ["--chaos", "1:check:crash"], {"chaos": ["1:check:crash"]}),
    ("client", ["--timeout", "2.5"], {"timeout": 2.5}),
    ("client", ["--json"], {"json": True}),
    ("client", ["--tail", "7"], {"tail": 7}),
    ("client", ["--watch"], {"watch": True}),
    ("client", ["--interval-ms", "2.5"], {"interval_ms": 2.5}),
    ("debug", ["--out", "v.json"], {"out": "v.json"}),
    ("debug", ["--timeout", "2.5"], {"timeout": 2.5}),
    ("debug", ["--json"], {"json": True}),
    ("doctor", ["crash-dir"], {"bundle": "crash-dir"}),
    ("doctor", ["--serve-socket", "v.json"], {"serve_socket": "v.json"}),
    ("doctor", ["--tail", "7"], {"tail": 7}),
    ("doctor", ["--timeout", "2.5"], {"timeout": 2.5}),
    ("doctor", ["--json"], {"json": True}),
    ("serve", ["--journal", "v.json"], {"journal": "v.json"}),
    ("serve", ["--resume"], {"resume": True}),
    ("serve", ["--resume-only"], {"resume_only": True}),
    ("serve", ["--max-queue", "7"], {"max_queue": 7}),
    ("serve", ["--retry-after-ms", "7"], {"retry_after_ms": 7}),
    ("serve", ["--idle-timeout-ms", "2.5"], {"idle_timeout_ms": 2.5}),
    ("serve", ["--pool-workers", "7"], {"pool_workers": 7}),
    ("serve", ["--deadline-ms", "2.5"], {"deadline_ms": 2.5}),
    ("serve", ["--retries", "7"], {"retries": 7}),
    ("serve", ["--backoff-ms", "2.5"], {"backoff_ms": 2.5}),
    ("serve", ["--quarantine-after", "7"], {"quarantine_after": 7}),
    ("serve", ["--max-respawns", "7"], {"max_respawns": 7}),
    ("serve", ["--heartbeat-ms", "2.5"], {"heartbeat_ms": 2.5}),
    ("serve", ["--max-worker-mem-mb", "2.5"], {"max_worker_mem_mb": 2.5}),
    ("serve", ["--recycle-rss-mb", "2.5"], {"recycle_rss_mb": 2.5}),
    ("serve", ["--recycle-after-tasks", "7"], {"recycle_after_tasks": 7}),
    ("serve", ["--max-rss-mb", "2.5"], {"max_rss_mb": 2.5}),
    ("serve", ["--ops-log-max-bytes", "7"], {"ops_log_max_bytes": 7}),
    ("serve", ["--prelude"], {"prelude": True}),
    ("serve", ["--ext"], {"ext": True}),
    ("serve", ["--verify"], {"verify": True}),
    ("serve", ["--max-errors", "7"], {"max_errors": 7}),
    ("serve", ["--json"], {"json": True}),
    ("serve", ["--stats"], {"stats": True}),
    ("serve", ["--trace"], {"trace": "-"}),
    ("serve", ["--trace", "v.json"], {"trace": "v.json"}),
    ("serve", ["--metrics-file", "v.json"], {"metrics_file": "v.json"}),
    ("serve", ["--metrics-interval-ms", "2.5"], {"metrics_interval_ms": 2.5}),
    ("serve", ["--ops-log", "v.json"], {"ops_log": "v.json"}),
    ("serve", ["--crash-dir", "v.json"], {"crash_dir": "v.json"}),
    (FILE_COMMAND, ["x.fg"], {"file": "x.fg"}),
    (FILE_COMMAND, ["-"], {"file": "-"}),
    (FILE_COMMAND, ["-e", "v.json"], {"expr": "v.json"}),
    (FILE_COMMAND, ["--expr", "v.json"], {"expr": "v.json"}),
    (FILE_COMMAND, ["--prelude"], {"prelude": True}),
    (FILE_COMMAND, ["--ext"], {"ext": True}),
    (FILE_COMMAND, ["--max-errors", "7"], {"max_errors": 7}),
    (FILE_COMMAND, ["--fuel", "7"], {"fuel": 7}),
    (FILE_COMMAND, ["--depth", "7"], {"depth": 7}),
    (FILE_COMMAND, ["--deadline-ms", "2.5"], {"deadline_ms": 2.5}),
    (FILE_COMMAND, ["--json"], {"json": True}),
    (FILE_COMMAND, ["--trace"], {"trace": "-"}),
    (FILE_COMMAND, ["--trace", "v.json"], {"trace": "v.json"}),
    (FILE_COMMAND, ["--stats"], {"stats": True}),
    (FILE_COMMAND, ["--explain"], {"explain": True}),
    (FILE_COMMAND, ["--profile"], {"profile": True}),
]


def _commands(name):
    return FILE_COMMANDS if name == FILE_COMMAND else (name,)


def _parse(argv):
    return vars(cli._parser().parse_args(argv))


def _subparsers():
    (action,) = [
        a for a in cli._parser()._actions if a.__class__.__name__ ==
        "_SubParsersAction"
    ]
    return action.choices


def test_every_subcommand_is_pinned():
    pinned = {c for name in OPTIONS for c in _commands(name)}
    assert set(_subparsers()) == pinned


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_options_and_positionals(name):
    options, positionals = OPTIONS[name]
    for command in _commands(name):
        parser = _subparsers()[command]
        assert sorted(
            s for a in parser._actions for s in a.option_strings
            if s not in ("-h", "--help")
        ) == sorted(options)
        assert [
            a.dest for a in parser._actions if not a.option_strings
        ] == positionals


@pytest.mark.parametrize("name", sorted(MINIMUM))
def test_minimum_namespace(name):
    argv, namespace = MINIMUM[name]
    for command in _commands(name):
        expected = dict(namespace, command=command)
        assert _parse([command, *argv]) == expected


@pytest.mark.parametrize(
    "name,extra,delta", CASES,
    ids=[f"{name}:{' '.join(extra)}" for name, extra, _ in CASES],
)
def test_each_flag_alone(name, extra, delta):
    argv, namespace = MINIMUM[name]
    for command in _commands(name):
        expected = dict(namespace, command=command, **delta)
        assert _parse([command, *argv, *extra]) == expected


#: The pinned single-flag cases ``fg batch`` and ``fg serve`` share.
SHARED = sorted(
    {tuple(extra) for name, extra, _ in CASES if name == "batch"}
    & {tuple(extra) for name, extra, _ in CASES if name == "serve"}
)


@pytest.mark.parametrize(
    "extra", [()] + SHARED, ids=["defaults"] + [" ".join(e) for e in SHARED]
)
def test_batch_and_serve_build_one_policy(extra):
    import argparse

    batch = argparse.Namespace(**_parse(["batch", "a.fg", *extra]))
    serve = argparse.Namespace(
        **_parse(["serve", "--socket", "s.sock", *extra])
    )
    assert cli._batch_policy(batch).to_json() == \
        cli._batch_policy(serve).to_json()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_serve_rejects_max_errors_below_one(
    value, monkeypatch, tmp_path, capsys
):
    import repro.service as service

    def no_daemon(*args, **kwargs):
        raise AssertionError("a daemon was started")

    monkeypatch.setattr(service, "Server", no_daemon)
    sock = tmp_path / "s.sock"
    with pytest.raises(SystemExit) as exc:
        cli.main(["serve", "--socket", str(sock), "--max-errors", value])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--max-errors must be at least 1" in capsys.readouterr().err
    assert not sock.exists()
