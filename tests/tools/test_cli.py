"""Tests for the ``fg`` command-line driver."""

import json

import pytest

from repro.pipeline import inject_fault
from repro.tools.cli import (
    EXIT_DIAGNOSTICS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_expression(self, capsys):
        code, out, _ = run_cli(capsys, "run", "-e", "iadd(40, 2)")
        assert code == 0
        assert out.strip() == "42"

    def test_run_with_prelude(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--prelude", "-e", "accumulate[int](range(1, 4))"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_run_renders_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "-e", "(1, true, cons[int](1, nil[int]))"
        )
        assert code == 0
        assert out.strip() == "(1, true, [1])"

    def test_run_file(self, capsys, tmp_path):
        path = tmp_path / "prog.fg"
        path.write_text("imult(6, 7)")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert out.strip() == "42"


class TestCheckTranslateVerify:
    def test_check(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-e", r"\x : int. x")
        assert code == 0
        assert out.strip() == "fn(int) -> int"

    def test_translate_shows_dictionaries(self, capsys):
        src = (
            "concept C<t> { op : fn(t, t) -> t; } in "
            "model C<int> { op = iadd; } in C<int>.op(1, 2)"
        )
        code, out, _ = run_cli(capsys, "translate", "-e", src)
        assert code == 0
        assert "(iadd,)" in out
        assert "nth" in out

    def test_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--prelude", "-e", "square[int](5)"
        )
        assert code == 0
        assert "translation preserves typing: OK" in out

    def test_runf(self, capsys):
        code, out, _ = run_cli(
            capsys, "runf", "-e", r"(/\t. \x : t. x)[int](9)"
        )
        assert code == 0
        assert out.strip() == "9"


class TestErrors:
    def test_type_error_reported(self, capsys):
        code, _, err = run_cli(capsys, "run", "-e", "iadd(1, true)")
        assert code == 1
        assert "type error" in err

    def test_parse_error_reported(self, capsys):
        code, _, err = run_cli(capsys, "check", "-e", "let x = in 1")
        assert code == 1
        assert "parse error" in err

    def test_error_has_position_and_excerpt(self, capsys):
        code, _, err = run_cli(capsys, "check", "-e", "iadd(1, true)")
        assert code == 1
        assert "1:" in err

    def test_missing_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_multiple_errors_in_one_run(self, capsys):
        src = (
            "let a = iadd(1, true) in "
            "let b = if 3 then 4 else 5 in "
            "let c = (1)(2) in 0"
        )
        code, _, err = run_cli(capsys, "check", "-e", src)
        assert code == EXIT_DIAGNOSTICS
        assert err.count("type error") >= 3

    def test_max_errors_truncates(self, capsys):
        src = " ".join(f"let x{i} = missing_{i} in" for i in range(8)) + " 0"
        code, _, err = run_cli(capsys, "check", "--max-errors", "2", "-e", src)
        assert code == EXIT_DIAGNOSTICS
        assert "too many errors" in err
        assert err.count("type error") == 2


class TestExitCodeContract:
    def test_nonexistent_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "/no/such/file.fg")
        assert code == EXIT_USAGE
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.fg"
        path.write_bytes(b"\x00\xff\x7f garbage \x01")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == EXIT_USAGE
        assert "not valid UTF-8" in err
        assert "Traceback" not in err

    def test_internal_error_is_exit_3_with_banner(self, capsys):
        with inject_fault("check", RuntimeError("boom")):
            code, _, err = run_cli(capsys, "check", "-e", "1")
        assert code == EXIT_INTERNAL
        assert "internal error" in err
        assert "not in your program" in err
        assert "RuntimeError: boom" in err

    def test_fuel_exhaustion_is_a_diagnostic(self, capsys):
        src = "let loop = fix (\\f : fn(int) -> int. \\n : int. f(n)) in loop(0)"
        code, _, err = run_cli(capsys, "run", "--fuel", "1000", "-e", src)
        assert code == EXIT_DIAGNOSTICS
        assert "resource limit" in err

    def test_depth_flag(self, capsys):
        src = "iadd(" * 200 + "1" + ", 1)" * 200
        code, _, err = run_cli(capsys, "check", "--depth", "50", "-e", src)
        assert code == EXIT_DIAGNOSTICS
        assert "resource limit" in err

    def test_bad_max_errors_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--max-errors", "0", "-e", "1"])
        assert excinfo.value.code == EXIT_USAGE


class TestJsonOutput:
    def test_json_golden_fields(self, capsys, tmp_path):
        # The machine-readable contract: every diagnostic carries file,
        # line, col, severity, and message.
        path = tmp_path / "broken.fg"
        path.write_text("let a = iadd(1, true) in\nlet b = (1)(2) in\n0")
        code, out, _ = run_cli(capsys, "check", "--json", str(path))
        assert code == EXIT_DIAGNOSTICS
        payload = json.loads(out)
        diags = payload["diagnostics"]
        assert len(diags) == 2
        first, second = diags
        assert first["file"] == str(path)
        assert first["line"] == 1
        assert first["col"] >= 1
        assert first["severity"] == "error"
        assert "argument 2" in first["message"]
        assert second["line"] == 2
        assert [d["line"] for d in diags] == sorted(d["line"] for d in diags)

    def test_json_success_payload(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--json", "-e", "iadd(1, 2)")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"diagnostics": [], "type": "int"}

    def test_json_parse_errors(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--json", "-e", "let x = in 1")
        assert code == EXIT_DIAGNOSTICS
        payload = json.loads(out)
        assert payload["diagnostics"]
        assert all(d["kind"] for d in payload["diagnostics"])


class _Stop(BaseException):
    """Ends a command once it has built its policy."""


#: Every flag ``fg batch`` and ``fg serve`` share, set off its default.
SHARED_POLICY_FLAGS = [
    "--deadline-ms", "500", "--retries", "2", "--backoff-ms", "5",
    "--quarantine-after", "4", "--pool-workers", "3", "--max-respawns", "1",
    "--heartbeat-ms", "50", "--max-worker-mem-mb", "512",
    "--recycle-rss-mb", "256", "--recycle-after-tasks", "7",
    "--prelude", "--ext", "--verify", "--max-errors", "5",
]


class TestSharedPolicyFlags:
    def _policy(self, monkeypatch, argv):
        import repro.service as service

        seen = []

        def capture(*args, **kwargs):
            seen.extend(a for a in args if isinstance(a, service.BatchPolicy))
            raise _Stop

        monkeypatch.setattr(service, "check_batch", capture)
        monkeypatch.setattr(service, "Server", capture)
        with pytest.raises(_Stop):
            main(argv)
        (policy,) = seen
        return policy

    def test_batch_isolate_and_serve_build_equal_policies(
        self, monkeypatch, tmp_path, capsys
    ):
        from dataclasses import replace

        from repro.service import BatchPolicy, RetryPolicy

        program = tmp_path / "one.fg"
        program.write_text("iadd(1, 2)")
        batch = self._policy(
            monkeypatch,
            ["batch", str(program), "--isolate", *SHARED_POLICY_FLAGS],
        )
        serve = self._policy(
            monkeypatch,
            ["serve", "--socket", str(tmp_path / "s.sock"),
             *SHARED_POLICY_FLAGS],
        )
        # Only fg batch has --depth and --fuel, so only it sets limits.
        assert replace(batch, limits=None) == serve
        assert serve == BatchPolicy(
            deadline_ms=500.0,
            retry=RetryPolicy(max_retries=2, backoff_base_ms=5.0),
            quarantine_after=4, isolate="pool", pool_workers=3,
            max_respawns=1, heartbeat_ms=50.0, max_worker_mem_mb=512.0,
            recycle_rss_mb=256.0, recycle_after_tasks=7, prelude=True,
            ext=True, max_errors=5, verify=True,
        )
