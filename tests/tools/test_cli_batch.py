"""Tests for ``fg batch`` and the ``fg check --deadline-ms`` watchdog."""

import json

import pytest

from repro.tools.cli import (
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.service import EXIT_DEADLINE, EXIT_PARTIAL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path):
    """A small tree of .fg files: two clean, one broken."""
    (tmp_path / "a.fg").write_text("iadd(1, 2)")
    (tmp_path / "nested").mkdir()
    (tmp_path / "nested" / "b.fg").write_text(r"\x : int. x")
    (tmp_path / "broken.fg").write_text("iadd(1, true)")
    return tmp_path


class TestBatchExitCodes:
    def test_clean_batch_exits_zero(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            str(corpus / "nested" / "b.fg"),
        )
        assert code == EXIT_OK
        assert "ok" in out

    def test_diagnostics_exit_one(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "batch", str(corpus))
        assert code == EXIT_DIAGNOSTICS

    def test_injected_crash_is_partial_failure(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch",
            str(corpus / "a.fg"), str(corpus / "nested" / "b.fg"),
            "--chaos", "1:check:crash",
        )
        assert code == EXIT_PARTIAL

    def test_injected_hang_is_deadline_exhaustion(self, capsys, corpus):
        code, _, _ = run_cli(
            capsys, "batch",
            str(corpus / "a.fg"), str(corpus / "nested" / "b.fg"),
            "--chaos", "0:check:hang", "--deadline-ms", "200",
        )
        assert code == EXIT_DEADLINE

    def test_missing_file_is_usage_error(self, capsys, corpus):
        code, _, err = run_cli(
            capsys, "batch", str(corpus / "nowhere.fg")
        )
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_empty_directory_is_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "batch", str(empty))
        assert code == EXIT_USAGE
        assert "no .fg files" in err

    def test_bad_chaos_spec_is_usage_error(self, capsys, corpus):
        code, _, err = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--chaos", "0:check:meteor",
        )
        assert code == EXIT_USAGE

    def test_bad_jobs_is_usage_error(self, capsys, corpus):
        code, _, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"), "--jobs", "0"
        )
        assert code == EXIT_USAGE

    def test_kill_worker_outside_pool_mode_is_usage_error(
            self, capsys, corpus):
        # Silently ignoring the kill schedule would make a chaos run
        # vacuously green; demand the mode that can honor it.
        code, _, err = run_cli(
            capsys, "batch", str(corpus / "a.fg"), "--kill-worker", "0",
        )
        assert code == EXIT_USAGE
        assert "--isolate=pool" in err

    def test_bad_kill_worker_spec_is_usage_error(self, capsys, corpus):
        code, _, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--isolate=pool", "--kill-worker", "not-a-spec",
        )
        assert code == EXIT_USAGE


class TestBatchReportOutput:
    def test_directory_expansion_is_sorted_and_recursive(
        self, capsys, corpus
    ):
        code, out, _ = run_cli(capsys, "batch", str(corpus), "--json")
        blob = json.loads(out)
        names = [f["file"] for f in blob["files"]]
        assert names == sorted(names)
        assert any(name.endswith("b.fg") for name in names)

    def test_json_envelope_shape(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch", str(corpus), "--jobs", "2", "--json",
        )
        blob = json.loads(out)
        assert blob["schema"] == "repro/batch-report v1"
        assert {"files", "policy", "rollup", "elapsed_ms"} <= set(blob)
        broken = [f for f in blob["files"] if f["status"] == "diagnostics"]
        assert broken and broken[0]["diagnostics"]

    def test_json_stats_key_present_only_when_asked(self, capsys, corpus):
        _, out, _ = run_cli(capsys, "batch", str(corpus), "--json")
        assert "stats" not in json.loads(out)
        _, out, _ = run_cli(
            capsys, "batch", str(corpus), "--json", "--stats",
        )
        blob = json.loads(out)
        assert blob["stats"]["counters"]["batch.files"] == 3

    def test_text_report_names_failures(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            str(corpus / "broken.fg"),
            "--chaos", "0:check:crash",
        )
        assert code == EXIT_PARTIAL
        assert "crash" in out
        assert "broken.fg" in out

    def test_retries_visible_in_json(self, capsys, corpus):
        _, out, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--chaos", "0:check:crash:0", "--retries", "1", "--json",
        )
        blob = json.loads(out)
        outcome = blob["files"][0]
        assert outcome["status"] == "ok"
        assert len(outcome["attempts"]) == 2
        assert outcome["attempts"][0]["injected"] == ["check:crash"]

    @pytest.mark.slow
    @pytest.mark.parametrize("flag", ["--isolate", "--isolate=subprocess"])
    def test_isolate_aliases_select_the_pool(self, capsys, corpus, flag):
        code, out, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"), str(corpus / "broken.fg"),
            flag, "--pool-workers", "1", "--json",
        )
        assert code == EXIT_DIAGNOSTICS
        blob = json.loads(out)
        assert blob["policy"]["isolate"] == "pool"
        assert blob["pool"]["workers"] == 1
        assert [f["status"] for f in blob["files"]] == ["ok", "diagnostics"]


class TestCheckDeadline:
    def test_deadline_generous_enough_is_invisible(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "-e", "iadd(1, 2)",
            "--deadline-ms", "60000",
        )
        assert code == EXIT_OK
        assert out.strip() == "int"

    def test_hung_check_exits_four(self, capsys):
        import time

        from repro.pipeline import inject_fault

        with inject_fault("check", lambda: time.sleep(5.0)):
            code, _, err = run_cli(
                capsys, "check", "-e", "iadd(1, 2)",
                "--deadline-ms", "100",
            )
        assert code == EXIT_DEADLINE
        assert "deadline exceeded" in err

    def test_deadline_does_not_mask_diagnostics(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "-e", "iadd(1, true)",
            "--deadline-ms", "60000",
        )
        assert code == EXIT_DIAGNOSTICS


#: Resolves a model, so ``--explain`` has entries to report.
EQ_SOURCE = (
    "concept Eq<t> { eq : fn(t, t) -> bool; } in\n"
    "model Eq<int> { eq = ieq; } in\n"
    "Eq<int>.eq(1, 2)"
)


class TestBatchExplain:
    """``fg batch --explain``: the log must cross the isolation walls."""

    def test_explain_renders_on_stderr(self, capsys, tmp_path):
        (tmp_path / "eq.fg").write_text(EQ_SOURCE)
        code, _, err = run_cli(
            capsys, "batch", str(tmp_path / "eq.fg"), "--explain",
        )
        assert code == EXIT_OK
        assert "model resolution log" in err
        assert "Eq" in err

    def test_explain_in_json_envelope(self, capsys, tmp_path):
        (tmp_path / "eq.fg").write_text(EQ_SOURCE)
        code, out, _ = run_cli(
            capsys, "batch", str(tmp_path / "eq.fg"), "--explain",
            "--json",
        )
        assert code == EXIT_OK
        envelope = json.loads(out)
        assert envelope["explain"], "--explain must not be silently empty"

    @pytest.mark.slow
    def test_explain_not_empty_under_pool_isolation(self, capsys,
                                                    tmp_path):
        # The regression this PR fixes: --explain used to come back empty
        # whenever the work happened in a worker process.
        (tmp_path / "eq.fg").write_text(EQ_SOURCE)
        code, out, _ = run_cli(
            capsys, "batch", str(tmp_path / "eq.fg"),
            "--isolate", "pool", "--pool-workers", "1",
            "--explain", "--json",
        )
        assert code == EXIT_OK
        assert envelope_has_resolutions(json.loads(out))


def envelope_has_resolutions(envelope) -> bool:
    return any(
        entry.get("concept") == "Eq"
        for entry in envelope.get("explain", ())
        if isinstance(entry, dict)
    )


class TestBatchMemoryGovernor:
    def test_injected_memhog_is_partial_failure(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch",
            str(corpus / "a.fg"), str(corpus / "nested" / "b.fg"),
            "--chaos", "0:check:memhog", "--json",
        )
        assert code == EXIT_PARTIAL
        blob = json.loads(out)
        assert blob["rollup"]["memory"] == 1
        hit = blob["files"][0]
        assert hit["status"] == "memory"
        assert hit["crash"]["exc_type"] == "MemoryError"

    def test_memory_rollup_renders_in_text_mode(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch",
            str(corpus / "a.fg"), str(corpus / "nested" / "b.fg"),
            "--chaos", "0:check:memhog",
        )
        assert code == EXIT_PARTIAL
        assert "memory=1" in out
        assert "MemoryError" in out

    def test_retry_outruns_a_first_attempt_memhog(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch",
            str(corpus / "a.fg"), str(corpus / "nested" / "b.fg"),
            "--chaos", "0:check:memhog:0", "--retries", "1", "--json",
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        attempts = blob["files"][0]["attempts"]
        assert [a["status"] for a in attempts] == ["memory", "ok"]
        assert attempts[0]["retryable"] is True

    def test_governor_flags_validate_at_the_cli(self, capsys, corpus):
        code, _, err = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--max-worker-mem-mb", "-1",
        )
        assert code == EXIT_USAGE
        assert err
        code, _, err = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--recycle-after-tasks", "0",
        )
        assert code == EXIT_USAGE

    def test_governor_flags_echo_in_the_policy(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "batch", str(corpus / "a.fg"),
            "--max-worker-mem-mb", "512", "--recycle-rss-mb", "256",
            "--recycle-after-tasks", "8", "--json",
        )
        assert code == EXIT_OK
        policy = json.loads(out)["policy"]
        assert policy["max_worker_mem_mb"] == 512.0
        assert policy["recycle_rss_mb"] == 256.0
        assert policy["recycle_after_tasks"] == 8
