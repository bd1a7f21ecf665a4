"""Bench records, the trajectory comparator, and the ``fg bench`` gate."""

import copy
import json

import pytest

from repro.observability import regress
from repro.tools.cli import EXIT_OK, EXIT_USAGE, main


def _record(tag, medians):
    rows = [
        {
            "name": name,
            "group": None,
            "rounds": 5,
            "mean_s": median,
            "median_s": median,
            "stddev_s": 0.0,
            "min_s": median,
            "max_s": median,
        }
        for name, median in medians.items()
    ]
    return regress.build_record(tag, rows)


class TestRecordSchema:
    def test_round_trip(self, tmp_path):
        record = _record("a", {"check": 0.01})
        path = regress.write_record(record, tmp_path / "BENCH_a.json")
        loaded = regress.load_record(path)
        assert loaded == json.loads(json.dumps(record))
        assert loaded["schema"] == regress.BENCH_SCHEMA
        assert loaded["version"] == regress.BENCH_VERSION

    def test_legacy_pr3_payload_is_lifted(self, tmp_path):
        legacy = {
            "pr": 3,
            "benchmarks": [{"name": "check", "median_s": 0.01}],
            "instrumented_run": {"stats": {"counters": {"x": 1}}},
        }
        path = tmp_path / "BENCH_pr3.json"
        path.write_text(json.dumps(legacy))
        record = regress.load_record(path)
        assert record["schema"] == regress.BENCH_SCHEMA
        assert record["tag"] == "pr3"
        assert record["benchmarks"] == legacy["benchmarks"]
        assert record["metrics"] == {"counters": {"x": 1}}

    def test_unrecognized_payload_is_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            regress.load_record(path)

    def test_future_version_is_rejected(self, tmp_path):
        record = _record("a", {"check": 0.01})
        record["version"] = regress.BENCH_VERSION + 1
        path = regress.write_record(record, tmp_path / "BENCH_v2.json")
        with pytest.raises(ValueError):
            regress.load_record(path)

    def test_tag_default_honors_env(self, monkeypatch):
        monkeypatch.setenv("BENCH_TAG", "custom")
        assert regress.default_tag() == "custom"
        monkeypatch.delenv("BENCH_TAG")
        assert regress.default_tag()  # dated fallback, non-empty


class TestComparator:
    def test_identical_records_all_ok(self):
        record = _record("a", {"check": 0.01, "evaluate": 0.02})
        comparison = regress.compare_records(record, record)
        assert comparison.ok and comparison.exit_code == 0
        assert {r.verdict for r in comparison.rows} == {"ok"}

    def test_regression_past_threshold(self):
        old = _record("a", {"check": 0.010})
        new = _record("b", {"check": 0.020})
        comparison = regress.compare_records(old, new, threshold=1.5)
        assert not comparison.ok and comparison.exit_code == 1
        (row,) = comparison.rows
        assert row.verdict == "regressed" and row.ratio == pytest.approx(2.0)

    def test_below_threshold_is_ok(self):
        old = _record("a", {"check": 0.010})
        new = _record("b", {"check": 0.014})
        comparison = regress.compare_records(old, new, threshold=1.5)
        assert comparison.ok
        assert comparison.rows[0].verdict == "ok"

    def test_improvement(self):
        old = _record("a", {"check": 0.030})
        new = _record("b", {"check": 0.010})
        (row,) = regress.compare_records(old, new).rows
        assert row.verdict == "improved"

    def test_new_and_missing(self):
        old = _record("a", {"gone": 0.01, "kept": 0.01})
        new = _record("b", {"kept": 0.01, "added": 0.01})
        by_name = {
            r.name: r.verdict
            for r in regress.compare_records(old, new).rows
        }
        assert by_name == {
            "gone": "missing", "kept": "ok", "added": "new",
        }
        # Neither missing nor new benchmarks fail the gate on their own.
        assert regress.compare_records(old, new).exit_code == 0

    def test_noise_floor_suppresses_micro_regressions(self):
        # 3x slower but both medians far below the noise floor: still ok.
        old = _record("a", {"tiny": 0.00002})
        new = _record("b", {"tiny": 0.00006})
        (row,) = regress.compare_records(old, new).rows
        assert row.verdict == "ok"

    def test_render_contains_verdict_table(self):
        old = _record("a", {"check": 0.010})
        new = _record("b", {"check": 0.050})
        text = regress.compare_records(old, new).render()
        assert "regressed" in text and "REGRESSED" in text
        assert "a -> b" in text

    def test_rows_without_medians_are_skipped(self):
        old = _record("a", {"check": 0.01})
        old["benchmarks"].append({"name": "broken", "median_s": None})
        comparison = regress.compare_records(old, old)
        assert [r.name for r in comparison.rows] == ["check"]


class TestCliGate:
    """Acceptance: exit 0 on identical records, 1 past threshold, JSON
    round-trips the verdict table."""

    def _write(self, tmp_path, name, record):
        return str(regress.write_record(record, tmp_path / name))

    def test_identical_records_exit_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json",
                        _record("a", {"check": 0.01}))
        assert main(["bench", "--compare", a, a]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        old = _record("a", {"check": 0.010, "evaluate": 0.02})
        new = copy.deepcopy(old)
        new["tag"] = "b"
        new["benchmarks"][0]["median_s"] = 0.030
        a = self._write(tmp_path, "a.json", old)
        b = self._write(tmp_path, "b.json", new)
        assert main(["bench", "--compare", a, b]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_verdict_table_round_trips(self, tmp_path, capsys):
        old = _record("a", {"check": 0.010})
        new = _record("b", {"check": 0.030})
        a = self._write(tmp_path, "a.json", old)
        b = self._write(tmp_path, "b.json", new)
        code = main(["bench", "--compare", a, b, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        expected = regress.compare_records(
            regress.load_record(a), regress.load_record(b)
        ).to_json()
        assert payload == json.loads(json.dumps(expected))

    def test_custom_threshold(self, tmp_path, capsys):
        old = _record("a", {"check": 0.010})
        new = _record("b", {"check": 0.030})
        a = self._write(tmp_path, "a.json", old)
        b = self._write(tmp_path, "b.json", new)
        assert main(["bench", "--compare", a, b, "--threshold", "4.0"]) \
            == EXIT_OK
        capsys.readouterr()

    def test_unreadable_record_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["bench", "--compare", missing, missing]) == EXIT_USAGE
        assert "cannot load" in capsys.readouterr().err

    def test_too_many_compare_args_is_usage_error(self, tmp_path, capsys,
                                                  monkeypatch):
        # --compare takes exactly OLD and NEW: no records, one record and
        # three records are all usage errors, and nothing is loaded.
        a = self._write(tmp_path, "a.json", _record("a", {"x": 0.01}))

        def refuse(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(regress, "load_record", refuse)
        for argv in (["bench"], ["bench", "--compare", a],
                     ["bench", "--compare", a, a, a]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "usage:" in captured.err, argv
