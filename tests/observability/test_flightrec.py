"""The always-on flight recorder: rings, hooks, bundles, and the net.

Everything here is single-process and deterministic.  The cross-process
story — worker spans grafted from result frames, the supervisor's record
of a dead worker's last task, crash bundles from real faults — lives in
``tests/service/test_crash_bundles.py``.
"""

import json
import os

import pytest

from repro.observability import (
    CRASH_BUNDLE_SCHEMA,
    ExplainLog,
    FlightRecorder,
    Instrumentation,
    MetricsRegistry,
    NullFlightRecorder,
    OpsLog,
    Tracer,
    build_bundle,
    read_bundle,
    validate_bundle,
    write_bundle,
)
from repro.observability import flightrec


@pytest.fixture
def fresh_recorder():
    """Install an empty recorder for the test; restore the previous one."""
    rec = FlightRecorder(capacity=64)
    previous = flightrec.install(rec)
    try:
        yield rec
    finally:
        flightrec.install(previous)


class TestRing:
    def test_rings_are_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record_span(f"s{i}", i, i + 1)
            rec.record_metric("m", i)
        snap = rec.snapshot()
        assert [s["name"] for s in snap["spans"]] == \
            ["s6", "s7", "s8", "s9"]
        assert [m["value"] for m in snap["metrics"]] == [6, 7, 8, 9]
        assert snap["capacity"] == 4

    def test_capacity_zero_records_nothing(self):
        rec = FlightRecorder(capacity=0)
        rec.record_span("s", 0, 1)
        rec.record_event({"event": "x"})
        rec.record_metric("m", 1)
        rec.record_resolution({"concept": "C"})
        assert len(rec) == 0
        assert rec.snapshot() == {
            "capacity": 0, "spans": [], "ops": [], "metrics": [],
            "resolutions": [],
        }

    def test_null_recorder_is_capacity_zero(self):
        assert NullFlightRecorder().capacity == 0

    def test_capacity_from_env(self, monkeypatch):
        monkeypatch.setenv(flightrec.ENV_RING, "7")
        assert FlightRecorder().capacity == 7
        monkeypatch.setenv(flightrec.ENV_RING, "0")
        assert FlightRecorder().capacity == 0
        monkeypatch.setenv(flightrec.ENV_RING, "junk")
        assert FlightRecorder().capacity == flightrec.DEFAULT_CAPACITY

    def test_clear_empties_every_ring(self):
        rec = FlightRecorder(capacity=8)
        rec.record_span("s", 0, 1)
        rec.record_metric("m", 1)
        rec.clear()
        assert len(rec) == 0

    def test_install_swaps_and_returns_previous(self):
        rec = FlightRecorder(capacity=2)
        previous = flightrec.install(rec)
        try:
            assert flightrec.recorder() is rec
        finally:
            assert flightrec.install(previous) is rec
        assert flightrec.recorder() is previous


class TestHooks:
    """The existing observability surfaces feed the global recorder."""

    def test_tracer_spans_land_in_the_ring(self, fresh_recorder):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", file="a.fg"):
                pass
        names = [s["name"] for s in fresh_recorder.snapshot()["spans"]]
        # Completed-span order: inner finishes before outer.
        assert names == ["inner", "outer"]

    def test_metrics_observe_lands_in_the_ring(self, fresh_recorder):
        metrics = MetricsRegistry()
        metrics.observe("batch.attempts", 3)
        snap = fresh_recorder.snapshot()["metrics"]
        assert snap == [{"name": "batch.attempts", "value": 3}]

    def test_explain_resolutions_land_in_the_ring(self, fresh_recorder):
        log = ExplainLog()
        log.begin("Comparable", "int", scope_size=2,
                  equalities_in_scope=0, location="1:1")
        log.finish(True)
        entries = fresh_recorder.snapshot()["resolutions"]
        assert entries and entries[0]["concept"] == "Comparable"
        assert entries[0]["resolved"] is True

    def test_ops_events_land_in_the_ring(self, fresh_recorder):
        ops = OpsLog(None)
        ops.emit("worker-lost", slot=1)
        events = fresh_recorder.snapshot()["ops"]
        assert events and events[0]["event"] == "worker-lost"

    def test_null_recorder_makes_hooks_free(self):
        previous = flightrec.install(NullFlightRecorder())
        try:
            tracer = Tracer()
            with tracer.span("s"):
                pass
            MetricsRegistry().observe("m", 1)
            assert len(flightrec.recorder()) == 0
        finally:
            flightrec.install(previous)

    def test_instrumented_check_fills_the_ring(self, fresh_recorder):
        from repro.pipeline import check_source

        inst = Instrumentation(tracer=Tracer(), metrics=MetricsRegistry())
        outcome = check_source(
            "iadd(1, 2)", "<flightrec>", instrumentation=inst,
        )
        assert outcome.ok
        names = [s["name"] for s in fresh_recorder.snapshot()["spans"]]
        assert "pipeline.parse" in names
        assert "pipeline.check_source" in names


class TestBundles:
    def test_build_validate_round_trip(self, fresh_recorder, tmp_path):
        fresh_recorder.record_span("worker.task", 0, 5_000_000,
                                   {"file": "a.fg"})
        bundle = build_bundle(
            "worker-lost", {"slot": 0},
            context={"policy": {"jobs": 2}},
        )
        assert bundle["schema"] == CRASH_BUNDLE_SCHEMA
        assert validate_bundle(bundle) == []
        path = write_bundle(bundle, str(tmp_path))
        assert path.endswith(".bundle.json")
        loaded = read_bundle(path)
        assert loaded["fault"] == {"kind": "worker-lost",
                                   "detail": {"slot": 0}}
        assert loaded["policy"] == {"jobs": 2}
        assert loaded["rings"]["spans"][0]["name"] == "worker.task"

    def test_validate_flags_bad_bundles(self):
        assert validate_bundle([]) == ["bundle is not an object"]
        problems = validate_bundle({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("missing key" in p for p in problems)
        bad_fault = build_bundle("x")
        bad_fault["fault"] = {"kind": ""}
        assert any("fault.kind" in p for p in validate_bundle(bad_fault))

    def test_find_and_latest_bundle(self, tmp_path):
        assert flightrec.find_bundles(str(tmp_path)) == []
        assert flightrec.latest_bundle(str(tmp_path)) is None
        first = write_bundle(build_bundle("manual"), str(tmp_path))
        os.utime(first, (1, 1))
        second = write_bundle(build_bundle("manual"), str(tmp_path))
        (tmp_path / "not-a-bundle.json").write_text("{}")
        assert flightrec.find_bundles(str(tmp_path)) == [first, second]
        assert flightrec.latest_bundle(str(tmp_path)) == second

    def test_dump_without_directory_is_none(self, monkeypatch):
        monkeypatch.delenv(flightrec.ENV_CRASH_DIR, raising=False)
        flightrec.configure(None)
        assert flightrec.dump("manual") is None

    def test_dump_writes_into_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(flightrec.ENV_CRASH_DIR, str(tmp_path))
        flightrec.configure(None)
        path = flightrec.dump("manual", {"why": "test"})
        assert path is not None and os.path.exists(path)
        assert validate_bundle(read_bundle(path)) == []

    def test_dump_never_raises(self, tmp_path):
        # An unwritable directory must yield None, not an exception.
        target = tmp_path / "file-not-dir"
        target.write_text("occupied")
        assert flightrec.dump("manual",
                              directory=str(target / "sub")) is None

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        write_bundle(build_bundle("manual"), str(tmp_path))
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_bundle_is_json_serializable(self, fresh_recorder):
        fresh_recorder.record_span("s", 0, 1, {"obj": object()})
        bundle = build_bundle("manual")
        json.dumps(bundle, default=str)

    def test_snapshot_file_reads_back_as_the_built_bundle(
        self, fresh_recorder, tmp_path
    ):
        # One encoding, written as it is: the file is a single line of
        # JSON that reads back as build_bundle's document, arbitrary ring
        # attrs (made strings) and non-string keys (made strings) included.
        fresh_recorder.record_span("s", 0, 1, {"obj": 7j, 3: "three"})
        context = {"journal_tail": [{"op": "begin", "request": 1}],
                   "policy": {"jobs": 2}}
        path = flightrec.write_snapshot(
            "hard-death", {"note": "é"}, str(tmp_path), context=context,
            name="live-1.bundle.json",
        )
        assert path == str(tmp_path / "live-1.bundle.json")
        text = (tmp_path / "live-1.bundle.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        loaded = read_bundle(path)
        built = build_bundle("hard-death", {"note": "é"}, context=context)
        assert validate_bundle(loaded) == []
        loaded.pop("created_ts_ms"), built.pop("created_ts_ms")
        assert loaded == built
        assert loaded["rings"]["spans"][0]["attrs"] == {
            "obj": "7j", "3": "three"
        }
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestRetention:
    def _seed_bundles(self, directory, n):
        # Distinct mtimes so "oldest first" is unambiguous on coarse
        # filesystem clocks.
        paths = []
        for i in range(n):
            path = write_bundle(
                build_bundle("manual", {"i": i}), str(directory),
            )
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return paths

    def test_prune_keeps_the_newest_crash_bundles(self, tmp_path):
        paths = self._seed_bundles(tmp_path, 5)
        removed = flightrec.prune_bundles(str(tmp_path), keep=2)
        assert sorted(removed) == sorted(paths[:3])
        assert flightrec.find_bundles(str(tmp_path)) == paths[3:]

    def test_prune_spares_the_live_blackbox(self, tmp_path):
        self._seed_bundles(tmp_path, 2)
        live = os.path.join(str(tmp_path), "live-serve.bundle.json")
        write_bundle(build_bundle("manual"), str(tmp_path),
                     name="live-serve.bundle.json")
        flightrec.prune_bundles(str(tmp_path), keep=1)
        remaining = flightrec.find_bundles(str(tmp_path))
        assert live in remaining
        assert len(remaining) == 2  # 1 crash bundle + the blackbox

    def test_keep_comes_from_the_environment(self, monkeypatch):
        monkeypatch.delenv(flightrec.ENV_CRASH_KEEP, raising=False)
        assert flightrec.crash_keep_from_env() == \
            flightrec.DEFAULT_CRASH_KEEP
        monkeypatch.setenv(flightrec.ENV_CRASH_KEEP, "3")
        assert flightrec.crash_keep_from_env() == 3
        monkeypatch.setenv(flightrec.ENV_CRASH_KEEP, "0")
        assert flightrec.crash_keep_from_env() == 1  # floor: keep one
        monkeypatch.setenv(flightrec.ENV_CRASH_KEEP, "lots")
        assert flightrec.crash_keep_from_env() == \
            flightrec.DEFAULT_CRASH_KEEP

    def test_dump_enforces_retention(self, tmp_path, monkeypatch):
        monkeypatch.setenv(flightrec.ENV_CRASH_KEEP, "2")
        for i in range(4):
            path = flightrec.dump(
                "manual", {"i": i}, directory=str(tmp_path),
            )
            assert path is not None
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        found = flightrec.find_bundles(str(tmp_path))
        assert len(found) == 2
        assert [read_bundle(p)["fault"]["detail"]["i"] for p in found] == \
            [2, 3]


class TestArm:
    def test_arm_disarm_guard_state(self, tmp_path):
        state_before = dict(flightrec._arm_state)
        try:
            flightrec.arm(str(tmp_path))
            assert flightrec._arm_state["clean"] is False
            flightrec.disarm()
            assert flightrec._arm_state["clean"] is True
            # The atexit guard stands down after a clean disarm.
            flightrec._atexit_guard()
            assert flightrec.find_bundles(str(tmp_path)) == []
        finally:
            flightrec.configure(None)
            flightrec._arm_state["clean"] = state_before["clean"]
            flightrec._arm_state["context_provider"] = \
                state_before["context_provider"]

    def test_atexit_guard_dumps_when_not_clean(self, tmp_path):
        flightrec.configure(str(tmp_path))
        try:
            flightrec._arm_state["clean"] = False
            flightrec._arm_state["context_provider"] = None
            flightrec._atexit_guard()
            found = flightrec.find_bundles(str(tmp_path))
            assert len(found) == 1
            bundle = read_bundle(found[0])
            assert bundle["fault"]["kind"] == "hard-death"
            assert validate_bundle(bundle) == []
        finally:
            flightrec._arm_state["clean"] = True
            flightrec.configure(None)
