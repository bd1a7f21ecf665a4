"""The deterministic profiler and the per-stage memory accountant."""

import re

from repro.observability import (
    Instrumentation,
    MemoryAccountant,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    format_profile,
    profile_tracer,
)
from repro.pipeline import check_source

PROGRAM = r"""
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
let accumulate = /\t where Monoid<t>.
  fix (\accum : fn(list t) -> t.
    \ls : list t.
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
accumulate[int](cons[int](1, cons[int](2, cons[int](3, nil[int]))))
"""


def _fake_clock(step=10):
    """A deterministic nanosecond clock advancing ``step`` per reading."""
    state = {"now": 0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestAggregation:
    def test_inclusive_and_exclusive_math(self):
        tracer = Tracer(clock=_fake_clock())
        # parent: t=10..60 (50ns); child: t=20..30 (10ns); child2: 40..50.
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        profile = profile_tracer(tracer)
        by_name = {h.name: h for h in profile.hotspots}
        assert by_name["child"].calls == 2
        assert by_name["parent"].calls == 1
        assert by_name["parent"].inclusive_ns == (
            by_name["parent"].exclusive_ns
            + by_name["child"].inclusive_ns
        )
        assert profile.span_count == 3

    def test_nested_same_name_spans_count_inclusive_once(self):
        tracer = Tracer(clock=_fake_clock())
        # parent 10..80; rec 20..70 wraps mid 30..60 wraps rec 40..50.
        with tracer.span("parent"):
            with tracer.span("rec"):
                with tracer.span("mid"):
                    with tracer.span("rec"):
                        pass
        by_name = {h.name: h for h in profile_tracer(tracer).hotspots}
        assert by_name["rec"].calls == 2
        assert by_name["rec"].inclusive_ns == 50  # the outer rec only
        assert by_name["rec"].inclusive_ns <= by_name["parent"].inclusive_ns
        assert by_name["rec"].exclusive_ns == 20 + 10
        assert by_name["mid"].inclusive_ns == 30

    def test_no_callsite_exceeds_the_enclosing_run(self):
        tracer = Tracer()
        check_source(PROGRAM, prelude=True, verify=True, evaluate=True,
                     instrumentation=Instrumentation(tracer=tracer))
        by_name = {h.name: h for h in profile_tracer(tracer).hotspots}
        total = by_name["pipeline.check_source"].inclusive_ns
        check = by_name["pipeline.check"].inclusive_ns
        for hot in by_name.values():
            assert hot.inclusive_ns <= total, hot.name
            if hot.name.startswith("check."):
                assert hot.inclusive_ns <= check, hot.name

    def test_order_is_calls_desc_then_name(self):
        tracer = Tracer(clock=_fake_clock())
        for _ in range(3):
            with tracer.span("beta"):
                pass
        for _ in range(3):
            with tracer.span("alpha"):
                pass
        with tracer.span("gamma"):
            pass
        names = [h.name for h in profile_tracer(tracer).hotspots]
        assert names == ["alpha", "beta", "gamma"]

    def test_null_tracer_profiles_empty(self):
        profile = profile_tracer(NULL_TRACER)
        assert profile.hotspots == [] and profile.span_count == 0
        assert "no spans" in profile.render()

    def test_open_span_contributes_zero_not_negative(self):
        tracer = Tracer(clock=_fake_clock())
        handle = tracer.span("open")
        with tracer.span("closed_child"):
            pass
        profile = profile_tracer(tracer)
        by_name = {h.name: h for h in profile.hotspots}
        assert by_name["open"].inclusive_ns == 0
        assert by_name["open"].exclusive_ns == 0
        handle.__exit__(None, None, None)


def _mask_timings(text: str) -> str:
    # A timing and the padding that right-aligns it are one token: the
    # padding shrinks when a timing gains a digit.
    return re.sub(r"\s*\d+\.\d+", " #.#", text)


class TestDeterminism:
    """Acceptance: byte-identical across runs except timing fields."""

    def _profile_once(self):
        inst = Instrumentation(tracer=Tracer(), metrics=MetricsRegistry())
        outcome = check_source(
            PROGRAM, evaluate=True, verify=True, instrumentation=inst
        )
        assert outcome.ok
        return profile_tracer(inst.tracer)

    def test_same_program_same_table_shape(self):
        first, second = self._profile_once(), self._profile_once()
        assert [(h.name, h.calls) for h in first.hotspots] == \
               [(h.name, h.calls) for h in second.hotspots]
        assert first.span_count == second.span_count

    def test_rendered_output_identical_modulo_timings(self):
        first, second = self._profile_once(), self._profile_once()
        assert _mask_timings(first.render()) == \
            _mask_timings(second.render())

    def test_json_identical_modulo_timing_fields(self):
        import json

        first, second = self._profile_once(), self._profile_once()

        def strip(payload):
            payload = json.loads(json.dumps(payload.to_json()))
            payload.pop("total_exclusive_ms")
            for row in payload["hotspots"]:
                row.pop("inclusive_ms")
                row.pop("exclusive_ms")
            return payload

        assert strip(first) == strip(second)


class TestMemoryAccountant:
    def test_records_peak_per_stage(self):
        acct = MemoryAccountant()
        with acct.stage("alloc"):
            blob = ["x"] * 50_000
        del blob
        with acct.stage("quiet"):
            pass
        assert acct.peaks["alloc"] > acct.peaks["quiet"]
        kb = acct.peaks_kb()
        assert set(kb) == {"alloc", "quiet"}
        assert kb["alloc"] > 100  # 50k pointers is a few hundred KiB

    def test_repeated_stage_keeps_max(self):
        acct = MemoryAccountant()
        with acct.stage("s"):
            blob = ["x"] * 50_000
        del blob
        peak = acct.peaks["s"]
        with acct.stage("s"):
            pass
        assert acct.peaks["s"] == peak

    def test_no_process_wide_residue(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        acct = MemoryAccountant()
        with acct.stage("s"):
            pass
        assert not tracemalloc.is_tracing()

    def test_pipeline_reports_memory_per_stage(self):
        inst = Instrumentation(memory=MemoryAccountant())
        outcome = check_source(PROGRAM, evaluate=True, instrumentation=inst)
        assert outcome.ok
        peaks = outcome.stats["memory_peak_kb"]
        assert {"parse", "check", "evaluate"} <= set(peaks)
        assert all(v >= 0 for v in peaks.values())


class TestFormatProfile:
    def test_report_includes_memory_section(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("stage"):
            pass
        acct = MemoryAccountant()
        with acct.stage("stage"):
            pass
        report = format_profile(profile_tracer(tracer), acct)
        assert "-- hot paths" in report
        assert "-- peak memory by stage:" in report
        assert "stage" in report

    def test_report_without_memory(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("stage"):
            pass
        report = format_profile(profile_tracer(tracer))
        assert "peak memory" not in report
