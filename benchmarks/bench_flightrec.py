"""Experiment FR: the always-on flight recorder's overhead.

Both tests time the same fully instrumented ``check_source`` of the
Figure 5 program (``figure5(16)``).  ``test_flightrec_overhead`` runs it
with the default recorder, so every span, metric sample and model
resolution lands in the rings; ``test_flightrec_baseline_ring0`` runs it
with a :class:`~repro.observability.flightrec.NullFlightRecorder`
installed.  The difference between the two medians is the recorder's
cost, and both rows ride the same regression gate as every other row.
"""

import pytest

from repro.observability import (
    Instrumentation, MetricsRegistry, Tracer, flightrec,
)
from repro.observability.flightrec import NullFlightRecorder
from repro.pipeline import check_source

from bench_fig5_accumulate import figure5


def _bench_check(benchmark, recorder):
    source = figure5(16)

    def check():
        inst = Instrumentation(tracer=Tracer(), metrics=MetricsRegistry())
        outcome = check_source(source, "<flightrec-bench>",
                               instrumentation=inst)
        assert outcome.ok

    previous = flightrec.install(recorder)
    try:
        benchmark.pedantic(check, rounds=100, iterations=1,
                           warmup_rounds=5)
    finally:
        flightrec.install(previous)


@pytest.mark.benchmark(group="flightrec")
class TestFlightRecorder:
    def test_flightrec_overhead(self, benchmark):
        _bench_check(benchmark, flightrec.FlightRecorder())

    def test_flightrec_baseline_ring0(self, benchmark):
        _bench_check(benchmark, NullFlightRecorder())
