"""Unit tests of the analysis layer (metrics, timing, back-annotation)."""

import pytest

from repro.analysis import (
    check_pulse_timing,
    check_response_latency,
    interface_traffic,
    latency_table,
)
from repro.cosim.tracing import ServiceCallTrace
from repro.desim import Simulator, Timeout, WaveformRecorder


def _trace_with_calls():
    trace = ServiceCallTrace()
    samples = [
        ("SW", "Put", "UnitA", 0, 300),
        ("SW", "Put", "UnitA", 1000, 1200),
        ("HW", "Get", "UnitA", 100, 900),
        ("HW", "Sample", "UnitB", 50, 60),
    ]
    for caller, service, unit, start, end in samples:
        trace.begin(caller, service, unit, start, token=start)
        trace.complete(caller, service, end, token=start)
    return trace


class TestLatencyStats:
    def test_per_service_statistics(self):
        trace = _trace_with_calls()
        put = trace.latency_stats(service="Put")
        assert put == {"count": 2, "mean": pytest.approx(250), "p50": 200,
                       "p95": 300, "max": 300}
        assert trace.latency_stats(service="Sample")["mean"] == pytest.approx(10)
        assert trace.latency_stats(service="Get", caller="SW") is None

    def test_pending_service_has_no_statistics(self):
        trace = ServiceCallTrace()
        trace.begin("SW", "Put", "UnitA", 0, token=0)
        assert trace.latency_summary() == {"Put": None}

    def test_latency_table_render(self):
        trace = _trace_with_calls()
        trace.begin("SW", "Pending", "UnitA", 0, token=0)
        table = latency_table(trace.latency_summary())
        assert table.splitlines()[0] == (
            "| service | calls | mean (ns) | p50 (ns) | p95 (ns) | max (ns) |")
        assert "| Put     | 2     | 250.0     | 200      | 300      | 300      |" \
            in table
        assert "| Pending | 0     | -" in table

    def test_interface_traffic_filters_by_unit(self):
        traffic = interface_traffic(_trace_with_calls(), unit_name="UnitA")
        assert traffic[("SW", "Put")] == 2
        assert traffic[("HW", "Get")] == 1
        assert ("HW", "Sample") not in traffic


class TestPulseTiming:
    def _waveform_with_pulses(self, times):
        sim = Simulator()
        pulse = sim.add_signal("pulse", init=0)
        recorder = sim.add_recorder(WaveformRecorder())

        def stim():
            previous = 0
            for at in times:
                yield Timeout(at - previous)
                sim.schedule(pulse, 1)
                yield Timeout(5)
                sim.schedule(pulse, 0)
                previous = at + 5
        sim.add_process("stim", stim)
        sim.run()
        return recorder

    def test_pulse_report_ok(self):
        recorder = self._waveform_with_pulses([100, 300, 500])
        report = check_pulse_timing(recorder, "pulse", min_period_ns=150)
        assert report.pulse_count == 3
        assert report.observed_min_period == 200
        assert report.ok
        assert "pulse timing of pulse" in report.report()

    def test_pulse_report_violation(self):
        recorder = self._waveform_with_pulses([100, 180, 600])
        report = check_pulse_timing(recorder, "pulse", min_period_ns=150,
                                    max_period_ns=300)
        assert not report.ok
        assert len(report.violations) == 2  # one too fast, one too slow

    def test_no_pulses(self):
        recorder = self._waveform_with_pulses([])
        report = check_pulse_timing(recorder, "pulse", min_period_ns=100)
        assert report.pulse_count == 0
        assert report.ok


class TestResponseLatency:
    def test_latency_from_first_stimulus(self):
        report = check_response_latency([100, 500], [50, 250, 700], max_latency_ns=200)
        assert report.latency == 150
        assert report.ok

    def test_latency_violation(self):
        report = check_response_latency([100], [900], max_latency_ns=200)
        assert report.latency == 800
        assert not report.ok

    def test_no_response_found(self):
        report = check_response_latency([100], [50])
        assert report.latency is None
        assert not report.ok

    def test_no_stimulus(self):
        report = check_response_latency([], [100])
        assert report.latency is None


class TestStaticBoundaryTraffic:
    def test_counts_port_touches_per_software_service_call(self):
        from repro.analysis import static_boundary_traffic
        from tests.conftest import make_producer_consumer_model

        model = make_producer_consumer_model()
        traffic = static_boundary_traffic(model)
        # Only HostMod is software; its PUT view touches the handshake ports.
        assert set(traffic) == {("HostMod", "HostPut")}
        assert traffic[("HostMod", "HostPut")] >= 1

    def test_software_names_override_follows_a_candidate_placement(self):
        from repro.analysis import static_boundary_traffic
        from tests.conftest import make_producer_consumer_model

        model = make_producer_consumer_model()
        all_hw = static_boundary_traffic(model, software_names=[])
        assert all_hw == {}
        flipped = static_boundary_traffic(model, software_names=["ServerMod"])
        assert set(flipped) == {("ServerMod", "ServerGet")}
