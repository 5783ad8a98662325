"""Integration tests of the co-simulation session on the producer/consumer system."""

import pytest

from repro.comm import build_view_library
from repro.cosim import CosimSession, RunToIdle
from repro.desim import Monitor
from repro.utils.errors import SimulationError

from tests.conftest import make_producer_consumer_model


def run_producer_consumer(words=5, **session_kwargs):
    model = make_producer_consumer_model(words=words)
    session = CosimSession(model, **session_kwargs)
    result = session.run_until_software_done(max_time=500_000)
    return model, session, result


class TestProducerConsumerCosimulation:
    def test_all_words_are_transferred(self):
        _, session, result = run_producer_consumer(words=5)
        server = session.hardware_adapter("ServerMod").process_variables("SERVER")
        assert server["RECEIVED"] == 5
        assert server["TOTAL"] == sum(range(10, 15))
        assert result.sw_finished["HostMod"] is True

    def test_trace_matches_transfer_count(self):
        _, _, result = run_producer_consumer(words=4)
        assert result.trace.count(service="HostPut") == 4
        assert result.trace.count(service="ServerGet") == 4
        assert result.trace.latency_stats("HostPut")["mean"] > 0

    def test_software_state_history_one_transition_per_activation(self):
        session = CosimSession(make_producer_consumer_model(words=3)).build()
        executor = session.software_executor("HostMod")
        steps = []
        executor.instance.observer = steps.append
        session.run_until_software_done(max_time=500_000)
        history = [steps[0].from_state] + [step.to_state for step in steps
                                           if step.fired]
        assert history[0] == "Send"
        assert history[-1] == "Finish"
        # One-transition rule: one step per activation, and the number of
        # visited states == fired transitions + 1.
        assert len(steps) == executor.activations
        assert len(history) == executor.instance.transitions_fired + 1

    def test_unit_and_module_signal_lookup(self):
        _, session, _ = run_producer_consumer(words=2)
        assert session.unit_signal("Channel", "HS_FULL").name == "Channel_HS_FULL"
        with pytest.raises(SimulationError):
            session.unit_signal("Channel", "MISSING")
        with pytest.raises(SimulationError):
            session.module_signal("ServerMod", "MISSING")
        with pytest.raises(SimulationError):
            session.software_executor("ServerMod")
        with pytest.raises(SimulationError):
            session.hardware_adapter("HostMod")

    def test_waveform_records_channel_activity(self):
        _, session, _ = run_producer_consumer(words=3)
        full_changes = session.waveform.history("Channel_HS_FULL")
        assert len(full_changes) >= 6, "FULL must toggle at least once per word"

    def test_monitor_integration(self):
        model = make_producer_consumer_model(words=3)
        session = CosimSession(model)
        monitor = session.add_monitor(
            Monitor("data_in_range",
                    lambda sim: sim.peek("Channel_HS_BUF") < 100,
                    message="buffered word out of range")
        )
        result = session.run_until_software_done(max_time=200_000)
        assert monitor.checks > 0
        assert result.all_monitors_ok

    def test_run_to_idle_policy_needs_fewer_activations(self):
        # The policies only differ when software activations are expensive
        # relative to the hardware clock (the back-annotated situation).
        _, _, one_shot = run_producer_consumer(words=4, sw_activation_period=1100)
        _, _, batched = run_producer_consumer(words=4, sw_activation_period=1100,
                                              activation_policy=RunToIdle())
        assert batched.sw_activations["HostMod"] < one_shot.sw_activations["HostMod"]
        # Functional outcome identical.
        assert batched.trace.count(service="HostPut") == one_shot.trace.count(
            service="HostPut")

    def test_validation_runs_at_construction(self):
        model = make_producer_consumer_model()
        model.bindings.clear()
        from repro.utils.errors import ValidationError
        with pytest.raises(ValidationError):
            CosimSession(model)

    def test_validation_can_use_view_library(self):
        model = make_producer_consumer_model()
        library = build_view_library([model.comm_unit("Channel")])
        session = CosimSession(model, library=library)
        result = session.run_until_software_done(max_time=200_000)
        assert result.sw_finished["HostMod"]

    def test_result_summary_fields(self):
        _, _, result = run_producer_consumer(words=2)
        summary = result.summary()
        assert summary["system"] == "ProducerConsumer"
        assert summary["service_calls"] == len(result.trace)
        assert summary["monitors_ok"] is True
        assert result.statistics["process_runs"] > 0

    def test_slower_clock_still_functionally_correct(self):
        _, session, result = run_producer_consumer(words=3, clock_period=500)
        server = session.hardware_adapter("ServerMod").process_variables("SERVER")
        assert server["RECEIVED"] == 3
        assert result.end_time > 0

    def test_software_slower_than_hardware_still_correct(self):
        _, session, _ = run_producer_consumer(words=3, clock_period=100,
                                              sw_activation_period=1700)
        server = session.hardware_adapter("ServerMod").process_variables("SERVER")
        assert server["RECEIVED"] == 3

    def test_build_is_idempotent(self):
        model = make_producer_consumer_model(words=2)
        session = CosimSession(model)
        session.build()
        session.build()
        result = session.run_until_software_done(max_time=200_000)
        assert result.sw_finished["HostMod"]
