"""Integration tests: the complete Adaptive Motor Controller in co-simulation."""

import pytest

from repro.apps.motor_controller import (
    MotorControllerConfig,
    RealTimeConstraints,
    build_session,
    build_system,
    build_view_library_for,
    observables,
)
from repro.core.views import ViewKind
from repro.lint import lint_model


class TestMotorControllerCosimulation:
    def test_motor_reaches_the_final_position(self, motor_cosim_result):
        config, session, result = motor_cosim_result
        assert session.motor.position == config.final_position
        assert session.motor.missed_pulses == 0
        assert result.sw_finished["DistributionMod"]

    def test_pulse_count_equals_travel_distance(self, motor_cosim_result):
        config, session, _ = motor_cosim_result
        assert session.motor.pulse_count == config.total_travel
        assert session.motor.steps_forward == config.total_travel
        assert session.motor.steps_backward == 0

    def test_segment_count_matches_configuration(self, motor_cosim_result):
        config, session, result = motor_cosim_result
        obs = observables(session, result)
        assert obs["segments_commanded"] == config.segments
        assert obs["position_commands"] == config.segments
        assert obs["state_reports"] == config.segments
        assert obs["constraints_sent"] == 1

    def test_real_time_constraints_met(self, motor_cosim_result):
        config, session, result = motor_cosim_result
        report = RealTimeConstraints(config).check(session, result)
        assert report["functional_ok"]
        assert report["pulse_ok"]
        assert report["response_ok"]
        assert report["ok"]
        table = RealTimeConstraints.as_table(report)
        assert "MET" in table

    def test_every_interface_service_was_exercised(self, motor_cosim_result):
        _, _, result = motor_cosim_result
        seen = set(result.trace.services_seen())
        assert {"SetupControl", "MotorPosition", "ReadMotorState",
                "ReadMotorConstraints", "ReadMotorPosition", "ReturnMotorState",
                "SendMotorPulses", "ReadSampledData"} <= seen

    def test_latency_statistics_are_consistent(self, motor_cosim_result):
        _, _, result = motor_cosim_result
        stats = result.trace.latency_summary()
        # Pulse emission through the HW/HW unit is much faster than the
        # software-visible handshake services.
        assert stats["SendMotorPulses"]["mean"] < stats["MotorPosition"]["mean"]
        assert (stats["ReadSampledData"]["mean"]
                <= stats["ReadMotorPosition"]["mean"])

    def test_command_channel_waveform_shows_handshakes(self, motor_cosim_result):
        config, session, _ = motor_cosim_result
        full_edges = session.waveform.count_pulses("SwHwUnit_CMD_FULL")
        # One FULL pulse per command word: constraints + one per segment.
        assert full_edges == 1 + config.segments

    def test_hardware_cycles_advance(self, motor_cosim_result):
        _, _, result = motor_cosim_result
        assert result.hw_cycles["SpeedControlMod"] > 100


class TestScenarioVariations:
    @pytest.mark.parametrize("final, segment", [(10, 10), (18, 5), (30, 7)])
    def test_various_travel_configurations(self, final, segment):
        config = MotorControllerConfig(final_position=final, segment=segment,
                                       speed_limit=8)
        session = build_session(config)
        session.run_until_software_done(max_time=20_000_000)
        assert session.motor.position == final
        assert session.motor.pulse_count == final

    def test_low_speed_limit_slows_the_pulse_train(self):
        fast = build_session(MotorControllerConfig(final_position=16, segment=8,
                                                   speed_limit=8, pulse_gap_base=6))
        fast.run_until_software_done(max_time=20_000_000)
        slow = build_session(MotorControllerConfig(final_position=16, segment=8,
                                                   speed_limit=1, pulse_gap_base=6))
        slow.run_until_software_done(max_time=20_000_000)
        assert fast.motor.position == slow.motor.position == 16
        assert min(slow.motor.pulse_periods()) > min(fast.motor.pulse_periods())

    def test_strict_motor_limit_causes_missed_pulses(self):
        # A motor that cannot keep up with the commanded pulse rate misses
        # steps — the discontinuous behaviour the controller must avoid, and
        # the reason the constraint check exists.
        config = MotorControllerConfig(final_position=12, segment=12, speed_limit=8,
                                       min_pulse_period_ns=5_000)
        session = build_session(config)
        result = session.run_until_software_done(max_time=3_000_000)
        report = RealTimeConstraints(config).check(session, result)
        assert session.motor.missed_pulses > 0
        assert not report["ok"]

    def test_start_position_offset(self):
        config = MotorControllerConfig(final_position=30, segment=10,
                                       start_position=20)
        session = build_session(config)
        session.run_until_software_done(max_time=10_000_000)
        assert session.motor.position == 30
        assert session.motor.pulse_count == 10


class TestViewLibraryForTheApplication:
    def test_all_views_generated_for_two_platforms(self):
        from repro.platforms import get_platform
        platforms = {name: get_platform(name) for name in ("pc_at_fpga", "microcoded")}
        library = build_view_library_for(platforms)
        services = library.services()
        assert "MotorPosition" in services and "SendMotorPulses" in services
        # SW/HW unit services have synthesis views for both platforms.
        for platform_name in platforms:
            assert library.has("MotorPosition", ViewKind.SW_SYNTH, platform_name)
        # The HW/HW motor interface is never expanded for software targets.
        assert not library.has("SendMotorPulses", ViewKind.SW_SYNTH, "pc_at_fpga")
        model, _ = build_system()
        report = lint_model(model, library=library, platforms=list(platforms))
        assert not [d for d in report.diagnostics if d.rule.startswith("VIEW")]
