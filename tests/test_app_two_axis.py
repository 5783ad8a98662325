"""Tests of the two-axis (2-D table) extension of the motor controller."""

import pytest

from repro.apps.motor_controller import MotorControllerConfig
from repro.apps.motor_controller.two_axis import (
    build_two_axis_session,
    build_two_axis_system,
    two_axis_observables,
)
from repro.lint import lint_model


class TestTwoAxisModel:
    def test_model_structure(self):
        model, configs = build_two_axis_system()
        assert sorted(model.modules) == [
            "DistributionModX", "DistributionModY",
            "SpeedControlModX", "SpeedControlModY",
        ]
        assert sorted(model.comm_units) == [
            "MotorUnitX", "MotorUnitY", "SwHwUnitX", "SwHwUnitY",
        ]
        assert lint_model(model, structural_only=True).diagnostics == []
        assert len(model.bindings) == 16

    def test_axis_services_are_disjoint(self):
        model, _ = build_two_axis_system()
        x_services = set(model.comm_unit("SwHwUnitX").services)
        y_services = set(model.comm_unit("SwHwUnitY").services)
        assert x_services.isdisjoint(y_services)
        assert "MotorPositionX" in x_services
        assert "MotorPositionY" in y_services

    def test_each_axis_binds_to_its_own_units(self):
        model, _ = build_two_axis_system()
        assert model.unit_for("DistributionModX", "MotorPositionX").name == "SwHwUnitX"
        assert model.unit_for("SpeedControlModY", "SendMotorPulsesY").name == "MotorUnitY"


class TestTwoAxisCosimulation:
    @pytest.fixture(scope="class")
    def run(self):
        config_x = MotorControllerConfig(final_position=30, segment=10, speed_limit=8)
        config_y = MotorControllerConfig(final_position=16, segment=8, speed_limit=4)
        session = build_two_axis_session(config_x, config_y)
        result = session.run_until_software_done(max_time=20_000_000)
        return config_x, config_y, session, result

    def test_both_axes_reach_their_targets(self, run):
        config_x, config_y, session, result = run
        outcome = two_axis_observables(session, result)
        assert outcome["X"]["position"] == config_x.final_position
        assert outcome["Y"]["position"] == config_y.final_position
        assert outcome["X"]["finished"] and outcome["Y"]["finished"]

    def test_pulse_counts_match_travel_per_axis(self, run):
        config_x, config_y, session, result = run
        outcome = two_axis_observables(session, result)
        assert outcome["X"]["pulses"] == config_x.total_travel
        assert outcome["Y"]["pulses"] == config_y.total_travel
        assert outcome["X"]["missed_pulses"] == 0
        assert outcome["Y"]["missed_pulses"] == 0

    def test_axes_do_not_interfere(self, run):
        config_x, config_y, _, result = run
        # Each Distribution module only ever talks to its own axis's services.
        for record in result.trace.completed(caller="DistributionModX"):
            assert record.service.endswith("X")
        for record in result.trace.completed(caller="DistributionModY"):
            assert record.service.endswith("Y")
        assert result.trace.count(caller="DistributionModX",
                                  service="MotorPositionX") == config_x.segments
        assert result.trace.count(caller="DistributionModY",
                                  service="MotorPositionY") == config_y.segments

    def test_segment_counts_per_axis(self, run):
        config_x, config_y, session, result = run
        outcome = two_axis_observables(session, result)
        assert outcome["X"]["segments"] == config_x.segments
        assert outcome["Y"]["segments"] == config_y.segments
