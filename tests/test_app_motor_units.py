"""Unit tests of the Adaptive Motor Controller building blocks."""

import pytest

from repro.apps.motor_controller import (
    CMD_PREFIX,
    MotorControllerConfig,
    MotorModel,
    STAT_PREFIX,
    build_distribution,
    build_motor_unit,
    build_speed_control,
    build_sw_hw_unit,
    build_system,
)
from repro.apps.motor_controller.comm_units import (
    DISTRIBUTION_INTERFACE,
    MOTOR_INTERFACE,
    SPEED_CONTROL_INTERFACE,
)
from repro.desim import Simulator, Timeout
from repro.lint import LintReport, lint_model
from repro.lint.dataflow import structural_pass
from repro.utils.errors import ModelError, SimulationError

from tests.conftest import unit_port_findings


def structural_findings(fsm):
    """FSM001–FSM005 findings on one behaviour."""
    report = LintReport()
    structural_pass(fsm, fsm.name, report)
    return report.diagnostics


class TestConfig:
    def test_segment_count(self):
        config = MotorControllerConfig(final_position=40, segment=10)
        assert config.segments == 4
        assert MotorControllerConfig(final_position=41, segment=10).segments == 5
        assert config.total_travel == 40

    def test_validation(self):
        with pytest.raises(ModelError):
            MotorControllerConfig(final_position=0, start_position=0)
        with pytest.raises(ModelError):
            MotorControllerConfig(segment=0)
        with pytest.raises(ModelError):
            MotorControllerConfig(speed_limit=0)


class TestCommUnits:
    def test_sw_hw_unit_interfaces_match_the_paper(self):
        unit = build_sw_hw_unit()
        assert set(unit.interfaces) == {DISTRIBUTION_INTERFACE, SPEED_CONTROL_INTERFACE}
        distribution = {s.name for s in unit.interface_services(DISTRIBUTION_INTERFACE)}
        speed_control = {s.name for s in unit.interface_services(SPEED_CONTROL_INTERFACE)}
        assert distribution == {"SetupControl", "MotorPosition", "ReadMotorState"}
        assert speed_control == {"ReadMotorConstraints", "ReadMotorPosition",
                                 "ReturnMotorState"}
        assert unit_port_findings(unit) == []
        assert len(unit.controllers) == 2

    def test_sw_hw_unit_channels_have_expected_ports(self):
        unit = build_sw_hw_unit()
        assert f"{CMD_PREFIX}TAGBUF" in unit.ports
        assert f"{STAT_PREFIX}FULL" in unit.ports
        assert f"{STAT_PREFIX}TAGBUF" not in unit.ports, "status channel is untagged"

    def test_motor_unit_services(self):
        unit = build_motor_unit()
        assert set(unit.services) == {"SendMotorPulses", "ReadSampledData"}
        assert set(unit.interfaces) == {MOTOR_INTERFACE}
        assert unit_port_findings(unit) == []
        assert "MOT_PULSE" in unit.ports and "MOT_DIR" in unit.ports

    def test_all_service_fsms_are_structurally_clean(self):
        for unit in (build_sw_hw_unit(), build_motor_unit()):
            for service in unit.services.values():
                assert structural_findings(service.fsm) == [], service.name


class TestBehaviours:
    def test_distribution_fsm_matches_figure_6(self):
        config = MotorControllerConfig()
        module = build_distribution(config)
        names = list(module.fsm.states)
        for expected in ("Start", "SetupControlCall", "Step", "MotorPositionCall",
                         "Next", "ReadStateCall", "NextStep", "Finish"):
            assert expected in names
        assert module.fsm.initial == "Start"
        assert module.services_used() == ["SetupControl", "MotorPosition",
                                          "ReadMotorState"]
        assert structural_findings(module.fsm) == []

    def test_speed_control_units_match_figure_7(self):
        module = build_speed_control(MotorControllerConfig())
        assert set(module.processes) == {"POSITION", "CORE", "TIMER"}
        assert set(module.services_used()) == {
            "ReadMotorConstraints", "ReadMotorPosition", "ReturnMotorState",
            "ReadSampledData", "SendMotorPulses",
        }
        for fsm in module.behaviours():
            assert structural_findings(fsm) == [], fsm.name
        # Internal signals of Figure 7 exist.
        for signal in ("TARGETSIG", "NEWTARGET", "BUSY", "PULSECMD", "PULSEACK"):
            assert signal in module.internal_signals

    def test_system_model_validates(self):
        model, config = build_system()
        assert lint_model(model, structural_only=True).diagnostics == []
        topology = model.topology()
        assert topology["software_modules"] == ["DistributionMod"]
        assert topology["hardware_modules"] == ["SpeedControlMod"]
        assert sorted(topology["comm_units"]) == ["MotorUnit", "SwHwUnit"]
        assert len(topology["bindings"]) == 8


class TestMotorModel:
    def _attach(self, motor):
        sim = Simulator()
        pulse = sim.add_signal("pulse", init=0)
        direction = sim.add_signal("direction", init=1)
        sample = sim.add_signal("sample", init=0)
        motor.attach(sim, pulse, direction, sample)
        return sim, pulse, direction, sample

    def test_steps_follow_pulses_and_direction(self):
        motor = MotorModel()
        sim, pulse, direction, sample = self._attach(motor)

        def stim():
            for _ in range(3):
                sim.schedule(pulse, 1)
                yield Timeout(50)
                sim.schedule(pulse, 0)
                yield Timeout(50)
            sim.schedule(direction, 0)
            yield Timeout(10)
            sim.schedule(pulse, 1)
            yield Timeout(50)
            sim.schedule(pulse, 0)
            yield Timeout(50)

        sim.add_process("stim", stim)
        sim.run()
        assert motor.position == 2
        assert motor.steps_forward == 3 and motor.steps_backward == 1
        assert sample.value == motor.position
        assert motor.pulse_count == 4

    def test_minimum_pulse_period_drops_fast_pulses(self):
        motor = MotorModel(min_pulse_period_ns=100)
        sim, pulse, _, _ = self._attach(motor)

        def stim():
            for gap in (200, 30, 200):
                sim.schedule(pulse, 1)
                yield Timeout(10)
                sim.schedule(pulse, 0)
                yield Timeout(gap)

        sim.add_process("stim", stim)
        sim.run()
        assert motor.missed_pulses == 1
        assert motor.position == 2

    def test_double_attach_rejected(self):
        motor = MotorModel()
        self._attach(motor)
        with pytest.raises(SimulationError):
            self._attach(motor)

    def test_summary_and_periods(self):
        motor = MotorModel()
        sim, pulse, _, _ = self._attach(motor)

        def stim():
            for _ in range(2):
                sim.schedule(pulse, 1)
                yield Timeout(40)
                sim.schedule(pulse, 0)
                yield Timeout(60)

        sim.add_process("stim", stim)
        sim.run()
        assert motor.pulse_periods() == [100]
        summary = motor.summary()
        assert summary["pulses"] == 2 and summary["position"] == 2
