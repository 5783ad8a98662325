"""Tests of software synthesis, hardware synthesis, the flow driver and coherence."""

import pytest

from repro.analysis import back_annotate
from repro.apps.motor_controller import (
    MotorControllerConfig,
    build_session,
    build_system,
    build_view_library_for,
    observables,
)
from repro.cosyn import CosynthesisFlow, TargetArchitecture, check_coherence
from repro.cosyn.hw_synthesis import synthesize_hardware, synthesize_process
from repro.cosyn.sw_synthesis import synthesize_software
from repro.platforms import UnixIpcPlatform, get_platform
from repro.utils.errors import SynthesisError

from tests.conftest import make_producer_consumer_model


class TestTargetArchitecture:
    def test_software_only_platform_rejects_hardware_modules(self):
        model = make_producer_consumer_model()
        with pytest.raises(SynthesisError, match="no programmable hardware"):
            TargetArchitecture(model, UnixIpcPlatform())

    def test_address_map_covers_sw_visible_ports(self):
        model = make_producer_consumer_model()
        target = TargetArchitecture(model, get_platform("pc_at_fpga"))
        address_map = target.address_map()
        assert "HS_DATAIN" in address_map
        assert min(address_map.values()) == 0x300
        assert len(set(address_map.values())) == len(address_map)

    def test_flow_walks_software_units_once_per_target(self, monkeypatch):
        calls = []
        walk = TargetArchitecture.units_used_by_software

        def counted(target):
            calls.append(target)
            return walk(target)

        monkeypatch.setattr(TargetArchitecture, "units_used_by_software",
                            counted)
        model, _ = build_system(MotorControllerConfig())
        flow = CosynthesisFlow(model, get_platform("pc_at_fpga"))
        # Each software module asks for the port syntax and the address
        # map, and the flow for the address map once more: one walk.
        result = flow.run()
        assert result.software
        assert calls == [flow.target]
        assert result.address_map == flow.target.address_map()
        assert calls == [flow.target]

    def test_hw_clock_defaults_to_device_recommendation(self):
        model = make_producer_consumer_model()
        platform = get_platform("pc_at_fpga")
        target = TargetArchitecture(model, platform)
        assert target.hw_clock_ns() == platform.device.recommended_clock_ns
        custom = TargetArchitecture(model, platform, hw_clock_ns=250)
        assert custom.hw_clock_ns() == 250


class TestSoftwareSynthesis:
    def test_program_and_metrics(self, pc_at_cosynthesis):
        _, model, platform, _, result = pc_at_cosynthesis
        sw = result.software_result("DistributionMod")
        assert sw.platform_name == "pc_at_fpga"
        assert "int DISTRIBUTION(void)" in sw.program_text
        assert "outport(0x3" in sw.program_text
        assert "cliOutput" not in sw.program_text, "synthesis view must not use the CLI"
        assert set(sw.service_views) == {"SetupControl", "MotorPosition", "ReadMotorState"}
        assert sw.code_size_bytes > 200
        assert sw.worst_activation_ns > 0
        assert "software synthesis of DistributionMod" in sw.report()

    def test_wrong_module_kind_rejected(self):
        model = make_producer_consumer_model()
        target = TargetArchitecture(model, get_platform("pc_at_fpga"))
        hardware_module = model.module("ServerMod")
        with pytest.raises(SynthesisError):
            synthesize_software(target, hardware_module)

    def test_ipc_platform_views_use_system_calls(self):
        model = make_producer_consumer_model()
        # Replace the hardware server by a software one so the IPC platform applies.
        from tests.conftest import make_host_module
        from repro.core import SystemModel, SoftwareModule
        from repro.comm import handshake_channel
        from repro.ir import FsmBuilder, INT

        sw_model = SystemModel("AllSoftware")
        sw_model.add_comm_unit(handshake_channel("Channel", put_name="HostPut",
                                                 get_name="ServerGet"))
        sw_model.add_software_module(make_host_module())
        build = FsmBuilder("READER")
        build.variable("RX", INT, 0)
        with build.state("Fetch") as state:
            state.call("ServerGet", store="RX", then="Fetch")
        sw_model.add_software_module(SoftwareModule("ReaderMod", build.build(initial="Fetch")))
        sw_model.bind("HostMod", "HostPut", "Channel")
        sw_model.bind("ReaderMod", "ServerGet", "Channel")

        target = TargetArchitecture(sw_model, UnixIpcPlatform())
        result = synthesize_software(target, sw_model.module("HostMod"))
        assert "ipc_send" in result.program_text


class TestHardwareSynthesis:
    def test_speed_control_synthesis(self, pc_at_cosynthesis):
        _, _, platform, _, result = pc_at_cosynthesis
        hw = result.hardware_result("SpeedControlMod")
        assert set(hw.processes) == {"POSITION", "CORE", "TIMER"}
        assert hw.fits_device
        assert 0 < hw.utilisation() < 1
        assert hw.estimate.clbs_total > 20
        assert hw.max_frequency_hz > 5e6
        assert hw.achievable_clock_ns >= hw.estimate.critical_path_ns
        assert "entity SpeedControlMod is" in hw.behavioural_vhdl
        assert "procedure ReadMotorPosition" in hw.behavioural_vhdl
        assert "hardware synthesis of SpeedControlMod" in hw.report()

    def test_rtl_emitted_per_process(self, pc_at_cosynthesis):
        _, _, _, _, result = pc_at_cosynthesis
        hw = result.hardware_result("SpeedControlMod")
        for process in hw.processes.values():
            assert "architecture rtl of" in process.rtl_text
            assert process.estimate.clbs_total > 0

    def test_platform_without_device_rejected(self):
        config = MotorControllerConfig()
        model, _ = build_system(config)
        target = TargetArchitecture.__new__(TargetArchitecture)
        # Build a target with a device-less platform by bypassing the HW check.
        platform = UnixIpcPlatform()
        target.model = model
        target.platform = platform
        target._hw_clock_ns = None
        target.address_base = None
        with pytest.raises(SynthesisError, match="no FPGA device"):
            synthesize_hardware(target, model.module("SpeedControlMod"))

    def test_synthesize_process_standalone(self):
        from repro.apps.motor_controller import build_speed_control
        module = build_speed_control(MotorControllerConfig())
        process = synthesize_process(module.process("CORE"))
        assert process.fsmd.state_count >= len(module.process("CORE").states)
        assert process.estimate.clbs_total > 0


class TestFlowAndCoherence:
    def test_flow_produces_complete_result(self, pc_at_cosynthesis):
        _, model, platform, library, result = pc_at_cosynthesis
        assert result.ok, result.problems
        assert set(result.software) == {"DistributionMod"}
        assert set(result.hardware) == {"SpeedControlMod"}
        assert result.total_clbs() > 0
        assert result.system_clock_ns() >= 1
        assert result.software_activation_ns() > 0
        assert len(result.address_map) == len(model.comm_unit("SwHwUnit").ports)
        report = result.report()
        assert "communication binding" in report
        assert "all co-synthesis constraints satisfied" in report

    def test_bus_window_overflow_is_reported_not_raised(self):
        # Regression (surfaced by the conformance kit): a model whose
        # SW-visible ports exceed the ISA window used to crash mid-synthesis
        # inside assign_addresses, making the flow's own window check
        # unreachable.  The flow must complete and report the overflow.
        from repro.comm import handshake_channel
        from repro.core import SystemModel
        from tests.conftest import make_host_module

        model = SystemModel("WideSystem")
        for index in range(5):  # 5 handshake units x 5 ports = 25 > 16 window
            model.add_comm_unit(handshake_channel(
                f"Wide{index}", put_name=f"Put{index}", get_name=f"Get{index}",
                prefix=f"W{index}"))
            model.add_software_module(
                make_host_module(name=f"Host{index}", service=f"Put{index}"))
            model.bind(f"Host{index}", f"Put{index}", f"Wide{index}")
        result = CosynthesisFlow(model, get_platform("pc_at_fpga"),
                                 validate=False).run()
        assert not result.ok
        assert any("bus window" in problem for problem in result.problems)
        assert len(result.address_map) == 25
        assert len(result.software) == 5

    def test_flow_requires_platform_instance(self):
        model, _ = build_system(MotorControllerConfig())
        with pytest.raises(SynthesisError):
            CosynthesisFlow(model, "pc_at_fpga")

    def test_missing_platform_views_fail_validation(self):
        config = MotorControllerConfig()
        model, _ = build_system(config)
        library = build_view_library_for({}, config)  # no SW synthesis views
        from repro.utils.errors import ValidationError
        with pytest.raises(ValidationError):
            CosynthesisFlow(model, get_platform("pc_at_fpga"), library=library)

    def test_back_annotation_parameters(self, pc_at_cosynthesis):
        _, _, _, _, result = pc_at_cosynthesis
        annotation = back_annotate(result)
        params = annotation.session_parameters()
        assert params["clock_period"] == result.system_clock_ns()
        assert params["sw_activation_period"] >= params["clock_period"]
        assert annotation.slowdown_versus(100) == result.system_clock_ns() / 100
        assert "SpeedControlMod" in annotation.hardware_detail
        assert "DistributionMod" in annotation.software_detail

    def test_coherence_between_cosimulation_and_synthesis(self, pc_at_cosynthesis):
        config, _, _, _, result = pc_at_cosynthesis

        def factory(clock_period, sw_activation_period):
            return build_session(MotorControllerConfig(), clock_period=clock_period,
                                 sw_activation_period=sw_activation_period)

        report = check_coherence(factory, observables, result,
                                 run_kwargs={"max_time": 20_000_000})
        assert report.coherent, report.differences
        assert report.functional["motor_position"] == MotorControllerConfig().final_position
        assert "COHERENT" in report.report()
        table = report.as_table()
        assert "motor_position" in table


class TestCosynthesisResultSerialization:
    def test_as_dict_summarises_the_run(self, pc_at_cosynthesis):
        _, model, platform, _, result = pc_at_cosynthesis
        data = result.as_dict()
        assert data["system"] == model.name
        assert data["platform"] == platform.name
        assert data["ok"] == result.ok
        assert data["system_clock_ns"] == result.system_clock_ns()
        assert data["total_clbs"] == result.total_clbs()
        assert set(data["software"]) == set(result.software)
        assert set(data["hardware"]) == set(result.hardware)
        sw = data["software"]["DistributionMod"]
        assert sw["metrics"]["code_size_bytes"] > 0
        assert "program_text" not in sw
        hw = data["hardware"]["SpeedControlMod"]
        assert hw["estimate"]["clbs_total"] == \
            result.hardware["SpeedControlMod"].estimate.clbs_total
        assert hw["fits_device"] is True

    def test_as_dict_include_text_carries_the_sources(self, pc_at_cosynthesis):
        *_, result = pc_at_cosynthesis
        data = result.as_dict(include_text=True)
        assert "void" in data["software"]["DistributionMod"]["program_text"]
        assert "entity" in data["hardware"]["SpeedControlMod"]["behavioural_vhdl"].lower()

    def test_to_json_is_deterministic_and_round_trips(self, pc_at_cosynthesis):
        import json

        *_, result = pc_at_cosynthesis
        text = result.to_json()
        assert text == result.to_json()
        parsed = json.loads(text)
        assert parsed["system"] == result.target.model.name

    def test_to_json_matches_fresh_identical_run(self):
        model, _ = build_system()
        platform = get_platform("pc_at_fpga")
        first = CosynthesisFlow(model, platform).run().to_json()
        second = CosynthesisFlow(build_system()[0], platform).run().to_json()
        assert first == second
