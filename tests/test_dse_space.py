"""Tests of the DSE partition space: candidates, movability, repartition."""

import pytest

from repro.core.module import HardwareModule, SoftwareModule
from repro.dse import Candidate, PartitionSpace, repartition
from repro.platforms import get_platform
from repro.testkit import generate_system
from repro.utils.errors import SynthesisError

from tests.conftest import make_producer_consumer_model

PC_AT = get_platform("pc_at_fpga")
UNIX = get_platform("unix_ipc")


class TestCandidate:
    def test_hw_modules_are_normalized_sorted(self):
        assert Candidate("pc_at_fpga", ("B", "A")).hw_modules == ("A", "B")
        assert Candidate("pc_at_fpga", {"B", "A"}) == Candidate("pc_at_fpga", ["A", "B"])

    def test_duplicate_hw_modules_collapse(self):
        # A repeated name must not double-count area in the cost model.
        assert Candidate("pc_at_fpga", ("A", "A")).hw_modules == ("A",)
        assert Candidate("pc_at_fpga", ("A", "A")) == Candidate("pc_at_fpga", ("A",))

    def test_key_and_label(self):
        candidate = Candidate("multiproc", ("M",))
        assert candidate.key() == ("multiproc", ("M",))
        assert candidate.label() == "multiproc:M"
        assert Candidate("unix_ipc").label() == "unix_ipc:all-sw"


class TestPartitionSpace:
    def test_both_fixture_modules_are_movable(self):
        space = PartitionSpace(make_producer_consumer_model())
        assert space.movable == ["HostMod", "ServerMod"]
        assert space.pinned_hw == []
        assert space.pinned_sw == []

    def test_multi_process_hardware_module_is_pinned(self):
        from repro.apps.motor_controller.system import build_system

        model, _config = build_system()
        space = PartitionSpace(model)
        assert space.movable == ["DistributionMod"]
        assert space.pinned_hw == ["SpeedControlMod"]

    def test_explicit_pins_freeze_modules(self):
        space = PartitionSpace(make_producer_consumer_model(),
                               pins={"HostMod": "hw", "ServerMod": "sw"})
        assert space.movable == []
        assert space.pinned_hw == ["HostMod"]
        assert space.pinned_sw == ["ServerMod"]

    def test_pin_validation(self):
        model = make_producer_consumer_model()
        with pytest.raises(SynthesisError, match="not in the model"):
            PartitionSpace(model, pins={"Nope": "sw"})
        with pytest.raises(SynthesisError, match="'sw' or 'hw'"):
            PartitionSpace(model, pins={"HostMod": "fpga"})

    def test_multi_process_module_cannot_be_pinned_to_software(self):
        from repro.apps.motor_controller.system import build_system

        model, _config = build_system()
        with pytest.raises(SynthesisError, match="cannot be pinned to software"):
            PartitionSpace(model, pins={"SpeedControlMod": "sw"})

    def test_placements_cover_all_subsets_on_hw_platform(self):
        space = PartitionSpace(make_producer_consumer_model())
        placements = list(space.placements(PC_AT))
        assert space.placement_count(PC_AT) == 4
        assert sorted(tuple(sorted(p)) for p in placements) == [
            (), ("HostMod",), ("HostMod", "ServerMod"), ("ServerMod",),
        ]

    def test_software_only_platform_admits_only_all_sw(self):
        space = PartitionSpace(make_producer_consumer_model())
        assert list(space.placements(UNIX)) == [frozenset()]
        assert space.placement_count(UNIX) == 1

    def test_software_only_platform_with_pinned_hw_admits_nothing(self):
        space = PartitionSpace(make_producer_consumer_model(),
                               pins={"ServerMod": "hw"})
        assert list(space.placements(UNIX)) == []
        assert space.placement_count(UNIX) == 0

    def test_pinned_hw_is_in_every_placement(self):
        space = PartitionSpace(make_producer_consumer_model(),
                               pins={"ServerMod": "hw"})
        for placement in space.placements(PC_AT):
            assert "ServerMod" in placement


class TestRepartition:
    def test_flips_module_kinds_and_preserves_bindings(self):
        model = make_producer_consumer_model()
        flipped = repartition(model, ["HostMod"])
        assert isinstance(flipped.module("HostMod"), HardwareModule)
        assert isinstance(flipped.module("ServerMod"), SoftwareModule)
        assert [(b.module, b.service, b.unit) for b in flipped.bindings] == \
            [(b.module, b.service, b.unit) for b in model.bindings]
        assert flipped.topology()["bindings"] != model.topology()["bindings"]

    def test_input_model_is_not_mutated(self):
        model = make_producer_consumer_model()
        repartition(model, ["HostMod", "ServerMod"])
        assert isinstance(model.module("HostMod"), SoftwareModule)
        assert isinstance(model.module("ServerMod"), HardwareModule)

    def test_identity_placement_reuses_module_objects(self):
        model = make_producer_consumer_model()
        same = repartition(model, ["ServerMod"])
        assert same.module("HostMod") is model.module("HostMod")
        assert same.module("ServerMod") is model.module("ServerMod")

    def test_unknown_module_raises(self):
        with pytest.raises(SynthesisError, match="unknown modules"):
            repartition(make_producer_consumer_model(), ["Nope"])

    def test_multi_process_module_cannot_move_to_software(self):
        from repro.apps.motor_controller.system import build_system

        model, _config = build_system()
        with pytest.raises(SynthesisError, match="cannot be placed in software"):
            repartition(model, [])

    def test_repartitioned_testkit_model_still_validates(self):
        from repro.lint import lint_model

        system = generate_system(0, networks=2)
        model = system.build_model()
        all_hw = repartition(model, list(model.modules))
        all_sw = repartition(model, [])
        assert lint_model(all_hw, structural_only=True).diagnostics == []
        assert lint_model(all_sw, structural_only=True).diagnostics == []
