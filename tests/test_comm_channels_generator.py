"""Unit tests of channel factories and the automatic view generation."""

import pytest

from repro.comm import (
    build_view_library,
    fifo_channel,
    generate_service_views,
    handshake_channel,
    shared_register_channel,
)
from repro.core.views import ViewKind
from repro.platforms import get_platform
from repro.utils.errors import ViewError

from tests.conftest import unit_port_findings


class TestChannelFactories:
    def test_handshake_channel_is_consistent(self):
        unit = handshake_channel("Chan", put_name="P", get_name="G")
        assert unit_port_findings(unit) == []
        assert set(unit.services) == {"P", "G"}
        assert len(unit.controllers) == 1

    def test_fifo_channel_depth_and_consistency(self):
        unit = fifo_channel("Fifo", depth=3)
        assert unit_port_findings(unit) == []
        assert "depth 3" in unit.controller.description

    def test_shared_register_channel_has_no_controller(self):
        unit = shared_register_channel("Reg")
        assert unit.controllers == ()
        assert unit_port_findings(unit) == []

    def test_prefix_normalisation(self):
        unit = handshake_channel("Chan", prefix="ABC")
        assert any(name.startswith("ABC_") for name in unit.ports)


class TestViewGeneration:
    def test_generate_views_for_one_service(self):
        unit = handshake_channel("Chan", put_name="P", get_name="G")
        platform = get_platform("pc_at_fpga")
        views = generate_service_views(
            unit, "P", platforms={"pc_at_fpga": platform.port_syntax(list(unit.ports))}
        )
        kinds = {view.kind for view in views}
        assert kinds == {ViewKind.HW, ViewKind.SW_SIM, ViewKind.SW_SYNTH}
        hw = next(view for view in views if view.kind is ViewKind.HW)
        sim = next(view for view in views if view.kind is ViewKind.SW_SIM)
        synth = next(view for view in views if view.kind is ViewKind.SW_SYNTH)
        assert hw.language == "vhdl" and "procedure P(" in hw.text
        assert "cliOutput" in sim.text
        assert "outport(0x3" in synth.text
        assert synth.platform == "pc_at_fpga"
        assert synth.metadata["read_cycles"] > 0

    def test_build_view_library_covers_all_services(self):
        units = [handshake_channel("Chan", put_name="P", get_name="G"),
                 shared_register_channel("Reg", put_name="W", get_name="R")]
        library = build_view_library(units)
        assert sorted(library.services()) == ["G", "P", "R", "W"]
        # Two views (HW + SW_SIM) per service when no platforms are given.
        assert len(library) == 8
        assert all(library.has(service, kind) for service in "PGRW"
                   for kind in (ViewKind.HW, ViewKind.SW_SIM))

    def test_duplicate_service_name_across_units_rejected(self):
        units = [handshake_channel("A", put_name="P", get_name="G1"),
                 handshake_channel("B", put_name="P", get_name="G2")]
        with pytest.raises(ViewError, match="more than one unit"):
            build_view_library(units)

    def test_library_extension_keeps_existing_views(self):
        first = build_view_library([handshake_channel("A", put_name="P", get_name="G")])
        combined = build_view_library(
            [shared_register_channel("B", put_name="W", get_name="R")], library=first
        )
        assert combined is first
        assert sorted(combined.services()) == ["G", "P", "R", "W"]

    def test_views_per_platform(self):
        unit = handshake_channel("Chan", put_name="P", get_name="G")
        platforms = {
            "pc_at_fpga": get_platform("pc_at_fpga").port_syntax(list(unit.ports)),
            "microcoded": get_platform("microcoded").port_syntax(list(unit.ports)),
        }
        library = build_view_library([unit], platforms=platforms)
        assert library.platforms() == ["microcoded", "pc_at_fpga"]
        pc_view = library.get("P", ViewKind.SW_SYNTH, "pc_at_fpga")
        micro_view = library.get("P", ViewKind.SW_SYNTH, "microcoded")
        assert "outport" in pc_view.text
        assert "ucode_write" in micro_view.text
