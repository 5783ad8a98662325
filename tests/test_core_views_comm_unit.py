"""Unit tests of communication units and the multi-view library."""

import pytest

from repro.comm import handshake_channel, make_get_service, make_handshake_controller
from repro.core.comm_unit import CommunicationController, CommunicationUnit
from repro.core.port import Port
from repro.core.views import MultiViewLibrary, View, ViewKind
from repro.ir import FsmBuilder
from repro.utils.errors import ModelError, ViewError

from tests.conftest import make_put_like_service, unit_port_findings


class TestCommunicationUnit:
    def test_duplicate_service_rejected(self, put_service):
        with pytest.raises(ModelError, match="duplicate service 'PUT'"):
            CommunicationUnit("Unit", services=[put_service, put_service])

    def test_duplicate_port_rejected(self):
        with pytest.raises(ModelError, match="duplicate port 'A'"):
            CommunicationUnit("Unit", ports=[Port("A"), Port("A")])

    def test_service_and_port_lookup(self, put_service):
        unit = CommunicationUnit("Unit", ports=[Port("DATAIN")], services=[put_service])
        assert unit.service("PUT") is put_service
        assert unit.port("DATAIN").name == "DATAIN"
        with pytest.raises(ModelError):
            unit.service("MISSING")
        with pytest.raises(ModelError):
            unit.port("MISSING")

    def test_interfaces_group_services(self):
        unit = handshake_channel("Chan", put_name="P1", get_name="G1",
                                 put_interface="Host", get_interface="Server")
        assert [s.name for s in unit.interface_services("Host")] == ["P1"]
        assert [s.name for s in unit.interface_services("Server")] == ["G1"]
        with pytest.raises(ModelError):
            unit.interface_services("Missing")

    def test_undeclared_ports_fire_if008(self, put_service):
        unit = CommunicationUnit("Unit", ports=[Port("DATAIN")], services=[put_service])
        ports = {d.data["port"] for d in unit_port_findings(unit)}
        assert ports == {"B_FULL", "PUTRDY"}

    def test_clean_channel_has_no_if008(self):
        assert unit_port_findings(handshake_channel("Chan")) == []

    def test_controller_validation(self):
        with pytest.raises(ModelError):
            CommunicationUnit("Unit", controllers=["not a controller"])
        with pytest.raises(ModelError):
            CommunicationController("Ctrl", fsm="not an fsm")

    def test_multiple_controllers(self):
        controllers = [make_handshake_controller("C1", "A_"),
                       make_handshake_controller("C2", "B_")]
        unit = CommunicationUnit("Unit", controllers=controllers)
        assert len(unit.controllers) == 2
        assert unit.controller is controllers[0]

    def test_unit_without_controller(self):
        unit = CommunicationUnit("Plain")
        assert unit.controller is None
        assert unit.controllers == ()


class TestViews:
    def _view(self, kind=ViewKind.HW, platform=None, service="PUT"):
        language = "vhdl" if kind is ViewKind.HW else "c"
        return View(service, kind, language, "-- text", platform=platform)

    def test_sw_synth_view_requires_platform(self):
        with pytest.raises(ViewError):
            View("PUT", ViewKind.SW_SYNTH, "c", "...")

    def test_platform_forbidden_for_other_kinds(self):
        with pytest.raises(ViewError):
            View("PUT", ViewKind.HW, "vhdl", "...", platform="pc")

    def test_language_validated(self):
        with pytest.raises(ViewError):
            View("PUT", ViewKind.HW, "verilog", "...")

    def test_library_add_and_get(self):
        library = MultiViewLibrary()
        hw = library.add(self._view(ViewKind.HW))
        sim = library.add(self._view(ViewKind.SW_SIM))
        synth = library.add(self._view(ViewKind.SW_SYNTH, platform="pc_at_fpga"))
        assert library.get("PUT", ViewKind.HW) is hw
        assert library.get("PUT", ViewKind.SW_SIM) is sim
        assert library.get("PUT", ViewKind.SW_SYNTH, "pc_at_fpga") is synth
        assert len(library) == 3

    def test_duplicate_view_rejected_unless_replace(self):
        library = MultiViewLibrary([self._view(ViewKind.HW)])
        with pytest.raises(ViewError):
            library.add(self._view(ViewKind.HW))
        library.add(self._view(ViewKind.HW), replace=True)
        assert len(library) == 1

    def test_missing_view_error_mentions_platform(self):
        library = MultiViewLibrary()
        with pytest.raises(ViewError, match="communication primitive"):
            library.get("PUT", ViewKind.SW_SYNTH, "vme_board")

    def test_has_reports_absent_views(self):
        library = MultiViewLibrary([self._view(ViewKind.HW)])
        assert library.has("PUT", ViewKind.HW)
        assert not library.has("PUT", ViewKind.SW_SIM)
        assert not library.has("PUT", ViewKind.SW_SYNTH, "pc_at_fpga")
        assert not library.has("GET", ViewKind.HW)

    def test_services_and_platforms_listing(self):
        library = MultiViewLibrary([
            self._view(ViewKind.HW, service="PUT"),
            self._view(ViewKind.SW_SYNTH, platform="pc_at_fpga", service="GET"),
        ])
        assert library.services() == ["GET", "PUT"]
        assert library.platforms() == ["pc_at_fpga"]
        assert len(library.views_of("PUT")) == 1

    def test_merge_libraries(self):
        first = MultiViewLibrary([self._view(ViewKind.HW, service="PUT")])
        second = MultiViewLibrary([self._view(ViewKind.HW, service="GET")])
        first.merge(second)
        assert len(first) == 2
