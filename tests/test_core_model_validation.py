"""Unit tests of the system model and whole-model validation."""

import pytest

from repro.comm import build_view_library, handshake_channel
from repro.core import Binding, SystemModel
from repro.core.views import MultiViewLibrary
from repro.cosim import CosimSession
from repro.cosyn import CosynthesisFlow
from repro.lint import lint_model
from repro.platforms import get_platform
from repro.sweep.jobs import _lint_preflight
from repro.testkit.models import generate_system
from repro.utils.errors import ModelError, ValidationError

from tests.conftest import (
    make_host_module,
    make_producer_consumer_model,
    make_server_module,
)


class TestSystemModel:
    def test_duplicate_module_names_rejected(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        with pytest.raises(ModelError):
            model.add_software_module(make_host_module())

    def test_module_and_unit_namespaces_are_shared(self):
        model = SystemModel("Sys")
        model.add_comm_unit(handshake_channel("Shared"))
        with pytest.raises(ModelError):
            model.add_software_module(make_host_module(name="Shared"))

    def test_wrong_module_kind_rejected(self):
        model = SystemModel("Sys")
        with pytest.raises(ModelError):
            model.add_software_module(make_server_module())
        with pytest.raises(ModelError):
            model.add_hardware_module(make_host_module())

    def test_bind_validates_names(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        model.add_comm_unit(handshake_channel("Channel", put_name="HostPut"))
        with pytest.raises(ModelError):
            model.bind("NoModule", "HostPut", "Channel")
        with pytest.raises(ModelError):
            model.bind("HostMod", "HostPut", "NoUnit")
        with pytest.raises(ModelError):
            model.bind("HostMod", "NoService", "Channel")

    def test_double_binding_rejected(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        model.add_comm_unit(handshake_channel("Channel", put_name="HostPut"))
        model.bind("HostMod", "HostPut", "Channel")
        with pytest.raises(ModelError):
            model.bind("HostMod", "HostPut", "Channel")

    def test_bind_interface_binds_all_services(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        model.add_hardware_module(make_server_module())
        model.add_comm_unit(
            handshake_channel("Channel", put_name="HostPut", get_name="ServerGet",
                              put_interface="HostIf", get_interface="ServerIf")
        )
        bindings = model.bind_interface("HostMod", "Channel", "HostIf")
        assert len(bindings) == 1
        assert model.unit_for("HostMod", "HostPut").name == "Channel"

    def test_unit_for_unbound_service_raises(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        with pytest.raises(ModelError):
            model.unit_for("HostMod", "HostPut")

    def test_queries(self, producer_consumer_model):
        model = producer_consumer_model
        assert [m.name for m in model.software_modules()] == ["HostMod"]
        assert [m.name for m in model.hardware_modules()] == ["ServerMod"]
        assert model.services_required() == ["HostPut", "ServerGet"]
        assert model.module("HostMod").name == "HostMod"
        assert model.comm_unit("Channel").name == "Channel"
        with pytest.raises(ModelError):
            model.module("Nope")
        with pytest.raises(ModelError):
            model.comm_unit("Nope")

    def test_topology_summary(self, producer_consumer_model):
        topology = producer_consumer_model.topology()
        assert topology["software_modules"] == ["HostMod"]
        assert topology["hardware_modules"] == ["ServerMod"]
        assert topology["comm_units"] == ["Channel"]
        assert len(topology["bindings"]) == 2
        kinds = {edge["module"]: edge["module_kind"] for edge in topology["bindings"]}
        assert kinds == {"HostMod": "software", "ServerMod": "hardware"}


def structural(model, **kwargs):
    """The structural lint stage: what validation reads before a flow."""
    return lint_model(model, structural_only=True, **kwargs)


def with_unused_binding():
    """Producer/consumer plus a binding HostMod never calls: warnings only."""
    model = make_producer_consumer_model()
    model.bindings.append(Binding("HostMod", "ServerGet", "Channel"))
    return model


class TestValidation:
    def test_valid_model_passes(self, producer_consumer_model):
        assert structural(producer_consumer_model).diagnostics == []

    def test_unbound_service_detected(self):
        model = SystemModel("Sys")
        model.add_software_module(make_host_module())
        (finding,) = structural(model).diagnostics
        assert (finding.rule, finding.severity, finding.path) == (
            "IF001", "error", "module/HostMod")
        assert finding.data == {"service": "HostPut"}

    def test_binding_to_never_called_service_detected(self):
        (finding,) = structural(with_unused_binding()).diagnostics
        assert (finding.rule, finding.severity, finding.path) == (
            "IF002", "warning", "binding/HostMod.ServerGet")

    def test_view_library_gaps_detected(self, producer_consumer_model):
        report = structural(producer_consumer_model, library=MultiViewLibrary())
        assert [(d.rule, d.path) for d in report.diagnostics] == [
            ("VIEW001", "service/HostPut"), ("VIEW001", "service/ServerGet")]
        assert "SW simulation view" in report.diagnostics[0].message
        assert "HW view" in report.diagnostics[1].message

    def test_view_library_with_all_views_passes(self, producer_consumer_model):
        library = build_view_library([producer_consumer_model.comm_unit("Channel")])
        assert structural(producer_consumer_model, library=library).diagnostics == []

    def test_platform_views_checked_when_requested(self, producer_consumer_model):
        library = build_view_library([producer_consumer_model.comm_unit("Channel")])
        report = structural(producer_consumer_model, library=library,
                            platforms=["pc_at_fpga"])
        (finding,) = report.diagnostics
        assert (finding.rule, finding.path) == ("VIEW001", "service/HostPut")
        assert "SW synthesis view" in finding.message

    def test_library_must_be_a_multiview_library(self, producer_consumer_model):
        (finding,) = structural(producer_consumer_model, library={}).diagnostics
        assert (finding.rule, finding.path) == ("VIEW002", "library")


class TestRefusal:
    """Errors refuse a session or a flow; warnings never do."""

    def test_warnings_pass_preflight_and_session(self):
        model = with_unused_binding()
        summary = _lint_preflight(model, no_lint=False)
        assert (summary["errors"], summary["warnings"]) == (0, 2)
        assert summary["rules"] == ["IF002", "IF007"]
        session = CosimSession(model)
        result = session.run_until_software_done(max_time=500_000)
        assert result.sw_finished["HostMod"] is True
        server = session.hardware_adapter("ServerMod").process_variables("SERVER")
        assert server["RECEIVED"] == 5

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    def test_unbound_service_refuses_session_and_preflight(self, tier):
        software = SystemModel("Sys")
        software.add_software_module(make_host_module())
        # A hardware caller too: no tier ever binds a service it cannot
        # resolve, because the session is refused before it is built.
        hardware = generate_system(0).build_model()
        hardware.bindings = [binding for binding in hardware.bindings
                             if (binding.module, binding.service)
                             != ("Prod0", "Put0")]
        for model, path in ((software, "module/HostMod"),
                            (hardware, "module/Prod0")):
            for refuse in (lambda: CosimSession(model, tier=tier),
                           lambda: _lint_preflight(model, no_lint=False)):
                with pytest.raises(ValidationError) as excinfo:
                    refuse()
                (finding,) = excinfo.value.diagnostics
                assert (finding.rule, finding.path) == ("IF001", path)
                assert str(excinfo.value) == ("model validation failed: "
                                              + finding.format())

    def test_missing_platform_view_refuses_flow(self, producer_consumer_model):
        library = build_view_library([producer_consumer_model.comm_unit("Channel")])
        with pytest.raises(ValidationError) as excinfo:
            CosynthesisFlow(producer_consumer_model, get_platform("pc_at_fpga"),
                            library=library)
        assert [(d.rule, d.path) for d in excinfo.value.diagnostics] == [
            ("VIEW001", "service/HostPut")]
        assert "VIEW001" in str(excinfo.value)

    def test_warnings_do_not_refuse_a_flow(self):
        result = CosynthesisFlow(with_unused_binding(),
                                 get_platform("pc_at_fpga")).run()
        assert "HostMod" in result.software
