"""Unit tests of the C back end (SW simulation and SW synthesis views)."""

import pytest

from repro.ir import FsmBuilder, Assign, If, INT, PortWrite, port, var
from repro.ir.expr import BinOp, UnOp
from repro.swc import (
    CliPortSyntax,
    IoPortSyntax,
    IpcSyntax,
    MicrocodeSyntax,
    emit_expr,
    emit_module_function,
    emit_program,
    emit_service_view,
    emit_stmt,
)
from repro.utils.errors import SynthesisError

from tests.conftest import make_host_module, make_put_like_service


class TestExpressionEmission:
    def test_operators(self):
        syntax = CliPortSyntax()
        assert emit_expr(var("a") + 1, syntax) == "(a + 1)"
        assert emit_expr(var("a").eq(2), syntax) == "(a == 2)"
        assert emit_expr(var("a").and_(var("b")), syntax) == "(a && b)"
        assert emit_expr(UnOp("not", var("a")), syntax) == "(!a)"
        assert emit_expr(UnOp("abs", var("a")), syntax) == "((a) < 0 ? -(a) : (a))"

    def test_min_max_emit_ternaries(self):
        text = emit_expr(BinOp("min", var("a"), var("b")), CliPortSyntax())
        assert "?" in text and "<" in text

    def test_port_read_uses_syntax(self):
        assert emit_expr(port("B_FULL"), CliPortSyntax()) == "cliGetPortValue(map(B_FULL))"
        io_syntax = IoPortSyntax({"B_FULL": 0x301})
        assert emit_expr(port("B_FULL"), io_syntax) == "inport(0x301)"

    def test_enum_prefix_applied_to_string_constants(self):
        from repro.ir.expr import Const
        assert emit_expr(Const("INIT"), CliPortSyntax(), enum_prefix="PUT_") == "PUT_INIT"

    def test_statement_emission(self):
        syntax = CliPortSyntax()
        assert emit_stmt(Assign("x", 1), syntax) == ["  x = 1;"]
        assert emit_stmt(PortWrite("DATAIN", var("x")), syntax) == [
            "  cliOutput(map(DATAIN), x);"
        ]
        lines = emit_stmt(If(var("x").eq(1), [Assign("y", 2)], [Assign("y", 3)]), syntax)
        assert lines[0] == "  if ((x == 1)) {"
        assert any("else" in line for line in lines)


class TestSyntaxes:
    def test_io_syntax_requires_address(self):
        syntax = IoPortSyntax({"DATAIN": 0x300})
        with pytest.raises(SynthesisError):
            syntax.read_expr("UNKNOWN")

    def test_io_syntax_prologue_lists_addresses(self):
        syntax = IoPortSyntax({"DATAIN": 0x300, "B_FULL": 0x301})
        prologue = "\n".join(syntax.prologue())
        assert "#define map_DATAIN 0x300" in prologue
        assert "#define map_B_FULL 0x301" in prologue

    def test_ipc_syntax(self):
        syntax = IpcSyntax({"DATAIN": "42"})
        assert syntax.read_expr("DATAIN") == "ipc_receive(42)"
        assert "ipc_send" in syntax.write_stmt("DATAIN", "5")
        assert syntax.read_cycles > 100

    def test_microcode_syntax(self):
        syntax = MicrocodeSyntax()
        assert syntax.read_expr("DATAIN") == "ucode_read(DATAIN_REG)"
        assert "ucode_write" in syntax.write_stmt("DATAIN", "1")


class TestServiceView:
    def test_simulation_view_shape(self, put_service):
        text = emit_service_view(put_service)
        assert "int PUT(unsigned int REQUEST)" in text
        assert "cliGetPortValue(map(B_FULL))" in text
        assert "cliOutput(map(DATAIN), REQUEST);" in text
        assert "switch (PUT_NEXTSTATE)" in text
        assert "return DONE;" in text
        assert "PUT_INIT, PUT_WAIT_B_FULL, PUT_DATA_RDY, PUT_IDLE" in text

    def test_synthesis_view_uses_physical_addresses(self, put_service):
        syntax = IoPortSyntax({"DATAIN": 0x300, "B_FULL": 0x301, "PUTRDY": 0x302})
        text = emit_service_view(put_service, syntax)
        assert "inport(0x301)" in text
        assert "outport(0x300, REQUEST);" in text
        assert "cliOutput" not in text

    def test_views_differ_only_in_port_accesses(self, put_service):
        sim_view = emit_service_view(put_service)
        synth_view = emit_service_view(
            put_service, IoPortSyntax({"DATAIN": 0x300, "B_FULL": 0x301, "PUTRDY": 0x302})
        )
        # Same control structure: identical number of case labels and states.
        assert sim_view.count("case ") == synth_view.count("case ")
        assert sim_view.count("NEXTSTATE =") == synth_view.count("NEXTSTATE =")

    def test_service_returning_value_gets_output_parameter(self):
        from repro.comm import make_get_service
        service = make_get_service("GET", "HS_")
        text = emit_service_view(service)
        assert "int GET(unsigned int *VALUE_out)" in text
        assert "*VALUE_out = VALUE;" in text

    def test_service_with_nested_call_rejected(self):
        build = FsmBuilder("NESTED")
        with build.state("A") as state:
            state.call("Other", then="B")
        with build.state("B", done=True) as state:
            state.stay()
        from repro.core.service import Service
        service = Service("NESTED", build.build(initial="A"))
        with pytest.raises(SynthesisError):
            emit_service_view(service)


class TestModuleFunction:
    def test_module_function_shape(self):
        module = make_host_module()
        text = emit_module_function(module)
        assert "int HOST(void)" in text
        assert "if (HostPut(VALUE)) { NextState = HOST_Advance; }" in text
        assert "switch (NextState)" in text

    def test_store_becomes_pointer_argument(self):
        from repro.core.module import SoftwareModule
        build = FsmBuilder("READER")
        build.variable("RX", INT, 0)
        with build.state("Fetch") as state:
            state.call("ServerGet", store="RX", then="Finish")
        with build.state("Finish", done=True) as state:
            state.stay()
        module = SoftwareModule("ReaderMod", build.build(initial="Fetch"))
        text = emit_module_function(module)
        assert "ServerGet(&RX)" in text

    def test_program_assembles_views_and_main(self, put_service):
        module = make_host_module(service="PUT")
        text = emit_program(module, [emit_service_view(put_service)],
                            platform_name="pc_at_fpga")
        assert "Target platform: pc_at_fpga" in text
        assert "int PUT(unsigned int REQUEST)" in text
        assert "int HOST(void)" in text
        assert "int main(void)" in text
        assert text.index("int PUT") < text.index("int HOST") < text.index("int main")
