"""Unit tests of FSM construction (direct classes and the fluent builder)."""

import pytest

from repro.ir import (
    Assign,
    Fsm,
    FsmBuilder,
    INT,
    PortWrite,
    ServiceCall,
    State,
    Transition,
    VarDecl,
    var,
)
from repro.utils.errors import ModelError


def small_fsm():
    build = FsmBuilder("SMALL")
    build.variable("COUNT", INT, 0)
    with build.state("Run") as state:
        state.do(Assign("COUNT", var("COUNT") + 1))
        state.go("Stop", when=var("COUNT").ge(3))
        state.stay()
    with build.state("Stop", done=True) as state:
        state.stay()
    return build.build(initial="Run")


class TestFsmClasses:
    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ModelError):
            Fsm("F", [State("A"), State("A")], initial="A")

    def test_initial_state_must_exist(self):
        with pytest.raises(ModelError):
            Fsm("F", [State("A")], initial="B")

    def test_done_state_must_exist(self):
        with pytest.raises(ModelError):
            Fsm("F", [State("A")], initial="A", done_states=["Z"])

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ModelError):
            Fsm("F", [State("A")], initial="A",
                variables=[VarDecl("x", INT), VarDecl("x", INT)])

    def test_result_var_must_be_declared(self):
        with pytest.raises(ModelError):
            Fsm("F", [State("A")], initial="A", result_var="missing")

    def test_vardecl_checks_init_against_type(self):
        with pytest.raises(ModelError):
            VarDecl("x", INT, 1_000_000)
        decl = VarDecl("x", INT)
        assert decl.init == 0

    def test_transition_requires_valid_target_name(self):
        with pytest.raises(ModelError):
            Transition("bad name")

    def test_service_call_validates_store(self):
        call = ServiceCall("DoIt", args=[1, var("x")], store="RESULT")
        assert call.store == "RESULT"
        assert len(call.args) == 2
        with pytest.raises(ModelError):
            ServiceCall("DoIt", store="bad name")

    def test_state_rejects_non_transition(self):
        with pytest.raises(ModelError):
            State("A", transitions=["not a transition"])

    def test_state_rejects_non_statement_action(self):
        with pytest.raises(ModelError):
            State("A", actions=["x = 1"])


class TestFsmQueries:
    def test_iter_states_preserves_order(self):
        fsm = small_fsm()
        assert [state.name for state in fsm.iter_states()] == ["Run", "Stop"]

    def test_state_lookup(self):
        fsm = small_fsm()
        assert fsm.state("Run").name == "Run"
        with pytest.raises(ModelError):
            fsm.state("Missing")

    def test_services_called_lists_distinct_names(self):
        build = FsmBuilder("CALLER")
        build.variable("X", INT, 0)
        with build.state("A") as state:
            state.call("First", then="B")
        with build.state("B") as state:
            state.call("Second", store="X", then="A")
        fsm = build.build(initial="A")
        assert fsm.services_called == ("First", "Second")

    def test_read_and_written_ports(self):
        from repro.ir import port
        build = FsmBuilder("IO")
        with build.state("A") as state:
            state.do(PortWrite("OUTP", 1))
            state.go("A", when=port("INP").eq(1))
        fsm = build.build(initial="A")
        assert fsm.ports_written == ("OUTP",)
        assert fsm.ports_read == ("INP",)


class TestBuilder:
    def test_duplicate_state_in_builder_rejected(self):
        build = FsmBuilder("F")
        with build.state("A") as state:
            state.stay()
        with pytest.raises(ModelError):
            with build.state("A"):
                pass

    def test_builder_records_done_states_and_result(self):
        build = FsmBuilder("SVC")
        build.variable("VALUE", INT, 0)
        build.returns("VALUE")
        with build.state("Work") as state:
            state.go("Done")
        with build.state("Done", done=True) as state:
            state.go("Work")
        fsm = build.build(initial="Work")
        assert fsm.done_states == frozenset({"Done"})
        assert fsm.result_var == "VALUE"

    def test_call_requires_target(self):
        build = FsmBuilder("F")
        with pytest.raises(ModelError):
            with build.state("A") as state:
                state.call("Service")

    def test_variable_requires_datatype(self):
        build = FsmBuilder("F")
        with pytest.raises(ModelError):
            build.variable("x", int)

    def test_ports_are_deduplicated(self):
        build = FsmBuilder("F")
        build.ports("A", "B", "A")
        with build.state("S") as state:
            state.stay()
        fsm = build.build(initial="S")
        assert fsm.ports == ("A", "B")

    def test_add_state_non_context_variant(self):
        build = FsmBuilder("F")
        build.add_state("Only", done=True)
        fsm = build.build(initial="Only")
        assert fsm.done_states == frozenset({"Only"})
