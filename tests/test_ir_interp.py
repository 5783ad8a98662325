"""Unit tests of IR interpretation (expressions, statements, FSM instances)."""

import pytest

from repro.ir import (
    Assign,
    FsmBuilder,
    FsmInstance,
    If,
    INT,
    PortWrite,
    evaluate,
    execute,
    port,
    var,
)
from repro.ir.expr import BinOp, UnOp
from repro.ir.interp import DictPortAccessor, NullPortAccessor
from repro.utils.errors import SimulationError


class TestEvaluate:
    def test_arithmetic(self):
        env = {"a": 7, "b": 3}
        assert evaluate(var("a") + var("b"), env) == 10
        assert evaluate(var("a") - var("b"), env) == 4
        assert evaluate(var("a") * var("b"), env) == 21
        assert evaluate(BinOp("div", var("a"), var("b")), env) == 2
        assert evaluate(BinOp("mod", var("a"), var("b")), env) == 1

    def test_division_truncates_toward_zero(self):
        assert evaluate(BinOp("div", -7, 2), {}) == -3
        assert evaluate(BinOp("mod", -7, 2), {}) == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(SimulationError):
            evaluate(BinOp("div", 1, 0), {})
        with pytest.raises(SimulationError):
            evaluate(BinOp("mod", 1, 0), {})

    def test_comparisons_return_ints(self):
        env = {"a": 5}
        assert evaluate(var("a").eq(5), env) == 1
        assert evaluate(var("a").ne(5), env) == 0
        assert evaluate(var("a").lt(6), env) == 1
        assert evaluate(var("a").ge(6), env) == 0

    def test_logic_and_unary(self):
        env = {"a": 0, "b": 2}
        assert evaluate(var("a").and_(var("b")), env) == 0
        assert evaluate(var("a").or_(var("b")), env) == 1
        assert evaluate(BinOp("xor", 1, 1), {}) == 0
        assert evaluate(UnOp("not", var("a")), env) == 1
        assert evaluate(UnOp("neg", var("b")), env) == -2
        assert evaluate(UnOp("abs", -9), {}) == 9

    def test_min_max(self):
        assert evaluate(BinOp("min", 3, 8), {}) == 3
        assert evaluate(BinOp("max", 3, 8), {}) == 8

    def test_string_equality_for_enum_values(self):
        assert evaluate(var("state").eq("INIT"), {"state": "INIT"}) == 1

    def test_undefined_variable_raises(self):
        with pytest.raises(SimulationError):
            evaluate(var("missing"), {})

    def test_port_read_uses_accessor(self):
        ports = DictPortAccessor({"DATA": 12})
        assert evaluate(port("DATA") + 1, {}, ports) == 13

    def test_port_read_without_accessor_raises(self):
        with pytest.raises(SimulationError):
            evaluate(port("DATA"), {}, NullPortAccessor())


class TestExecute:
    def test_assign_and_portwrite(self):
        env = {"x": 1}
        ports = DictPortAccessor()
        execute(Assign("x", var("x") + 4), env, ports)
        execute(PortWrite("OUTP", var("x") * 2), env, ports)
        assert env["x"] == 5
        assert ports.values["OUTP"] == 10
        assert ports.writes == [("OUTP", 10)]

    def test_if_executes_correct_branch(self):
        env = {"x": 1, "y": 0}
        execute(If(var("x").eq(1), [Assign("y", 10)], [Assign("y", 20)]), env)
        assert env["y"] == 10
        execute(If(var("x").eq(2), [Assign("y", 10)], [Assign("y", 20)]), env)
        assert env["y"] == 20


def counter_fsm(limit=3):
    build = FsmBuilder("COUNTER")
    build.variable("COUNT", INT, 0)
    with build.state("Run") as state:
        state.do(Assign("COUNT", var("COUNT") + 1))
        state.go("Stop", when=var("COUNT").ge(limit))
        state.stay()
    with build.state("Stop", done=True) as state:
        state.stay()
    return build.build(initial="Run")


class TestFsmInstance:
    def test_one_transition_per_step(self):
        instance = FsmInstance(counter_fsm(3))
        results = [instance.step() for _ in range(4)]
        assert [r.to_state for r in results] == ["Run", "Run", "Stop", "Stop"]
        assert results[2].done
        # COUNT is incremented once per step spent in Run, never in Stop.
        assert instance.env["COUNT"] == 3

    def test_run_to_done(self):
        instance = FsmInstance(counter_fsm(5))
        result = instance.run_to_done()
        assert result.done
        assert instance.steps == 5

    def test_run_to_done_raises_when_never_finishing(self):
        build = FsmBuilder("LOOP")
        with build.state("Spin") as state:
            state.stay()
        fsm = build.build(initial="Spin")
        instance = FsmInstance(fsm)
        with pytest.raises(SimulationError):
            instance.run_to_done(max_steps=10)

    def test_reset_restores_variables_and_state(self):
        instance = FsmInstance(counter_fsm(2))
        instance.run_to_done()
        steps, fired = instance.steps, instance.transitions_fired
        instance.reset()
        assert instance.current == "Run"
        assert instance.env["COUNT"] == 0
        # The work counters keep what was done before the reset.
        assert (instance.steps, instance.transitions_fired) == (steps, fired)
        assert steps > 0

    def test_reset_on_done_returns_to_initial(self):
        build = FsmBuilder("PULSE")
        with build.state("Fire") as state:
            state.go("Done")
        with build.state("Done", done=True) as state:
            state.go("Fire")
        fsm = build.build(initial="Fire")
        instance = FsmInstance(fsm, reset_on_done=True)
        result = instance.step()
        assert result.done
        assert instance.current == "Fire"

    def test_result_var_returned_on_done(self):
        build = FsmBuilder("GETTER")
        build.variable("VALUE", INT, 0)
        build.returns("VALUE")
        with build.state("Fetch") as state:
            state.go("Done", actions=[Assign("VALUE", 42)])
        with build.state("Done", done=True) as state:
            state.go("Fetch")
        instance = FsmInstance(build.build(initial="Fetch"))
        result = instance.step()
        assert result.done and result.result == 42

    def test_args_update_environment_each_step(self):
        build = FsmBuilder("ECHO")
        build.variable("INP", INT, 0)
        build.variable("OUTV", INT, 0)
        with build.state("Copy") as state:
            state.stay(actions=[Assign("OUTV", var("INP"))])
        instance = FsmInstance(build.build(initial="Copy"))
        instance.step({"INP": 9})
        assert instance.env["OUTV"] == 9
        instance.step({"INP": 11})
        assert instance.env["OUTV"] == 11

    def test_call_without_handler_raises(self):
        build = FsmBuilder("CALLER")
        with build.state("A") as state:
            state.call("Missing", then="A")
        instance = FsmInstance(build.build(initial="A"))
        with pytest.raises(SimulationError):
            instance.step()

    def test_call_handler_controls_transition(self):
        build = FsmBuilder("CALLER")
        build.variable("RESULT", INT, 0)
        with build.state("Calling") as state:
            state.call("Fetch", store="RESULT", then="Got")
        with build.state("Got", done=True) as state:
            state.stay()
        calls = []

        def handler(call, args):
            calls.append(call.service)
            return (len(calls) >= 3, 77)

        instance = FsmInstance(build.build(initial="Calling"), call_handler=handler)
        assert not instance.step().fired
        assert not instance.step().fired
        result = instance.step()
        assert result.fired and result.done
        assert instance.env["RESULT"] == 77

    def test_observer_sees_every_step(self):
        instance = FsmInstance(counter_fsm(2))
        steps = []
        instance.observer = steps.append
        last = instance.run_to_done()
        assert len(steps) == instance.steps
        assert steps[-1] is last and last.done

    def test_first_matching_transition_wins(self):
        build = FsmBuilder("PRIORITY")
        build.variable("X", INT, 5)
        with build.state("Decide") as state:
            state.go("High", when=var("X").ge(3))
            state.go("Low", when=var("X").ge(0))
        with build.state("High", done=True) as state:
            state.stay()
        with build.state("Low", done=True) as state:
            state.stay()
        instance = FsmInstance(build.build(initial="Decide"))
        assert instance.step().to_state == "High"
