"""Differential tests of the per-FSM code generator and the interpreter.

The co-simulation runs every FSM outside the fused step on the
tree-walking interpreter; :func:`repro.ir.compile.compile_fsm` programs
are no longer executed by it.  While the generator exists its programs
must stay observably indistinguishable from the interpreter:
byte-identical StepResult streams, environments, port-access sequences,
exceptions.  These tests pin that equivalence over the full testkit
generator scenario set (every module, controller and service FSM of the
generated systems) through a small program stepper, over random expression
trees, and end-to-end through the co-simulation backplane.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    Assign,
    FsmBuilder,
    FsmInstance,
    INT,
    Transition,
    evaluate,
    var,
)
from repro.ir import compile as ir_compile
from repro.ir.compile import CompileError, compile_expr_fn, compile_fsm
from repro.ir.expr import BinOp, Const, Expr, PortRef, UnOp, Var
from repro.ir.interp import DictPortAccessor
from repro.testkit.models import generate_system
from repro.testkit.oracles import check_cosim_conformance, cosim_fingerprint, run_cosim
from repro.utils.errors import ModelError, SimulationError
from tests.conftest import ProgramStepper


class RecordingAccessor(DictPortAccessor):
    """Dict accessor that also records the read sequence."""

    def __init__(self, values=None):
        super().__init__(values)
        self.reads = []

    def read(self, port_name):
        value = super().read(port_name)
        self.reads.append((port_name, value))
        return value


class ScriptedHandler:
    """Deterministic pseudo-random call handler; same seed, same script."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.log = []

    def __call__(self, call, arg_values):
        done = self.rng.random() < 0.4
        value = self.rng.randrange(100)
        self.log.append((call.service, tuple(arg_values), done, value))
        return done, value


def result_tuple(step_result):
    return (step_result.from_state, step_result.to_state, step_result.fired,
            step_result.done, step_result.result, step_result.called)


def assert_differential(fsm, steps=60, args=None, port_values=None, seed=0,
                        reset_on_done=False):
    """Step *fsm*'s program and the interpreter in lockstep; compare all."""
    ports = [RecordingAccessor(port_values), RecordingAccessor(port_values)]
    handlers = [ScriptedHandler(seed), ScriptedHandler(seed)]
    compiled = ProgramStepper(fsm, ports[0], handlers[0], reset_on_done)
    interpreted = FsmInstance(fsm, ports=ports[1], call_handler=handlers[1],
                              reset_on_done=reset_on_done)
    for index in range(steps):
        step_args = dict(args) if args else None
        left = compiled.step(step_args)
        right = interpreted.step(step_args)
        assert result_tuple(left) == result_tuple(right), (
            f"{fsm.name} step {index}: {left!r} != {right!r}"
        )
        assert compiled.env == interpreted.env, f"{fsm.name} step {index}"
        assert compiled.current == interpreted.current
    assert ports[0].writes == ports[1].writes
    assert ports[0].reads == ports[1].reads
    assert handlers[0].log == handlers[1].log
    assert compiled.transitions_fired == interpreted.transitions_fired


def generated_fsm_population(seed):
    """Every (fsm, args, reset_on_done) of one generated system model."""
    model = generate_system(seed).build_model()
    population = []
    for module in model.modules.values():
        for fsm in module.behaviours():
            population.append((fsm, None, False))
    for unit in model.comm_units.values():
        for controller in unit.controllers:
            population.append((controller.fsm, None, False))
        for service in unit.services.values():
            args = {name: 11 + 7 * index
                    for index, name in enumerate(service.param_names)}
            population.append((service.fsm, args, True))
    return population


class TestGeneratedScenarioParity:
    """Programs and interpreter agree over the full generator scenario set."""

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_system_fsms(self, seed):
        population = generated_fsm_population(seed)
        assert population
        for fsm, args, reset_on_done in population:
            assert_differential(fsm, steps=60, args=args, seed=seed,
                                reset_on_done=reset_on_done)

    @pytest.mark.parametrize("seed", (0, 3))
    def test_cosim_differential_oracle(self, seed):
        problems = check_cosim_conformance(generate_system(seed),
                                           tier="differential")
        assert problems == []

    def test_full_session_fingerprints_match_across_tiers(self):
        system = generate_system(5)
        fingerprints = {}
        for tier in ("fused", "interpreted"):
            session, result = run_cosim(system, "production", tier=tier)
            assert session.tier == tier
            fingerprints[tier] = cosim_fingerprint(session, result)
        assert fingerprints["fused"] == fingerprints["interpreted"]


_values = st.integers(min_value=-1000, max_value=1000)
_leaves = st.one_of(
    _values.map(Const),
    st.sampled_from(["a", "b", "c"]).map(Var),
    st.sampled_from(["PX", "PY"]).map(PortRef),
)
_SAFE_BIN_OPS = ["add", "sub", "mul", "eq", "ne", "lt", "le", "gt", "ge",
                 "and", "or", "xor", "min", "max"]


def _expressions():
    return st.recursive(
        _leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(_SAFE_BIN_OPS), children, children)
            .map(lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(["not", "neg", "abs"]), children)
            .map(lambda t: UnOp(*t)),
        ),
        max_leaves=16,
    )


class TestExpressionParity:
    @given(expr=_expressions(), a=_values, b=_values, c=_values)
    @settings(max_examples=150, deadline=None)
    def test_compiled_expression_matches_evaluate(self, expr, a, b, c):
        env = {"a": a, "b": b, "c": c}
        left_ports = RecordingAccessor({"PX": 5, "PY": -3})
        right_ports = RecordingAccessor({"PX": 5, "PY": -3})
        fn = compile_expr_fn(expr)
        assert fn(env, left_ports) == evaluate(expr, env, right_ports)
        # Eager evaluation everywhere: identical port-read sequences even
        # under and/or/xor (the interpreter never short-circuits).
        assert left_ports.reads == right_ports.reads

    def test_division_by_zero_raises_at_evaluation_time(self):
        for op in ("div", "mod"):
            expr = BinOp(op, 7, Const(0))  # constant subtree: must not fold
            fn = compile_expr_fn(expr)
            with pytest.raises(SimulationError):
                fn({}, None)
            with pytest.raises(SimulationError):
                evaluate(expr, {})

    def test_truncating_division_matches(self):
        for a in (-7, -1, 0, 1, 7):
            for b in (-3, -2, 2, 3):
                for op in ("div", "mod"):
                    expr = BinOp(op, Var("x"), Var("y"))
                    fn = compile_expr_fn(expr)
                    env = {"x": a, "y": b}
                    assert fn(env, None) == evaluate(expr, env)

    def test_undefined_variable_message_matches_interpreter(self):
        fn = compile_expr_fn(var("missing"))
        with pytest.raises(SimulationError, match="undefined variable 'missing'"):
            fn({}, None)

    def test_accessor_keyerror_propagates_unwrapped(self):
        # A KeyError escaping a user port accessor must propagate exactly as
        # it does through the interpreter — not be misreported as an
        # undefined variable (even if the port shares a read variable's name).
        class RawDictAccessor:
            def __init__(self, values):
                self.values = values

            def read(self, port_name):
                return self.values[port_name]

        expr = BinOp("add", var("P"), PortRef("P"))
        fn = compile_expr_fn(expr)
        env = {"P": 1}
        with pytest.raises(KeyError):
            fn(env, RawDictAccessor({}))
        with pytest.raises(KeyError):
            evaluate(expr, env, RawDictAccessor({}))


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


class TestCompiledTier:
    def test_program_never_fetched_by_instances(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("FsmInstance fetched a per-FSM program")

        monkeypatch.setattr(ir_compile, "compile_fsm", refuse)
        instance = FsmInstance(counter_fsm())
        assert instance.run_to_done().done

    def test_instance_takes_no_mode(self):
        with pytest.raises(TypeError, match="mode"):
            FsmInstance(counter_fsm(), mode="compiled")

    def test_unknown_node_refused_by_compiler_raised_by_interpreter(self):
        class Opaque(Expr):
            """An expression node the compile tier cannot translate."""

        build = FsmBuilder("OPAQUE")
        build.variable("X", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("X", Opaque()))
            state.stay()
        fsm = build.build(initial="Run")
        with pytest.raises(CompileError):
            compile_fsm(fsm)
        instance = FsmInstance(fsm)
        # The interpreter cannot evaluate it either: the error surfaces at
        # step time, on every step.
        for steps in (1, 2):
            with pytest.raises(SimulationError, match="cannot evaluate"):
                instance.step()
            assert instance.steps == steps

    def test_a_changed_behaviour_is_a_second_fsm(self):
        fsm = counter_fsm()
        with pytest.raises(TypeError):
            fsm.states["Late"] = fsm.state("Stop")
        # A behaviour with one more state is built as a second FSM; each
        # program and each instance follows the FSM it was made from.
        build = FsmBuilder("COUNTER")
        build.variable("COUNT", INT, 0)
        for state in fsm.iter_states():
            build.add_state(state.name, state.actions, state.transitions,
                            done=state.name in fsm.done_states)
        build.add_state("Late", transitions=[Transition("Late")])
        extended = build.build(initial=fsm.initial)
        instance = FsmInstance(extended)
        instance.current = "Late"
        assert instance.step().to_state == "Late"
        assert "Late" not in compile_fsm(fsm).states
        assert "Late" in compile_fsm(extended).states
        assert "Late" not in fsm.states
        original = FsmInstance(fsm)
        original.current = "Late"
        with pytest.raises(ModelError, match="unknown state 'Late'"):
            original.step()

    def test_reset_runs_exactly_once_during_init(self):
        calls = []

        class Counting(FsmInstance):
            def reset(self):
                calls.append(1)
                super().reset()

        Counting(counter_fsm())
        assert len(calls) == 1

    def test_service_call_parity_through_builder(self):
        build = FsmBuilder("CALLER")
        build.variable("RESULT", INT, 0)
        build.variable("SENT", INT, 0)
        with build.state("Calling") as state:
            state.call("Fetch", args=[var("SENT") + 2], store="RESULT",
                       then="Advance")
        with build.state("Advance") as state:
            state.go("Calling", actions=[Assign("SENT", var("SENT") + 1)])
        fsm = build.build(initial="Calling")
        assert_differential(fsm, steps=40, seed=7)


class TestCaptureRestore:
    def test_restored_instance_continues_identically(self):
        fsm = counter_fsm(50)
        source = FsmInstance(fsm)
        for _ in range(20):
            source.step()
        target = FsmInstance(fsm)
        target.restore_state(source.capture_state())
        assert target.steps == source.steps
        assert target.transitions_fired == source.transitions_fired
        for _ in range(10):
            assert result_tuple(source.step()) == result_tuple(target.step())

    def test_restore_accepts_older_tier_counters(self):
        source = FsmInstance(counter_fsm(50))
        for _ in range(5):
            source.step()
        state = source.capture_state()
        assert "compile_hits" not in state and "fallback" not in state
        # Checkpoints taken before the per-FSM tier was retired carry
        # per-instance tier counters; they restore and are dropped.
        state.update(compile_hits=5, fallback=0)
        target = FsmInstance(counter_fsm(50))
        target.restore_state(state)
        assert target.capture_state() == source.capture_state()


class TestSessionCounters:
    def test_summary_reports_tier_counters(self):
        # Per-FSM wiring: every step is interpreted.
        session, result = run_cosim(generate_system(2), "production",
                                    tier="interpreted")
        counters = result.summary()["fsm"]
        assert counters["steps"] > 0
        assert counters["transitions_fired"] > 0
        assert counters["interpreted"] == counters["steps"]
        assert counters["system_compile_hits"] == 0

    def test_summary_reports_fused_tier_counters(self):
        # Under the fused whole-system tier the controller and hardware
        # steps land on system_compile_hits; software executors and service
        # instances stay on the interpreter.
        system = generate_system(2)
        session, result = run_cosim(system, "production", tier="fused")
        summary = result.summary()
        counters = summary["fsm"]
        assert summary["tier"] == "fused"
        assert counters["system_compile_hits"] > 0
        assert counters["interpreted"] > 0
        assert counters["fallback"] == 0
        assert counters["system_fallback"] == 0
        assert counters["steps"] == (counters["interpreted"]
                                     + counters["system_compile_hits"])
