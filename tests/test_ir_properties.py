"""Property-based tests (hypothesis) of the IR core invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import HardwareModule, Service, SystemModel
from repro.core.comm_unit import CommunicationUnit
from repro.core.port import Port
from repro.cosim import CosimSession
from repro.ir import (
    BOOL, FsmBuilder, Assign, If, INT, FsmInstance, PortWrite, constant_fold,
    evaluate, var,
)
from repro.ir.compile import _pos_div, _pos_mod, compile_expr_fn, expr_source
from repro.ir.dtypes import IntType
from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.fsm import Fsm, ServiceCall, State, Transition
from repro.ir.interp import _int_div, _int_mod
from repro.ir.stmt import Nop
from repro.ir.transform import reachable_states
from repro.utils.errors import SimulationError

# Operators that are safe for arbitrary integer operands (no division by zero).
_SAFE_BIN_OPS = ["add", "sub", "mul", "eq", "ne", "lt", "le", "gt", "ge",
                 "and", "or", "xor", "min", "max"]
_UN_OPS = ["not", "neg", "abs"]

_values = st.integers(min_value=-1000, max_value=1000)
_var_names = st.sampled_from(["a", "b", "c"])


def _expressions(depth=3):
    base = st.one_of(_values.map(Const), _var_names.map(Var))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(_SAFE_BIN_OPS), children, children)
            .map(lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(_UN_OPS), children).map(lambda t: UnOp(*t)),
        ),
        max_leaves=12,
    )


#: Nonzero constant divisors of both signs, small and far beyond 64 bits.
_divisors = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-10**24, max_value=10**24),
).filter(lambda v: v != 0)

#: Dividends: small, negative and large ints, and a type that holds them.
_dividends = st.one_of(_values, st.integers(min_value=-10**30,
                                            max_value=10**30))
_WIDE = IntType(-10**40, 10**40)


def _divisor_expressions():
    """Value-preserving expressions rich in constant-divisor div/mod,
    nested and as operands of eager and/or."""
    base = st.one_of(_values.map(Const), _var_names.map(Var))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["div", "mod"]), children, _divisors)
            .map(lambda t: BinOp(t[0], t[1], Const(t[2]))),
            st.tuples(st.sampled_from(["and", "or", "add", "sub", "mul"]),
                      children, children).map(lambda t: BinOp(*t)),
            children.map(lambda child: UnOp("neg", child)),
        ),
        max_leaves=8,
    )


def _fused_and_interpreted(expr, env):
    """Final ``R``/``T`` of a one-FSM model stepping ``R = expr`` and
    ``T = 1 if expr else 0``, on the fused and the interpreted tier."""
    finals = []
    for tier in ("fused", "interpreted"):
        build = FsmBuilder("PROP")
        for name, value in env.items():
            build.variable(name, _WIDE, value)
        build.variable("R", _WIDE, 0)
        build.variable("T", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("R", expr))
            state.do(If(expr, [Assign("T", Const(1))], [Assign("T", Const(0))]))
            state.stay()
        model = SystemModel("ConstantDivisorProperty")
        model.add_hardware_module(
            HardwareModule("Cd", [build.build(initial="Run")]))
        session = CosimSession(model, tier=tier)
        session.run(until=100)
        assert session.tier == tier
        variables = session.hw_adapters["Cd"].process_variables("PROP")
        finals.append((variables["R"], variables["T"]))
    return finals


#: Operands of both types: ``B``/``F`` hold bools, ``A``/``C`` ints.
_MIXED_VARS = ["A", "B", "C", "F"]


def _mixed_expressions():
    """Expressions over bool and int operands, rich in min/max/xor."""
    base = st.one_of(st.integers(min_value=-3, max_value=3).map(Const),
                     st.booleans().map(Const),
                     st.sampled_from(_MIXED_VARS).map(Var))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["min", "max", "xor", "min", "max",
                                       "xor", "add", "eq", "and", "or"]),
                      children, children).map(lambda t: BinOp(*t)),
            children.map(lambda child: UnOp("not", child)),
        ),
        max_leaves=6,
    )


def _mixed_statements():
    exprs = _mixed_expressions()
    simple = st.one_of(
        st.builds(Assign, st.sampled_from(_MIXED_VARS), exprs),
        st.builds(PortWrite, st.sampled_from(["O1", "O2"]), exprs),
    )
    # A branch writes a variable, then reads it back into a port.
    branch = st.tuples(st.sampled_from(_MIXED_VARS), exprs,
                       st.lists(simple, max_size=2), exprs).map(
        lambda t: [Assign(t[0], t[1]), *t[2],
                   PortWrite("O1", BinOp("max", Var(t[0]), t[3]))])
    branching = st.builds(If, exprs, branch, branch)
    return st.lists(st.one_of(simple, branching), min_size=1, max_size=5)


def _step_model(actions, guard, call_guard):
    """One fused hardware FSM: *actions* then *guard* in ``Run``, and a
    ``Call`` state storing a service result in ``V`` and reading it.

    The service returns 1, 2, 0, 1, ... so ``Call`` returns to ``Run``
    within three steps, counting ``Z`` down from 2 each time.
    """
    build = FsmBuilder("P")
    for name in ("A", "C"):
        build.variable(name, INT, 2)
    build.variable("B", BOOL, True)
    build.variable("F", BOOL, False)
    build.variable("V", INT, 0)
    build.variable("Z", INT, 2)
    with build.state("Run") as state:
        state.do(*actions)
        state.go("Call", when=guard, actions=[PortWrite("O2", Var("C"))])
        state.go("Call")
    with build.state("Call") as state:
        state.call("Get", store="V", then="Run",
                   when=BinOp("xor", call_guard, Var("V")),
                   actions=[Assign("C", BinOp("max", Var("V"), Var("C"))),
                            PortWrite("O2", BinOp("min", Var("V"), Var("B"))),
                            Assign("Z", BinOp("sub", Var("Z"), Const(1)))])
        state.stay()
    get = FsmBuilder("GET")
    get.variable("X", INT, 0)
    with get.state("Go") as state:
        state.go("Done", actions=[Assign("X", BinOp("mod", BinOp(
            "add", Var("X"), Const(1)), Const(3)))])
    with get.state("Done", done=True) as state:
        state.go("Go")
    get.returns("X")
    model = SystemModel("MixedStep")
    model.add_comm_unit(CommunicationUnit("U", services=[
        Service("Get", get.build(initial="Go"), returns=INT)]))
    model.add_hardware_module(HardwareModule("Hw", [build.build(
        initial="Run")], ports=[Port("O1", dtype=INT), Port("O2", dtype=INT)]))
    model.bind("Hw", "Get", "U")
    return model


def _typed(value):
    """*value* with the type of every value in it spelled out."""
    if isinstance(value, dict):
        return sorted((key, _typed(item)) for key, item in value.items())
    return type(value).__name__, value


def _observed_run(model, tier, kernel):
    """Everything one run of ``Hw.P`` exposes, types included."""
    session = CosimSession(model, tier=tier, kernel=kernel, clock_period=10)
    session.build()
    assert session.tier == tier
    instance = session.hw_adapters["Hw"].instances["P"]
    steps = []
    instance.observer = lambda r: steps.append(
        (r.from_state, r.to_state, r.fired, r.done, _typed(r.result),
         r.called))
    error = None
    try:
        session.run(until=400)
    except SimulationError as exc:
        error = str(exc)
    simulator = session.simulator
    return {
        "error": error,
        "steps": steps,
        "env": _typed(instance.env),
        "queued": [(signal.name, _typed(value))
                   for signal, value in simulator._delta_queue],
        "signals": [(name, _typed(signal.value))
                    for name, signal in simulator.signals.items()],
        "now": simulator.now,
    }


class TestFusedStepProperties:
    """Random fused states behave exactly as the interpreter, raise included."""

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    @given(actions=_mixed_statements(), guard=_mixed_expressions(),
           call_guard=_mixed_expressions(),
           raise_at=st.one_of(st.none(), st.integers(min_value=0,
                                                     max_value=5)))
    @example(actions=[Assign("A", BinOp("max", Var("B"), Const(1))),
                      Assign("F", BinOp("min", Const(1), Var("B")))],
             guard=Const(0), call_guard=Const(0), raise_at=None)
    @example(actions=[If(Var("F"), [Assign("A", Var("C"))],
                         [PortWrite("O1", Var("C"))]),
                      Assign("C", Var("A"))],
             guard=Var("A"), call_guard=Const(1), raise_at=2)
    @settings(max_examples=40, deadline=None)
    def test_fused_step_matches_the_interpreter(self, kernel, actions, guard,
                                                call_guard, raise_at):
        if raise_at is not None:
            # Division by Z, which is zero from the third visit to Run on:
            # it raises after the writes before it in that step.
            actions = list(actions)
            actions.insert(min(raise_at, len(actions)),
                           Assign("C", BinOp("div", Var("A"), Var("Z"))))
        fused, interpreted = (
            _observed_run(_step_model(actions, guard, call_guard), tier,
                          kernel)
            for tier in ("fused", "interpreted"))
        assert fused == interpreted
        assert fused["steps"]
        if raise_at is not None:
            assert fused["error"] == "division by zero in IR expression"


class TestExpressionProperties:
    @given(expr=_expressions(), a=_values, b=_values, c=_values)
    @settings(max_examples=150, deadline=None)
    def test_constant_fold_preserves_value(self, expr, a, b, c):
        env = {"a": a, "b": b, "c": c}
        assert evaluate(constant_fold(expr), env) == evaluate(expr, env)

    @given(a=_values, b=_values.filter(lambda v: v != 0))
    @settings(max_examples=200, deadline=None)
    def test_division_identity(self, a, b):
        quotient = _int_div(a, b)
        remainder = _int_mod(a, b)
        assert quotient * b + remainder == a
        assert abs(remainder) < abs(b)

    @given(a=st.integers(min_value=-10**12, max_value=10**12),
           c=st.integers(min_value=-10**6, max_value=10**6)
           .filter(lambda v: v != 0))
    @settings(max_examples=300, deadline=None)
    def test_constant_divisor_helpers_match_truncating_ops(self, a, c):
        quotient = _pos_div(a, abs(c))
        assert (quotient if c > 0 else -quotient) == _int_div(a, c)
        assert _pos_mod(a, abs(c)) == _int_mod(a, c)

    @given(a=_values, c=_values.filter(lambda v: v != 0),
           op=st.sampled_from(["div", "mod"]))
    @settings(max_examples=150, deadline=None)
    def test_constant_divisor_codegen_matches_evaluate(self, a, c, op):
        expr = BinOp(op, Var("a"), Const(c))
        assert "_pos_" in expr_source(expr)
        env = {"a": a}
        assert compile_expr_fn(expr)(env, None) == evaluate(expr, env)

    @given(expr=_divisor_expressions(), a=_dividends, b=_dividends,
           c=_dividends)
    @example(expr=BinOp("div", BinOp("mod", Var("a"), Const(7)), Const(-3)),
             a=-10**30 - 11, b=0, c=0)
    @example(expr=BinOp("add", BinOp("div", Var("a"), Const(-3)),
                        BinOp("div", Var("b"), Const(3))),
             a=7, b=-7, c=0)
    @example(expr=BinOp("mod", Var("a"), Const(-10**24)),
             a=-3 * 10**24 - 1, b=0, c=0)
    @example(expr=BinOp("or", BinOp("div", Var("a"), Const(4)),
                        BinOp("mod", Var("b"), Const(-3))),
             a=-3, b=-6, c=0)
    @example(expr=BinOp("and", BinOp("mod", Var("a"), Const(5)),
                        BinOp("div", Var("b"), Const(-2))),
             a=-7, b=-1, c=0)
    @example(expr=BinOp("sub", BinOp("mod", Var("a"), Const(3)),
                        BinOp("div", Var("b"), Const(-2))),
             a=-1, b=-1, c=0)
    @settings(max_examples=60, deadline=None)
    def test_fused_constant_divisors_match_the_interpreter(self, expr, a, b,
                                                           c):
        env = {"a": a, "b": b, "c": c}
        expected = evaluate(expr, env)
        fused, interpreted = _fused_and_interpreted(expr, env)
        assert fused == interpreted == (expected, 1 if expected else 0)

    @given(a=_values, b=_values)
    @settings(max_examples=100, deadline=None)
    def test_comparisons_are_consistent(self, a, b):
        env = {"a": a, "b": b}
        lt = evaluate(var("a").lt(var("b")), env)
        ge = evaluate(var("a").ge(var("b")), env)
        assert lt != ge
        eq = evaluate(var("a").eq(var("b")), env)
        ne = evaluate(var("a").ne(var("b")), env)
        assert eq != ne

    @given(a=_values, b=_values)
    @settings(max_examples=100, deadline=None)
    def test_min_max_bound_the_operands(self, a, b):
        env = {"a": a, "b": b}
        low = evaluate(BinOp("min", var("a"), var("b")), env)
        high = evaluate(BinOp("max", var("a"), var("b")), env)
        assert low <= a <= high or low <= b <= high
        assert low == min(a, b) and high == max(a, b)


class TestFsmProperties:
    @given(limit=st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_counter_fsm_terminates_in_exactly_limit_steps(self, limit):
        build = FsmBuilder("COUNTER")
        build.variable("COUNT", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("COUNT", var("COUNT") + 1))
            state.go("Stop", when=var("COUNT").ge(limit))
            state.stay()
        with build.state("Stop", done=True) as state:
            state.stay()
        instance = FsmInstance(build.build(initial="Run"))
        result = instance.run_to_done(max_steps=limit + 5)
        assert instance.steps == limit
        assert result.done

    @given(chain_length=st.integers(min_value=1, max_value=20),
           orphans=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_reachable_states_of_a_chain(self, chain_length, orphans):
        build = FsmBuilder("CHAIN")
        for index in range(chain_length):
            transitions = []
            if index + 1 < chain_length:
                transitions = [Transition(f"S{index + 1}")]
            build.add_state(f"S{index}", transitions=transitions,
                            done=(index + 1 == chain_length))
        for index in range(orphans):
            build.add_state(f"O{index}", done=True)
        fsm = build.build(initial="S0")
        reachable = reachable_states(fsm)
        assert reachable == {f"S{i}" for i in range(chain_length)}
        assert len(fsm.states) == chain_length + orphans


# ------------------------------------------------- name-walk reference copy
#
# The generator walks that answered "which names does this FSM use" before
# ``Fsm`` computed them once at construction.  They are kept here verbatim
# in behaviour, so the one-walk attributes can be checked against them,
# order included.

def _ref_expr_tree(expr):
    yield expr
    for child in expr.children():
        yield from _ref_expr_tree(child)


def _ref_stmt_expressions(stmt):
    if isinstance(stmt, (Assign, PortWrite)):
        yield from _ref_expr_tree(stmt.expr)
    elif isinstance(stmt, If):
        yield from _ref_expr_tree(stmt.cond)
        for inner in stmt.then + stmt.orelse:
            yield from _ref_stmt_expressions(inner)


def _ref_stmt_tree(stmt):
    yield stmt
    if isinstance(stmt, If):
        for inner in stmt.then + stmt.orelse:
            yield from _ref_stmt_tree(inner)


def _ref_statements(fsm):
    for state in fsm.iter_states():
        for stmt in state.actions:
            yield from _ref_stmt_tree(stmt)
        for transition in state.transitions:
            for stmt in transition.actions:
                yield from _ref_stmt_tree(stmt)


def _ref_expressions(fsm):
    for state in fsm.iter_states():
        for stmt in state.actions:
            yield from _ref_stmt_expressions(stmt)
        for transition in state.transitions:
            if transition.guard is not None:
                yield from _ref_expr_tree(transition.guard)
            for stmt in transition.actions:
                yield from _ref_stmt_expressions(stmt)
            if transition.call is not None:
                for arg in transition.call.args:
                    yield from _ref_expr_tree(arg)


def _first_use(names):
    return tuple(dict.fromkeys(names))


def _reference_names(fsm):
    """``(vars_read, vars_written, ports_read, ports_written,
    services_called)`` by the old generator walks."""
    calls = [transition.call for state in fsm.iter_states()
             for transition in state.transitions if transition.call]
    return (
        tuple(sorted({node.name for node in _ref_expressions(fsm)
                      if isinstance(node, Var)})),
        tuple(sorted({stmt.target for stmt in _ref_statements(fsm)
                      if isinstance(stmt, Assign)}
                     | {call.store for call in calls if call.store})),
        _first_use(node.port_name for node in _ref_expressions(fsm)
                   if type(node).__name__ == "PortRef"),
        _first_use(stmt.port_name for stmt in _ref_statements(fsm)
                   if type(stmt).__name__ == "PortWrite"),
        _first_use(call.service for call in calls),
    )


def _names(fsm):
    return (fsm.vars_read, fsm.vars_written, fsm.ports_read,
            fsm.ports_written, fsm.services_called)


def _reading_ports():
    """``_expressions()``, some of them adding a port read."""
    return st.one_of(_expressions(), st.tuples(
        st.sampled_from(["I1", "I2", "O1"]), _expressions()).map(
        lambda t: BinOp("add", PortRef(t[0]), t[1])))


def _nested_statements():
    """``_mixed_statements()`` with port reads, no-ops and nested ``If``s."""
    inner = st.lists(st.one_of(st.just(Nop()), st.builds(
        If, _reading_ports(), _mixed_statements(), _mixed_statements())),
        max_size=1)
    return st.tuples(_mixed_statements(), inner).map(lambda t: t[0] + t[1])


_STATE_NAMES = ["S0", "S1", "S2"]

_transitions = st.builds(
    Transition,
    st.sampled_from(_STATE_NAMES),
    guard=st.one_of(st.none(), _reading_ports()),
    actions=st.one_of(st.just([]), _mixed_statements()),
    call=st.one_of(st.none(), st.builds(
        ServiceCall, st.sampled_from(["Get", "Put", "Ack"]),
        args=st.lists(_reading_ports(), max_size=2),
        store=st.one_of(st.none(), st.sampled_from(["a", "V"])))),
)


@st.composite
def _fsms(draw):
    states = [State(name, actions=draw(_nested_statements()),
                    transitions=draw(st.lists(_transitions, max_size=2)))
              for name in _STATE_NAMES[:draw(st.integers(1, 3))]]
    return Fsm("NAMES", states, initial="S0")


def _model_fsms(model):
    for module in model.modules.values():
        yield from module.behaviours()
    for unit in model.comm_units.values():
        for service in unit.services.values():
            yield service.fsm
        for controller in unit.controllers:
            yield controller.fsm


class TestFsmNames:
    """The names an FSM records at construction equal the old walks'."""

    @given(fsm=_fsms())
    @example(fsm=Fsm("NAMES", [
        State("S0", actions=[If(PortRef("I2"), [
            PortWrite("O2", Var("b")),
            If(Var("c"), [Assign("c", PortRef("I1"))], [PortWrite("O1", 1)]),
        ])], transitions=[
            Transition("S1", guard=PortRef("I1"),
                       call=ServiceCall("Put", [Var("a"), PortRef("O1")],
                                        store="V")),
            Transition("S0", actions=[PortWrite("O2", PortRef("I2"))],
                       call=ServiceCall("Get")),
        ]),
        State("S1", transitions=[Transition("S0", call=ServiceCall("Put"))]),
    ], initial="S0"))
    @settings(max_examples=40, deadline=None)
    def test_attributes_match_the_generator_walks(self, fsm):
        assert _names(fsm) == _reference_names(fsm)

    def test_every_corpus_fsm_matches_the_generator_walks(self):
        from repro.apps.motor_controller.system import build_system
        from repro.apps.motor_controller.two_axis import build_two_axis_system
        from repro.lint.selfcheck import MUTANTS
        from repro.testkit.models import generate_system

        models = [build_system()[0], build_two_axis_system()[0]]
        models += [builder() for builder, _rule in MUTANTS.values()]
        models += [generate_system(seed).build_model() for seed in range(500)]
        checked = 0
        for model in models:
            for fsm in _model_fsms(model):
                assert _names(fsm) == _reference_names(fsm), fsm.name
                checked += 1
        assert checked > 500
