"""Property-based tests (hypothesis) of the IR core invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.core import HardwareModule, SystemModel
from repro.cosim import CosimSession
from repro.ir import (
    FsmBuilder, Assign, If, INT, FsmInstance, constant_fold, evaluate, var,
)
from repro.ir.compile import _pos_div, _pos_mod, compile_expr_fn, expr_source
from repro.ir.dtypes import IntType
from repro.ir.expr import BinOp, Const, UnOp, Var
from repro.ir.interp import _int_div, _int_mod
from repro.ir.transform import reachable_states

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
        assert session.wired_tier == tier
        variables = session.hw_adapters["Cd"].process_variables("PROP")
        finals.append((variables["R"], variables["T"]))
    return finals


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
        from repro.ir.fsm import Transition
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
