"""Property-based tests (hypothesis) of the IR core invariants."""

from hypothesis import given, settings, strategies as st

from repro.ir import FsmBuilder, Assign, INT, FsmInstance, constant_fold, evaluate, var
from repro.ir.compile import _pos_div, _pos_mod, compile_expr_fn, expr_source
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
