"""IR transformations."""

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.fsm import Fsm, State, Transition
from repro.ir.interp import _BINARY_FUNCS, _UNARY_FUNCS
from repro.ir.stmt import Assign, If, Nop, PortWrite


def constant_fold(expr):
    """Return an equivalent expression with constant sub-trees folded."""
    if isinstance(expr, (Const, Var, PortRef)):
        return expr
    if isinstance(expr, BinOp):
        left = constant_fold(expr.left)
        right = constant_fold(expr.right)
        if isinstance(left, Const) and isinstance(right, Const) and not (
            isinstance(left.value, str) or isinstance(right.value, str)
        ):
            try:
                return Const(_BINARY_FUNCS[expr.op](left.value, right.value))
            except Exception:  # division by zero etc. — leave for runtime
                return BinOp(expr.op, left, right)
        if isinstance(left.value if isinstance(left, Const) else None, str) or isinstance(
            right.value if isinstance(right, Const) else None, str
        ):
            if isinstance(left, Const) and isinstance(right, Const) and expr.op in ("eq", "ne"):
                return Const(_BINARY_FUNCS[expr.op](left.value, right.value))
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnOp):
        operand = constant_fold(expr.operand)
        if isinstance(operand, Const) and not isinstance(operand.value, str):
            return Const(_UNARY_FUNCS[expr.op](operand.value))
        return UnOp(expr.op, operand)
    return expr


def fold_statement(stmt):
    """Constant-fold every expression inside a statement."""
    if isinstance(stmt, Assign):
        return Assign(stmt.target, constant_fold(stmt.expr))
    if isinstance(stmt, PortWrite):
        return PortWrite(stmt.port_name, constant_fold(stmt.expr))
    if isinstance(stmt, If):
        cond = constant_fold(stmt.cond)
        then = [fold_statement(inner) for inner in stmt.then]
        orelse = [fold_statement(inner) for inner in stmt.orelse]
        if isinstance(cond, Const):
            picked = then if cond.value else orelse
            if not picked:
                return Nop()
            if len(picked) == 1:
                return picked[0]
        return If(cond, then, orelse)
    return stmt


def fold_fsm(fsm):
    """Return a new FSM with all expressions constant-folded."""
    states = []
    for state in fsm.iter_states():
        transitions = [
            Transition(
                transition.target,
                guard=None if transition.guard is None else constant_fold(transition.guard),
                actions=[fold_statement(stmt) for stmt in transition.actions],
                call=transition.call,
            )
            for transition in state.transitions
        ]
        states.append(
            State(state.name, actions=[fold_statement(s) for s in state.actions],
                  transitions=transitions)
        )
    return Fsm(
        fsm.name, states, fsm.initial,
        variables=list(fsm.variables.values()),
        ports=fsm.ports,
        done_states=[d for d in fsm.done_states],
        result_var=fsm.result_var,
    )


def reachable_states(fsm):
    """Return the set of state names reachable from the initial state."""
    seen = set()
    frontier = [fsm.initial]
    while frontier:
        name = frontier.pop()
        if name in seen or name not in fsm.states:
            continue
        seen.add(name)
        for transition in fsm.states[name].transitions:
            frontier.append(transition.target)
    return seen


def remove_unreachable_states(fsm):
    """Return a new FSM containing only states reachable from the initial one."""
    keep = reachable_states(fsm)
    states = [state for state in fsm.iter_states() if state.name in keep]
    return Fsm(
        fsm.name, states, fsm.initial,
        variables=list(fsm.variables.values()),
        ports=fsm.ports,
        done_states=[d for d in fsm.done_states if d in keep],
        result_var=fsm.result_var,
    )
