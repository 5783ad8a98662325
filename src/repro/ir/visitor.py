"""Generic traversal helpers over FSMs, statements and expressions."""

from repro.ir.stmt import Assign, If, Nop, PortWrite


def iter_expr_tree(expr):
    """Yield *expr* and every sub-expression, depth first."""
    yield expr
    for child in expr.children():
        yield from iter_expr_tree(child)


def iter_stmt_expressions(stmt):
    """Yield every expression appearing in a statement."""
    if isinstance(stmt, Assign):
        yield from iter_expr_tree(stmt.expr)
    elif isinstance(stmt, PortWrite):
        yield from iter_expr_tree(stmt.expr)
    elif isinstance(stmt, If):
        yield from iter_expr_tree(stmt.cond)
        for inner in stmt.then:
            yield from iter_stmt_expressions(inner)
        for inner in stmt.orelse:
            yield from iter_stmt_expressions(inner)
    elif isinstance(stmt, Nop):
        return
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def iter_stmt_tree(stmt):
    """Yield *stmt* and every nested statement."""
    yield stmt
    if isinstance(stmt, If):
        for inner in stmt.then:
            yield from iter_stmt_tree(inner)
        for inner in stmt.orelse:
            yield from iter_stmt_tree(inner)


def iter_statements(fsm):
    """Yield every statement of every state and transition of *fsm*."""
    for state in fsm.iter_states():
        for stmt in state.actions:
            yield from iter_stmt_tree(stmt)
        for transition in state.transitions:
            for stmt in transition.actions:
                yield from iter_stmt_tree(stmt)


def iter_state_expressions(state):
    """Yield every expression of one state: actions, guards, call arguments."""
    for stmt in state.actions:
        yield from iter_stmt_expressions(stmt)
    for transition in state.transitions:
        if transition.guard is not None:
            yield from iter_expr_tree(transition.guard)
        for stmt in transition.actions:
            yield from iter_stmt_expressions(stmt)
        if transition.call is not None:
            for arg in transition.call.args:
                yield from iter_expr_tree(arg)


def iter_expressions(fsm):
    """Yield every expression of *fsm*: actions, guards and call arguments."""
    for state in fsm.iter_states():
        yield from iter_state_expressions(state)
