"""Generic traversal helpers over FSMs, statements and expressions."""

from repro.ir.expr import Var
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


def variables_read(fsm):
    """Names of variables read anywhere in the FSM, sorted.

    Walks what :func:`iter_expressions` yields directly, without its
    generator frames: it runs once per fused FSM, twice per linted one.
    """
    names = set()

    def expr(node):
        if isinstance(node, Var):
            names.add(node.name)
        for child in node.children():
            expr(child)

    def stmts(statements):
        for stmt in statements:
            if isinstance(stmt, If):
                expr(stmt.cond)
                stmts(stmt.then)
                stmts(stmt.orelse)
            elif isinstance(stmt, (Assign, PortWrite)):
                expr(stmt.expr)
            elif not isinstance(stmt, Nop):
                raise TypeError(f"unknown statement {stmt!r}")

    for state in fsm.iter_states():
        stmts(state.actions)
        for transition in state.transitions:
            if transition.guard is not None:
                expr(transition.guard)
            stmts(transition.actions)
            if transition.call is not None:
                for arg in transition.call.args:
                    expr(arg)
    return sorted(names)


def variables_written(fsm):
    """Names of variables assigned anywhere in the FSM."""
    names = set()
    for stmt in iter_statements(fsm):
        if isinstance(stmt, Assign):
            names.add(stmt.target)
    for state in fsm.iter_states():
        for transition in state.transitions:
            if transition.call is not None and transition.call.store:
                names.add(transition.call.store)
    return sorted(names)
