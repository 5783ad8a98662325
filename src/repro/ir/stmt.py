"""Statement nodes of the behavioural IR.

Statements appear in FSM state actions and transition actions.  The set is
deliberately small — it is exactly what the paper's generated C and VHDL
views contain: variable assignments, port writes and conditionals.
"""

from repro.ir.expr import wrap
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier


class Stmt:
    """Base class of all statement nodes."""


class Assign(Stmt):
    """``target := expr`` — assignment to an FSM variable."""

    def __init__(self, target, expr):
        self.target = check_identifier(target, "assignment target")
        self.expr = wrap(expr)

    def __repr__(self):
        return f"Assign({self.target}, {self.expr!r})"


class PortWrite(Stmt):
    """Write an expression's value to a named port.

    HW view: signal assignment; SW simulation view: ``cliOutput``; SW
    synthesis views: ``outport`` / IPC send / micro-code routine.
    """

    def __init__(self, port_name, expr):
        self.port_name = check_identifier(port_name, "port name")
        self.expr = wrap(expr)

    def __repr__(self):
        return f"PortWrite({self.port_name}, {self.expr!r})"


class If(Stmt):
    """Conditional statement with optional else branch (tuples of Stmt)."""

    def __init__(self, cond, then, orelse=()):
        self.cond = wrap(cond)
        self.then, self.orelse = tuple(then), tuple(orelse)
        for stmt in self.then + self.orelse:
            if not isinstance(stmt, Stmt):
                raise ModelError(f"If branch holds a non-statement {stmt!r}")

    def __repr__(self):
        return f"If({self.cond!r}, then={len(self.then)}, orelse={len(self.orelse)})"


class Nop(Stmt):
    """No operation; useful as a placeholder during model construction."""

    def __repr__(self):
        return "Nop()"
