"""Behavioural intermediate representation (IR).

Every behaviour in the unified model — software modules, hardware processes
and the access procedures (services) of communication units — is described by
the same FSM-structured IR, mirroring the SOLAR-style intermediate format the
paper's group used ([13] in the paper).  The IR is:

* **executed** by the co-simulation backplane (one transition per software
  activation, one transition per clock cycle in hardware) — controllers and
  hardware processes fused into one generated step function by
  :mod:`repro.ir.syscompile` (the default tier), every FSM tree-walked by
  :mod:`repro.ir.interp` otherwise (the reference),
* **emitted** as C by :mod:`repro.swc` (SW simulation / SW synthesis views)
  and as VHDL by :mod:`repro.hdl` (HW view),
* **synthesized** by :mod:`repro.cosyn.hls` into an FSMD and RTL netlist.

Having one source of truth for behaviour is what makes the co-simulation and
co-synthesis results coherent.
"""

from repro.ir.dtypes import (
    BitType,
    BoolType,
    IntType,
    BitVectorType,
    EnumType,
    BIT,
    BOOL,
    INT,
)
from repro.ir.expr import (
    Expr,
    Const,
    Var,
    PortRef,
    BinOp,
    UnOp,
    const,
    var,
    port,
)
from repro.ir.stmt import Stmt, Assign, PortWrite, If, Nop
from repro.ir.fsm import Fsm, State, Transition, ServiceCall, VarDecl
from repro.ir.builder import FsmBuilder
from repro.ir.interp import FsmInstance, evaluate, execute
from repro.ir.printer import format_fsm, format_expr, format_stmt
from repro.ir.transform import (
    constant_fold,
    reachable_states,
    remove_unreachable_states,
)

__all__ = [
    "BitType",
    "BoolType",
    "IntType",
    "BitVectorType",
    "EnumType",
    "BIT",
    "BOOL",
    "INT",
    "Expr",
    "Const",
    "Var",
    "PortRef",
    "BinOp",
    "UnOp",
    "const",
    "var",
    "port",
    "Stmt",
    "Assign",
    "PortWrite",
    "If",
    "Nop",
    "Fsm",
    "State",
    "Transition",
    "ServiceCall",
    "VarDecl",
    "FsmBuilder",
    "FsmInstance",
    "evaluate",
    "execute",
    "format_fsm",
    "format_expr",
    "format_stmt",
    "constant_fold",
    "reachable_states",
    "remove_unreachable_states",
    "SystemPlan",
    "SystemProgram",
    "compile_system",
    "generate_system_source",
]

_SYSCOMPILE_EXPORTS = frozenset({
    "SystemPlan", "SystemProgram", "compile_system", "generate_system_source",
})


def __getattr__(name):
    # The whole-system compiler is exported lazily: importing it pulls in
    # the codegen machinery, which most users of the IR data model (the
    # builder, the printer, the transforms) never need.
    if name in _SYSCOMPILE_EXPORTS:
        from repro.ir import syscompile
        return getattr(syscompile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
