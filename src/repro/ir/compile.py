"""The retired per-FSM program generator.

:func:`compile_fsm` / :class:`CompiledFsm` translate one
:class:`~repro.ir.fsm.Fsm` into plain Python code objects (one
``(env, ports) -> None`` action function per state, one inlined
**stepper** ``(env, ports) -> (next_state, fired)`` per state without
service calls, a compiled guard/argument/action set per service-call
transition), byte-identical to :mod:`repro.ir.interp` in values, port
read/write order (``and``/``or`` never short-circuit), exceptions and
messages.

This is a leaf module: nothing in the co-simulation executes these
programs — every FSM outside the fused step of :mod:`repro.ir.syscompile`
runs on the interpreter — no production code imports it, and it keeps no
cache (each :func:`compile_fsm` call builds a fresh program).  It borrows
the fused step's operator templates, not the other way round.  It stays
only because the ``perfbench`` harness looks up
``repro.ir.compile.compile_fsm`` by name for its ``ir.compile_fsm_*``
metrics, and it goes together with those metrics.
"""

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.interp import _int_div, _int_mod
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.ir.syscompile import (
    _BINOP_TEMPLATES as _FUSED_BINOP_TEMPLATES,
    _UNOP_TEMPLATES,
)
from repro.utils.errors import SimulationError


class CompileError(SimulationError):
    """The FSM contains a node the generator cannot translate."""


def _eager_and(a, b):
    # int(bool(a) and bool(b)) with both operands already evaluated.
    return 1 if a and b else 0


def _eager_or(a, b):
    return 1 if a or b else 0


def _pos_div(a, c):
    # Truncating a div c for a constant divisor c > 0.
    return a // c if a >= 0 else -(-a // c)


def _pos_mod(a, c):
    # Truncating a mod c for a constant divisor c > 0: the sign of a.
    return a % c if a >= 0 else -(-a % c)


#: Globals shared by every generated code object.  The helpers reproduce the
#: interpreter's operator semantics exactly (see ``_BINARY_FUNCS``).
_GENERATED_GLOBALS = {
    "SimulationError": SimulationError,
    "_div": _int_div,
    "_mod": _int_mod,
    "_and": _eager_and,
    "_or": _eager_or,
    "_pos_div": _pos_div,
    "_pos_mod": _pos_mod,
    "min": min,
    "max": max,
    "abs": abs,
    "bool": bool,
}

#: The fused step's templates plus eager ``and``/``or`` helper calls and
#: the ``min``/``max`` builtins (the fused step inlines those four).
_BINOP_TEMPLATES = {
    **_FUSED_BINOP_TEMPLATES,
    "and": "_and({}, {})",
    "or": "_or({}, {})",
    "min": "min({}, {})",
    "max": "max({}, {})",
}

#: Exception epilogue of every generated function.  A ``KeyError`` is only
#: reported as the interpreter's ``undefined variable`` error when it names
#: a variable this code reads *and* that variable really is absent from the
#: environment — a ``KeyError`` escaping a user-supplied port accessor (or
#: call handler, on the driver path) propagates unchanged, exactly as it
#: does through the interpreter.
_EXCEPT_SUFFIX = (
    "    except KeyError as exc:\n"
    "        _key = exc.args[0] if exc.args else None\n"
    "        if _key in _env_reads and _key not in env:\n"
    "            raise SimulationError('undefined variable %r' % (_key,)) "
    "from None\n"
    "        raise"
)


def _expr_var_reads(expr, names):
    """Collect the variable names read by *expr* into *names*."""
    if isinstance(expr, Var):
        names.add(expr.name)
    elif isinstance(expr, BinOp):
        _expr_var_reads(expr.left, names)
        _expr_var_reads(expr.right, names)
    elif isinstance(expr, UnOp):
        _expr_var_reads(expr.operand, names)


def _stmt_var_reads(statements, names):
    """Collect the variable names read by a statement list into *names*."""
    for stmt in statements:
        if isinstance(stmt, (Assign, PortWrite)):
            _expr_var_reads(stmt.expr, names)
        elif isinstance(stmt, If):
            _expr_var_reads(stmt.cond, names)
            _stmt_var_reads(stmt.then, names)
            _stmt_var_reads(stmt.orelse, names)


def constant_divisor_source(op, left_src, right):
    """Single-call source of ``left div/mod c`` for a nonzero int constant *c*.

    The retired per-FSM generator's rule (:func:`expr_source`); the fused
    step inlines constant divisors instead
    (``_StateEmitter.constant_divisor`` in :mod:`repro.ir.syscompile`).
    It and the ``_pos_div``/``_pos_mod`` helpers go with the generator.
    Truncating division by a known nonzero divisor needs no zero check
    and no ``abs`` of the divisor, so it becomes one
    ``_pos_div``/``_pos_mod`` call on ``|c|`` (``div`` negated when
    ``c < 0``; the remainder takes the dividend's sign whatever the
    divisor's).  Returns ``None`` for any other operand — other
    operators, non-constant divisors and a constant ``0``, which keeps
    the ``_div``/``_mod`` helpers so the division error is still raised
    at run time.
    """
    if op not in ("div", "mod") or not isinstance(right, Const):
        return None
    divisor = right.value
    if type(divisor) is not int or divisor == 0:
        return None
    if op == "mod":
        return f"_pos_mod({left_src}, {abs(divisor)})"
    if divisor > 0:
        return f"_pos_div({left_src}, {divisor})"
    return f"(- _pos_div({left_src}, {-divisor}))"


def expr_source(expr):
    """Python source with the exact value semantics of :func:`evaluate`.

    Constants are emitted as literals (CPython's peephole folds constant
    subtrees for free); variable reads become ``env[...]`` — the enclosing
    generated function converts a ``KeyError`` into the interpreter's
    ``undefined variable`` :class:`SimulationError`.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"env[{expr.name!r}]"
    if isinstance(expr, PortRef):
        return f"ports.read({expr.port_name!r})"
    if isinstance(expr, BinOp):
        left = expr_source(expr.left)
        fast = constant_divisor_source(expr.op, left, expr.right)
        if fast is not None:
            return fast
        return _BINOP_TEMPLATES[expr.op].format(left, expr_source(expr.right))
    if isinstance(expr, UnOp):
        return _UNOP_TEMPLATES[expr.op].format(expr_source(expr.operand))
    raise CompileError(f"cannot compile expression {expr!r}")


def _emit_stmts(statements, lines, depth):
    """Append the statements' source at *depth* (no ``pass`` padding)."""
    pad = "    " * depth
    for stmt in statements:
        if isinstance(stmt, Assign):
            lines.append(f"{pad}env[{stmt.target!r}] = {expr_source(stmt.expr)}")
        elif isinstance(stmt, PortWrite):
            lines.append(
                f"{pad}ports.write({stmt.port_name!r}, {expr_source(stmt.expr)})"
            )
        elif isinstance(stmt, If):
            lines.append(f"{pad}if {expr_source(stmt.cond)}:")
            _emit_block(stmt.then, lines, depth + 1)
            if stmt.orelse:
                lines.append(f"{pad}else:")
                _emit_block(stmt.orelse, lines, depth + 1)
        elif isinstance(stmt, Nop):
            pass
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")


def _emit_block(statements, lines, depth):
    """Like :func:`_emit_stmts` but never leaves an empty suite behind."""
    before = len(lines)
    _emit_stmts(statements, lines, depth)
    if len(lines) == before:
        lines.append("    " * depth + "pass")


def _build(name, lines, env_reads):
    """``exec`` the generated def and return (function, source)."""
    source = "\n".join(lines)
    namespace = dict(_GENERATED_GLOBALS)
    namespace["_env_reads"] = frozenset(env_reads)
    exec(compile(source, f"<ir:{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name], source


def compile_expr_fn(expr, name="_ir_expr"):
    """Compile one expression into ``fn(env, ports) -> value``."""
    lines = [
        f"def {name}(env, ports):",
        "    try:",
        f"        return {expr_source(expr)}",
        _EXCEPT_SUFFIX,
    ]
    reads = set()
    _expr_var_reads(expr, reads)
    return _build(name, lines, reads)[0]


def compile_block_fn(statements, name="_ir_block"):
    """Compile a statement list into ``fn(env, ports)``; None when empty."""
    lines = [f"def {name}(env, ports):", "    try:"]
    before = len(lines)
    _emit_stmts(statements, lines, 2)
    if len(lines) == before:
        return None
    lines.append(_EXCEPT_SUFFIX)
    reads = set()
    _stmt_var_reads(statements, reads)
    return _build(name, lines, reads)[0]


def compile_args_fn(args, name="_ir_args"):
    """Compile service-call arguments into ``fn(env, ports) -> list``."""
    if not args:
        return None
    items = ", ".join(expr_source(arg) for arg in args)
    lines = [
        f"def {name}(env, ports):",
        "    try:",
        f"        return [{items}]",
        _EXCEPT_SUFFIX,
    ]
    reads = set()
    for arg in args:
        _expr_var_reads(arg, reads)
    return _build(name, lines, reads)[0]


class CompiledTransition:
    """Driver-loop form of one transition (used when the state has calls)."""

    __slots__ = ("target", "guard", "actions", "call", "service", "store", "args")

    def __init__(self, transition, prefix):
        self.target = transition.target
        self.guard = (
            compile_expr_fn(transition.guard, f"{prefix}_guard")
            if transition.guard is not None else None
        )
        self.actions = compile_block_fn(transition.actions, f"{prefix}_actions")
        call = transition.call
        self.call = call
        if call is not None:
            self.service = call.service
            self.store = call.store
            self.args = compile_args_fn(call.args, f"{prefix}_args")
        else:
            self.service = None
            self.store = None
            self.args = None


class CompiledState:
    """One state of a compiled program.

    ``stepper`` is the single-code-object fast path ``(env, ports) ->
    (next_state, fired)`` for states without service calls; call states set
    it to ``None`` and are driven through ``actions``/``transitions`` by a
    loop mirroring the interpreter's transition scan.
    """

    __slots__ = ("name", "stepper", "actions", "transitions", "source")

    def __init__(self, fsm, state):
        self.name = state.name
        prefix = f"_ir__{fsm.name}__{state.name}"
        if any(t.call is not None for t in state.transitions):
            self.stepper = None
            self.source = None
            self.actions = compile_block_fn(state.actions, f"{prefix}_entry")
            self.transitions = tuple(
                CompiledTransition(transition, f"{prefix}_t{index}")
                for index, transition in enumerate(state.transitions)
            )
        else:
            self.actions = None
            self.transitions = ()
            self.stepper, self.source = self._build_stepper(state, prefix)

    @staticmethod
    def _build_stepper(state, prefix):
        name = f"{prefix}_step"
        lines = [f"def {name}(env, ports):", "    try:"]
        reads = set()
        _stmt_var_reads(state.actions, reads)
        _emit_stmts(state.actions, lines, 2)
        exhaustive = False
        for transition in state.transitions:
            _stmt_var_reads(transition.actions, reads)
            if transition.guard is not None:
                _expr_var_reads(transition.guard, reads)
                lines.append(f"        if {expr_source(transition.guard)}:")
                _emit_stmts(transition.actions, lines, 3)
                lines.append(f"            return ({transition.target!r}, True)")
            else:
                _emit_stmts(transition.actions, lines, 2)
                lines.append(f"        return ({transition.target!r}, True)")
                exhaustive = True
                break  # later transitions are unreachable, as in the oracle
        if not exhaustive:
            lines.append(f"        return ({state.name!r}, False)")
        lines.append(_EXCEPT_SUFFIX)
        return _build(name, lines, reads)


class CompiledFsm:
    """The compiled program of one FSM."""

    __slots__ = ("name", "initial", "done_states", "result_var", "states")

    def __init__(self, fsm):
        self.name = fsm.name
        self.initial = fsm.initial
        self.done_states = fsm.done_states
        self.result_var = fsm.result_var
        self.states = {
            state.name: CompiledState(fsm, state) for state in fsm.iter_states()
        }

    def __repr__(self):
        return f"CompiledFsm({self.name}, states={len(self.states)})"


def compile_fsm(fsm):
    """Build the compiled program of *fsm*.

    Raises :class:`CompileError` when the FSM contains expression or
    statement nodes outside the core IR.
    """
    return CompiledFsm(fsm)
