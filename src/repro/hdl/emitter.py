"""VHDL text generation from the behavioural IR.

The generated text follows the shape of the paper's listings: a service
becomes a VHDL procedure whose body is a ``case`` over a state variable
(Figure 3c); a hardware module becomes an entity with one clocked process per
behaviour (Figure 7).  Ports carrying :class:`~repro.ir.dtypes.BitType`
values are rendered as ``std_logic`` with ``'0'``/``'1'`` literals; other
ports use VHDL integers.
"""

import weakref

from repro.ir.dtypes import BitType, EnumType
from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.utils.errors import SynthesisError

_VHDL_BIN_OPS = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "mod",
    "eq": "=", "ne": "/=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "and": "and", "or": "or", "xor": "xor",
}


class EmitContext:
    """Carries naming information needed while emitting VHDL.

    Parameters
    ----------
    bit_ports:
        Names of ports/signals holding single bits — their literals are
        quoted (``'1'``) instead of plain integers.
    variable_names:
        Names treated as VHDL variables (assigned with ``:=``); everything
        else written through ``PortWrite`` uses a signal assignment ``<=``.
    enum_values:
        Mapping from enum literal to the emitted VHDL identifier.
    """

    def __init__(self, bit_ports=(), variable_names=(), enum_values=None):
        self.bit_ports = set(bit_ports)
        self.variable_names = set(variable_names)
        self.enum_values = dict(enum_values or {})

    def literal(self, value, bit_context=False):
        if isinstance(value, str):
            return self.enum_values.get(value, value)
        if isinstance(value, bool):
            value = int(value)
        if bit_context and value in (0, 1):
            return f"'{value}'"
        return str(value)


def _is_bit_ref(expr, context):
    return isinstance(expr, PortRef) and expr.port_name in context.bit_ports


def emit_expr(expr, context=None):
    """Render an IR expression as VHDL source text."""
    context = context or EmitContext()
    if isinstance(expr, Const):
        return context.literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, PortRef):
        return expr.port_name
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            left = emit_expr(expr.left, context)
            right = emit_expr(expr.right, context)
            return f"{expr.op}imum({left}, {right})"
        bit_context = _is_bit_ref(expr.left, context) or _is_bit_ref(expr.right, context)
        left = _emit_operand(expr.left, context, bit_context)
        right = _emit_operand(expr.right, context, bit_context)
        return f"({left} {_VHDL_BIN_OPS[expr.op]} {right})"
    if isinstance(expr, UnOp):
        operand = emit_expr(expr.operand, context)
        if expr.op == "not":
            return f"(not {operand})"
        if expr.op == "neg":
            return f"(-{operand})"
        if expr.op == "abs":
            return f"(abs {operand})"
    raise SynthesisError(f"cannot emit VHDL for {expr!r}")


def _emit_operand(expr, context, bit_context):
    if isinstance(expr, Const):
        return context.literal(expr.value, bit_context=bit_context)
    return emit_expr(expr, context)


def emit_stmt(stmt, context=None, indent=1):
    """Render an IR statement as VHDL lines."""
    context = context or EmitContext()
    pad = "  " * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} := {emit_expr(stmt.expr, context)};"]
    if isinstance(stmt, PortWrite):
        value = emit_expr(stmt.expr, context)
        if isinstance(stmt.expr, Const) and stmt.port_name in context.bit_ports:
            value = context.literal(stmt.expr.value, bit_context=True)
        assign = ":=" if stmt.port_name in context.variable_names else "<="
        return [f"{pad}{stmt.port_name} {assign} {value};"]
    if isinstance(stmt, If):
        cond = emit_expr(stmt.cond, context)
        lines = [f"{pad}if {cond} then"]
        for inner in stmt.then:
            lines.extend(emit_stmt(inner, context, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}else")
            for inner in stmt.orelse:
                lines.extend(emit_stmt(inner, context, indent + 1))
        lines.append(f"{pad}end if;")
        return lines
    if isinstance(stmt, Nop):
        return [f"{pad}null;"]
    raise SynthesisError(f"cannot emit VHDL for {stmt!r}")


def _vhdl_type(dtype):
    return dtype.vhdl_name()


def _guard_expr(guard, context):
    text = emit_expr(guard, context)
    # Comparisons against bare 0/1 on bit ports read better with quotes; the
    # generic emitter already handles the common (port = const) case.
    return text


def emit_service_procedure(service, context=None):
    """Emit the hardware (VHDL) view of a service — the Figure 3c shape.

    The text reads only which of the ports the service's FSM reads or
    writes are bit ports in *context*, so it is memoised on the service
    in :data:`_PROCEDURES` under that set: the view library and every
    synthesised module that declares a library service share one text.
    Sound because a service is read-only once built.
    """
    fsm = service.fsm
    bits = context.bit_ports if context else ()
    bit_ports = frozenset(name for name in fsm.ports_read + fsm.ports_written
                          if name in bits)
    by_bits = _PROCEDURES.get(service)
    if by_bits is None:
        by_bits = _PROCEDURES[service] = {}
    text = by_bits.get(bit_ports)
    if text is None:
        text = by_bits[bit_ports] = _service_procedure(service, bit_ports)
    return text


#: Service -> {bit ports its FSM touches: its VHDL procedure}; weak keys
#: keep services collectable.  See :func:`emit_service_procedure`.
_PROCEDURES = weakref.WeakKeyDictionary()


def _service_procedure(service, bit_ports):
    """The VHDL procedure of *service*, rendering *bit_ports* as bits."""
    fsm = service.fsm
    variable_names = {f"{service.name}_NEXT_STATE"}
    ctx = EmitContext(bit_ports=bit_ports, variable_names=variable_names)
    prefix = f"{service.name}_"
    lines = [f"-- {service.name}: hardware view (used for co-simulation and synthesis)"]
    params = []
    for param in service.params:
        params.append(f"{param.name} : in {_vhdl_type(param.dtype)}")
    if service.returns is not None:
        params.append(f"{fsm.result_var} : out {_vhdl_type(service.returns)}")
    params.append("DONE : out std_logic")
    lines.append(f"procedure {service.name}({'; '.join(params)}) is")
    lines.append("begin")
    lines.append(f"  case {prefix}NEXT_STATE is")
    for state in fsm.iter_states():
        lines.append(f"    when {prefix}{state.name} =>")
        for stmt in state.actions:
            lines.extend(emit_stmt(stmt, ctx, indent=3))
        for transition in state.transitions:
            if transition.call is not None:
                raise SynthesisError(
                    f"service {service.name!r}: services may not call other services"
                )
        lines.extend(
            _emit_transition_chain(
                state.transitions, ctx, indent=3,
                move=lambda t: [f"{prefix}NEXT_STATE := {prefix}{t.target};"],
            )
        )
    lines.append(f"    when others => {prefix}NEXT_STATE := {prefix}{fsm.initial};")
    lines.append("  end case;")
    done_test = " or ".join(
        f"{prefix}NEXT_STATE = {prefix}{name}" for name in sorted(fsm.done_states)
    )
    lines.append(f"  if {done_test} then")
    lines.append(f"    {prefix}NEXT_STATE := {prefix}{fsm.initial};")
    lines.append("    DONE := '1';")
    lines.append("  else")
    lines.append("    DONE := '0';")
    lines.append("  end if;")
    lines.append(f"end procedure {service.name};")
    return "\n".join(lines)


def _emit_transition_chain(transitions, ctx, indent, move):
    """Emit a state's transitions as an ``if / elsif / else`` chain.

    *move* maps a transition to the lines performing the state change; the
    chain preserves the IR's first-match-wins semantics.  Service-call
    transitions are handled by the caller (hardware processes) — this helper
    only deals with plain guarded transitions.
    """
    pad = "  " * indent
    lines = []
    guarded = [t for t in transitions if t.guard is not None]
    unconditional = [t for t in transitions if t.guard is None]
    # Only the first unconditional transition can ever fire.
    fallback = unconditional[0] if unconditional else None

    def body(transition, extra_indent):
        inner = []
        inner.extend("  " * extra_indent + pad + line for line in move(transition))
        for stmt in transition.actions:
            inner.extend(emit_stmt(stmt, ctx, indent=indent + extra_indent))
        return inner

    if not guarded:
        if fallback is not None:
            lines.extend(body(fallback, 0))
        return lines
    for index, transition in enumerate(guarded):
        keyword = "if" if index == 0 else "elsif"
        lines.append(f"{pad}{keyword} {_guard_expr(transition.guard, ctx)} then")
        lines.extend(body(transition, 1))
    if fallback is not None:
        lines.append(f"{pad}else")
        lines.extend(body(fallback, 1))
    lines.append(f"{pad}end if;")
    return lines


def emit_process(fsm, context=None, clock="clk", reset="rst"):
    """Emit one clocked VHDL process implementing an FSM (Figure 7 shape).

    Service calls are rendered as procedure calls guarded by their DONE flag,
    using the HW views emitted by :func:`emit_service_procedure`.
    """
    ctx = context or EmitContext()
    prefix = f"{fsm.name}_"
    lines = [f"-- {fsm.name} unit"]
    lines.append(f"{fsm.name}_proc : process({clock}, {reset})")
    state_names = ", ".join(prefix + name for name in fsm.state_order)
    lines.append(f"  type {prefix}STATES is ({state_names});")
    lines.append(f"  variable {prefix}STATE : {prefix}STATES := {prefix}{fsm.initial};")
    for decl in fsm.variables.values():
        init = ctx.literal(decl.init, bit_context=isinstance(decl.dtype, BitType))
        lines.append(
            f"  variable {decl.name} : {_vhdl_type(decl.dtype)} := {init};"
        )
    lines.append("  variable CALL_DONE : std_logic;")
    lines.append("begin")
    lines.append(f"  if {reset} = '1' then")
    lines.append(f"    {prefix}STATE := {prefix}{fsm.initial};")
    lines.append(f"  elsif rising_edge({clock}) then")
    lines.append(f"    case {prefix}STATE is")
    for state in fsm.iter_states():
        lines.append(f"      when {prefix}{state.name} =>")
        body_emitted = False
        for stmt in state.actions:
            lines.extend(emit_stmt(stmt, ctx, indent=4))
            body_emitted = True
        call_transitions = [t for t in state.transitions if t.call is not None]
        plain_transitions = [t for t in state.transitions if t.call is None]
        for transition in call_transitions:
            move = [f"          {prefix}STATE := {prefix}{transition.target};"]
            for stmt in transition.actions:
                move.extend(emit_stmt(stmt, ctx, indent=5))
            args = [emit_expr(arg, ctx) for arg in transition.call.args]
            if transition.call.store:
                args.append(transition.call.store)
            args.append("CALL_DONE")
            lines.append(f"        {transition.call.service}({', '.join(args)});")
            guard = "CALL_DONE = '1'"
            if transition.guard is not None:
                guard += f" and {_guard_expr(transition.guard, ctx)}"
            lines.append(f"        if {guard} then")
            lines.extend(move)
            lines.append("        end if;")
            body_emitted = True
        if plain_transitions:
            lines.extend(
                _emit_transition_chain(
                    plain_transitions, ctx, indent=4,
                    move=lambda t: [f"{prefix}STATE := {prefix}{t.target};"],
                )
            )
            body_emitted = True
        if not body_emitted:
            lines.append("        null;")
    lines.append("    end case;")
    lines.append("  end if;")
    lines.append("end process;")
    return "\n".join(lines)


def emit_entity(name, ports, bit_ports=()):
    """Emit a VHDL entity declaration for the given ports."""
    lines = ["library ieee;", "use ieee.std_logic_1164.all;", ""]
    lines.append(f"entity {name} is")
    if ports:
        lines.append("  port (")
        declarations = []
        for port in ports:
            direction = port.direction.value
            vhdl_type = (
                "std_logic" if port.name in bit_ports or isinstance(port.dtype, BitType)
                else _vhdl_type(port.dtype)
            )
            declarations.append(f"    {port.name} : {direction} {vhdl_type}")
        lines.append(";\n".join(declarations))
        lines.append("  );")
    lines.append(f"end entity {name};")
    return "\n".join(lines)


def emit_architecture(module, services=(), context=None):
    """Emit a behavioural architecture for a hardware module.

    *services* are the Service objects whose HW views must be declared
    (procedures) before the processes that call them.
    """
    ctx = context or EmitContext(
        bit_ports={name for name, port in module.ports.items()
                   if isinstance(port.dtype, BitType)}
    )
    lines = [f"architecture behaviour of {module.name} is"]
    for name, port in module.internal_signals.items():
        vhdl_type = "std_logic" if isinstance(port.dtype, BitType) else _vhdl_type(port.dtype)
        lines.append(f"  signal {name} : {vhdl_type};")
    for service in services:
        from repro.utils.text import indent_block
        lines.append(indent_block(emit_service_procedure(service, ctx), 1))
    lines.append("begin")
    for fsm in module.behaviours():
        from repro.utils.text import indent_block
        lines.append(indent_block(emit_process(fsm, ctx), 1))
        lines.append("")
    lines.append(f"end architecture behaviour;")
    return "\n".join(lines)


def emit_module(module, services=(), bit_ports=()):
    """Emit the complete VHDL description (entity + architecture) of a module."""
    all_bits = set(bit_ports) | {
        name for name, port in module.ports.items() if isinstance(port.dtype, BitType)
    }
    context = EmitContext(bit_ports=all_bits)
    entity = emit_entity(module.name, list(module.ports.values()), all_bits)
    architecture = emit_architecture(module, services, context)
    return entity + "\n\n" + architecture + "\n"
