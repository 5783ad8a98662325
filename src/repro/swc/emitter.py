"""C code generation from IR FSMs.

The emitted shape follows the paper's listings:

* a service becomes ``int NAME(params..., result*)`` returning ``DONE``
  (Figure 3a/3b),
* a software module becomes ``int NAME(void)`` executing one transition per
  call (Figure 6b),
* :func:`emit_program` assembles a complete translation unit: prologue of
  the chosen port-access syntax, state enums, service functions, module
  function and a simple ``main`` activation loop.
"""

from repro.ir.dtypes import EnumType
from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.swc.syntax import CliPortSyntax, PortAccessSyntax
from repro.utils.errors import SynthesisError

_C_BIN_OPS = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "and": "&&", "or": "||", "xor": "!=",
}


def emit_expr(expr, syntax, enum_prefix=""):
    """Render an IR expression as C source text."""
    if isinstance(expr, Const):
        if isinstance(expr.value, str):
            return f"{enum_prefix}{expr.value}" if enum_prefix else expr.value
        if isinstance(expr.value, bool):
            return "1" if expr.value else "0"
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, PortRef):
        return syntax.read_expr(expr.port_name)
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            left = emit_expr(expr.left, syntax, enum_prefix)
            right = emit_expr(expr.right, syntax, enum_prefix)
            cmp_op = "<" if expr.op == "min" else ">"
            return f"(({left}) {cmp_op} ({right}) ? ({left}) : ({right}))"
        left = emit_expr(expr.left, syntax, enum_prefix)
        right = emit_expr(expr.right, syntax, enum_prefix)
        return f"({left} {_C_BIN_OPS[expr.op]} {right})"
    if isinstance(expr, UnOp):
        operand = emit_expr(expr.operand, syntax, enum_prefix)
        if expr.op == "not":
            return f"(!{operand})"
        if expr.op == "neg":
            return f"(-{operand})"
        if expr.op == "abs":
            return f"(({operand}) < 0 ? -({operand}) : ({operand}))"
    raise SynthesisError(f"cannot emit C for {expr!r}")


def emit_stmt(stmt, syntax, indent=1, enum_prefix=""):
    """Render an IR statement as (possibly several) C lines."""
    pad = "  " * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} = {emit_expr(stmt.expr, syntax, enum_prefix)};"]
    if isinstance(stmt, PortWrite):
        return [pad + syntax.write_stmt(stmt.port_name, emit_expr(stmt.expr, syntax, enum_prefix))]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({emit_expr(stmt.cond, syntax, enum_prefix)}) {{"]
        for inner in stmt.then:
            lines.extend(emit_stmt(inner, syntax, indent + 1, enum_prefix))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.orelse:
                lines.extend(emit_stmt(inner, syntax, indent + 1, enum_prefix))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Nop):
        return [f"{pad};"]
    raise SynthesisError(f"cannot emit C for {stmt!r}")


def _c_type(dtype):
    if isinstance(dtype, EnumType):
        return dtype.c_name()
    return dtype.c_name()


def _state_enum(fsm, prefix):
    names = ", ".join(f"{prefix}{name}" for name in fsm.state_order)
    return f"typedef enum {{ {names} }} {prefix}STATETABLE;"


def emit_service_view(service, syntax=None, view_label=None):
    """Emit the C view of a *service* using the given port-access *syntax*.

    The default syntax is the simulator CLI, i.e. the SW simulation view.
    Returns the complete C text of the service function plus its state
    machinery, mirroring Figure 3a/3b of the paper.
    """
    syntax = syntax or CliPortSyntax()
    if not isinstance(syntax, PortAccessSyntax):
        raise SynthesisError("syntax must be a PortAccessSyntax")
    fsm = service.fsm
    prefix = f"{service.name}_"
    lines = []
    label = view_label or syntax.label
    lines.append(f"/* {service.name}: software view -- {label} */")
    lines.extend(syntax.prologue())
    lines.append("")
    lines.append(_state_enum(fsm, prefix))
    lines.append(f"static {prefix}STATETABLE {prefix}NEXTSTATE = {prefix}{fsm.initial};")
    # Static storage for the FSM variables (parameters become arguments).
    param_names = set(service.param_names)
    for decl in fsm.variables.values():
        if decl.name in param_names or decl.name == fsm.result_var:
            continue
        lines.append(f"static {_c_type(decl.dtype)} {prefix}{decl.name} = {_c_init(decl)};")
    lines.append("")
    params = [f"{_c_type(p.dtype)} {p.name}" for p in service.params]
    if service.returns is not None:
        params.append(f"{_c_type(service.returns)} *{service.fsm.result_var}_out")
    signature = ", ".join(params) if params else "void"
    lines.append(f"int {service.name}({signature})")
    lines.append("{")
    lines.append("  int DONE = 0;")
    if service.returns is not None:
        lines.append(f"  {_c_type(service.returns)} {fsm.result_var} = 0;")
    lines.append(f"  switch ({prefix}NEXTSTATE)")
    lines.append("  {")
    for state in fsm.iter_states():
        lines.append(f"    case {prefix}{state.name}:")
        lines.append("    {")
        renames = {
            decl.name: f"{prefix}{decl.name}"
            for decl in fsm.variables.values()
            if decl.name not in param_names and decl.name != fsm.result_var
        }
        for stmt in state.actions:
            lines.extend(
                _rename_lines(emit_stmt(stmt, syntax, indent=3, enum_prefix=prefix), renames)
            )
        for transition in state.transitions:
            if transition.call is not None:
                raise SynthesisError(
                    f"service {service.name!r}: services may not call other services"
                )
            body = [f"      {prefix}NEXTSTATE = {prefix}{transition.target};"]
            for stmt in transition.actions:
                body.extend(
                    _rename_lines(emit_stmt(stmt, syntax, indent=3, enum_prefix=prefix), renames)
                )
            body.append("      break;")
            if transition.guard is not None:
                guard = emit_expr(transition.guard, syntax, enum_prefix=prefix)
                guard = _rename_text(guard, renames)
                lines.append(f"      if ({guard}) {{")
                lines.extend("  " + line for line in body)
                lines.append("      }")
            else:
                lines.extend(body)
        lines.append("      break;")
        lines.append("    }")
    lines.append("    default:")
    lines.append(f"    {{ {prefix}NEXTSTATE = {prefix}{fsm.initial}; break; }}")
    lines.append("  }")
    done_checks = " || ".join(
        f"{prefix}NEXTSTATE == {prefix}{name}" for name in sorted(fsm.done_states)
    )
    lines.append(f"  if ({done_checks}) {{")
    lines.append(f"    {prefix}NEXTSTATE = {prefix}{fsm.initial};")
    lines.append("    DONE = 1;")
    if service.returns is not None:
        lines.append(f"    if ({fsm.result_var}_out) *{fsm.result_var}_out = {fsm.result_var};")
    lines.append("  }")
    lines.append("  return DONE;")
    lines.append("}")
    return "\n".join(lines)


def _c_init(decl):
    if isinstance(decl.dtype, EnumType):
        return str(decl.dtype.index_of(decl.init))
    if isinstance(decl.init, bool):
        return "1" if decl.init else "0"
    return str(decl.init)


def _rename_lines(lines, renames):
    return [_rename_text(line, renames) for line in lines]


def _rename_text(text, renames):
    import re

    for old, new in renames.items():
        text = re.sub(rf"\b{re.escape(old)}\b", new, text)
    return text


def emit_module_function(module, syntax=None):
    """Emit the C function of a software module (Figure 6b shape).

    Service-call transitions become ``if (Service(args)) NextState = ...;``.
    Services returning a value receive ``&VAR`` as their final argument.
    """
    syntax = syntax or CliPortSyntax()
    fsm = module.fsm
    prefix = f"{fsm.name}_"
    lines = [f"/* software module {module.name} (one transition per activation) */"]
    lines.append(_state_enum(fsm, prefix))
    lines.append(f"static {prefix}STATETABLE NextState = {prefix}{fsm.initial};")
    for decl in fsm.variables.values():
        lines.append(f"static {_c_type(decl.dtype)} {decl.name} = {_c_init(decl)};")
    lines.append("")
    lines.append(f"int {fsm.name}(void)")
    lines.append("{")
    lines.append("  int DONE = 1;")
    lines.append("  switch (NextState)")
    lines.append("  {")
    for state in fsm.iter_states():
        lines.append(f"    case {prefix}{state.name}:")
        lines.append("    {")
        for stmt in state.actions:
            lines.extend(emit_stmt(stmt, syntax, indent=3, enum_prefix=prefix))
        for transition in state.transitions:
            move = [f"NextState = {prefix}{transition.target};"]
            for stmt in transition.actions:
                move.extend(
                    line.strip() for line in emit_stmt(stmt, syntax, indent=0, enum_prefix=prefix)
                )
            move_text = " ".join(move)
            if transition.call is not None:
                args = [emit_expr(arg, syntax, enum_prefix=prefix) for arg in transition.call.args]
                if transition.call.store:
                    args.append(f"&{transition.call.store}")
                call_text = f"{transition.call.service}({', '.join(args)})"
                if transition.guard is not None:
                    guard = emit_expr(transition.guard, syntax, enum_prefix=prefix)
                    lines.append(f"      if ({call_text}) {{ if ({guard}) {{ {move_text} }} }}")
                else:
                    lines.append(f"      if ({call_text}) {{ {move_text} }}")
            elif transition.guard is not None:
                guard = emit_expr(transition.guard, syntax, enum_prefix=prefix)
                lines.append(f"      if ({guard}) {{ {move_text} break; }}")
            else:
                lines.append(f"      {move_text}")
        lines.append("      break;")
        lines.append("    }")
    lines.append("    default:")
    lines.append(f"    {{ NextState = {prefix}{fsm.initial}; break; }}")
    lines.append("  }")
    if fsm.done_states:
        done_checks = " || ".join(
            f"NextState == {prefix}{name}" for name in sorted(fsm.done_states)
        )
        lines.append(f"  if ({done_checks}) DONE = 0;")
    lines.append("  return DONE;")
    lines.append("}")
    return "\n".join(lines)


def emit_program(module, service_views, syntax=None, platform_name=None):
    """Assemble a complete C translation unit for one software module.

    *service_views* are the C views of the services the module calls, as
    :func:`emit_service_view` rendered them with *syntax*; they open the
    file in the given order.  A trivial ``main`` activation loop closes
    the file, mirroring how the paper's Distribution program was compiled
    and run on the PC-AT.
    """
    syntax = syntax or CliPortSyntax()
    header = [
        "/*",
        f" * Software module {module.name}",
        f" * View: {syntax.label}",
    ]
    if platform_name:
        header.append(f" * Target platform: {platform_name}")
    header.append(" * Generated by the unified co-simulation / co-synthesis flow.")
    header.append(" */")
    parts = ["\n".join(header)]
    parts.extend(service_views)
    parts.append(emit_module_function(module, syntax))
    parts.append(
        "\n".join(
            [
                "int main(void)",
                "{",
                f"  while ({module.fsm.name}())",
                "  {",
                "    /* one FSM transition per activation */",
                "  }",
                "  return 0;",
                "}",
            ]
        )
    )
    return "\n\n".join(parts) + "\n"
