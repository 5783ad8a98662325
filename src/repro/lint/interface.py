"""Interface checks: bindings, service-call shapes and value ranges.

The structural rules (IF001/IF002/IF008 plus the view checks
VIEW001/VIEW002) check bindings, unit ports and view coverage.  The
extended rules (IF003–IF007) use the declared data types and
interval evaluation; the width rules only fire on *definite* violations —
the expression's value set and the target's range are disjoint, so no run
can ever produce a legal value.  "Might overflow" (overlapping ranges) is
deliberately not reported: declared ranges are coarse and such findings
would be noise.
"""

from repro.ir.stmt import If, PortWrite
from repro.lint.diagnostics import Diagnostic
from repro.lint.intervals import dtype_interval, eval_interval, is_disjoint


def binding_pass(model, report):
    """IF001 (unbound service) and IF002 (unused binding)."""
    for module in model.modules.values():
        for service_name in module.services_used():
            if model.binding_for(module.name, service_name) is None:
                report.add(Diagnostic(
                    "IF001", "error", f"module/{module.name}",
                    f"service {service_name!r} is called but not bound to any "
                    "communication unit",
                    data={"service": service_name},
                ))
    for binding in model.bindings:
        module = model.modules[binding.module]
        if binding.service not in module.services_used():
            report.add(Diagnostic(
                "IF002", "warning",
                f"binding/{binding.module}.{binding.service}",
                f"module {binding.module} never calls {binding.service!r}",
                data={"service": binding.service, "unit": binding.unit},
            ))


def unit_port_pass(unit, report):
    """IF008: services/controllers touching undeclared unit ports."""
    known = set(unit.ports)
    for service in unit.services.values():
        for port_name in service.ports_used():
            if port_name not in known:
                report.add(Diagnostic(
                    "IF008", "error", f"unit/{unit.name}/service/{service.name}",
                    f"service {service.name!r} uses undeclared port "
                    f"{port_name!r}",
                    data={"port": port_name},
                ))
    for controller in unit.controllers:
        fsm = controller.fsm
        for port_name in sorted(set(fsm.ports_read + fsm.ports_written) - known):
            report.add(Diagnostic(
                "IF008", "error", f"unit/{unit.name}/controller/{controller.name}",
                f"controller {controller.name!r} uses undeclared port "
                f"{port_name!r}",
                data={"port": port_name},
            ))


def view_pass(model, library, platforms, report):
    """VIEW001/VIEW002: the view-completeness checks."""
    from repro.core.views import MultiViewLibrary, ViewKind

    if not isinstance(library, MultiViewLibrary):
        report.add(Diagnostic("VIEW002", "error", "library",
                              f"view library must be a MultiViewLibrary, got "
                              f"{type(library).__name__}"))
        return
    for module in model.modules.values():
        for service_name in module.services_used():
            binding = model.binding_for(module.name, service_name)
            if binding is None:
                continue  # already reported by IF001
            where = f"service/{service_name}"
            if module.kind == "software":
                if not library.has(service_name, ViewKind.SW_SIM):
                    message = (f"service {service_name!r}: missing SW simulation "
                               f"view (needed by software module {module.name})")
                    report.add(Diagnostic("VIEW001", "error", where, message))
                for platform in platforms:
                    if not library.has(service_name, ViewKind.SW_SYNTH, platform):
                        message = (
                            f"service {service_name!r}: missing SW synthesis view "
                            f"for platform {platform!r} (needed by software module "
                            f"{module.name})"
                        )
                        report.add(Diagnostic("VIEW001", "error", where, message))
            else:
                if not library.has(service_name, ViewKind.HW):
                    message = (f"service {service_name!r}: missing HW view "
                               f"(needed by hardware module {module.name})")
                    report.add(Diagnostic("VIEW001", "error", where, message))


# ------------------------------------------------------------- IF003..IF007

def iter_write_sites(fsm):
    """Yield ``(location, stmts)`` per action list, flattening If branches."""

    def flatten(stmts):
        for stmt in stmts:
            if isinstance(stmt, If):
                yield from flatten(stmt.then)
                yield from flatten(stmt.orelse)
            else:
                yield stmt

    for state in fsm.iter_states():
        yield state.name, list(flatten(state.actions))
        for index, transition in enumerate(state.transitions):
            yield f"{state.name}/t{index}", list(flatten(transition.actions))


def call_pass(model, module, fsm, path, report, var_env=None, port_env=None):
    """IF003 (arity), IF004 (store validity), IF006/IF007 (definite width
    mismatches on arguments and stored results)."""
    for state in fsm.iter_states():
        for index, transition in enumerate(state.transitions):
            call = transition.call
            if call is None:
                continue
            binding = model.binding_for(module.name, call.service)
            if binding is None:
                continue  # IF001 already fired
            service = model.comm_units[binding.unit].services[call.service]
            where = f"{path}/{state.name}/t{index}"
            if len(call.args) != len(service.params):
                report.add(Diagnostic(
                    "IF003", "error", where,
                    f"service {call.service!r} called with {len(call.args)} "
                    f"argument(s), expected {len(service.params)}",
                    data={"service": call.service, "given": len(call.args),
                          "expected": len(service.params)},
                ))
            else:
                for position, (arg, param) in enumerate(
                        zip(call.args, service.params)):
                    arg_interval = eval_interval(arg, var_env, port_env)
                    bounds = dtype_interval(param.dtype)
                    if is_disjoint(arg_interval, bounds):
                        report.add(Diagnostic(
                            "IF006", "error", where,
                            f"argument {position} of {call.service!r} can never "
                            f"be a legal value for parameter {param.name!r} "
                            f"(value range {arg_interval}, parameter range "
                            f"{bounds})",
                            data={"service": call.service, "param": param.name},
                        ))
            if call.store:
                if service.returns is None:
                    report.add(Diagnostic(
                        "IF004", "error", where,
                        f"stores the result of {call.service!r}, which returns "
                        "nothing",
                        data={"service": call.service, "store": call.store},
                    ))
                elif call.store in fsm.variables:
                    store_bounds = dtype_interval(fsm.variables[call.store].dtype)
                    return_bounds = dtype_interval(service.returns)
                    if (store_bounds is not None and return_bounds is not None
                            and not (return_bounds[0] >= store_bounds[0]
                                     and return_bounds[1] <= store_bounds[1])):
                        report.add(Diagnostic(
                            "IF007", "warning", where,
                            f"result of {call.service!r} (range {return_bounds}) "
                            f"may not fit variable {call.store!r} (range "
                            f"{store_bounds})",
                            data={"service": call.service, "store": call.store},
                        ))


def port_write_pass(fsm, path, report, ports, var_env=None, port_env=None):
    """IF005: port writes whose value range is disjoint from the port's."""
    for location, stmts in iter_write_sites(fsm):
        for stmt in stmts:
            if not isinstance(stmt, PortWrite):
                continue
            port = ports.get(stmt.port_name)
            if port is None:
                continue  # IF008's business (unit) or a module-external port
            bounds = dtype_interval(port.dtype)
            interval = eval_interval(stmt.expr, var_env, port_env)
            if is_disjoint(interval, bounds):
                report.add(Diagnostic(
                    "IF005", "error", f"{path}/{location}",
                    f"write to port {stmt.port_name!r} can never be a legal "
                    f"value (value range {interval}, port range {bounds})",
                    data={"port": stmt.port_name},
                ))
