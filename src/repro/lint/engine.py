"""The lint engine: runs every pass over a :class:`SystemModel`.

``lint_model`` is the single entry point used by the CLI, the conformance
kit's pre-flight stage and the ``validate_model`` compatibility shim.  The
legacy-rule passes run first and in exactly the order the old string-based
validator reported problems, so the shim can reproduce its output
byte-for-byte from the diagnostics' ``legacy`` texts.

``memo_report`` is the same analysis memoised per model object, in the same
two stages: the *legacy* stage (structural, interface and view passes,
before suppression) is cached on first use; the *extended* stage (dataflow,
protocol and race passes plus suppression) runs only when a caller asks
for the full report.  The job pipeline's three readers — the sweep/server
pre-flight, ``CosimSession``'s ``validate_model`` and the fused-codegen
gate of ``compile_system`` — all read this one memo, so a job lints its
model once.
"""

import weakref

from repro.core.module import HardwareModule, SoftwareModule
from repro.lint import dataflow, interface, protocol, races
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.intervals import dtype_interval


def _fsm_envs(fsm, ports):
    var_env = {name: dtype_interval(decl.dtype)
               for name, decl in fsm.variables.items()}
    port_env = {name: dtype_interval(port.dtype)
                for name, port in ports.items()}
    return var_env, port_env


def _module_ports(module):
    ports = dict(module.ports)
    if isinstance(module, HardwareModule):
        ports.update(module.internal_signals)
    return ports


def _collect_suppressions(model, extra=()):
    """Suppression entries: engine args are global; entries attached to model
    objects as ``lint_suppress`` are scoped to the object's path."""
    entries = [(entry, "") for entry in extra]
    entries += [(entry, "") for entry in getattr(model, "lint_suppress", ())]
    for module in model.modules.values():
        prefix = f"module/{module.name}"
        entries += [(entry, prefix)
                    for entry in getattr(module, "lint_suppress", ())]
        for fsm in module.behaviours():
            entries += [(entry, f"{prefix}/{fsm.name}")
                        for entry in getattr(fsm, "lint_suppress", ())]
    for unit in model.comm_units.values():
        prefix = f"unit/{unit.name}"
        entries += [(entry, prefix)
                    for entry in getattr(unit, "lint_suppress", ())]
        for service in unit.services.values():
            entries += [(entry, f"{prefix}/service/{service.name}")
                        for entry in getattr(service, "lint_suppress", ())]
            entries += [(entry, f"{prefix}/service/{service.name}")
                        for entry in getattr(service.fsm, "lint_suppress", ())]
        for controller in unit.controllers:
            entries += [(entry, f"{prefix}/controller/{controller.name}")
                        for entry in getattr(controller.fsm, "lint_suppress", ())]
    return entries


def lint_model(model, library=None, platforms=(), disable=(), suppress=(),
               legacy_only=False):
    """Run the analyzer over *model*; returns a :class:`LintReport`.

    *library*/*platforms* enable the view-completeness checks (as in the
    old ``validate_model``).  *disable* silences whole rules; *suppress*
    takes suppression entries (``"RULE"`` / ``"RULE:fragment"``).  With
    *legacy_only* true, only the rules the historical validator covered run
    and no suppression filtering is applied — the strict mode the
    ``validate_model`` shim uses.
    """
    report = LintReport(target=model.name)
    _legacy_stage(model, report, library, platforms)
    if legacy_only:
        return report
    _extended_stage(model, report, disable, suppress)
    return report


def _legacy_stage(model, report, library=None, platforms=()):
    """Behaviours, units, bindings and views, in the old validator's order."""
    for module in model.modules.values():
        for fsm in module.behaviours():
            dataflow.structural_pass(
                fsm, f"module/{module.name}/{fsm.name}", report,
                legacy_prefix=f"module {module.name}/{fsm.name}: ",
            )
        if isinstance(module, SoftwareModule) and len(module.behaviours()) != 1:
            message = "software modules have exactly one FSM"
            report.add(Diagnostic(
                "FSM006", "error", f"module/{module.name}", message,
                legacy=f"module {module.name}: {message}",
            ))
    for unit in model.comm_units.values():
        interface.unit_port_pass(unit, report)
        for service in unit.services.values():
            dataflow.structural_pass(
                service.fsm, f"unit/{unit.name}/service/{service.name}", report,
                legacy_prefix=(f"communication unit {unit.name}, "
                               f"service {service.name}: "),
            )
        for controller in unit.controllers:
            dataflow.structural_pass(
                controller.fsm, f"unit/{unit.name}/controller/{controller.name}",
                report,
                legacy_prefix=(f"communication unit {unit.name}, "
                               f"controller {controller.name}: "),
            )
    interface.binding_pass(model, report)
    if library is not None:
        interface.view_pass(model, library, platforms, report)


def _extended_stage(model, report, disable=(), suppress=()):
    """Dataflow, call, port-write, protocol and race passes; suppression."""
    for module in model.modules.values():
        ports = _module_ports(module)
        for fsm in module.behaviours():
            path = f"module/{module.name}/{fsm.name}"
            var_env, port_env = _fsm_envs(fsm, ports)
            dataflow.dataflow_passes(fsm, path, report,
                                     var_env=var_env, port_env=port_env)
            interface.call_pass(model, module, fsm, path, report,
                                var_env=var_env, port_env=port_env)
            interface.port_write_pass(fsm, path, report, ports,
                                      var_env=var_env, port_env=port_env)
    for unit in model.comm_units.values():
        for service in unit.services.values():
            path = f"unit/{unit.name}/service/{service.name}"
            var_env, port_env = _fsm_envs(service.fsm, unit.ports)
            dataflow.dataflow_passes(service.fsm, path, report,
                                     pre_assigned=service.param_names,
                                     var_env=var_env, port_env=port_env)
            interface.port_write_pass(service.fsm, path, report, unit.ports,
                                      var_env=var_env, port_env=port_env)
        for controller in unit.controllers:
            path = f"unit/{unit.name}/controller/{controller.name}"
            var_env, port_env = _fsm_envs(controller.fsm, unit.ports)
            dataflow.dataflow_passes(controller.fsm, path, report,
                                     var_env=var_env, port_env=port_env)
            interface.port_write_pass(controller.fsm, path, report, unit.ports,
                                      var_env=var_env, port_env=port_env)
        protocol.protocol_pass(unit, report, f"unit/{unit.name}")
    races.race_pass(model, report)

    entries = _collect_suppressions(model, suppress)
    entries += [(rule, "") for rule in disable]
    report.apply_suppressions(entries)


class _Stages:
    __slots__ = ("legacy", "full")

    def __init__(self, legacy):
        self.legacy = legacy
        self.full = None


#: model -> _Stages.  Weak keys keep models collectable.
_MEMO = weakref.WeakKeyDictionary()


def memo_report(model, legacy_only=False):
    """``lint_model(model, legacy_only=...)``, memoised per model object.

    The legacy stage is computed on first use; the extended stage runs on
    top of the cached legacy diagnostics the first time the full report is
    asked for.  The returned report is shared: treat it as read-only.  Like
    the compiled-program caches, the memo assumes the model is not mutated
    after it was first linted.
    """
    stages = _MEMO.get(model)
    if stages is None:
        stages = _MEMO[model] = _Stages(lint_model(model, legacy_only=True))
    if legacy_only:
        return stages.legacy
    if stages.full is None:
        report = LintReport(target=model.name)
        report.diagnostics = list(stages.legacy.diagnostics)
        _extended_stage(model, report)
        stages.full = report
    return stages.full
