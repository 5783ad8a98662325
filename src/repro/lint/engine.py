"""The lint engine: runs every pass over a :class:`SystemModel`.

``lint_model`` is the single entry point of the analyzer: the CLI, the
job pre-flight, ``CosimSession``/``CosynthesisFlow`` validation (through
:func:`validate_structure`) and the fused-codegen gate all read its
:class:`LintReport`.

``memo_report`` is the same analysis memoised per model object, in the same
two stages: the *structural* stage (FSM structure, interface and view
passes, before suppression) is cached on first use; the *extended* stage
(dataflow, protocol and race passes plus suppression) runs only when a
caller asks for the full report.  The job pipeline's three readers — the
sweep/server pre-flight, ``CosimSession`` validation and the fused-codegen
gate of ``compile_system`` — all read this one memo, so a job lints its
model once.  Below it, both stages take each communication unit's
findings, and the structural stage each module FSM's, from a memo keyed on
that object (:func:`_memo_pass`).  Models that share them — every model
built from the library units of :mod:`repro.comm.channels`, a DSE front's
repartitionings — check each once per process and re-run only their own
module, binding and race passes and the FSM006 check.  Keying on an
object is sound because FSMs and units are read-only once built: they
refuse attribute assignment and hold only tuples and read-only mappings.
"""

import weakref

from repro.core.module import HardwareModule, SoftwareModule
from repro.lint import dataflow, interface, protocol, races
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.intervals import dtype_interval
from repro.obs import TELEMETRY
from repro.utils.errors import ValidationError


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
    """Suppression entries: engine args are global; entries attached to the
    model or a module as ``lint_suppress`` are scoped to the object's path.
    FSMs and library units are read-only, so they carry none."""
    entries = [(entry, "") for entry in extra]
    entries += [(entry, "") for entry in getattr(model, "lint_suppress", ())]
    for module in model.modules.values():
        entries += [(entry, f"module/{module.name}")
                    for entry in getattr(module, "lint_suppress", ())]
    return entries


def lint_model(model, library=None, platforms=(), disable=(), suppress=(),
               structural_only=False):
    """Run the analyzer over *model*; returns a :class:`LintReport`.

    *library*/*platforms* enable the view-completeness checks for the flows
    about to run.  *disable* silences whole rules; *suppress* takes
    suppression entries (``"RULE"`` / ``"RULE:fragment"``).  With
    *structural_only* true, only the structural stage runs and no
    suppression filtering is applied — the strict mode model validation
    uses before a flow starts.
    """
    report = LintReport(target=model.name)
    _structural_stage(model, report, library, platforms)
    if structural_only:
        return report
    _extended_stage(model, report, disable, suppress)
    return report


#: Module FSM or communication unit -> {(stage, path): its diagnostics,
#: before suppression}.  Weak keys keep models collectable, and no
#: diagnostic refers back to its key.
_PASSES = weakref.WeakKeyDictionary()


def _memo_pass(item, stage, path, run, report):
    """Add ``run(item, path, report)``'s findings, computed once per
    *stage* and path.

    Repartitioned models (one per DSE front winner) share their FSMs and
    communication units, and every model of a process shares the library
    units of :mod:`repro.comm.channels`, so each is checked once however
    many models hold it.  Sound because FSMs and units are read-only
    once built.
    """
    by_key = _PASSES.get(item)
    if by_key is None:
        by_key = _PASSES[item] = {}
    found = by_key.get((stage, path))
    if found is None:
        scratch = LintReport()
        run(item, path, scratch)
        found = by_key[stage, path] = tuple(scratch.diagnostics)
    report.diagnostics.extend(found)


def _unit_passes(unit, path, report):
    """IF008 plus the structural checks of a unit's service and controller
    FSMs; *path* is ``unit/<name>``."""
    interface.unit_port_pass(unit, report)
    for service in unit.services.values():
        dataflow.structural_pass(service.fsm, f"{path}/service/{service.name}",
                                 report)
    for controller in unit.controllers:
        dataflow.structural_pass(controller.fsm,
                                 f"{path}/controller/{controller.name}", report)


def _unit_extended_passes(unit, path, report):
    """Dataflow and port-write passes of a unit's service and controller
    FSMs, then its protocol pass; *path* is ``unit/<name>``."""
    for service in unit.services.values():
        fsm_path = f"{path}/service/{service.name}"
        var_env, port_env = _fsm_envs(service.fsm, unit.ports)
        dataflow.dataflow_passes(service.fsm, fsm_path, report,
                                 pre_assigned=service.param_names,
                                 var_env=var_env, port_env=port_env)
        interface.port_write_pass(service.fsm, fsm_path, report, unit.ports,
                                  var_env=var_env, port_env=port_env)
    for controller in unit.controllers:
        fsm_path = f"{path}/controller/{controller.name}"
        var_env, port_env = _fsm_envs(controller.fsm, unit.ports)
        dataflow.dataflow_passes(controller.fsm, fsm_path, report,
                                 var_env=var_env, port_env=port_env)
        interface.port_write_pass(controller.fsm, fsm_path, report, unit.ports,
                                  var_env=var_env, port_env=port_env)
    protocol.protocol_pass(unit, report, path)


def _structural_stage(model, report, library=None, platforms=()):
    """Behaviours, units, bindings and views."""
    with TELEMETRY.span("lint.structural", cat="lint", model=model.name):
        for module in model.modules.values():
            for fsm in module.behaviours():
                _memo_pass(fsm, "structural",
                           f"module/{module.name}/{fsm.name}",
                           dataflow.structural_pass, report)
            if isinstance(module, SoftwareModule) and len(module.behaviours()) != 1:
                report.add(Diagnostic("FSM006", "error", f"module/{module.name}",
                                      "software modules have exactly one FSM"))
        for unit in model.comm_units.values():
            _memo_pass(unit, "structural", f"unit/{unit.name}", _unit_passes,
                       report)
        interface.binding_pass(model, report)
        if library is not None:
            interface.view_pass(model, library, platforms, report)


def _extended_stage(model, report, disable=(), suppress=()):
    """Dataflow, call, port-write, protocol and race passes; suppression."""
    with TELEMETRY.span("lint.extended", cat="lint", model=model.name):
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
            _memo_pass(unit, "extended", f"unit/{unit.name}",
                       _unit_extended_passes, report)
        races.race_pass(model, report)

        entries = _collect_suppressions(model, suppress)
        entries += [(rule, "") for rule in disable]
        report.apply_suppressions(entries)


class _Stages:
    __slots__ = ("structural", "full")

    def __init__(self, structural):
        self.structural = structural
        self.full = None


#: model -> _Stages.  Weak keys keep models collectable.
_MEMO = weakref.WeakKeyDictionary()


def memo_report(model, structural_only=False):
    """``lint_model(model, structural_only=...)``, memoised per model object.

    The structural stage is computed on first use; the extended stage runs
    on top of the cached structural diagnostics the first time the full
    report is asked for.  The returned report is shared: treat it as
    read-only.  Like the fused program cache, the memo assumes the
    model is not mutated after it was first linted (its FSMs and units
    cannot be; the model itself can).
    """
    stages = _MEMO.get(model)
    if stages is None:
        stages = _MEMO[model] = _Stages(lint_model(model, structural_only=True))
    if structural_only:
        return stages.structural
    if stages.full is None:
        report = LintReport(target=model.name)
        report.diagnostics = list(stages.structural.diagnostics)
        _extended_stage(model, report)
        stages.full = report
    return stages.full


def validate_structure(model, library=None, platforms=()):
    """Refuse *model* on error-level findings of the structural stage.

    The validation gate of ``CosimSession`` and ``CosynthesisFlow``:
    without a view *library* it reads the memo; with one it lints afresh
    with the view-completeness checks for *platforms*.  Warnings never
    refuse.  Raises :class:`~repro.utils.errors.ValidationError` carrying
    the errors.
    """
    if library is None:
        report = memo_report(model, structural_only=True)
    else:
        report = lint_model(model, library=library, platforms=platforms,
                            structural_only=True)
    if report.errors:
        raise ValidationError(report.errors)
