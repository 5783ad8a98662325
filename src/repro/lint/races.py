"""Static delta-cycle write-race detection (RACE001).

The co-simulation backplane schedules every write as a zero-delay
transaction; two processes writing the same signal in the same delta cycle
silently resolve last-write-wins (the class of bug PR 6's FIFO
stale-acknowledge fix had to root-cause dynamically).  This pass builds the
*write-set* of every execution context that can run in the same delta:

* every communication-unit controller (stepped by the clocked controller
  process),
* every process FSM of a hardware module (stepped on the clock edge) —
  including the ports written by the services it calls, attributed through
  the model's bindings,
* every software module FSM (stepped by the activation process) — again
  including its bound services' write-sets.

Contexts fall into two delta groups that never share a delta cycle:
``clocked`` (controllers + hardware processes, which run in the clock-edge
delta) and ``activation`` (software executors, which wake from timeouts at
the start of a time point).  A signal statically writable by two distinct
contexts of the same group is flagged.

The dynamic cross-check is ``Simulator(detect_races=True)`` (both kernels):
it records *actual* same-delta multi-writer updates at kernel-process
granularity, which is coarser than these contexts (one kernel process steps
every FSM of a hardware module), so the static findings are a superset of
anything the dynamic mode can observe — the property the conformance tests
pin.
"""

from repro.lint.diagnostics import Diagnostic


def signal_name(key):
    """Simulation signal name of a write-set key (matches CosimSession)."""
    _kind, owner, port = key
    return f"{owner}_{port}"


def collect_write_contexts(model):
    """Return one ``{path, group, writes}`` dict per execution context.

    ``writes`` is a set of ``(kind, owner, port)`` keys — ``("unit", name,
    port)`` for communication-unit ports, ``("module", name, port)`` for
    module ports and internal signals.
    """
    service_writes = {(unit_name, service.name): service.fsm.ports_written
                      for unit_name, unit in model.comm_units.items()
                      for service in unit.services.values()}

    def called_service_writes(module_name, fsm):
        targets = set()
        for service_name in fsm.services_called:
            binding = model.binding_for(module_name, service_name)
            if binding is None:
                continue  # IF001's business
            for port in service_writes.get((binding.unit, service_name), ()):
                targets.add(("unit", binding.unit, port))
        return targets

    contexts = []
    for unit_name, unit in model.comm_units.items():
        for controller in unit.controllers:
            contexts.append({
                "path": f"unit/{unit_name}/controller/{controller.name}",
                "group": "clocked",
                "writes": {("unit", unit_name, port)
                           for port in controller.fsm.ports_written},
            })
    for module in model.hardware_modules():
        for fsm in module.behaviours():
            writes = {("module", module.name, port)
                      for port in fsm.ports_written}
            writes |= called_service_writes(module.name, fsm)
            contexts.append({
                "path": f"module/{module.name}/process/{fsm.name}",
                "group": "clocked",
                "writes": writes,
            })
    for module in model.software_modules():
        writes = {("module", module.name, port)
                  for port in module.fsm.ports_written}
        writes |= called_service_writes(module.name, module.fsm)
        contexts.append({
            "path": f"module/{module.name}",
            "group": "activation",
            "writes": writes,
        })
    return contexts


def static_race_signals(model):
    """Signal names flagged by the race pass (the static side of the
    static-superset-of-dynamic conformance property)."""
    names = set()
    for key, _group, _writers in _races(model):
        names.add(signal_name(key))
    return names


def _races(model):
    by_signal = {}
    for context in collect_write_contexts(model):
        for key in context["writes"]:
            by_signal.setdefault(key, []).append(context)
    found = []
    for key in sorted(by_signal):
        for group in ("clocked", "activation"):
            writers = [c["path"] for c in by_signal[key] if c["group"] == group]
            if len(writers) >= 2:
                found.append((key, group, writers))
    return found


def race_pass(model, report):
    """RACE001: one diagnostic per signal with >= 2 same-delta writers."""
    for key, group, writers in _races(model):
        name = signal_name(key)
        report.add(Diagnostic(
            "RACE001", "error", f"signal/{name}",
            f"signal {name!r} can be written by {len(writers)} processes in "
            f"the same delta cycle: {', '.join(writers)}",
            data={"signal": name, "group": group, "writers": writers},
        ))
