"""Software synthesis.

For every software module of the target, software synthesis

1. selects the **SW synthesis views** of the services the module calls —
   generated with the target platform's port-access syntax and physical
   address map,
2. emits the complete C program (module FSM + service views + activation
   loop) that would be handed to the platform's C compiler,
3. estimates code size and per-activation timing so the flow can check the
   software side of the real-time constraints.
"""

from repro.ir.visitor import iter_expressions, iter_state_expressions, iter_statements
from repro.ir.expr import PortRef
from repro.ir.stmt import PortWrite
from repro.swc.emitter import emit_program, emit_service_view
from repro.utils.errors import SynthesisError
from repro.utils.text import format_table


class SoftwareSynthesisResult:
    """Everything software synthesis produced for one module."""

    def __init__(self, module, platform_name, program_text, service_views,
                 address_map, metrics):
        self.module = module
        self.platform_name = platform_name
        self.program_text = program_text
        self.service_views = dict(service_views)
        self.address_map = dict(address_map)
        self.metrics = dict(metrics)

    @property
    def code_size_bytes(self):
        return self.metrics["code_size_bytes"]

    @property
    def worst_activation_ns(self):
        return self.metrics["worst_activation_ns"]

    def as_dict(self, include_text=False):
        """JSON-serializable summary (set *include_text* for the C program)."""
        data = {
            "module": self.module.name,
            "platform": self.platform_name,
            "metrics": dict(self.metrics),
            "address_map": dict(self.address_map),
            "services": sorted(self.service_views),
        }
        if include_text:
            data["program_text"] = self.program_text
            data["service_views"] = dict(self.service_views)
        return data

    def report(self):
        rows = [(key, value) for key, value in sorted(self.metrics.items())]
        return (
            f"software synthesis of {self.module.name} for {self.platform_name}\n"
            + format_table(["metric", "value"], rows)
        )

    def __repr__(self):
        return (
            f"SoftwareSynthesisResult({self.module.name}@{self.platform_name}, "
            f"{self.code_size_bytes} bytes)"
        )


def _fsm_access_counts(fsm):
    """(statements, port reads, port writes) of one FSM (whole-FSM totals)."""
    statements = sum(1 for _ in iter_statements(fsm))
    reads = sum(1 for expr in iter_expressions(fsm) if isinstance(expr, PortRef))
    writes = sum(1 for stmt in iter_statements(fsm) if isinstance(stmt, PortWrite))
    return statements, reads, writes


def _worst_state_costs(fsm):
    """Worst-case per-step statement and access counts over the FSM states."""
    worst = (1, 0, 0)
    for state in fsm.iter_states():
        statements = len(state.actions)
        reads = 0
        writes = 0
        for stmt in state.actions:
            writes += 1 if isinstance(stmt, PortWrite) else 0
        for transition in state.transitions:
            statements += len(transition.actions) + (1 if transition.guard else 0)
            for stmt in transition.actions:
                writes += 1 if isinstance(stmt, PortWrite) else 0
        reads = sum(
            1 for expr in iter_state_expressions(state)
            if isinstance(expr, PortRef)
        )
        candidate = (max(statements, 1), reads, writes)
        if candidate[0] + candidate[1] + candidate[2] > sum(worst):
            worst = candidate
    return worst


def estimate_software_metrics(platform, fsm, services):
    """Code-size / activation-timing metrics of one software FSM on *platform*.

    The metrics depend only on the FSM, the service views it calls and the
    platform timing model — **not** on the rest of the placement — which is
    what lets :mod:`repro.dse` memoize them per (module, side, platform).
    """
    module_statements, _, _ = _fsm_access_counts(fsm)
    total_statements = module_statements
    total_reads = 0
    total_writes = 0
    worst_statements, worst_reads, worst_writes = _worst_state_costs(fsm)
    for service in services:
        statements, reads, writes = _fsm_access_counts(service.fsm)
        total_statements += statements
        total_reads += reads
        total_writes += writes
        service_worst = _worst_state_costs(service.fsm)
        worst_statements = max(worst_statements, service_worst[0] + 2)
        worst_reads = max(worst_reads, service_worst[1])
        worst_writes = max(worst_writes, service_worst[2])

    instructions = total_statements * 4 + 12 * (
        len(fsm.states) + sum(len(s.fsm.states) for s in services)
    )
    code_size_bytes = instructions * 3  # average 386 instruction length
    worst_activation_ns = platform.software_activation_ns(
        statements=worst_statements, reads=worst_reads, writes=worst_writes
    )
    typical_activation_ns = platform.software_activation_ns(
        statements=max(2, worst_statements // 2), reads=min(worst_reads, 1),
        writes=min(worst_writes, 1),
    )
    return {
        "statements": total_statements,
        "estimated_instructions": instructions,
        "code_size_bytes": code_size_bytes,
        "worst_activation_ns": round(worst_activation_ns, 1),
        "typical_activation_ns": round(typical_activation_ns, 1),
        "port_reads": total_reads,
        "port_writes": total_writes,
        "services": len(services),
    }


def synthesize_software(target, module):
    """Run software synthesis for one module of a target architecture."""
    if module not in target.software_modules():
        raise SynthesisError(
            f"module {module.name!r} is not a software module of this target"
        )
    platform = target.platform
    syntax = target.port_syntax()
    address_map = target.address_map()

    services = []
    for service_name in module.services_used():
        unit = target.model.unit_for(module.name, service_name)
        services.append(unit.service(service_name))

    service_views = {
        service.name: emit_service_view(service, syntax) for service in services
    }
    program_text = emit_program(module, service_views.values(), syntax,
                                platform_name=platform.name)

    metrics = estimate_software_metrics(platform, module.fsm, services)
    return SoftwareSynthesisResult(
        module, platform.name, program_text, service_views, address_map, metrics
    )
