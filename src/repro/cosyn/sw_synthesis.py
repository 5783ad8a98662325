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

import weakref

from repro.ir.expr import PortRef
from repro.ir.stmt import Assign, If, PortWrite
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


def _cost_summary(fsm):
    """``(totals, worst)`` of one FSM, memoised on it in :data:`_SUMMARIES`.

    *totals* is the whole FSM's (statements, port reads, port writes);
    *worst* the largest per-state (statements, port reads, port writes)
    step.  A pure function of the FSM, which is read-only once built, so
    a library service FSM is walked once per process and a module FSM
    once per exploration that repartitions it.
    """
    summary = _SUMMARIES.get(fsm)
    if summary is None:
        summary = _SUMMARIES[fsm] = _summarise(fsm)
    return summary


#: Fsm -> its :func:`_cost_summary`; weak keys keep FSMs collectable.
_SUMMARIES = weakref.WeakKeyDictionary()


def _summarise(fsm):
    """Walk *fsm* once for its :func:`_cost_summary`.

    The totals count nested ``If`` bodies; a state's step counts its
    actions and each transition's actions and guard, but only the
    top-level port writes, and at least one statement.  The worst step
    is the first with the largest sum, starting from ``(1, 0, 0)``.
    """
    counts = [0, 0, 0]
    worst = (1, 0, 0)
    for state in fsm.iter_states():
        reads = counts[1]
        statements = len(state.actions)
        writes = _walk(state.actions, counts)
        for transition in state.transitions:
            statements += len(transition.actions)
            writes += _walk(transition.actions, counts)
            if transition.guard is not None:
                statements += 1
                counts[1] += _port_reads(transition.guard)
            if transition.call is not None:
                for arg in transition.call.args:
                    counts[1] += _port_reads(arg)
        step = (max(statements, 1), counts[1] - reads, writes)
        if sum(step) > sum(worst):
            worst = step
    return tuple(counts), worst


def _walk(statements, counts):
    """Add the statements, port reads and port writes of *statements*,
    nested ``If`` bodies included, to *counts*; return the port writes
    among *statements* themselves."""
    writes = 0
    for stmt in statements:
        counts[0] += 1
        if isinstance(stmt, If):
            counts[1] += _port_reads(stmt.cond)
            _walk(stmt.then, counts)
            _walk(stmt.orelse, counts)
        elif isinstance(stmt, (Assign, PortWrite)):
            counts[1] += _port_reads(stmt.expr)
            if isinstance(stmt, PortWrite):
                counts[2] += 1
                writes += 1
    return writes


def _port_reads(expr):
    """Number of port reads in *expr*."""
    reads = 1 if isinstance(expr, PortRef) else 0
    for child in expr.children():
        reads += _port_reads(child)
    return reads


def estimate_software_metrics(platform, fsm, services):
    """Code-size / activation-timing metrics of one software FSM on *platform*.

    The metrics depend only on the FSM, the service views it calls and the
    platform timing model — **not** on the rest of the placement — which is
    what lets :mod:`repro.dse` memoize them per (module, side, platform).
    """
    (total_statements, _, _), worst = _cost_summary(fsm)
    worst_statements, worst_reads, worst_writes = worst
    total_reads = 0
    total_writes = 0
    for service in services:
        (statements, reads, writes), service_worst = _cost_summary(service.fsm)
        total_statements += statements
        total_reads += reads
        total_writes += writes
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
