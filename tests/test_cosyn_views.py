"""The co-synthesis memos over the read-only library.

Two pure pieces of co-synthesis are memoised weakly on the objects they
are computed from: a service's VHDL procedure on the ``Service``
(:data:`repro.hdl.emitter._PROCEDURES`) and an FSM's software cost
summary on the ``Fsm`` (:data:`repro.cosyn.sw_synthesis._SUMMARIES`).
These tests pin that a memoised result equals a fresh computation, that
an entry goes with its key, and that a second job over the same library
units computes neither again.
"""

import gc

from repro.apps.motor_controller.system import build_system
from repro.apps.motor_controller.two_axis import build_two_axis_system
from repro.comm.channels import (
    fifo_channel,
    handshake_channel,
    shared_register_channel,
)
from repro.cosyn import sw_synthesis
from repro.hdl import emitter
from repro.hdl.emitter import EmitContext, emit_service_procedure
from repro.ir.dtypes import BitType
from repro.ir.expr import PortRef
from repro.ir.stmt import PortWrite
from repro.ir.visitor import (
    iter_expressions,
    iter_state_expressions,
    iter_statements,
)
from repro.sweep.jobs import CosynJob
from repro.testkit.models import generate_system

from tests.conftest import make_put_like_service


def _library_units():
    return [
        factory("Lib", prefix=prefix)
        for factory, prefix in ((handshake_channel, "HS"), (fifo_channel, "FF"),
                                (shared_register_channel, "SR"))
    ]


def _bit_port_sets(unit):
    names = sorted(unit.ports)
    bits = {name for name, port in unit.ports.items()
            if isinstance(port.dtype, BitType)}
    sets = [set(), set(names), bits, bits | {"UNRELATED", "clk"}]
    sets.extend({name} for name in names)
    return sets


class TestServiceProcedureMemo:
    def test_memoised_procedure_equals_a_fresh_emission(self):
        for unit in _library_units():
            for service in unit.services.values():
                for bits in _bit_port_sets(unit):
                    context = EmitContext(bit_ports=bits)
                    fresh = emitter._service_procedure(service, bits)
                    assert emit_service_procedure(service, context) == fresh
                    assert emit_service_procedure(service, context) == fresh
                assert emit_service_procedure(service) == (
                    emitter._service_procedure(service, set()))

    def test_bit_ports_the_service_does_not_touch_share_one_entry(self):
        service = make_put_like_service()
        bits = {"B_FULL", "PUTRDY"}
        first = emit_service_procedure(service, EmitContext(bit_ports=bits))
        again = emit_service_procedure(
            service, EmitContext(bit_ports=bits | {"OTHER", "clk"}))
        assert again is first
        assert list(emitter._PROCEDURES[service]) == [frozenset(bits)]

    def test_entry_goes_with_its_service(self):
        service = make_put_like_service("GONEPUT")
        emit_service_procedure(service, EmitContext(bit_ports={"B_FULL"}))
        assert service in emitter._PROCEDURES
        del service
        gc.collect()
        assert "GONEPUT" not in {key.name for key in emitter._PROCEDURES}


# Reference copies of the two walks the cost summary replaced.

def _reference_access_counts(fsm):
    statements = sum(1 for _ in iter_statements(fsm))
    reads = sum(1 for expr in iter_expressions(fsm) if isinstance(expr, PortRef))
    writes = sum(1 for stmt in iter_statements(fsm) if isinstance(stmt, PortWrite))
    return statements, reads, writes


def _reference_worst_state_costs(fsm):
    worst = (1, 0, 0)
    for state in fsm.iter_states():
        statements = len(state.actions)
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


def _model_fsms(model):
    for module in model.modules.values():
        yield from module.behaviours()
    for unit in model.comm_units.values():
        for service in unit.services.values():
            yield service.fsm
        for controller in unit.controllers:
            yield controller.fsm


def _service_fsms(model):
    return {service.fsm for unit in model.comm_units.values()
            for service in unit.services.values()}


class TestCostSummaryMemo:
    def test_summary_equals_the_reference_walks(self):
        models = [generate_system(seed).build_model() for seed in range(200)]
        models += [build_system()[0], build_two_axis_system()[0]]
        checked = 0
        for model in models:
            for fsm in _model_fsms(model):
                expected = (_reference_access_counts(fsm),
                            _reference_worst_state_costs(fsm))
                assert sw_synthesis._summarise(fsm) == expected, fsm
                assert sw_synthesis._cost_summary(fsm) == expected, fsm
                checked += 1
        assert checked > 1000

    def test_entry_goes_with_its_fsm(self):
        fsm = make_put_like_service("GONEFSM").fsm
        sw_synthesis._cost_summary(fsm)
        assert fsm in sw_synthesis._SUMMARIES
        del fsm
        gc.collect()
        assert "GONEFSM" not in {key.name for key in sw_synthesis._SUMMARIES}


def test_second_job_of_a_seed_emits_and_walks_no_service(monkeypatch):
    seed = next(seed for seed in range(100)
                if _has_both_sides(generate_system(seed).build_model()))
    CosynJob(seed).execute()
    emitted, walked = [], []
    emit, summarise = emitter._service_procedure, sw_synthesis._summarise

    def counting_emit(service, bit_ports):
        emitted.append(service)
        return emit(service, bit_ports)

    def counting_summarise(fsm):
        walked.append(fsm)
        return summarise(fsm)

    monkeypatch.setattr(emitter, "_service_procedure", counting_emit)
    monkeypatch.setattr(sw_synthesis, "_summarise", counting_summarise)
    record, _ = CosynJob(seed).execute()
    assert record["error"] is None
    assert emitted == []
    services = _service_fsms(generate_system(seed).build_model())
    assert walked, "module FSMs are new objects and are walked again"
    assert not services.intersection(walked)


def _has_both_sides(model):
    """A model whose hardware and software modules both call services."""
    return (any(module.services_used() for module in model.hardware_modules())
            and any(module.services_used() for module in model.software_modules()))
