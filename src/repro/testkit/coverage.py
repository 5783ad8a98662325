"""Coverage instrumentation over co-simulation runs.

A :class:`CoverageMap` counts four families of behavioural bins:

* **state visits** — every FSM state entered (controllers, service FSMs,
  hardware behaviours, software FSMs),
* **transition edges** — every ``from>to`` edge fired,
* **protocol phases** — per communication unit, the rolling 3-grams of
  ``role.STATE`` events (controller / put / get), keyed by channel kind
  (handshake / fifo / shared_reg): the observable interleavings of the
  protocol,
* **service-call orderings** — consecutive completed service pairs per
  caller, read post-hoc from the session's service-call trace.

Bin names are *normalised*: every digit run becomes ``#`` (``PROD0`` →
``PROD#``, ``Net3Ctrl`` → ``Net#Ctrl``), so the coverage universe is
finite and shared across generated systems of any size, and "more
networks" cannot masquerade as "more behaviour covered".

Collection hangs off the per-step ``observer`` hook of
:class:`repro.ir.interp.FsmInstance`, which both execution tiers invoke on
the identical StepResult — a fused and an interpreted run of the same
seed serialise to byte-identical coverage.  Serialisation goes through
:func:`repro.utils.canonical.canonical_json`, so it is also independent of
PYTHONHASHSEED and platform.
"""

import re

from repro.cosim.faults import classify_unit
from repro.utils.canonical import canonical_json, content_digest

#: Length of the protocol-phase n-grams.
PHASE_DEPTH = 3

_DIGITS = re.compile(r"\d+")


def normalize_name(name):
    """Collapse every digit run in *name* to ``#`` (``PROD12`` → ``PROD#``)."""
    return _DIGITS.sub("#", name)


class CoverageMap:
    """Counting bins of behavioural coverage; mergeable and serialisable."""

    def __init__(self):
        self.state_visits = {}
        self.edges = {}
        self.phases = {}
        self.call_pairs = {}
        # Rolling per-unit window feeding the phase n-grams (runtime only,
        # not part of the serialised map).
        self._phase_window = {}

    # ------------------------------------------------------------- collection

    @staticmethod
    def _bump(table, key):
        table[key] = table.get(key, 0) + 1

    def visit_state(self, fsm_name, state):
        self._bump(self.state_visits, f"{normalize_name(fsm_name)}/{state}")

    def fsm_observer(self, fsm_name, phase=None):
        """Observer callback for one FSM instance.

        *phase*, when given, is ``(kind, role, unit_name)`` and feeds the
        unit's protocol-phase window in addition to states and edges.
        """
        name = normalize_name(fsm_name)
        state_visits = self.state_visits
        edges = self.edges

        def observe(result):
            if not result.fired:
                return
            self._bump(state_visits, f"{name}/{result.to_state}")
            self._bump(edges, f"{name}/{result.from_state}>{result.to_state}")
            if phase is not None:
                kind, role, unit = phase
                self.record_phase(kind, role, unit, result.to_state)

        return observe

    def record_phase(self, kind, role, unit, state):
        window = self._phase_window.setdefault(unit, [])
        window.append(f"{role}.{state}")
        del window[:-PHASE_DEPTH]
        self._bump(self.phases, f"{kind}:" + ">".join(window))

    def record_trace(self, trace):
        """Fold a session's service-call trace into the ordering bins."""
        previous = {}
        for record in trace.records:
            if not record.completed:
                continue
            caller = normalize_name(record.caller)
            service = normalize_name(record.service)
            before = previous.get(caller)
            if before is not None:
                self._bump(self.call_pairs, f"{caller}:{before}>{service}")
            previous[caller] = service

    def merge(self, other):
        """Add *other*'s counts into this map; returns self."""
        for mine, theirs in (
            (self.state_visits, other.state_visits),
            (self.edges, other.edges),
            (self.phases, other.phases),
            (self.call_pairs, other.call_pairs),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        return self

    # ------------------------------------------------------------------ query

    def bins(self):
        """Total number of distinct bins hit (the novelty currency)."""
        return (len(self.state_visits) + len(self.edges)
                + len(self.phases) + len(self.call_pairs))

    def state_coverage(self, universe):
        return _fraction(self.state_visits, universe["states"])

    def edge_coverage(self, universe):
        return _fraction(self.edges, universe["edges"])

    # -------------------------------------------------------------- serialise

    def as_dict(self):
        return {
            "format": 1,
            "states": dict(self.state_visits),
            "edges": dict(self.edges),
            "phases": dict(self.phases),
            "calls": dict(self.call_pairs),
        }

    @classmethod
    def from_dict(cls, data):
        coverage = cls()
        coverage.state_visits = dict(data["states"])
        coverage.edges = dict(data["edges"])
        coverage.phases = dict(data["phases"])
        coverage.call_pairs = dict(data["calls"])
        return coverage

    def to_json(self):
        """Byte-stable serialisation (same seed + mode → identical bytes)."""
        return canonical_json(self.as_dict())

    def digest(self):
        return content_digest(self.as_dict())

    def __repr__(self):
        return (f"CoverageMap(states={len(self.state_visits)}, "
                f"edges={len(self.edges)}, phases={len(self.phases)}, "
                f"calls={len(self.call_pairs)})")


def _fraction(table, keys):
    if not keys:
        return 1.0
    hit = sum(1 for key in keys if key in table)
    return hit / len(keys)


def coverage_universe(model):
    """The statically reachable bins of *model*: normalised states and edges.

    Built from the declared FSMs — communication-unit controllers and
    services, hardware behaviours, software FSMs — in declaration order.
    Phase and call-ordering bins have no closed static universe (they are
    dynamic interleavings) and are reported as raw bin counts instead.
    """
    states, edges = set(), set()
    for fsm in model_fsms(model):
        name = normalize_name(fsm.name)
        for state in fsm.iter_states():
            states.add(f"{name}/{state.name}")
            for transition in state.transitions:
                edges.add(f"{name}/{state.name}>{transition.target}")
    return {"states": sorted(states), "edges": sorted(edges)}


def merge_universes(universes):
    """Union of several :func:`coverage_universe` results."""
    states, edges = set(), set()
    for universe in universes:
        states.update(universe["states"])
        edges.update(universe["edges"])
    return {"states": sorted(states), "edges": sorted(edges)}


def model_fsms(model):
    """Every FSM declared by *model*, in declaration order."""
    for unit in model.comm_units.values():
        for controller in unit.controllers:
            yield controller.fsm
        for service in unit.services.values():
            yield service.fsm
    for module in model.hardware_modules():
        yield from module.behaviours()
    for module in model.software_modules():
        yield module.fsm


def attach_session(session, coverage, seed_states=True):
    """Wire *coverage* observers into every FSM instance of *session*.

    The session is built if needed; each instance's current (initial)
    state is seeded as visited, matching the VHDL notion that an FSM *is*
    in its initial state before any transition fires.  Returns *coverage*.
    Call :meth:`CoverageMap.record_trace` after the run to fold in the
    service-call orderings.

    Pass ``seed_states=False`` when re-wiring the *same* map onto a
    session restored from a checkpoint: the resumed states were already
    counted before the snapshot, and skipping the seed keeps the final
    map byte-identical to an unbroken run.
    """
    session.build()
    kinds = {unit.name: classify_unit(unit)
             for unit in session.model.comm_units.values()}

    def wire(instance, phase=None):
        instance.observer = coverage.fsm_observer(instance.fsm.name,
                                                  phase=phase)
        if seed_states:
            coverage.visit_state(instance.fsm.name, instance.current)

    for key, instance in session.controller_instances.items():
        unit_name = key.split(".", 1)[0]
        wire(instance, phase=(kinds[unit_name], "ctrl", unit_name))
    for adapter in session.hw_adapters.values():
        for instance in adapter.instances.values():
            wire(instance)
        for service in adapter.registry.instances():
            _wire_service(wire, kinds, service)
    for executor in session.sw_executors.values():
        wire(executor.instance)
        for service in executor.registry.instances():
            _wire_service(wire, kinds, service)
    return coverage


def _wire_service(wire, kinds, service):
    role = "put" if service.service.param_names else "get"
    wire(service.instance,
         phase=(kinds[service.unit_name], role, service.unit_name))


def scoreboard(coverage, universe, fault_survival=None, deadline_misses=None):
    """The per-sweep scoreboard record of one coverage collection.

    *fault_survival* — fraction (0..1) of fault scenarios whose functional
    expectations still held, or None when no faults were injected;
    *deadline_misses* — count of service calls exceeding the
    back-annotated deadline, or None when no real-time scenario ran.
    """
    states_total = len(universe["states"])
    edges_total = len(universe["edges"])
    states_visited = sum(1 for key in universe["states"]
                         if key in coverage.state_visits)
    edges_covered = sum(1 for key in universe["edges"]
                        if key in coverage.edges)
    return {
        "states_visited": states_visited,
        "states_total": states_total,
        "state_coverage": round(states_visited / states_total, 4)
        if states_total else 1.0,
        "edges_covered": edges_covered,
        "edges_total": edges_total,
        "edge_coverage": round(edges_covered / edges_total, 4)
        if edges_total else 1.0,
        "phase_bins": len(coverage.phases),
        "call_bins": len(coverage.call_pairs),
        "fault_survival": fault_survival,
        "deadline_misses": deadline_misses,
    }
