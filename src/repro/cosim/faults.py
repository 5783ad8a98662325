"""Fault injection for co-simulation sessions.

A :class:`FaultPlan` is a deterministic timetable of fault events applied
to one communication unit's wires: forcing a signal (HDL ``force`` — see
:class:`repro.desim.signal.ForceValue`), releasing it, or resetting the
unit mid-transaction.  The plan is installed on a session with
:meth:`repro.cosim.session.CosimSession.add_fault_plan`; a rearmable
injector process then walks the timetable during the run.

Faults travel through the ordinary transaction queue, so a faulted run is
still deterministic and *differentially comparable*: the production and
reference kernels — and the fused and interpreted tiers — must
produce byte-identical results under the same plan.  What a fault may
legitimately change is the functional outcome (words delayed, dropped,
corrupted or duplicated); that is recorded as the *fault-survival* field
of the coverage scoreboard, never asserted by the conformance oracle.

The builders below map the protocol-level fault taxonomy onto wires:

``stuck_handshake``
    The consumer's acknowledge strobe is forced low for a window.  Both
    protocols stall and resume — a pure delay.  The blocking handshake's
    controller refuses the next word until it has seen the acknowledge go
    low; the decoupled FIFO controller pops only on an *observed rising
    edge* of the acknowledge and holds its offer back through a
    release-wait after each pop, so a forced-then-released acknowledge
    can stretch the exchange but never pop a word the consumer did not
    capture.  (Earlier revisions lost a word here to a stale acknowledge;
    the four-phase consumer side of
    :func:`repro.comm.protocols.fifo.make_fifo_controller` closed that.)
``dropped_handshake``
    The producer's ready strobe is forced low for a window.  The
    handshake protocol retries (delay only); the edge-detected FIFO push
    genuinely loses words strobed during the window.
``bus_contention``
    The data bus is forced to a contention pattern for a window; words
    latched meanwhile are corrupted.
``reset_mid_transaction``
    The unit's controllers and ports snap back to their initial state at
    one instant, abandoning any in-flight transaction.  The controllers'
    work counters (``steps``, ``transitions_fired``) keep counting.

Units without the named strobe (a shared register has no flow control)
degrade to forcing the register itself, which models the same class of
disturbance the protocol can express.
"""

from repro.desim import Timeout
from repro.desim.signal import ForceValue, ReleaseValue
from repro.utils.errors import SimulationError

#: Fault kinds understood by :func:`plan_for_unit`.
FAULT_KINDS = ("stuck_handshake", "dropped_handshake", "bus_contention",
               "reset_mid_transaction")

#: Alternating-bit pattern driven onto a contended data bus.
CONTENTION_VALUE = 0x5A5A

_EVENT_OPS = ("force", "release", "reset_unit")


class FaultEvent:
    """One timed fault operation on a unit port."""

    __slots__ = ("time", "op", "unit", "port", "value")

    def __init__(self, time, op, unit, port=None, value=None):
        if op not in _EVENT_OPS:
            raise SimulationError(
                f"unknown fault op {op!r}; expected one of {_EVENT_OPS}"
            )
        if time <= 0:
            raise SimulationError("fault events must be scheduled after time 0")
        self.time = time
        self.op = op
        self.unit = unit
        self.port = port
        self.value = value

    def as_dict(self):
        return {"time": self.time, "op": self.op, "unit": self.unit,
                "port": self.port, "value": self.value}

    def __repr__(self):
        return (f"FaultEvent(t={self.time}, {self.op}, "
                f"{self.unit}.{self.port})")


class FaultPlan:
    """A named, time-ordered list of :class:`FaultEvent`."""

    def __init__(self, name, events, kind=None):
        if not events:
            raise SimulationError(f"fault plan {name!r} has no events")
        self.name = name
        self.kind = kind
        self.events = sorted(events, key=lambda event: event.time)

    def spec(self):
        """Canonical dict identity of the plan (cache keys, job specs)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "events": [event.as_dict() for event in self.events],
        }

    def __repr__(self):
        return f"FaultPlan({self.name}, events={len(self.events)})"


def _port_by_suffix(unit, *suffixes):
    """First port of *unit* whose name ends with one of *suffixes*, or None.

    Suffixes include the separating underscore (``_FULL``), so the
    handshake's ``FULL`` never matches the FIFO's ``PFULL``.
    """
    for suffix in suffixes:
        for name in unit.ports:
            if name.endswith(suffix):
                return name
    return None


def classify_unit(unit):
    """Channel kind of a communication unit, from its port shape."""
    if _port_by_suffix(unit, "_PFULL"):
        return "fifo"
    if _port_by_suffix(unit, "_FULL"):
        return "handshake"
    if _port_by_suffix(unit, "_REG"):
        return "shared_reg"
    return "unit"


def default_fault_window(clock_period):
    """Default ``(at, duration)`` of a fault window, scaled to the clock.

    An absolute default would miss fast systems entirely (their transfers
    finish before the window opens); scaling by the clock lands the window
    mid-transfer whether the clock is 20 or 100 ns.  The +37 keeps the
    injection instant off the clock-edge grid.
    """
    return 11 * clock_period + 37, 29 * clock_period


def _window(name, kind, unit_name, port, value, at, duration):
    return FaultPlan(name, [
        FaultEvent(at, "force", unit_name, port, value),
        FaultEvent(at + duration, "release", unit_name, port),
    ], kind=kind)


def plan_for_unit(kind, unit, at=2_000, duration=1_500, name=None):
    """Build the :class:`FaultPlan` of fault *kind* against *unit*.

    *at*/*duration* are nanoseconds; ``reset_mid_transaction`` ignores
    *duration* (it is a single instant).
    """
    if kind not in FAULT_KINDS:
        raise SimulationError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    name = name or f"{kind}_{unit.name}"
    reg = _port_by_suffix(unit, "_REG")
    if kind == "reset_mid_transaction":
        return FaultPlan(name, [FaultEvent(at, "reset_unit", unit.name)],
                         kind=kind)
    if kind == "bus_contention":
        port = _port_by_suffix(unit, "_DATAIN") or reg
        if port is None:
            raise SimulationError(
                f"unit {unit.name!r} has no data port to contend"
            )
        return _window(name, kind, unit.name, port, CONTENTION_VALUE,
                       at, duration)
    strobe = "_GETACK" if kind == "stuck_handshake" else "_PUTRDY"
    port = _port_by_suffix(unit, strobe)
    if port is not None:
        return _window(name, kind, unit.name, port, 0, at, duration)
    if reg is not None:
        # No flow control to disturb: a stuck shared register models the
        # same wire-level fault class.
        return _window(name, kind, unit.name, reg,
                       unit.ports[reg].initial, at, duration)
    raise SimulationError(f"unit {unit.name!r} supports no {kind!r} fault")


class FaultInjector:
    """Rearmable process walking one :class:`FaultPlan` on a session.

    The whole run-time state is the event cursor, kept on the injector
    object (never in a generator frame), so faulted sessions survive
    ``save()``/``restore()``: a restored cursor plus the kernel's re-armed
    wait resume the timetable exactly where it stopped.
    """

    def __init__(self, session, plan):
        self.session = session
        self.plan = plan
        self.cursor = 0

    @property
    def process_name(self):
        return f"fault_{self.plan.name}"

    def install(self):
        """Register the injector process on the session's simulator."""
        simulator = self.session.simulator
        events = self.plan.events

        def injector():
            # Act-first loop: apply every event due now, then sleep until
            # the next one.  A fresh generator stepped once behaves exactly
            # like a resumed one, given the restored cursor.
            while True:
                while (self.cursor < len(events)
                       and events[self.cursor].time <= simulator.now):
                    self._apply(events[self.cursor])
                    self.cursor += 1
                if self.cursor >= len(events):
                    return
                yield Timeout(events[self.cursor].time - simulator.now)

        simulator.add_process(self.process_name, injector,
                              first_wait=Timeout(events[0].time),
                              rearmable=True)
        return self

    def _apply(self, event):
        session = self.session
        simulator = session.simulator
        if event.op == "force":
            simulator.schedule(session.unit_signal(event.unit, event.port),
                               ForceValue(event.value), 0)
        elif event.op == "release":
            simulator.schedule(session.unit_signal(event.unit, event.port),
                               ReleaseValue(), 0)
        else:  # reset_unit
            marker = f"{event.unit}."
            for key, instance in session.controller_instances.items():
                if key.startswith(marker):
                    instance.reset()
            unit = session.model.comm_units[event.unit]
            for port in unit.ports.values():
                simulator.schedule(session.unit_signal(event.unit, port.name),
                                   port.initial, 0)

    # ----------------------------------------------------------- state access

    def capture_state(self):
        return {"plan": self.plan.name, "cursor": self.cursor}

    def restore_state(self, state):
        if state["plan"] != self.plan.name:
            raise SimulationError(
                f"cannot restore fault injector state of {state['plan']!r} "
                f"into injector of {self.plan.name!r}"
            )
        self.cursor = state["cursor"]

    def __repr__(self):
        return (f"FaultInjector({self.plan.name}, "
                f"cursor={self.cursor}/{len(self.plan.events)})")
