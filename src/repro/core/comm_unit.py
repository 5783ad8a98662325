"""Communication units and their controllers (paper §3, Figure 2).

A communication unit is "an entity able to execute a communication scheme
invoked through a procedure call mechanism".  It owns

* a set of hardware **ports** (the registers and flags its protocol uses),
* a set of **services** (access procedures) grouped into named interfaces,
* optionally a **controller** — an FSM clocked like a hardware process that
  guards the unit's state and resolves conflicts (a handshake, a FIFO
  manager, up to a layered protocol).

The unit itself is a library component: co-synthesis never synthesizes it,
it swaps in the platform's real communication resources instead.  Units and
controllers are read-only once built, so one unit can serve every model
that instantiates it (see :mod:`repro.comm.channels`).
"""

from types import MappingProxyType

from repro.core.port import check_unique_ports
from repro.core.service import Service
from repro.ir.fsm import Fsm
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier
from repro.utils.readonly import ReadOnly


class CommunicationController(ReadOnly):
    """The conflict-resolution / state-guarding FSM of a communication unit."""

    def __init__(self, name, fsm, description="", protocol=""):
        name = check_identifier(name, "controller name")
        if not isinstance(fsm, Fsm):
            raise ModelError(f"controller {name!r}: fsm must be an Fsm")
        # ``protocol``: the protocol template this controller was stamped
        # from (e.g. ``"handshake"``, ``"fifo(depth=4)"``); empty for
        # hand-built controllers.  Descriptive only: fused code generation
        # reads the FSM, so equal FSMs share one compiled fragment whatever
        # their tag.
        self._seal(name=name, fsm=fsm, description=description,
                   protocol=protocol)

    def __repr__(self):
        return f"CommunicationController({self.name})"


class CommunicationUnit(ReadOnly):
    """A communication unit: ports + services + optional controller."""

    def __init__(self, name, ports=(), services=(), controller=None, controllers=(),
                 description=""):
        name = check_identifier(name, "communication unit name")
        ports = check_unique_ports(ports, owner=f"communication unit {name!r}")
        by_name = {}
        interfaces = {}
        for service in services:
            if not isinstance(service, Service):
                raise ModelError(f"{service!r} is not a Service")
            if service.name in by_name:
                raise ModelError(
                    f"communication unit {name!r}: duplicate service {service.name!r}"
                )
            by_name[service.name] = service
            interface = service.interface or "default"
            interfaces[interface] = interfaces.get(interface, ()) + (service.name,)
        all_controllers = list(controllers)
        if controller is not None:
            all_controllers.insert(0, controller)
        for item in all_controllers:
            if not isinstance(item, CommunicationController):
                raise ModelError(
                    f"communication unit {name!r}: {item!r} is not a "
                    "CommunicationController"
                )
        self._seal(name=name, ports=MappingProxyType(ports),
                   services=MappingProxyType(by_name),
                   interfaces=MappingProxyType(interfaces),
                   controllers=tuple(all_controllers), description=description)

    def __reduce__(self):
        return (CommunicationUnit,
                (self.name, tuple(self.ports.values()),
                 tuple(self.services.values()), None, self.controllers,
                 self.description))

    @property
    def controller(self):
        """The first controller (None when the unit is purely passive)."""
        return self.controllers[0] if self.controllers else None

    # ----------------------------------------------------------------- query

    def service(self, name):
        try:
            return self.services[name]
        except KeyError:
            raise ModelError(
                f"communication unit {self.name!r} has no service {name!r}"
            ) from None

    def interface_services(self, interface):
        """Return the Service objects of one interface group."""
        if interface not in self.interfaces:
            raise ModelError(
                f"communication unit {self.name!r} has no interface {interface!r}"
            )
        return [self.services[name] for name in self.interfaces[interface]]

    def port(self, name):
        try:
            return self.ports[name]
        except KeyError:
            raise ModelError(
                f"communication unit {self.name!r} has no port {name!r}"
            ) from None

    def __repr__(self):
        return (
            f"CommunicationUnit({self.name}, ports={len(self.ports)}, "
            f"services={sorted(self.services)})"
        )
