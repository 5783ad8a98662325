"""Hardware ports of communication units and hardware modules."""

import enum

from repro.ir.dtypes import DataType, BIT
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier
from repro.utils.readonly import ReadOnly


class PortDirection(enum.Enum):
    """Direction of a port as seen from its owning component."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"


class Port(ReadOnly):
    """A named, typed, directed connection point.

    Ports belong to communication units (the register/handshake wires the
    access procedures manipulate) and to hardware modules (e.g. the motor's
    pulse and direction inputs).  Read-only once built.
    """

    def __init__(self, name, direction=PortDirection.INOUT, dtype=None, description=""):
        name = check_identifier(name, "port name")
        if not isinstance(direction, PortDirection):
            raise ModelError(f"port {name!r}: direction must be a PortDirection")
        dtype = dtype if dtype is not None else BIT
        if not isinstance(dtype, DataType):
            raise ModelError(f"port {name!r}: dtype must be a DataType")
        self._seal(name=name, direction=direction, dtype=dtype,
                   description=description)

    @property
    def initial(self):
        """Initial value the corresponding simulation signal takes."""
        return self.dtype.default

    def __repr__(self):
        return f"Port({self.name}, {self.direction.value}, {self.dtype!r})"


def input_port(name, dtype=None, description=""):
    """Shorthand for an input port."""
    return Port(name, PortDirection.IN, dtype, description)


def output_port(name, dtype=None, description=""):
    """Shorthand for an output port."""
    return Port(name, PortDirection.OUT, dtype, description)


def check_unique_ports(ports, owner="component"):
    """Ensure port names are unique; returns them as an ordered dict."""
    result = {}
    for port in ports:
        if not isinstance(port, Port):
            raise ModelError(f"{owner}: {port!r} is not a Port")
        if port.name in result:
            raise ModelError(f"{owner}: duplicate port {port.name!r}")
        result[port.name] = port
    return result
