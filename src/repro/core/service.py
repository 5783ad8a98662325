"""Services (access procedures) of communication units.

A service is the only way a module interacts with a communication unit: the
paper's ``put``/``get`` of Figure 2, or ``SetupControl`` / ``MotorPosition``
/ ``ReadMotorState`` of the motor controller.  Its behaviour is a single FSM
over the unit's ports; the different *views* (C for simulation, C for each
software target, VHDL for hardware) are generated from — or checked against —
this one description.
"""

from repro.ir.dtypes import DataType
from repro.ir.fsm import Fsm
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier
from repro.utils.readonly import ReadOnly


class ServiceParam(ReadOnly):
    """A formal parameter of a service (e.g. ``REQUEST`` of ``PUT``)."""

    def __init__(self, name, dtype, description=""):
        name = check_identifier(name, "service parameter")
        if not isinstance(dtype, DataType):
            raise ModelError(f"parameter {name!r}: dtype must be a DataType")
        self._seal(name=name, dtype=dtype, description=description)

    def __repr__(self):
        return f"ServiceParam({self.name}, {self.dtype!r})"


class Service(ReadOnly):
    """An access procedure offered by a communication unit; read-only once
    built.

    Parameters
    ----------
    name:
        Procedure name, shared by all its views.
    fsm:
        Behavioural FSM over the unit's ports.  Service parameters must be
        declared as FSM variables (they are assigned from the caller's
        arguments at each step); the FSM's ``result_var`` — if any — is the
        value handed back to the caller on completion.
    params:
        Ordered formal parameters.
    returns:
        Data type of the returned value, or ``None`` for a procedure that
        only reports completion.
    interface:
        Name of the interface group this service belongs to (the paper groups
        services into ``Distribution_Interface``, ``Control_Interface``,
        ``Motor_Interface``).
    """

    def __init__(self, name, fsm, params=(), returns=None, interface=None,
                 description=""):
        name = check_identifier(name, "service name")
        if not isinstance(fsm, Fsm):
            raise ModelError(f"service {name!r}: fsm must be an Fsm")
        params = tuple(params)
        for param in params:
            if not isinstance(param, ServiceParam):
                raise ModelError(f"service {name!r}: {param!r} is not a ServiceParam")
            if param.name not in fsm.variables:
                raise ModelError(
                    f"service {name!r}: parameter {param.name!r} must be declared "
                    "as an FSM variable"
                )
        if returns is not None and not isinstance(returns, DataType):
            raise ModelError(f"service {name!r}: returns must be a DataType or None")
        if returns is not None and fsm.result_var is None:
            raise ModelError(
                f"service {name!r}: declares a return type but the FSM has no result_var"
            )
        if not fsm.done_states:
            raise ModelError(
                f"service {name!r}: the FSM needs at least one done state so callers "
                "can detect completion"
            )
        self._seal(name=name, fsm=fsm, params=params, returns=returns,
                   interface=interface, description=description)

    @property
    def param_names(self):
        return [param.name for param in self.params]

    def ports_used(self):
        """Names of the communication-unit ports the service touches."""
        return list(dict.fromkeys(self.fsm.ports_read + self.fsm.ports_written))

    def __repr__(self):
        return f"Service({self.name}, params={self.param_names}, interface={self.interface})"
