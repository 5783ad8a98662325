"""Software and hardware modules of the unified model."""

from repro.core.port import Port, check_unique_ports
from repro.ir.fsm import Fsm
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier


class Module:
    """Common behaviour of software and hardware modules."""

    kind = "abstract"

    def __init__(self, name, ports=(), description=""):
        self.name = check_identifier(name, "module name")
        self.ports = check_unique_ports(ports, owner=f"module {name!r}")
        self.description = description

    def behaviours(self):
        """Return the FSMs describing this module's behaviour."""
        raise NotImplementedError

    def services_used(self):
        """Distinct service names called by any behaviour of the module."""
        return list(dict.fromkeys(
            service for fsm in self.behaviours() for service in fsm.services_called
        ))

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class SoftwareModule(Module):
    """A software module: one FSM, one transition per activation.

    The paper's Distribution subsystem is the canonical example: a C program
    organised as a finite state machine; "each time a software component is
    activated, all the code is executed [but] only one transition is
    executed", giving precise HW/SW synchronization.
    """

    kind = "software"

    def __init__(self, name, fsm, ports=(), description="", activation_period=None):
        super().__init__(name, ports=ports, description=description)
        if not isinstance(fsm, Fsm):
            raise ModelError(f"software module {name!r}: fsm must be an Fsm")
        self.fsm = fsm
        #: co-simulation activation period in ns (None = activate every cycle
        #: of the co-simulation backplane's software clock)
        self.activation_period = activation_period

    def behaviours(self):
        return [self.fsm]


class HardwareModule(Module):
    """A hardware module: parallel processes, one transition per clock cycle.

    The paper's Speed Control subsystem has three processes (Position, Core,
    Timer) communicating through VHDL signals; those internal signals are
    modelled here as module ports flagged internal.
    """

    kind = "hardware"

    def __init__(self, name, processes, ports=(), internal_signals=(), description="",
                 clock_period=100):
        super().__init__(name, ports=ports, description=description)
        self.processes = {}
        for fsm in processes:
            if not isinstance(fsm, Fsm):
                raise ModelError(f"hardware module {name!r}: {fsm!r} is not an Fsm")
            if fsm.name in self.processes:
                raise ModelError(
                    f"hardware module {name!r}: duplicate process {fsm.name!r}"
                )
            self.processes[fsm.name] = fsm
        self.internal_signals = check_unique_ports(
            internal_signals, owner=f"module {name!r} internal signals"
        )
        #: default clock period (ns) used by co-simulation before synthesis
        #: back-annotates a real achievable clock
        self.clock_period = clock_period

    def behaviours(self):
        return list(self.processes.values())

    def process(self, name):
        try:
            return self.processes[name]
        except KeyError:
            raise ModelError(
                f"hardware module {self.name!r} has no process {name!r}"
            ) from None

    def all_signal_names(self):
        """Port and internal-signal names of the module."""
        return list(self.ports) + list(self.internal_signals)
