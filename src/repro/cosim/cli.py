"""Port accessors bridging IR port operations onto simulation signals.

Two accessors exist on purpose, mirroring the paper's two simulation-time
views of a communication procedure:

* :class:`CliPortAccessor` — what the **SW simulation view** compiles to: the
  C-language interface of the VHDL simulator (``cliGetPortValue`` /
  ``cliOutput``).  The SW/HW interface traffic a co-simulation reports is
  the service-call trace (:mod:`repro.cosim.tracing`), not a count kept
  here.
* :class:`SignalPortAccessor` — what the **HW view** is: direct signal
  access inside the hardware simulation.

Functionally both act on the same signals; keeping them distinct preserves
the view boundary and lets tests assert that software only ever touches
hardware through the C-language interface.
"""

from repro.utils.errors import SimulationError


class SignalPortAccessor:
    """Direct signal access used by hardware processes and controllers."""

    def __init__(self, simulator, signal_map, writer=""):
        self._simulator = simulator
        self._signal_map = dict(signal_map)
        self.writer = writer

    def _signal(self, port_name):
        try:
            return self._signal_map[port_name]
        except KeyError:
            raise SimulationError(
                f"{self.writer or 'process'}: unknown port {port_name!r}"
            ) from None

    def read(self, port_name):
        return self._signal(port_name).value

    def write(self, port_name, value):
        self._simulator.schedule(self._signal(port_name), value, 0)


class CliPortAccessor(SignalPortAccessor):
    """The simulator's C-language interface, as used by software callers.

    ``cli_get_port_value`` and ``cli_output`` are provided under their paper
    names so the SW simulation views read naturally; they are the generic
    ``read``/``write`` interface the IR interpreter calls.
    """

    def cli_get_port_value(self, port_name):
        """``cliGetPortValue(map(PORT))`` of the paper's Figure 3b."""
        return self.read(port_name)

    def cli_output(self, port_name, value):
        """``cliOutput(map(PORT), value)`` of the paper's Figure 3b."""
        self.write(port_name, value)
