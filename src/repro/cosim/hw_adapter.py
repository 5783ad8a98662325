"""Execution of hardware modules during co-simulation.

Each process of a hardware module becomes a clocked simulation process: on
every rising clock edge it executes one FSM transition.  Port reads/writes
act directly on simulation signals (the HW view); service calls are
dispatched to the module's service instances, whose FSMs also act on the
communication unit's signals — exactly what the generated VHDL procedures
would do inside the process.
"""

from repro.ir.interp import FsmInstance


class HardwareAdapter:
    """Drives the processes of one hardware module inside a co-simulation."""

    def __init__(self, module, simulator, clock, accessor, registry,
                 register=True):
        self.module = module
        self.simulator = simulator
        self.clock = clock
        self.registry = registry
        self.instances = {}
        for fsm in module.behaviours():
            self.instances[fsm.name] = FsmInstance(
                fsm,
                ports=accessor,
                call_handler=registry.call_handler(),
            )
        self.cycles = 0
        # register=False leaves the clocked process out: the session's
        # fused step (repro.ir.syscompile) drives the instances and the
        # cycle counter itself.
        if register:
            self._register()

    def _register(self):
        # The instance list is immutable after construction; binding it (and
        # the step methods) locally keeps the per-edge cost of an adapter
        # proportional to its FSM work, not to attribute traffic.
        steppers = [instance.step for instance in self.instances.values()]

        def on_posedge():
            self.cycles += 1
            for step in steppers:
                step()

        self.simulator.add_clocked_process(f"{self.module.name}_clked",
                                           on_posedge, self.clock)

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable run-time state (FSM positions, counters, services)."""
        return {
            "cycles": self.cycles,
            "instances": {name: instance.capture_state()
                          for name, instance in self.instances.items()},
            "services": self.registry.capture_state(),
        }

    def restore_state(self, state):
        """Overwrite run-time state with a :meth:`capture_state` copy."""
        self.cycles = state["cycles"]
        for name, instance_state in state["instances"].items():
            self.instances[name].restore_state(instance_state)
        self.registry.restore_state(state["services"])

    def process_state(self, process_name):
        """Current FSM state of one named process of the module."""
        return self.instances[process_name].current

    def process_variables(self, process_name):
        """Current variable values of one named process."""
        return dict(self.instances[process_name].env)

    def __repr__(self):
        states = {name: inst.current for name, inst in self.instances.items()}
        return f"HardwareAdapter({self.module.name}, cycles={self.cycles}, states={states})"
