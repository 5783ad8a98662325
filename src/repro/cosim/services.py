"""Per-caller run-time instances of communication services.

Every (caller module, service) pair gets its own :class:`ServiceInstance`
because a service FSM keeps state between steps (it is in the middle of a
handshake); two modules calling the same service name on different units must
not share that state.  The instance also feeds the service-call trace.
"""

from repro.ir.interp import FsmInstance
from repro.utils.errors import SimulationError


class ServiceInstance:
    """The run-time state of one service as used by one caller."""

    def __init__(self, caller, service, unit_name, accessor, trace=None,
                 time_fn=None):
        self.caller = caller
        self.service = service
        self.unit_name = unit_name
        self.accessor = accessor
        self.trace = trace
        self.time_fn = time_fn or (lambda: 0)
        self.instance = FsmInstance(service.fsm, ports=accessor,
                                    reset_on_done=True)
        self.invocations = 0
        self.total_steps = 0

    def step(self, arg_values):
        """Advance the service by one step; returns ``(done, result)``."""
        params = self.service.param_names
        if len(arg_values) != len(params):
            raise SimulationError(
                f"service {self.service.name!r} called with {len(arg_values)} "
                f"arguments, expected {len(params)}"
            )
        now = self.time_fn()
        # The completed-invocation count identifies the in-flight invocation:
        # it is constant across the steps of one call and advances on
        # completion, so two back-to-back calls in one delta cycle open two
        # distinct trace records instead of merging.
        token = self.invocations
        if self.trace is not None:
            self.trace.begin(self.caller, self.service.name, self.unit_name, now,
                             arg_values, token=token)
        self.total_steps += 1
        result = self.instance.step(dict(zip(params, arg_values)))
        if result.done:
            self.invocations += 1
            if self.trace is not None:
                self.trace.complete(self.caller, self.service.name, now,
                                    result.result, token=token)
        return result.done, result.result

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable run-time state (service FSM position and counters)."""
        return {
            "instance": self.instance.capture_state(),
            "invocations": self.invocations,
            "total_steps": self.total_steps,
            "accessor": (self.accessor.reads, self.accessor.writes),
        }

    def restore_state(self, state):
        """Overwrite run-time state with a :meth:`capture_state` copy."""
        self.instance.restore_state(state["instance"])
        self.invocations = state["invocations"]
        self.total_steps = state["total_steps"]
        self.accessor.reads, self.accessor.writes = state["accessor"]

    def __repr__(self):
        return (
            f"ServiceInstance({self.caller}->{self.service.name}@{self.unit_name}, "
            f"invocations={self.invocations})"
        )


class ServiceRegistry:
    """All service instances of one caller module, keyed by service name."""

    def __init__(self, caller):
        self.caller = caller
        self._instances = {}

    def add(self, instance):
        self._instances[instance.service.name] = instance
        return instance

    def get(self, service_name):
        try:
            return self._instances[service_name]
        except KeyError:
            raise SimulationError(
                f"module {self.caller!r} has no bound service {service_name!r}"
            ) from None

    def call_handler(self):
        """Return the ``call_handler`` used by the caller's FsmInstance."""

        def handler(call, arg_values):
            return self.get(call.service).step(arg_values)

        return handler

    def instances(self):
        return list(self._instances.values())

    def capture_state(self):
        """Per-service run-time state of every instance (checkpointing)."""
        return {name: instance.capture_state()
                for name, instance in self._instances.items()}

    def restore_state(self, state):
        for name, instance_state in state.items():
            self.get(name).restore_state(instance_state)

    def __len__(self):
        return len(self._instances)
