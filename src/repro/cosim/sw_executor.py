"""Execution of software modules during co-simulation.

A software module is *activated* periodically by the backplane; each
activation runs its FSM according to the chosen
:class:`~repro.cosim.sync.ActivationPolicy` (the paper's default: one
transition).  Service calls inside the FSM are dispatched to the module's
:class:`~repro.cosim.services.ServiceRegistry`, whose instances execute the
service FSMs through the C-language-interface accessor — i.e. the SW
simulation view.

The backplane drives activations from a generator process yielding a
reused :class:`~repro.desim.events.Timeout` (see
:meth:`repro.cosim.session.CosimSession._build_software`); between
activations the executor costs the kernel nothing.
"""

from repro.cosim.sync import OneTransitionPerActivation
from repro.ir.interp import FsmInstance, NullPortAccessor


class SoftwareExecutor:
    """Drives one software module's FSM inside a co-simulation."""

    def __init__(self, module, registry, policy=None):
        self.module = module
        self.registry = registry
        self.policy = policy or OneTransitionPerActivation()
        self.instance = FsmInstance(
            module.fsm,
            ports=NullPortAccessor(),
            call_handler=registry.call_handler(),
            trace=True,
        )
        self.activations = 0
        self.transitions = 0

    @property
    def finished(self):
        """True once the module FSM has entered one of its done states."""
        return self.instance.current in self.module.fsm.done_states

    @property
    def current_state(self):
        return self.instance.current

    def activate(self):
        """Run one activation; returns the StepResults it produced."""
        if self.finished:
            return []
        self.activations += 1
        results = self.policy.activate(self.instance)
        self.transitions += sum(1 for result in results if result.fired)
        return results

    def state_history(self):
        """Sequence of states visited, from the FSM instance trace.

        The trace is a ring buffer (``FsmInstance(history_limit=...)``): when
        a very long run has evicted its oldest entries, the reconstruction
        starts from the first *retained* step's source state instead of the
        initial state, so the returned sequence is always an accurate
        (possibly truncated-at-the-front) suffix — never a sequence that
        silently skips from the initial state to late-run states.
        """
        history = self.instance.history
        evicted = (history.maxlen is not None
                   and self.instance.steps > len(history))
        if evicted and history:
            visited = [history[0].from_state]
        else:
            visited = [self.module.fsm.initial]
        for result in history:
            if result.fired:
                visited.append(result.to_state)
        return visited

    def variables(self):
        """Current values of the module FSM's variables."""
        return dict(self.instance.env)

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable run-time state (FSM position, counters, services)."""
        return {
            "instance": self.instance.capture_state(),
            "activations": self.activations,
            "transitions": self.transitions,
            "services": self.registry.capture_state(),
        }

    def restore_state(self, state):
        """Overwrite run-time state with a :meth:`capture_state` copy."""
        self.instance.restore_state(state["instance"])
        self.activations = state["activations"]
        self.transitions = state["transitions"]
        self.registry.restore_state(state["services"])

    def __repr__(self):
        return (
            f"SoftwareExecutor({self.module.name}, state={self.current_state}, "
            f"activations={self.activations})"
        )
