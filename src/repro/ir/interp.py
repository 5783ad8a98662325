"""IR interpretation.

The co-simulation backplane executes every behaviour by interpreting its FSM:

* :func:`evaluate` / :func:`execute` — expression evaluation and statement
  execution against a variable environment and a *port accessor*,
* :class:`FsmInstance` — the run-time state of one FSM (current state,
  variable values), advanced one transition per :meth:`FsmInstance.step`.

A *port accessor* is any object with ``read(port_name)`` and
``write(port_name, value)``.  The same FSM runs unmodified against very
different accessors: simulator signals (HW view), the C-language-interface
adapter (SW simulation view), the ISA-bus model (SW synthesis view executed
on the platform model) — which is precisely the paper's multi-view idea.

Every :class:`FsmInstance` walks the IR tree through
:func:`evaluate`/:func:`execute` below.  The co-simulation's fused tier
(:mod:`repro.ir.syscompile`) runs controllers and hardware processes in
one generated step function instead; this module is the reference every
such generated step must match byte for byte: StepResult streams,
environments, port traffic, errors.
"""

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.utils.errors import SimulationError


def _int_div(a, b):
    """Truncating integer division (C/VHDL semantics, not Python's floor)."""
    if b == 0:
        raise SimulationError("division by zero in IR expression")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _int_mod(a, b):
    """Remainder of :func:`_int_div`: ``a - b * (a div b)``, sign of *a*."""
    if b == 0:
        raise SimulationError("modulo by zero in IR expression")
    remainder = abs(a) % abs(b)
    return remainder if a >= 0 else -remainder


def step_error(exc, fsm_name, state):
    """The :class:`SimulationError` a step's ``TypeError`` or ``ValueError``
    (an enum literal against an int, say) stands for.

    Its text names the FSM and the state the step started in and keeps
    the original message; the interpreter and the fused fragments both
    raise it, so the two tiers fail with one text.
    """
    return SimulationError(
        f"FSM {fsm_name!r} in state {state!r}: {type(exc).__name__}: {exc}")


_BINARY_FUNCS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _int_div,
    "mod": _int_mod,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "and": lambda a, b: int(bool(a) and bool(b)),
    "or": lambda a, b: int(bool(a) or bool(b)),
    "xor": lambda a, b: int(bool(a) != bool(b)),
    "min": min,
    "max": max,
}

_UNARY_FUNCS = {
    "not": lambda a: int(not a),
    "neg": lambda a: -a,
    "abs": abs,
}


class NullPortAccessor:
    """Port accessor that refuses all accesses; used for pure FSMs."""

    def read(self, port_name):
        raise SimulationError(f"FSM read port {port_name!r} but has no port accessor")

    def write(self, port_name, value):
        raise SimulationError(f"FSM wrote port {port_name!r} but has no port accessor")


class DictPortAccessor:
    """Port accessor backed by a plain dictionary (handy in unit tests)."""

    def __init__(self, values=None):
        self.values = dict(values or {})
        self.writes = []

    def read(self, port_name):
        return self.values.get(port_name, 0)

    def write(self, port_name, value):
        self.values[port_name] = value
        self.writes.append((port_name, value))


def evaluate(expr, env, ports=None):
    """Evaluate an IR expression.

    *env* maps variable names to values; *ports* is a port accessor used for
    :class:`PortRef` reads.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise SimulationError(f"undefined variable {expr.name!r}") from None
    if isinstance(expr, PortRef):
        accessor = ports or NullPortAccessor()
        return accessor.read(expr.port_name)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, env, ports)
        right = evaluate(expr.right, env, ports)
        return _BINARY_FUNCS[expr.op](left, right)
    if isinstance(expr, UnOp):
        return _UNARY_FUNCS[expr.op](evaluate(expr.operand, env, ports))
    raise SimulationError(f"cannot evaluate {expr!r}")


def execute(stmt, env, ports=None):
    """Execute an IR statement, mutating *env* and writing ports as needed."""
    if isinstance(stmt, Assign):
        env[stmt.target] = evaluate(stmt.expr, env, ports)
    elif isinstance(stmt, PortWrite):
        accessor = ports or NullPortAccessor()
        accessor.write(stmt.port_name, evaluate(stmt.expr, env, ports))
    elif isinstance(stmt, If):
        branch = stmt.then if evaluate(stmt.cond, env, ports) else stmt.orelse
        for inner in branch:
            execute(inner, env, ports)
    elif isinstance(stmt, Nop):
        pass
    else:
        raise SimulationError(f"cannot execute {stmt!r}")


class StepResult:
    """Outcome of one FSM step."""

    __slots__ = ("from_state", "to_state", "fired", "done", "result", "called")

    def __init__(self, from_state, to_state, fired, done, result=None, called=None):
        self.from_state = from_state
        self.to_state = to_state
        self.fired = fired
        self.done = done
        self.result = result
        self.called = called

    def __repr__(self):
        arrow = f"{self.from_state}->{self.to_state}" if self.fired else self.from_state
        return f"StepResult({arrow}, done={self.done})"


class FsmInstance:
    """Run-time instance of an :class:`~repro.ir.fsm.Fsm`.

    Parameters
    ----------
    fsm:
        The FSM description to execute.
    ports:
        Port accessor used by ``PortRef`` / ``PortWrite``.
    call_handler:
        Callable ``call_handler(service_call, arg_values) -> (done, value)``
        advancing the called service by one step; required only when the FSM
        contains service-call transitions.
    reset_on_done:
        When true (service FSMs), reaching a done state resets the instance
        to the initial state so the next invocation starts fresh.

    Attributes
    ----------
    observer:
        Optional per-step callback ``observer(step_result)``, None when
        nothing watches the instance.  Every step hands it its
        :class:`StepResult`, on the interpreter and in the fused step
        alike; coverage instrumentation (:mod:`repro.testkit.coverage`)
        hangs off it.  Structural (not part of capture_state), like the
        port accessor.
    """

    def __init__(self, fsm, ports=None, call_handler=None, reset_on_done=False):
        self.fsm = fsm
        self.ports = ports or NullPortAccessor()
        self.call_handler = call_handler
        self.reset_on_done = reset_on_done
        self.observer = None
        self.steps = 0
        self.transitions_fired = 0
        self.reset()

    def reset(self):
        """Restore initial state and variable values.

        The work counters ``steps`` and ``transitions_fired`` keep
        counting: a reset (a ``reset_unit`` fault, say) undoes state, not
        the work already done.
        """
        self.current = self.fsm.initial
        self.env = {name: decl.init for name, decl in self.fsm.variables.items()}

    @property
    def done(self):
        """True when the current state is a done state."""
        return self.current in self.fsm.done_states

    def step(self, args=None):
        """Execute one activation: state actions then at most one transition."""
        if args:
            self.env.update(args)
        self.steps += 1
        from_state = self.current
        try:
            state = self.fsm.state(self.current)
            for stmt in state.actions:
                execute(stmt, self.env, self.ports)

            fired = None
            called = None
            for transition in state.transitions:
                ready = True
                if transition.call is not None:
                    called = transition.call.service
                    if self.call_handler is None:
                        raise SimulationError(
                            f"FSM {self.fsm.name!r} calls service "
                            f"{transition.call.service!r} but no call handler is bound"
                        )
                    arg_values = [evaluate(arg, self.env, self.ports)
                                  for arg in transition.call.args]
                    call_done, value = self.call_handler(transition.call, arg_values)
                    if call_done and transition.call.store:
                        self.env[transition.call.store] = value
                    ready = call_done
                if not ready:
                    continue
                if transition.guard is not None and not evaluate(
                    transition.guard, self.env, self.ports
                ):
                    continue
                for stmt in transition.actions:
                    execute(stmt, self.env, self.ports)
                self.current = transition.target
                fired = transition
                self.transitions_fired += 1
                break

            done = self.current in self.fsm.done_states
            result = None
            if done and self.fsm.result_var:
                result = self.env.get(self.fsm.result_var)
            step_result = StepResult(
                from_state, self.current, fired is not None, done, result, called
            )
            if self.observer is not None:
                self.observer(step_result)
            if done and self.reset_on_done:
                self.current = self.fsm.initial
            return step_result
        except (TypeError, ValueError) as exc:
            raise step_error(exc, self.fsm.name, from_state) from exc

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable copy of the instance's run-time state.

        The FSM description, port accessor and call handler are structural
        (rebuilt when the owning session is rebuilt); only current state,
        variables and counters travel in a checkpoint.
        """
        return {
            "fsm": self.fsm.name,
            "current": self.current,
            "env": dict(self.env),
            "steps": self.steps,
            "transitions_fired": self.transitions_fired,
        }

    def restore_state(self, state):
        """Overwrite run-time state with a :meth:`capture_state` copy."""
        if state["fsm"] != self.fsm.name:
            raise SimulationError(
                f"cannot restore FSM state of {state['fsm']!r} "
                f"into instance of {self.fsm.name!r}"
            )
        self.current = state["current"]
        self.env = dict(state["env"])
        self.steps = state["steps"]
        self.transitions_fired = state["transitions_fired"]

    def run_to_done(self, max_steps=10_000, args=None):
        """Step repeatedly until a done state is reached (testing helper)."""
        for _ in range(max_steps):
            result = self.step(args)
            if result.done:
                return result
        raise SimulationError(
            f"FSM {self.fsm.name!r} did not finish within {max_steps} steps"
        )

    def __repr__(self):
        return f"FsmInstance({self.fsm.name}, state={self.current}, steps={self.steps})"
