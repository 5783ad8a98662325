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

Execution has two tiers.  ``FsmInstance(mode="compiled")`` — the default —
runs the per-FSM program :mod:`repro.ir.compile` generates on the
instance's first step (plain Python code objects, shared by every
structurally equal FSM); ``mode="interpreted"`` walks the IR tree through
:func:`evaluate`/:func:`execute` below and serves as the differential
oracle.  Both tiers are byte-identical in every
observable: StepResult streams, environments, port traffic, errors.
"""

from collections import deque

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.utils.errors import SimulationError

#: Execution modes understood by :class:`FsmInstance`.  ``compiled`` (the
#: default) runs the per-FSM program generated by :mod:`repro.ir.compile`;
#: ``interpreted`` walks the IR tree through :func:`evaluate`/:func:`execute`
#: and is kept as the differential oracle (``--tier interpreted`` in the
#: testkit).
FSM_MODES = ("compiled", "interpreted")

DEFAULT_FSM_MODE = "compiled"

#: Default cap on the ``trace=True`` step history.  A ring buffer of the
#: most recent steps keeps long sweeps bounded in memory; pass
#: ``history_limit=None`` for the old unbounded behaviour.
DEFAULT_HISTORY_LIMIT = 100_000


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
    trace:
        When true, every step appends a :class:`StepResult` to :attr:`history`
        (a ring buffer of the most recent *history_limit* steps).
    mode:
        ``"compiled"`` (default) executes the program generated by
        :mod:`repro.ir.compile`; ``"interpreted"`` walks the IR tree.  Both
        tiers produce byte-identical :class:`StepResult` streams, variable
        environments and port traffic; an FSM the compile tier cannot
        translate falls back to the interpreter per step (counted in
        :attr:`fallback`).
    history_limit:
        Cap on :attr:`history` when tracing; ``None`` disables the cap.
    """

    def __init__(self, fsm, ports=None, call_handler=None, reset_on_done=False,
                 trace=False, mode=None, history_limit=DEFAULT_HISTORY_LIMIT):
        self.fsm = fsm
        self.ports = ports or NullPortAccessor()
        self.call_handler = call_handler
        self.reset_on_done = reset_on_done
        self.trace = trace
        self.history_limit = history_limit
        if mode is None:
            mode = DEFAULT_FSM_MODE
        if mode not in FSM_MODES:
            raise SimulationError(
                f"unknown FSM execution mode {mode!r}; expected one of {FSM_MODES}"
            )
        self.mode = mode
        # Optional per-step callback ``observer(step_result)``, invoked by
        # both execution tiers on the identical StepResult object — coverage
        # instrumentation (repro.testkit.coverage) hangs off this.  Structural
        # (not part of capture_state), like the port accessor.
        self.observer = None
        # The compiled program is fetched on the first step, not here: the
        # fused whole-system step executes controllers and hardware FSMs
        # itself, so most instances of a fused session never need one.
        self._program = None
        self._compile_pending = mode == "compiled"
        self.reset()

    def reset(self):
        """Restore initial state, variable values and counters."""
        self.current = self.fsm.initial
        self.env = {name: decl.init for name, decl in self.fsm.variables.items()}
        self.steps = 0
        self.transitions_fired = 0
        self.compile_hits = 0
        self.fallback = 0
        self.history = deque(maxlen=self.history_limit)

    @property
    def done(self):
        """True when the current state is a done state."""
        return self.current in self.fsm.done_states

    def step(self, args=None):
        """Execute one activation: state actions then at most one transition."""
        program = self._program
        if program is None:
            if self._compile_pending:
                program = self._load_program()
            if program is None:
                return self._step_interpreted(args)
        if args:
            self.env.update(args)
        self.steps += 1
        self.compile_hits += 1
        env = self.env
        ports = self.ports
        from_state = self.current
        state = program.states.get(from_state)
        if state is None:
            self.fsm.state(from_state)  # unknown state: the canonical error
            raise SimulationError(  # known to the FSM but not the program
                f"FSM {self.fsm.name!r} state {from_state!r} is missing from "
                "the compiled program — the FSM was mutated after "
                "compilation; recompile with compile_fsm(fsm, force=True)"
            )
        stepper = state.stepper
        called = None
        if stepper is not None:
            current, fired = stepper(env, ports)
            if fired:
                self.transitions_fired += 1
        else:
            current, fired, called = self._run_call_transitions(state, env, ports)
        self.current = current
        done = current in program.done_states
        result = None
        if done and program.result_var:
            result = env.get(program.result_var)
        step_result = StepResult(from_state, current, fired, done, result, called)
        if self.observer is not None:
            self.observer(step_result)
        if self.trace:
            self.history.append(step_result)
        if done and self.reset_on_done:
            self.current = program.initial
        return step_result

    def _load_program(self):
        """Fetch the compiled program once; None keeps the interpreter.

        An FSM the compile tier cannot translate falls back to the
        interpreter permanently; every step taken that way bumps the
        ``fallback`` counter.
        """
        from repro.ir.compile import CompileError, compile_fsm

        self._compile_pending = False
        try:
            self._program = compile_fsm(self.fsm)
        except CompileError:
            self._program = None
        return self._program

    def _run_call_transitions(self, state, env, ports):
        """Driver loop for a compiled state with service-call transitions.

        Mirrors the interpreter's transition scan exactly: the call advances
        before the guard is evaluated (the guard may read the stored
        result), a pending call skips to the next transition, and the first
        transition whose call completed and whose guard holds fires.
        """
        actions = state.actions
        if actions is not None:
            actions(env, ports)
        called = None
        for transition in state.transitions:
            call = transition.call
            if call is not None:
                called = transition.service
                if self.call_handler is None:
                    raise SimulationError(
                        f"FSM {self.fsm.name!r} calls service "
                        f"{transition.service!r} but no call handler is bound"
                    )
                args_fn = transition.args
                arg_values = args_fn(env, ports) if args_fn is not None else []
                call_done, value = self.call_handler(call, arg_values)
                if call_done and transition.store:
                    env[transition.store] = value
                if not call_done:
                    continue
            guard = transition.guard
            if guard is not None and not guard(env, ports):
                continue
            if transition.actions is not None:
                transition.actions(env, ports)
            self.transitions_fired += 1
            return transition.target, True, called
        return state.name, False, called

    def _step_interpreted(self, args=None):
        """The tree-walking oracle tier (also the fallback path)."""
        if args:
            self.env.update(args)
        self.steps += 1
        self.fallback += 1
        from_state = self.current
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
                arg_values = [
                    evaluate(arg, self.env, self.ports) for arg in transition.call.args
                ]
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
        if self.trace:
            self.history.append(step_result)
        if done and self.reset_on_done:
            self.current = self.fsm.initial
        return step_result

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable copy of the instance's run-time state.

        The FSM description, port accessor and call handler are structural
        (rebuilt when the owning session is rebuilt); only current state,
        variables, counters and the step history travel in a checkpoint.
        """
        return {
            "fsm": self.fsm.name,
            "current": self.current,
            "env": dict(self.env),
            "steps": self.steps,
            "transitions_fired": self.transitions_fired,
            "compile_hits": self.compile_hits,
            "fallback": self.fallback,
            "history": [
                (result.from_state, result.to_state, result.fired,
                 result.done, result.result, result.called)
                for result in self.history
            ],
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
        self.compile_hits = state.get("compile_hits", 0)
        self.fallback = state.get("fallback", 0)
        self.history = deque((StepResult(*entry) for entry in state["history"]),
                             maxlen=self.history_limit)

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
