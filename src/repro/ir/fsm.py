"""Finite-state machines: the behavioural unit of the unified model.

The paper structures every behaviour as an FSM:

* software modules execute **one transition per activation** ("each time a
  software component is activated ... only one transition is executed"),
* hardware processes execute one transition per clock cycle,
* access procedures (services) of communication units are FSMs stepped by
  their caller until they reach a *done* state — that is why the generated C
  views return ``DONE`` and the caller writes
  ``if (SetupControl()) NextState = Step;``.

The classes below capture that structure.
"""

from types import MappingProxyType

from repro.ir.dtypes import DataType
from repro.ir.expr import PortRef, Var, wrap
from repro.ir.stmt import Assign, If, Nop, PortWrite, Stmt
from repro.utils.errors import ModelError
from repro.utils.ids import check_identifier
from repro.utils.readonly import ReadOnly


class VarDecl(ReadOnly):
    """Declaration of an FSM variable (name, type, initial value)."""

    def __init__(self, name, dtype, init=None):
        name = check_identifier(name, "variable name")
        if not isinstance(dtype, DataType):
            raise ModelError(f"variable {name!r}: dtype must be a DataType, got {dtype!r}")
        # ``explicit_init``: whether the declaration carried an initial
        # value (the lint use-before-init pass trusts explicit initialisers)
        self._seal(name=name, dtype=dtype, explicit_init=init is not None,
                   init=dtype.check(init) if init is not None else dtype.default)

    def __repr__(self):
        return f"VarDecl({self.name}, {self.dtype!r}, init={self.init!r})"


class ServiceCall(ReadOnly):
    """Invocation of a communication-unit service from a transition.

    Parameters
    ----------
    service:
        Name of the access procedure (e.g. ``"MotorPosition"``).
    args:
        Expressions evaluated in the caller's environment and passed to the
        service's parameters at every step.
    store:
        Optional variable name of the caller receiving the service's result
        value once the call completes.
    """

    def __init__(self, service, args=(), store=None):
        self._seal(
            service=check_identifier(service, "service name"),
            args=tuple(wrap(arg) for arg in args),
            store=check_identifier(store, "result variable") if store else None,
        )

    def __repr__(self):
        return f"ServiceCall({self.service}, args={len(self.args)}, store={self.store})"


class Transition(ReadOnly):
    """A guarded transition of an FSM state.

    Exactly one of the following shapes is used:

    * plain transition — optional *guard* expression; taken when the guard is
      true (or unconditionally when absent);
    * service-call transition — carries a :class:`ServiceCall`; each FSM step
      advances the callee by one step and the transition fires when the
      callee reports completion (and the optional *guard*, evaluated with the
      call's result bound, is true).
    """

    def __init__(self, target, guard=None, actions=(), call=None):
        target = check_identifier(target, "transition target")
        guard = wrap(guard) if guard is not None else None
        actions = _check_stmts(actions)
        if call is not None and not isinstance(call, ServiceCall):
            raise ModelError(f"call must be a ServiceCall, got {call!r}")
        self._seal(target=target, guard=guard, actions=actions, call=call)

    def __repr__(self):
        parts = [f"-> {self.target}"]
        if self.call:
            parts.append(f"call {self.call.service}")
        if self.guard is not None:
            parts.append("guarded")
        return f"Transition({', '.join(parts)})"


class State(ReadOnly):
    """A named FSM state with entry actions and ordered transitions."""

    def __init__(self, name, actions=(), transitions=()):
        name = check_identifier(name, "state name")
        actions = _check_stmts(actions)
        transitions = tuple(transitions)
        for transition in transitions:
            if not isinstance(transition, Transition):
                raise ModelError(f"state {name!r}: {transition!r} is not a Transition")
        self._seal(name=name, actions=actions, transitions=transitions)

    def __repr__(self):
        return f"State({self.name}, actions={len(self.actions)}, transitions={len(self.transitions)})"


class Fsm(ReadOnly):
    """A complete finite-state machine.

    An ``Fsm`` is read-only once built, and so are its states,
    transitions, calls and variable declarations: they refuse attribute
    assignment, hold tuples, and ``states``/``variables`` are read-only
    mappings.  To change a behaviour, build a new FSM.  The names it uses are
    found in one walk at construction and kept as plain attributes:

    * ``vars_read`` / ``vars_written`` — variable names, sorted; a service
      call's ``store`` counts as written;
    * ``ports_read`` / ``ports_written`` — port names in first-use order;
    * ``services_called`` — service names in first-call order.

    Lint, the fusion plan and the module/service queries read these, and
    the lint memo keyed on FSM identity relies on the same rule.

    Parameters
    ----------
    name:
        FSM name (becomes the C function / VHDL process name).
    states:
        Iterable of :class:`State`; order is preserved for code generation.
    initial:
        Name of the initial state.
    variables:
        Iterable of :class:`VarDecl`.
    ports:
        Names of the ports this FSM reads or writes (informative; the
        authoritative port list lives on the owning module or service).
    done_states:
        States that signal completion when entered; used by service FSMs and
        by software modules that terminate.  Entering a done state makes the
        step report ``done=True``; service FSMs then reset to the initial
        state ready for the next invocation.
    result_var:
        For service FSMs: the variable whose value is returned to the caller
        on completion.
    """

    def __init__(self, name, states, initial, variables=(), ports=(),
                 done_states=(), result_var=None):
        name = check_identifier(name, "FSM name")
        by_name = {}
        for state in states:
            if not isinstance(state, State):
                raise ModelError(f"FSM {name!r}: {state!r} is not a State")
            if state.name in by_name:
                raise ModelError(f"FSM {name!r}: duplicate state {state.name!r}")
            by_name[state.name] = state
        if initial not in by_name:
            raise ModelError(f"FSM {name!r}: initial state {initial!r} not defined")
        declared = {}
        for decl in variables:
            if not isinstance(decl, VarDecl):
                raise ModelError(f"FSM {name!r}: {decl!r} is not a VarDecl")
            if decl.name in declared:
                raise ModelError(f"FSM {name!r}: duplicate variable {decl.name!r}")
            declared[decl.name] = decl
        done_states = frozenset(done_states)
        for done in done_states:
            if done not in by_name:
                raise ModelError(f"FSM {name!r}: done state {done!r} not defined")
        result_var = (
            check_identifier(result_var, "result variable") if result_var else None
        )
        if result_var and result_var not in declared:
            raise ModelError(
                f"FSM {name!r}: result variable {result_var!r} is not declared"
            )
        vars_read, vars_written, ports_read, ports_written, services = _names(
            name, by_name.values())
        self._seal(
            name=name,
            # ``state()`` reads the plain dict behind the read-only ``states``.
            _states=by_name, states=MappingProxyType(by_name),
            state_order=tuple(by_name), initial=initial,
            variables=MappingProxyType(declared), ports=tuple(ports),
            done_states=done_states, result_var=result_var,
            vars_read=vars_read, vars_written=vars_written,
            ports_read=ports_read, ports_written=ports_written,
            services_called=services,
        )

    def __reduce__(self):
        return (Fsm, (self.name, tuple(self._states.values()), self.initial,
                      tuple(self.variables.values()), self.ports,
                      tuple(self.done_states), self.result_var))

    # ------------------------------------------------------------------ query

    def state(self, name):
        try:
            return self._states[name]
        except KeyError:
            raise ModelError(f"FSM {self.name!r}: unknown state {name!r}") from None

    def iter_states(self):
        """Yield states in declaration order."""
        return iter(self._states.values())

    def __repr__(self):
        return f"Fsm({self.name}, states={len(self.states)}, initial={self.initial})"


def _check_stmts(statements):
    statements = tuple(statements)
    for statement in statements:
        if not isinstance(statement, Stmt):
            raise ModelError(f"{statement!r} is not an IR statement")
    return statements


def _names(fsm_name, states):
    """Walk an FSM's *states* once: the names it reads, writes and calls.

    Expressions are visited in the order state actions, then each
    transition's guard, actions and call arguments; that order fixes the
    first-use order of the port and service tuples.
    """
    vars_read, vars_written = set(), set()
    ports_read, ports_written, services = {}, {}, {}

    def expr(node):
        if isinstance(node, Var):
            vars_read.add(node.name)
        elif isinstance(node, PortRef):
            ports_read.setdefault(node.port_name)
        for child in node.children():
            expr(child)

    def stmts(statements):
        for stmt in statements:
            if isinstance(stmt, Assign):
                vars_written.add(stmt.target)
                expr(stmt.expr)
            elif isinstance(stmt, PortWrite):
                ports_written.setdefault(stmt.port_name)
                expr(stmt.expr)
            elif isinstance(stmt, If):
                expr(stmt.cond)
                stmts(stmt.then)
                stmts(stmt.orelse)
            elif not isinstance(stmt, Nop):
                raise ModelError(f"FSM {fsm_name!r}: {stmt!r} is not an IR statement")

    for state in states:
        stmts(state.actions)
        for transition in state.transitions:
            if transition.guard is not None:
                expr(transition.guard)
            stmts(transition.actions)
            call = transition.call
            if call is not None:
                services.setdefault(call.service)
                for arg in call.args:
                    expr(arg)
                if call.store:
                    vars_written.add(call.store)
    return (tuple(sorted(vars_read)), tuple(sorted(vars_written)),
            tuple(ports_read), tuple(ports_written), tuple(services))
