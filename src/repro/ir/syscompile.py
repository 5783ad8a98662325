"""Whole-system compilation: the clocked backplane as one fused step.

Wired one kernel process per FSM, a co-simulated system pays per-delta
Python dispatch around every FSM step: one ``on_edge`` wrapper frame per
clocked process, one ``FsmInstance.step`` frame (plus a
:class:`~repro.ir.interp.StepResult` allocation) per instance, one
accessor method call per port access and one ``Simulator.schedule`` call
per port write — on every rising clock edge — on top of the tree walk
itself.

This module translates an entire :class:`~repro.core.model.SystemModel` —
every communication-unit protocol controller and every hardware-module
process, i.e. the complete population of clocked FSM processes (the
*candidates*) — into **one** generated step function registered once on
the clock:

* signals are bound as default-argument locals (``LOAD_FAST``): the
  source declares plain parameters and :meth:`SystemProgram.bind` supplies
  one session's objects as their defaults; reads are ``sig._value`` (the
  attribute the ``Signal.value`` property returns), writes append to the
  kernel's delta queue directly,
* per-instance dispatch becomes an ``if/elif`` chain over state-name
  literals with the transition logic inlined in the interpreter's order
  (same evaluation order, same eager operators, same errors); guards and
  ``If`` conditions are emitted in truth context,
* a declared FSM variable is read from a fast local: its first read on a
  path loads it from the environment, ``(x_N := _e['N'])``, where the
  interpreter reads it, and every assignment writes through to both,
  ``_e['N'] = x_N = ...``, so the environment is exact wherever other
  code can see it; ``min``/``max``/``xor`` are inlined without a
  builtin call (same operand order, and ``max``/``min`` make the
  builtins' comparison, so they keep their tie rule and result type),
* service-call transitions call the bound
  :class:`~repro.cosim.services.ServiceInstance` directly (trace tokens,
  invocation counts and ``reset_on_done`` semantics stay canonical), and
* the kernel statistics the replaced processes would have produced are
  folded in (``process_runs`` compensation, ``transactions`` per write),
  so a fused run is **byte-identical** to the interpreted tier in every
  conformance fingerprint: waveforms, traces, environments, counters and
  kernel statistics.

Software executors, their activation processes and all service FSMs stay
per-FSM on the interpreter (they are demand-driven, not clocked).  The
generated code counts nothing on the session: the session derives its
fused steps from the candidate instances' own ``steps``.  A model with
no candidate at all still compiles: its step does only the header work.

Each candidate is emitted as a *fragment*, a function of its own slots
named locally (``i0``, ``g0…``, ``v0…``), so the same controller or
datapath compiles to the same source in every model.  The source text
keys the code-object cache, a fixed-size in-process LRU, so a fragment
is compiled once per process, not once per model; and since FSMs are
read-only, each FSM's source is emitted once too, memoised on the FSM
itself (the library controllers of :mod:`repro.comm.channels` are shared
by every model of a process).  A session's step is
then a short *fragment step* that calls its bound fragments in plan
order and does the header work (``process_runs`` compensation, the edge
test, the ``transactions`` total).  The program is cached per model in a
weak map; a program holds no reference to its model, so the entry goes
when the model's last session does.

Codegen refuses what it cannot translate with a ``ModelError`` that no
caller catches.  The fused program is cross-checked end to end, not
in-session: the conformance kit's ``--tier differential`` runs every
scenario on the fused and interpreted tiers in separate sessions and
compares their complete fingerprints.
"""

import builtins
import types
import weakref

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.interp import StepResult, _int_div, _int_mod
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.obs import TELEMETRY
from repro.utils.errors import ModelError, SimulationError
from repro.utils.lru import LruCache


#: Binary operators emitted as native Python operators.  Comparisons wrap in
#: ``1 if .. else 0`` to match the interpreter's integer results; both
#: operands of every operator are evaluated, left first (Python evaluates
#: both sides of ``+``/``==`` etc., and ``div``/``mod`` go through the
#: interpreter's helpers), preserving the interpreter's port-read sequence.
#: ``xor`` compares the operands' negations, which equals comparing their
#: truth values.  ``and``/``or``/``min``/``max`` are inlined by
#: :meth:`_StateEmitter.expr` and have no template.
_BINOP_TEMPLATES = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "_div({}, {})",
    "mod": "_mod({}, {})",
    "eq": "(1 if {} == {} else 0)",
    "ne": "(1 if {} != {} else 0)",
    "lt": "(1 if {} < {} else 0)",
    "le": "(1 if {} <= {} else 0)",
    "gt": "(1 if {} > {} else 0)",
    "ge": "(1 if {} >= {} else 0)",
    "xor": "(1 if (not {}) != (not {}) else 0)",
}

_UNOP_TEMPLATES = {
    "not": "(0 if {} else 1)",
    "neg": "(- {})",
    "abs": "abs({})",
}


# --------------------------------------------------------------------- plan


class _Candidate:
    """One fused FSM instance: a controller or a hardware-module process."""

    __slots__ = ("index", "kind", "owner", "name", "fsm", "available",
                 "sig_kind", "has_handler", "env_reads")

    def __init__(self, index, kind, owner, name, fsm, available, sig_kind,
                 has_handler):
        self.index = index
        self.kind = kind            # "ctrl" | "hw"
        self.owner = owner          # unit name | module name
        self.name = name            # controller name | process fsm name
        self.fsm = fsm
        self.available = available  # port names wired to a signal
        self.sig_kind = sig_kind    # "unit" | "module"
        self.has_handler = has_handler
        self.env_reads = fsm.vars_read  # sorted

    @property
    def label(self):
        return f"{self.owner}.{self.name}"


class SystemPlan:
    """Deterministic fusion plan: candidates, slots, replaced processes.

    Mirrors the session's build order exactly — controllers in unit order
    then hardware modules in model order — because the fused step function
    must execute its candidates in the order their clocked processes would
    have run.  The plan keeps no reference to the model.
    """

    def __init__(self, model):
        self.candidates = []
        self.adapter_keys = []      # hardware module names
        self.service_keys = []      # (module, service) in first-use order
        self.signal_keys = []       # ("unit"|"module", owner, port)
        self._sig_index = {}
        self._svc_index = {}
        #: Clocked processes the fused step replaces (controllers and
        #: module adapters) — the ``process_runs`` compensation base.
        self.process_count = 0

        for unit in model.comm_units.values():
            available = frozenset(unit.ports)
            for controller in unit.controllers:
                self.candidates.append(_Candidate(
                    len(self.candidates), "ctrl", unit.name, controller.name,
                    controller.fsm, available, "unit",
                    has_handler=False,
                ))
                self.process_count += 1
        for module in model.hardware_modules():
            available = frozenset(module.all_signal_names())
            self.adapter_keys.append(module.name)
            self.process_count += 1
            for fsm in module.behaviours():
                self.candidates.append(_Candidate(
                    len(self.candidates), "hw", module.name, fsm.name,
                    fsm, available, "module", has_handler=True,
                ))

    def signal_slot(self, cand, port_name):
        if port_name not in cand.available:
            raise ModelError(
                f"{cand.label}: port {port_name!r} is not wired to a signal"
            )
        key = (cand.sig_kind, cand.owner, port_name)
        slot = self._sig_index.get(key)
        if slot is None:
            slot = len(self.signal_keys)
            self._sig_index[key] = slot
            self.signal_keys.append(key)
        return slot

    def service_slot(self, cand, service_name):
        key = (cand.owner, service_name)
        slot = self._svc_index.get(key)
        if slot is None:
            slot = len(self.service_keys)
            self._svc_index[key] = slot
            self.service_keys.append(key)
        return slot


# ------------------------------------------------------------------ codegen


#: IR comparison operators, emitted bare in truth context.
_COMPARISONS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
                "ge": ">="}


class _Slots:
    """The source names of one fragment's slots.

    A fragment numbers its own slots from 0, first use first, and records
    the port or service name behind each local name: equal structure then
    emits equal source wherever it sits in whichever model.  A first use
    also numbers the name's plan slot, in that same order.
    """

    def __init__(self, plan, cand):
        self.plan = plan
        self.cand = cand
        self.ports = []     # port names, in local-name order
        self.services = []  # service names, in local-name order

    def signal(self, port_name):
        if port_name not in self.ports:
            self.plan.signal_slot(self.cand, port_name)  # checks the wiring
            self.ports.append(port_name)
        return f"g{self.ports.index(port_name)}"

    def service(self, service_name):
        if service_name not in self.services:
            self.plan.service_slot(self.cand, service_name)
            self.services.append(service_name)
        return f"v{self.services.index(service_name)}"


class _StateEmitter:
    """Emits the inlined code of one candidate state.

    The code performs canonical counter updates and delta-queue writes.
    Every write is one kernel transaction: writes are counted in a pending
    count, flushed as one ``_w += n`` line at every control-flow boundary,
    so each executed path adds exactly its own writes to the step's
    ``_w``, which the step adds to the ``transactions`` statistic.

    A declared FSM variable ``N`` lives in the fast local ``x_N`` as well
    as in the environment.  Its first read on a path loads it,
    ``(x_N := _e['N'])``, at the very point the interpreter reads it, so
    a variable missing from the environment raises where it would; later
    reads are ``x_N``.  Every assignment writes through, ``_e['N'] = x_N
    = ...``, so the environment is exact wherever outside code can look
    at it.  :attr:`loaded` holds the variables bound on every path to the
    code being emitted; sub-expressions are emitted in the order they are
    evaluated, and every one of them is evaluated, so the first emitted
    read is the first executed one.
    """

    def __init__(self, slots, lines):
        self.slots = slots
        self.cand = slots.cand
        self.declared = slots.cand.fsm.variables
        self.loaded = set()
        self.lines = lines
        self._writes = 0
        # Unique-name counter for the walrus temporaries of inlined eager
        # and/or, min/max and constant div/mod sites (each site needs its
        # own: a nested site in an operand would clobber a shared name
        # mid-expression).
        self._tmp = 0

    # -- low-level helpers

    def line(self, depth, text):
        self.lines.append("    " * depth + text)

    def flush(self, depth):
        if self._writes:
            self.line(depth, f"_w += {self._writes}")
            self._writes = 0

    def temp(self):
        self._tmp += 1
        return f"_b{self._tmp}"

    def expr(self, expr):
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Var):
            name = expr.name
            if name not in self.declared:
                return f"_e[{name!r}]"
            if name in self.loaded:
                return f"x_{name}"
            self.loaded.add(name)
            return f"(x_{name} := _e[{name!r}])"
        if isinstance(expr, PortRef):
            return f"{self.slots.signal(expr.port_name)}._value"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                # Inlined eager logic, allocation- and call-free: the left
                # operand is bound (see :meth:`operand`), `| 1` forces the
                # chain onward (operands are ints; x|1 is never zero), the
                # right operand is then always evaluated — left-then-right
                # order and raise behaviour match the interpreter's eager
                # `and`/`or` exactly — and the binding supplies the left
                # truth value.
                l_bind, left = self.operand(expr.left)
                r_src = self.expr(expr.right)
                if expr.op == "and":
                    return (f"(1 if ({l_bind} | 1) and {r_src} "
                            f"and {left} else 0)")
                return (f"(1 if ({l_bind} | 1) and ({r_src} "
                        f"or {left}) else 0)")
            if expr.op in ("min", "max"):
                # The 2-argument builtin without the call: it compares the
                # right operand with the left one (``b > a`` for max, so a
                # failing comparison raises the same TypeError) and returns
                # the right one only when strictly beyond, so a tie returns
                # the left operand (``max(True, 1)`` is ``True``).  A left
                # operand that needs evaluating is evaluated first: `or 1`
                # makes its binding always true.
                l_bind, left = self.operand(expr.left)
                r_bind, right = self.operand(expr.right)
                test = f"{r_bind} {'>' if expr.op == 'max' else '<'} {left}"
                if l_bind != left:
                    test = f"({l_bind} or 1) and {test}"
                return f"({right} if {test} else {left})"
            template = _BINOP_TEMPLATES.get(expr.op)
            if template is None:
                raise ModelError(f"cannot compile expression {expr!r}")
            right = expr.right
            if (expr.op in ("div", "mod") and isinstance(right, Const)
                    and type(right.value) is int and right.value != 0):
                return self.constant_divisor(expr.op, expr.left, right.value)
            return template.format(self.expr(expr.left), self.expr(right))
        if isinstance(expr, UnOp):
            template = _UNOP_TEMPLATES.get(expr.op)
            if template is None:
                raise ModelError(f"cannot compile expression {expr!r}")
            return template.format(self.expr(expr.operand))
        raise ModelError(f"cannot compile expression {expr!r}")

    def operand(self, expr):
        """Source evaluating *expr* once, and source reading its value again.

        A declared variable is read again from its local and a constant
        is repeated; any other operand is bound to a unique temporary.
        """
        if isinstance(expr, Var) and expr.name in self.declared:
            return self.expr(expr), f"x_{expr.name}"
        if isinstance(expr, Const):
            src = repr(expr.value)
            return src, src
        tmp = self.temp()
        return f"({tmp} := {self.expr(expr)})", tmp

    def constant_divisor(self, op, left, divisor):
        """Inline source of ``left div/mod divisor``, *divisor* a nonzero int.

        Truncating division by a known nonzero divisor needs no zero check
        and no ``abs`` of the divisor, so it needs no helper call either:
        the dividend is bound (see :meth:`operand`) where Python evaluates
        first, and its sign picks the floor operation that truncates.  With
        ``c = |divisor|``, the remainder takes the dividend's sign whatever
        the divisor's, so ``mod`` floors by ``c`` or ``-c``; ``div`` floors
        ``|a|`` by ``c`` and restores the sign.  A constant ``0`` divisor
        stays on the generic ``_div``/``_mod`` call, which raises the
        division error at run time.
        """
        bind, a = self.operand(left)
        c = abs(divisor)
        if op == "mod":
            return f"({bind} % ({c} if {a} >= 0 else {-c}))"
        if divisor > 0:
            return f"({a} // {c} if {bind} >= 0 else -(-{a} // {c}))"
        return f"(-({a} // {c}) if {bind} >= 0 else -{a} // {c})"

    def cond(self, expr, exact=False):
        """Source of *expr* where only its truth value is read.

        Comparisons are emitted bare, eager ``and``/``or`` as ``&``/``|``
        over bool operands (both evaluated, left first, as the interpreter
        does) and ``not`` as ``not``.  With *exact* the source yields
        exactly ``bool(value)``, as an ``&``/``|`` operand must.
        """
        if isinstance(expr, BinOp):
            op = _COMPARISONS.get(expr.op)
            if op is not None:
                return f"({self.expr(expr.left)} {op} {self.expr(expr.right)})"
            if expr.op in ("and", "or"):
                op = "&" if expr.op == "and" else "|"
                return (f"({self.cond(expr.left, True)} {op} "
                        f"{self.cond(expr.right, True)})")
            if expr.op == "xor":
                return (f"((not {self.expr(expr.left)}) != "
                        f"(not {self.expr(expr.right)}))")
        elif isinstance(expr, UnOp) and expr.op == "not":
            return f"(not {self.cond(expr.operand)})"
        src = self.expr(expr)
        return f"bool({src})" if exact else src

    # -- statements

    def emit_stmts(self, statements, depth):
        for stmt in statements:
            if isinstance(stmt, Assign):
                src = self.expr(stmt.expr)
                self.line(depth, f"{self.store(stmt.target)} = {src}")
            elif isinstance(stmt, PortWrite):
                src = self.expr(stmt.expr)
                signal = self.slots.signal(stmt.port_name)
                self.line(depth, f"_dq(({signal}, {src}))")
                self._writes += 1
            elif isinstance(stmt, If):
                cond = self.cond(stmt.cond)
                self.flush(depth)
                self.line(depth, f"if {cond}:")
                before = set(self.loaded)
                self._emit_suite(stmt.then, depth + 1)
                then_loaded, self.loaded = self.loaded, before
                if stmt.orelse:
                    self.line(depth, "else:")
                    self._emit_suite(stmt.orelse, depth + 1)
                # Bound after the If: what both branches bind.
                self.loaded &= then_loaded
            elif isinstance(stmt, Nop):
                pass
            else:
                raise ModelError(f"cannot compile statement {stmt!r}")

    def store(self, name):
        """The assignment target(s) of a write to variable *name*."""
        if name not in self.declared:
            return f"_e[{name!r}]"
        self.loaded.add(name)
        return f"_e[{name!r}] = x_{name}"

    def _emit_suite(self, statements, depth):
        before = len(self.lines)
        self.emit_stmts(statements, depth)
        self.flush(depth)
        if len(self.lines) == before:
            self.line(depth, "pass")

    # -- transitions

    def _fire(self, transition, state, depth, last=False):
        """Take *transition*; ``break`` out of the state unless *last*.

        A fire that breaks ends its path, so what its actions bind is not
        bound for the code after it.
        """
        after = set(self.loaded)
        self.emit_stmts(transition.actions, depth)
        if not last:
            self.loaded = after
        self.flush(depth)
        if transition.target != state.name:
            self.line(depth,
                      f"i0.current = {transition.target!r}")
        self.line(depth, "_f = True")
        if not last:
            self.line(depth, "break")

    def emit_state(self, state, depth):
        """The code of one state, inside the candidate's ``while True:``
        goto: a taken transition breaks out unless it ends the state."""
        self.emit_stmts(state.actions, depth)
        for transition in state.transitions:
            if transition.call is not None:
                if self._emit_call_transition(transition, state, depth):
                    return  # unconditional raise: rest unreachable
                continue
            if transition.guard is None:
                self._fire(transition, state, depth, last=True)
                return  # later transitions are unreachable, as in the oracle
            guard = self.cond(transition.guard)
            self.flush(depth)
            self.line(depth, f"if {guard}:")
            self._fire(transition, state, depth + 1)
        self.flush(depth)

    def _emit_call_transition(self, transition, state, depth):
        """One service-call transition; returns True when it always raises.

        Mirrors :meth:`FsmInstance._run_call_transitions`: the call
        advances before the guard, a pending call falls through to the
        next transition, the store happens on completion.
        """
        call = transition.call
        self.line(depth, f"_cl = {call.service!r}")
        if not self.cand.has_handler:
            # Controllers have no call handler; reaching this transition
            # raises exactly the per-FSM error.
            message = (f"FSM {self.cand.fsm.name!r} calls service "
                       f"{call.service!r} but no call handler is bound")
            self.line(depth, f"raise SE({message!r})")
            return True
        args = [self.expr(arg) for arg in call.args]
        self.flush(depth)
        service = self.slots.service(call.service)
        self.line(depth, f"_d, _v = {service}.step([{', '.join(args)}])")
        self.line(depth, "if _d:")
        inner = depth + 1
        pending = set(self.loaded)  # a pending call skips the block
        if call.store:
            self.line(inner, f"{self.store(call.store)} = _v")
        if transition.guard is not None:
            guard = self.cond(transition.guard)
            self.flush(inner)
            self.line(inner, f"if {guard}:")
            self._fire(transition, state, inner + 1)
        else:
            self._fire(transition, state, inner)
        self.loaded = pending
        return False


def _fragment_source(slots):
    """One candidate step as a function of its own slots, returning its writes.

    State dispatch, then one observer site.  Every path records in ``_f``
    whether a transition fired (and in ``_cl`` the last service it
    called); after the dispatch ``_f`` is added to ``transitions_fired``
    and, when the instance is watched (an observer or a ``trace``
    history: its :attr:`~repro.ir.interp.FsmInstance.sink`), the one
    observer call hands it the :class:`~repro.ir.interp.StepResult` the
    interpreter would have.  An unknown state raises the interpreter's
    :class:`~repro.utils.errors.ModelError` after counting the step, as
    the interpreter does.  The slot parameters follow the body, since
    slots are named on first use.
    """
    cand = slots.cand
    fsm = cand.fsm
    has_calls = any(t.call is not None
                    for state in fsm.iter_states()
                    for t in state.transitions)
    lines = [
        "    _w = 0",
        "    try:",
        "        _e = i0.env",
        "        i0.steps += 1",
        "        _c = i0.current",
        "        _ob = i0.sink",
        "        _f = False",
    ]
    if has_calls:
        lines.append("        _cl = None")
    lines.append("        while True:")
    keyword = "if"
    for state in fsm.iter_states():
        lines.append(f"            {keyword} _c == {state.name!r}:")
        keyword = "elif"
        before = len(lines)
        _StateEmitter(slots, lines).emit_state(state, 4)
        if len(lines) == before:
            lines.append("                pass")
    lines += [
        "            else:",
        "                raise ME(f'FSM {i0.fsm.name!r}: unknown state {_c!r}')",
        "            break",
        "        i0.transitions_fired += _f",
        "        if _ob is not None:",
        "            _t = i0.current",
    ]
    done, result = "False", "None"
    if fsm.done_states:
        names = ", ".join(repr(name) for name in sorted(fsm.done_states))
        done = f"_t in {{{names}}}"
        if fsm.result_var:
            lines.append(f"            _dn = {done}")
            done = "_dn"
            result = f"_e.get({fsm.result_var!r}) if _dn else None"
    called = "_cl" if has_calls else "None"
    lines.append(f"            _ob(SR(_c, _t, _f, {done}, {result}, {called}))")
    lines.append("    except KeyError as _x:")
    lines.append(f"        raise _undefined(_x, _e, {cand.env_reads!r})")
    params = ["_dq", "i0"]
    params += [f"g{n}" for n in range(len(slots.ports))]
    params += [f"v{n}" for n in range(len(slots.services))]
    return "\n".join([f"def _fragment({', '.join(params)}):",
                      *lines, "    return _w"])


def _undefined(exc, env, reads):
    """The error a ``KeyError`` raised inside a candidate step stands for.

    A variable the FSM reads but its environment lacks is the
    interpreter's "undefined variable" error; any other ``KeyError`` is
    re-raised as it is.
    """
    key = exc.args[0] if exc.args else None
    if key in reads and key not in env:
        error = SimulationError(f"undefined variable {key!r}")
        error.__suppress_context__ = True
        return error
    return exc


def _plan_order(plan):
    """The step's work in plan order: ``(adapter, candidate)`` pairs.

    Controllers first, then per hardware module its cycle count
    (``(adapter index, None)``) followed by its processes — the order the
    replaced clocked processes would have run in.
    """
    for cand in plan.candidates:
        if cand.kind == "ctrl":
            yield None, cand
    for adapter, module_name in enumerate(plan.adapter_keys):
        yield adapter, None
        for cand in plan.candidates:
            if cand.kind == "hw" and cand.owner == module_name:
                yield None, cand


def _fragment_step_source(plan):
    """The fragment step: the bound fragments called in plan order.

    The header compensates ``process_runs`` for the processes the step
    replaces and returns on a falling edge.  Each fragment returns its
    write count, added to ``_w``, and the total is added to
    ``transactions``: a raising step adds none of it.
    """
    body = []
    for adapter, cand in _plan_order(plan):
        if cand is None:
            body.append(f"    d{adapter}.cycles += 1")
        else:
            body.append(f"    _w += f{cand.index}(_dq)")
    params = ["_sim", "_clk"]
    params += [f"f{c.index}" for c in plan.candidates]
    params += [f"d{n}" for n in range(len(plan.adapter_keys))]
    rows = ",\n          ".join(", ".join(params[start:start + 12])
                                   for start in range(0, len(params), 12))
    return "\n".join([
        f"def _step({rows}):",
        "    _st = _sim.statistics",
        f'    _st["process_runs"] += {plan.process_count - 1}',
        "    if _clk._value != 1:",
        "        return",
        "    _dq = _sim._delta_queue.append",
        "    _w = 0",
        *body,
        '    _st["transactions"] += _w',
    ])


def generate_system_source(model):
    """The source that runs for *model*: every candidate's fragment in
    plan order, then the fragment step — a pure function of the model."""
    plan = SystemPlan(model)
    return "\n\n".join(
        [_fragment_source(_Slots(plan, cand)) for cand in plan.candidates]
        + [_fragment_step_source(plan)])


# ------------------------------------------------------------------ program


#: The names generated code reads besides its parameters.
_GLOBALS = {
    "__builtins__": builtins,
    "SR": StepResult,
    "SE": SimulationError,
    "ME": ModelError,
    "_div": _int_div,
    "_mod": _int_mod,
    "_undefined": _undefined,
}


def _compiled(source, filename):
    """The code object of the one function *source* defines.

    Keyed on the source text in the bounded :data:`_CODE_CACHE`: equal
    text compiles to equal code, so a source seen before costs nothing.
    """
    code = _CODE_CACHE.get(source)
    if code is None:
        module = compile(source, filename, "exec")
        [code] = [const for const in module.co_consts
                  if isinstance(const, types.CodeType)]
        _CODE_CACHE.put(source, code)
    return code


class _Fragment:
    """One candidate's compiled fragment and the plan slots it binds.

    The fragment's source and the port and service names it binds, in
    their local first-use order, are a function of the FSM, its wired
    ports and whether it has a call handler: they are memoised on the
    FSM in :data:`_FRAGMENTS`, so a shared library controller is emitted
    once per process.  Looking the names up through the plan in that
    order numbers a fresh plan's slots exactly as emitting would.
    """

    __slots__ = ("code", "signals", "services")

    def __init__(self, plan, cand):
        by_wiring = _FRAGMENTS.get(cand.fsm)
        if by_wiring is None:
            by_wiring = _FRAGMENTS[cand.fsm] = {}
        wiring = (cand.available, cand.has_handler)
        emitted = by_wiring.get(wiring)
        if emitted is None:
            slots = _Slots(plan, cand)
            emitted = by_wiring[wiring] = (
                _fragment_source(slots), tuple(slots.ports),
                tuple(slots.services))
        source, ports, services = emitted
        self.code = _compiled(source, "<syscompile:fragment>")
        self.signals = [plan.signal_slot(cand, name) for name in ports]
        self.services = [plan.service_slot(cand, name) for name in services]


class SystemProgram:
    """The compiled fused program of one model.

    Holds the plan, one :class:`_Fragment` per candidate and the fragment
    step's code.  Shared by every session built from the same model
    object; it keeps no reference to the model.
    """

    def __init__(self, model, plan):
        self.name = model.name
        self.plan = plan
        self.fragments = [_Fragment(plan, cand) for cand in plan.candidates]
        self._fragment_step = _compiled(_fragment_step_source(plan),
                                        "<syscompile:step>")

    def bind(self, ctx):
        """Bind the fragment step to one session's objects.

        *ctx* maps ``sim``/``clock`` plus the slot lists
        (``signals``/``instances``/``services``/``adapters``) in the
        orders recorded on :attr:`plan`.  They become the defaults of the
        step's and each fragment's parameters.
        """
        signals, services = ctx["signals"], ctx["services"]
        calls = [
            types.FunctionType(fragment.code, _GLOBALS, "_fragment", (
                instance,
                *[signals[slot] for slot in fragment.signals],
                *[services[slot] for slot in fragment.services],
            ))
            for fragment, instance in zip(self.fragments, ctx["instances"])
        ]
        defaults = (ctx["sim"], ctx["clock"], *calls, *ctx["adapters"])
        return types.FunctionType(self._fragment_step, _GLOBALS, "_step",
                                  defaults)

    def __repr__(self):
        return (f"SystemProgram({self.name}, candidates="
                f"{len(self.plan.candidates)})")


# ------------------------------------------------------------------- caches


#: Most distinct code objects (fragments and fragment steps) kept
#: in-process.
CODE_CACHE_SIZE = 256

_SYSTEM_CACHE = weakref.WeakKeyDictionary()  # model -> SystemProgram
_CODE_CACHE = LruCache(CODE_CACHE_SIZE)      # source -> code object
#: fused FSM -> {(wired ports, has handler): (source, port names,
#: service names)}; see :class:`_Fragment`.
_FRAGMENTS = weakref.WeakKeyDictionary()


def compile_system(model):
    """The (cached) fused program of *model*.

    Raises ``ModelError`` for an IR node codegen cannot translate or, in
    a model that skipped validation, a port wired to no signal.  Lint
    findings do not refuse it: a model the session accepts (its
    structural stage is clean) runs the same on both tiers.
    """
    with TELEMETRY.span("ir.compile_system", cat="ir", system=model.name):
        program = _SYSTEM_CACHE.get(model)
        if program is not None:
            return program
        program = SystemProgram(model, SystemPlan(model))
        _SYSTEM_CACHE[model] = program
        return program
