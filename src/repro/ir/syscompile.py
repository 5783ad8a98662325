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
* service-call transitions call the bound
  :class:`~repro.cosim.services.ServiceInstance` directly (trace tokens,
  invocation counts and ``reset_on_done`` semantics stay canonical), and
* the kernel statistics the replaced processes would have produced are
  folded in (``process_runs`` compensation, ``transactions`` per write),
  so a fused run is **byte-identical** to the interpreted tier in every
  conformance fingerprint: waveforms, traces, environments, counters and
  kernel statistics.

Software executors, their activation processes and all service FSMs stay
per-FSM on the interpreter (they are demand-driven, not clocked); fused
candidate steps count in the session's ``system_compile_hits``, every
other step in its ``interpreted`` counter.

Each candidate is emitted as a *fragment*, a function of its own slots
named locally (``i0``, ``g0…``, ``v0…``), so the same controller or
datapath compiles to the same source in every model.  The source text
keys the code-object cache, a fixed-size in-process LRU, so a fragment
is compiled once per process, not once per model.  A session's step is
then a short *fragment step* that calls its bound fragments in plan
order and does the header work (``process_runs`` compensation, the edge
test, the ``transactions``/hits/accessor totals).  Once it has run
:data:`SWITCH_STEPS_PER_LINE` candidate steps per fragment-source line,
the session swaps in the *whole-system step*: the same candidate code
from the same emitter, inlined into one function, compiled on first use
and cached on its source too.  The program is cached per model in a
weak map; a program holds no reference to its model, so the entry goes
when the model's last session does.

The fused program is cross-checked end to end, not in-session: the
conformance kit's ``--tier differential`` runs every scenario on the
fused and interpreted tiers in separate sessions and compares
their complete fingerprints.
"""

import builtins
import types
import weakref

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.interp import StepResult, _int_div, _int_mod
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.ir.visitor import variables_read
from repro.utils.errors import SimulationError
from repro.utils.lru import LruCache


#: Binary operators emitted as native Python operators.  Comparisons wrap in
#: ``1 if .. else 0`` to match the interpreter's integer results; both
#: operands of every operator are evaluated (Python evaluates both sides of
#: ``+``/``==`` etc., and ``div``/``mod`` go through the interpreter's
#: helpers), preserving the interpreter's port-read sequence.  ``and``/``or``
#: are inlined by :meth:`_StateEmitter.expr` and have no template.
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
    "xor": "(1 if bool({}) != bool({}) else 0)",
    "min": "min({}, {})",
    "max": "max({}, {})",
}

_UNOP_TEMPLATES = {
    "not": "(0 if {} else 1)",
    "neg": "(- {})",
    "abs": "abs({})",
}


class SystemCompileError(SimulationError):
    """The model cannot be fused into a whole-system program.

    Raised at compile time (unknown IR node, port not wired, lint
    errors); the session reacts by falling back to the per-FSM
    wiring and recording the reason — never by changing behaviour.
    """


# --------------------------------------------------------------------- plan


class _Candidate:
    """One fused FSM instance: a controller or a hardware-module process."""

    __slots__ = ("index", "kind", "owner", "name", "fsm", "accessor",
                 "available", "sig_kind", "has_handler", "env_reads",
                 "protocol")

    def __init__(self, index, kind, owner, name, fsm, accessor, available,
                 sig_kind, has_handler, protocol=""):
        self.index = index
        self.kind = kind            # "ctrl" | "hw"
        self.owner = owner          # unit name | module name
        self.name = name            # controller name | process fsm name
        self.fsm = fsm
        self.accessor = accessor    # accessor slot index
        self.available = available  # port names the accessor can resolve
        self.sig_kind = sig_kind    # "unit" | "module"
        self.has_handler = has_handler
        self.protocol = protocol    # protocol template tag ("" when none)
        self.env_reads = tuple(variables_read(fsm))  # sorted

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
        self.accessor_keys = []     # ("ctrl", unit, ctrl) | ("hw", module)
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
                accessor = len(self.accessor_keys)
                self.accessor_keys.append(("ctrl", unit.name, controller.name))
                self.candidates.append(_Candidate(
                    len(self.candidates), "ctrl", unit.name, controller.name,
                    controller.fsm, accessor, available, "unit",
                    has_handler=False,
                    protocol=getattr(controller, "protocol", ""),
                ))
                self.process_count += 1
        for module in model.hardware_modules():
            available = frozenset(module.all_signal_names())
            accessor = len(self.accessor_keys)
            self.accessor_keys.append(("hw", module.name))
            self.adapter_keys.append(module.name)
            self.process_count += 1
            for fsm in module.behaviours():
                self.candidates.append(_Candidate(
                    len(self.candidates), "hw", module.name, fsm.name,
                    fsm, accessor, available, "module", has_handler=True,
                ))

    def signal_slot(self, cand, port_name):
        if port_name not in cand.available:
            raise SystemCompileError(
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
    """The source names of one candidate's slots.

    The whole-system step names every slot after its plan index, so its
    candidates share signal, service and accessor-counter names.  A
    fragment numbers its own slots from 0, first use first, and records
    the plan slot behind each local name: equal structure then emits
    equal source wherever it sits in whichever model.
    """

    def __init__(self, plan, cand, local):
        self.plan = plan
        self.cand = cand
        self.local = local
        self.signals = []   # plan signal slots, in local-name order
        self.services = []  # plan service slots, in local-name order
        if local:
            self.inst, self.reads, self.writes = "i0", "_r", "_w"
        else:
            self.inst = f"i{cand.index}"
            self.reads = f"_r{cand.accessor}"
            self.writes = f"_w{cand.accessor}"

    def _name(self, prefix, used, slot):
        if self.local:
            if slot not in used:
                used.append(slot)
            slot = used.index(slot)
        return f"{prefix}{slot}"

    def signal(self, port_name):
        slot = self.plan.signal_slot(self.cand, port_name)
        return self._name("g", self.signals, slot)

    def service(self, service_name):
        slot = self.plan.service_slot(self.cand, service_name)
        return self._name("v", self.services, slot)


class _StateEmitter:
    """Emits the inlined code of one candidate state.

    The code performs canonical counter updates and delta-queue writes.
    Accessor read/write counts are accumulated in pending counters and
    flushed as ``+= n`` lines at every control-flow boundary, so each
    executed path bumps exactly the counts the per-FSM tier would have
    bumped on that path (only the per-call fold point differs, which is
    unobservable between deltas).  Every write is one kernel transaction,
    so the ``transactions`` statistic is the sum of the write counts.
    """

    def __init__(self, slots, lines):
        self.slots = slots
        self.cand = slots.cand
        self.lines = lines
        self._reads = 0
        self._writes = 0
        # Unique-name counter for the walrus temporaries of inlined eager
        # and/or and constant div/mod sites (each site needs its own: a
        # nested site in an operand would clobber a shared name
        # mid-expression).
        self._tmp = 0

    # -- low-level helpers

    def line(self, depth, text):
        self.lines.append("    " * depth + text)

    def flush(self, depth):
        pad = "    " * depth
        if self._reads:
            self.lines.append(f"{pad}{self.slots.reads} += {self._reads}")
        if self._writes:
            self.lines.append(f"{pad}{self.slots.writes} += {self._writes}")
        self._reads = self._writes = 0

    def temp(self):
        self._tmp += 1
        return f"_b{self._tmp}"

    def expr(self, expr):
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Var):
            return f"_e[{expr.name!r}]"
        if isinstance(expr, PortRef):
            self._reads += 1
            return f"{self.slots.signal(expr.port_name)}._value"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                # Inlined eager logic, allocation- and call-free: the left
                # operand is bound to a unique temporary, `| 1` forces the
                # chain onward (operands are ints; x|1 is never zero), the
                # right operand is then always evaluated — left-then-right
                # order and raise behaviour match the interpreter's eager
                # `and`/`or` exactly — and the temporary supplies the left
                # truth value.
                left = self.temp()
                l_src = self.expr(expr.left)
                r_src = self.expr(expr.right)
                if expr.op == "and":
                    return (f"(1 if (({left} := {l_src}) | 1) and {r_src} "
                            f"and {left} else 0)")
                return (f"(1 if (({left} := {l_src}) | 1) and ({r_src} "
                        f"or {left}) else 0)")
            template = _BINOP_TEMPLATES.get(expr.op)
            if template is None:
                raise SystemCompileError(f"cannot compile expression {expr!r}")
            right = expr.right
            if (expr.op in ("div", "mod") and isinstance(right, Const)
                    and type(right.value) is int and right.value != 0):
                return self.constant_divisor(expr.op, expr.left, right.value)
            return template.format(self.expr(expr.left), self.expr(right))
        if isinstance(expr, UnOp):
            template = _UNOP_TEMPLATES.get(expr.op)
            if template is None:
                raise SystemCompileError(f"cannot compile expression {expr!r}")
            return template.format(self.expr(expr.operand))
        raise SystemCompileError(f"cannot compile expression {expr!r}")

    def constant_divisor(self, op, left, divisor):
        """Inline source of ``left div/mod divisor``, *divisor* a nonzero int.

        Truncating division by a known nonzero divisor needs no zero check
        and no ``abs`` of the divisor, so it needs no helper call either:
        the dividend is bound to a unique temporary where Python evaluates
        first, and its sign picks the floor operation that truncates.  With
        ``c = |divisor|``, the remainder takes the dividend's sign whatever
        the divisor's, so ``mod`` floors by ``c`` or ``-c``; ``div`` floors
        ``|a|`` by ``c`` and restores the sign.  A constant ``0`` divisor
        stays on the generic ``_div``/``_mod`` call, which raises the
        division error at run time.
        """
        tmp = self.temp()
        a_src = self.expr(left)
        c = abs(divisor)
        if op == "mod":
            return f"(({tmp} := {a_src}) % ({c} if {tmp} >= 0 else {-c}))"
        if divisor > 0:
            return (f"({tmp} // {c} if ({tmp} := {a_src}) >= 0 "
                    f"else -(-{tmp} // {c}))")
        return (f"(-({tmp} // {c}) if ({tmp} := {a_src}) >= 0 "
                f"else -{tmp} // {c})")

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
        elif isinstance(expr, UnOp) and expr.op == "not":
            return f"(not {self.cond(expr.operand)})"
        src = self.expr(expr)
        return f"bool({src})" if exact else src

    # -- statements

    def emit_stmts(self, statements, depth):
        for stmt in statements:
            if isinstance(stmt, Assign):
                src = self.expr(stmt.expr)
                self.line(depth, f"_e[{stmt.target!r}] = {src}")
            elif isinstance(stmt, PortWrite):
                src = self.expr(stmt.expr)
                signal = self.slots.signal(stmt.port_name)
                self.line(depth, f"_dq(({signal}, {src}))")
                self._writes += 1
            elif isinstance(stmt, If):
                cond = self.cond(stmt.cond)
                self.flush(depth)
                self.line(depth, f"if {cond}:")
                self._emit_suite(stmt.then, depth + 1)
                if stmt.orelse:
                    self.line(depth, "else:")
                    self._emit_suite(stmt.orelse, depth + 1)
            elif isinstance(stmt, Nop):
                pass
            else:
                raise SystemCompileError(f"cannot compile statement {stmt!r}")

    def _emit_suite(self, statements, depth):
        before = len(self.lines)
        self.emit_stmts(statements, depth)
        self.flush(depth)
        if len(self.lines) == before:
            self.line(depth, "pass")

    # -- transitions

    def _fire(self, transition, state, depth, last=False):
        """Take *transition*; ``break`` out of the state unless *last*."""
        self.emit_stmts(transition.actions, depth)
        self.flush(depth)
        if transition.target != state.name:
            self.line(depth,
                      f"{self.slots.inst}.current = {transition.target!r}")
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
            self.flush(depth)
            self.line(depth, f"raise SE({message!r})")
            return True
        args = [self.expr(arg) for arg in call.args]
        self.flush(depth)
        service = self.slots.service(call.service)
        self.line(depth, f"_d, _v = {service}.step([{', '.join(args)}])")
        self.line(depth, "if _d:")
        inner = depth + 1
        if call.store:
            self.line(inner, f"_e[{call.store!r}] = _v")
        if transition.guard is not None:
            guard = self.cond(transition.guard)
            self.flush(inner)
            self.line(inner, f"if {guard}:")
            self._fire(transition, state, inner + 1)
        else:
            self._fire(transition, state, inner)
        return False


def _emit_candidate(slots, lines):
    """One candidate step: state dispatch, then one observer site.

    The one emitter of candidate code: a fragment's body and each
    candidate of the whole-system step.  Every path records in ``_f``
    whether a transition fired (and in ``_cl`` the last service it
    called); after the dispatch ``_f`` is added to ``transitions_fired``
    and the one observer call builds the
    :class:`~repro.ir.interp.StepResult` the interpreter would have.  An
    unknown state falls back to the interpreter, which counts and
    observes its own step.
    """
    cand = slots.cand
    fsm = cand.fsm
    i = slots.inst
    has_calls = any(t.call is not None
                    for state in fsm.iter_states()
                    for t in state.transitions)
    lines.append("    try:")
    lines.append(f"        _e = {i}.env")
    lines.append(f"        {i}.steps += 1")
    lines.append(f"        _c = {i}.current")
    lines.append(f"        _ob = {i}.observer")
    lines.append("        _f = False")
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
    lines.append("            else:")
    lines.append(f"                {i}.steps -= 1")
    lines.append("                _ses.system_fallback += 1")
    lines.append(f"                {i}.step()")
    lines.append("                _ob = None  # i.step() observed itself")
    lines.append("            break")
    lines.append(f"        {i}.transitions_fired += _f")
    lines.append("        if _ob is not None:")
    lines.append(f"            _t = {i}.current")
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


def _step_source(plan, params, body, accessors, tail=()):
    """A ``_step`` function around *body*, with the header work of both steps.

    The header compensates ``process_runs`` for the processes the step
    replaces and returns on a falling edge.  After *body* the write
    counters of *accessors* are summed into ``transactions`` and flushed
    to their accessors, and the candidate steps that did not fall back
    count as ``system_compile_hits``.  A raising step flushes none of it.
    """
    rows = ",\n          ".join(", ".join(params[start:start + 12])
                                   for start in range(0, len(params), 12))
    out = [
        f"def _step({rows}):",
        "    _st = _sim.statistics",
        f'    _st["process_runs"] += {plan.process_count - 1}',
        "    if _clk._value != 1:",
        "        return",
        "    _dq = _sim._delta_queue.append",
        "    _fb = _ses.system_fallback",
        *body,
        f'    _st["transactions"] += {" + ".join(f"_w{n}" for n in accessors)}',
    ]
    for n in accessors:
        out.append(f"    a{n}.reads += _r{n}")
        out.append(f"    a{n}.writes += _w{n}")
    out.append(f"    _ses.system_compile_hits += {len(plan.candidates)} + _fb"
               " - _ses.system_fallback")
    out.extend(tail)
    return "\n".join(out)


def _whole_source(plan):
    """The whole-system step: every candidate inlined, slots named by plan."""
    counters = [f"_{rw}{n}" for n in range(len(plan.accessor_keys))
                for rw in "rw"]
    body = ["    " + " = ".join(counters[start:start + 8]) + " = 0"
            for start in range(0, len(counters), 8)]
    for adapter, cand in _plan_order(plan):
        if cand is None:
            body.append(f"    # hardware module {plan.adapter_keys[adapter]!r}")
            body.append(f"    d{adapter}.cycles += 1")
            continue
        tag = f", protocol {cand.protocol}" if cand.protocol else ""
        body.append(f"    # {cand.kind} {cand.label} "
                    f"(fsm {cand.fsm.name!r}{tag})")
        _emit_candidate(_Slots(plan, cand, local=False), body)
    # Slots are allocated on demand, so the parameters follow the body.
    params = ["_sim", "_clk", "_ses"]
    params += [f"g{n}" for n in range(len(plan.signal_keys))]
    params += [f"i{c.index}" for c in plan.candidates]
    params += [f"a{n}" for n in range(len(plan.accessor_keys))]
    params += [f"v{n}" for n in range(len(plan.service_keys))]
    params += [f"d{n}" for n in range(len(plan.adapter_keys))]
    return _step_source(plan, params, body, range(len(plan.accessor_keys)))


def _fragment_source(slots):
    """One candidate as a function of its own slots, returning its counts."""
    body = []
    _emit_candidate(slots, body)
    params = ["_dq", "_ses", "i0"]
    params += [f"g{n}" for n in range(len(slots.signals))]
    params += [f"v{n}" for n in range(len(slots.services))]
    return "\n".join([f"def _fragment({', '.join(params)}):",
                      "    _r = _w = 0", *body, "    return _r, _w"])


def _fragment_step_source(plan):
    """The fragment step: the bound fragments called in plan order.

    Each fragment returns its accessor's read/write counts; the first
    fragment of an accessor names them, later ones add to them.  After
    the totals the step counts its candidate steps on the session and
    calls ``_sw`` once they reach ``_bud``.
    """
    body = []
    seen = []
    for adapter, cand in _plan_order(plan):
        if cand is None:
            body.append(f"    d{adapter}.cycles += 1")
            continue
        n = cand.accessor
        if n in seen:
            body.append(f"    _r, _w = f{cand.index}(_dq)")
            body.append(f"    _r{n} += _r")
            body.append(f"    _w{n} += _w")
        else:
            seen.append(n)
            body.append(f"    _r{n}, _w{n} = f{cand.index}(_dq)")
    params = ["_sim", "_clk", "_ses", "_bud", "_sw"]
    params += [f"f{c.index}" for c in plan.candidates]
    params += [f"a{n}" for n in range(len(plan.accessor_keys))]
    params += [f"d{n}" for n in range(len(plan.adapter_keys))]
    tail = [
        "    _ses.fragment_steps = _n = _ses.fragment_steps + "
        f"{len(plan.candidates)}",
        "    if _n >= _bud:",
        "        _sw()",
    ]
    return _step_source(plan, params, body, seen, tail)


def generate_system_source(model):
    """The whole-system source text — a pure function of the model."""
    return _whole_source(SystemPlan(model))


# ------------------------------------------------------------------ program


#: The names generated code reads besides its parameters.
_GLOBALS = {
    "__builtins__": builtins,
    "SR": StepResult,
    "SE": SimulationError,
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
    """One candidate's compiled fragment and the plan slots it binds."""

    __slots__ = ("code", "signals", "services", "lines")

    def __init__(self, plan, cand):
        slots = _Slots(plan, cand, local=True)
        source = _fragment_source(slots)
        self.code = _compiled(source, "<syscompile:fragment>")
        self.signals = slots.signals
        self.services = slots.services
        self.lines = source.count("\n") + 1


class SystemProgram:
    """The compiled fused program of one model.

    Holds the plan, one :class:`_Fragment` per candidate and the fragment
    step's code; the whole-system step's code is compiled on the first
    :meth:`bind` that asks for it.  Shared by every session built from the
    same model object; it keeps no reference to the model.
    """

    def __init__(self, model, plan):
        self.name = model.name
        self.plan = plan
        self.fragments = [_Fragment(plan, cand) for cand in plan.candidates]
        #: Lines of all fragment sources: what compiling the whole-system
        #: step costs, in :data:`SWITCH_STEPS_PER_LINE` units.
        self.lines = sum(fragment.lines for fragment in self.fragments)
        self._fragment_step = _compiled(_fragment_step_source(plan),
                                        "<syscompile:step>")
        self._whole_step = None

    def bind(self, ctx, whole=False):
        """Bind a step function to one session's objects.

        *ctx* maps ``sim``/``clock``/``session`` plus the slot lists
        (``signals``/``instances``/``accessors``/``services``/``adapters``)
        in the orders recorded on :attr:`plan`, and ``switch``, the
        callable the fragment step calls once it has run
        ``SWITCH_STEPS_PER_LINE * lines`` candidate steps.  They become
        the defaults of the step's and each fragment's parameters.  With
        *whole* the step is the whole-system one.
        """
        sim, clock, session = ctx["sim"], ctx["clock"], ctx["session"]
        signals, services = ctx["signals"], ctx["services"]
        if whole:
            if self._whole_step is None:
                self._whole_step = _compiled(_whole_source(self.plan),
                                        f"<syscompile:{self.name}>")
            defaults = (sim, clock, session, *signals, *ctx["instances"],
                        *ctx["accessors"], *services, *ctx["adapters"])
            return types.FunctionType(self._whole_step, _GLOBALS, "_step",
                                      defaults)
        calls = [
            types.FunctionType(fragment.code, _GLOBALS, "_fragment", (
                session, instance,
                *[signals[slot] for slot in fragment.signals],
                *[services[slot] for slot in fragment.services],
            ))
            for fragment, instance in zip(self.fragments, ctx["instances"])
        ]
        defaults = (sim, clock, session, SWITCH_STEPS_PER_LINE * self.lines,
                    ctx["switch"], *calls, *ctx["accessors"], *ctx["adapters"])
        return types.FunctionType(self._fragment_step, _GLOBALS, "_step",
                                  defaults)

    def __repr__(self):
        return (f"SystemProgram({self.name}, candidates="
                f"{len(self.plan.candidates)})")


class LateBoundService:
    """Stand-in for a service slot the registry cannot resolve at bind time.

    Mirrors the per-FSM tier's late lookup: the canonical "no bound
    service" error (or a service added later) surfaces at call time, not
    at build time.
    """

    __slots__ = ("registry", "name")

    def __init__(self, registry, name):
        self.registry = registry
        self.name = name

    def step(self, arg_values):
        return self.registry.get(self.name).step(arg_values)


# ------------------------------------------------------------------- caches


#: Most distinct code objects (fragments, fragment steps, whole-system
#: steps) kept in-process.
CODE_CACHE_SIZE = 256

#: Candidate steps per generated source line after which a session's
#: fused process swaps the fragment step for the whole-system step.
#: Compiling costs about 8.4 µs per line (1.9 ms for the median 226-line
#: model); a fragment call costs about 0.14 µs per candidate step more
#: than inlined code.  So the whole-system compile is repaid after about
#: 8.4 / 0.14 = 60 candidate steps per line.
SWITCH_STEPS_PER_LINE = 60

_SYSTEM_CACHE = weakref.WeakKeyDictionary()  # model -> SystemProgram
_CODE_CACHE = LruCache(CODE_CACHE_SIZE)      # source -> code object


def compile_system(model):
    """The (cached) fused program of *model*.

    Compilation is gated on the static analyzer: error-level findings
    refuse it (:class:`SystemCompileError`) exactly as they refuse
    sweep/server jobs.  The verdict is read from the model's lint memo
    (:func:`~repro.lint.engine.memo_report`), so a job whose pre-flight
    already linted the model pays nothing here.  A model without a single
    fusable FSM is refused too: there is nothing to fuse.
    """
    from repro.lint.engine import memo_report

    errors = memo_report(model).errors
    if errors:
        raise SystemCompileError(
            "lint errors refuse whole-system compilation: "
            + "; ".join(diagnostic.format() for diagnostic in errors)
        )
    program = _SYSTEM_CACHE.get(model)
    if program is not None:
        return program
    plan = SystemPlan(model)
    if not plan.candidates:
        raise SystemCompileError("no fusable FSM")
    program = SystemProgram(model, plan)
    _SYSTEM_CACHE[model] = program
    return program
