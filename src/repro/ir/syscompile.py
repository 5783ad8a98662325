"""Whole-system compilation: one code object for the clocked backplane.

Wired one kernel process per FSM, a co-simulated system pays per-delta
Python dispatch around every FSM step: one ``on_edge`` wrapper frame per
clocked process, one ``FsmInstance.step`` frame (plus a
:class:`~repro.ir.interp.StepResult` allocation) per instance, one
accessor method call per port access and one ``Simulator.schedule`` call
per port write — on every rising clock edge — on top of the tree walk
itself.

This module translates an entire :class:`~repro.core.model.SystemModel` —
every communication-unit protocol controller and every hardware-module
process, i.e. the complete population of clocked FSM processes — into a
**single** generated step function registered once on the clock:

* signals are bound as default-argument locals (``LOAD_FAST``), reads are
  ``sig._value`` (the attribute the ``Signal.value`` property returns),
  writes append to the kernel's delta queue directly,
* per-instance dispatch becomes an ``if/elif`` chain over state-name
  literals with the transition logic inlined in the interpreter's order
  (same evaluation order, same eager operators, same errors),
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

The generated source is a pure function of the model structure: the
program is cached per model (weak) and its code object per digest
(:func:`model_digest`, via :mod:`repro.utils.canonical`) in a fixed-size
in-process LRU.

The fused program is cross-checked end to end, not in-session: the
conformance kit's ``--tier differential`` runs every scenario on the
fused and interpreted tiers in separate sessions and compares
their complete fingerprints.
"""

import weakref

from repro.ir.compile import (
    _BINOP_TEMPLATES,
    _UNOP_TEMPLATES,
    CompileError,
    _expr_var_reads,
    _stmt_var_reads,
    constant_divisor_source,
    fsm_spec,
)
from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.utils.canonical import content_digest
from repro.utils.errors import SimulationError
from repro.utils.lru import LruCache

#: Bumped whenever the generated source changes shape; it is part of
#: :func:`system_spec`, so it keys the code-object cache too.
SOURCE_FORMAT = 5


class SystemCompileError(SimulationError):
    """The model cannot be fused into a whole-system program.

    Raised at compile time (unknown IR node, port not wired, lint
    errors); the session reacts by falling back to the per-FSM
    wiring and recording the reason — never by changing behaviour.
    """


# --------------------------------------------------------------------- spec


def system_spec(model):
    """Canonical structural description of everything the codegen consumes.

    Two models with equal specs generate byte-identical source, so the
    spec's :func:`~repro.utils.canonical.content_digest` keys the
    code-object cache.  Each FSM enters as its
    :func:`~repro.ir.compile.fsm_spec`.  Bindings and port
    initial values are bind-time inputs, not codegen inputs, and are
    deliberately absent.
    """
    try:
        return _system_spec(model)
    except CompileError as exc:
        raise SystemCompileError(str(exc)) from None


def _system_spec(model):
    return {
        "syscompile": SOURCE_FORMAT,
        "units": [
            {"name": unit.name,
             "ports": sorted(unit.ports),
             "controllers": [{"name": c.name,
                              "protocol": getattr(c, "protocol", ""),
                              "fsm": fsm_spec(c.fsm)}
                             for c in unit.controllers]}
            for unit in model.comm_units.values()
        ],
        "modules": [
            {"name": module.name,
             "ports": sorted(module.all_signal_names()),
             "fsms": [fsm_spec(fsm) for fsm in module.behaviours()]}
            for module in model.hardware_modules()
        ],
    }


_DIGEST_CACHE = weakref.WeakKeyDictionary()


def model_digest(model):
    """Content digest of :func:`system_spec`, weakly cached per model.

    Like :func:`~repro.ir.compile.fsm_digest` this assumes the model is not
    mutated after its first compilation.
    """
    digest = _DIGEST_CACHE.get(model)
    if digest is None:
        digest = content_digest(system_spec(model))
        _DIGEST_CACHE[model] = digest
    return digest


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
        reads = set()
        for state in fsm.iter_states():
            _stmt_var_reads(state.actions, reads)
            for t in state.transitions:
                if t.guard is not None:
                    _expr_var_reads(t.guard, reads)
                _stmt_var_reads(t.actions, reads)
                if t.call is not None:
                    for arg in t.call.args:
                        _expr_var_reads(arg, reads)
        self.env_reads = reads

    @property
    def label(self):
        return f"{self.owner}.{self.name}"


class SystemPlan:
    """Deterministic fusion plan: candidates, slots, replaced processes.

    Mirrors the session's build order exactly — controllers in unit order
    then hardware modules in model order — because the fused step function
    must execute its candidates in the order their clocked processes would
    have run.
    """

    def __init__(self, model):
        self.model = model
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


class _FragmentEmitter:
    """Emits the inlined step fragment of one candidate.

    The fragment performs canonical counter updates, delta-queue writes
    and observer callbacks.  Accessor read/write counts and the
    ``transactions`` statistic are accumulated in pending counters and
    flushed as ``+= n`` lines at every control-flow boundary, so each
    executed path bumps exactly the counts the per-FSM tier would have
    bumped on that path (only the per-call fold point differs, which is
    unobservable between deltas).
    """

    def __init__(self, plan, cand, lines):
        self.plan = plan
        self.cand = cand
        self.lines = lines
        self._reads = 0
        self._writes = 0
        self._tx = 0
        # Unique-name counter for the walrus temporaries of inlined
        # eager and/or sites (each site needs its own pair: a nested
        # and/or in an operand would clobber shared names mid-expression).
        self._tmp = 0

    # -- low-level helpers

    def line(self, depth, text):
        self.lines.append("    " * depth + text)

    def flush(self, depth):
        pad = "    " * depth
        ai = self.cand.accessor
        if self._reads:
            self.lines.append(f"{pad}_r{ai} += {self._reads}")
        if self._writes:
            self.lines.append(f"{pad}_w{ai} += {self._writes}")
        if self._tx:
            self.lines.append(f"{pad}_tx += {self._tx}")
        self._reads = self._writes = self._tx = 0

    def expr(self, expr):
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Var):
            return f"_e[{expr.name!r}]"
        if isinstance(expr, PortRef):
            slot = self.plan.signal_slot(self.cand, expr.port_name)
            self._reads += 1
            return f"g{slot}._value"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                # Inlined eager logic, allocation- and call-free: the left
                # operand is bound to a unique temporary, `| 1` forces the
                # chain onward (operands are ints; x|1 is never zero), the
                # right operand is then always evaluated — left-then-right
                # order and raise behaviour match `_eager_and`/`_eager_or`
                # exactly — and the temporary supplies the left truth value.
                self._tmp += 1
                left = f"_b{self._tmp}"
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
            l_src = self.expr(expr.left)
            fast = constant_divisor_source(expr.op, l_src, expr.right)
            if fast is not None:
                return fast
            return template.format(l_src, self.expr(expr.right))
        if isinstance(expr, UnOp):
            template = _UNOP_TEMPLATES.get(expr.op)
            if template is None:
                raise SystemCompileError(f"cannot compile expression {expr!r}")
            return template.format(self.expr(expr.operand))
        raise SystemCompileError(f"cannot compile expression {expr!r}")

    # -- statements

    def emit_stmts(self, statements, depth):
        for stmt in statements:
            if isinstance(stmt, Assign):
                src = self.expr(stmt.expr)
                self.line(depth, f"_e[{stmt.target!r}] = {src}")
            elif isinstance(stmt, PortWrite):
                src = self.expr(stmt.expr)
                slot = self.plan.signal_slot(self.cand, stmt.port_name)
                self.line(depth, f"_dq((g{slot}, {src}))")
                self._writes += 1
                self._tx += 1
            elif isinstance(stmt, If):
                cond = self.expr(stmt.cond)
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

    # -- step results / observers

    def _observe(self, depth, from_state, to_state, fired, called_local):
        fsm = self.cand.fsm
        done = to_state in fsm.done_states
        args = [repr(from_state), repr(to_state), repr(fired), repr(done)]
        result = "None"
        if done and fsm.result_var:
            result = f"_e.get({fsm.result_var!r})"
        if called_local is not None:
            args += [result, called_local]
        elif result != "None":
            args.append(result)
        self.line(depth, "if _ob is not None:")
        self.line(depth + 1, f"_ob(SR({', '.join(args)}))")

    def _fire(self, transition, state, depth, called_local):
        self.emit_stmts(transition.actions, depth)
        self.flush(depth)
        i = self.cand.index
        self.line(depth, f"i{i}.current = {transition.target!r}")
        self.line(depth, f"i{i}.transitions_fired += 1")
        self._observe(depth, state.name, transition.target, True,
                      called_local)
        self.line(depth, "break")

    # -- transitions

    def emit_state(self, state, depth):
        """The full fragment of one state, inside a ``while True:`` goto."""
        has_calls = any(t.call is not None for t in state.transitions)
        called_local = "_cl" if has_calls else None
        if has_calls:
            self.line(depth, "_cl = None")
        self.emit_stmts(state.actions, depth)
        for transition in state.transitions:
            if transition.call is not None:
                if self._emit_call_transition(transition, state, depth):
                    return  # unconditional raise: rest unreachable
                continue
            if transition.guard is not None:
                guard = self.expr(transition.guard)
                self.flush(depth)
                self.line(depth, f"if {guard}:")
                self._fire(transition, state, depth + 1, called_local)
            else:
                self._fire(transition, state, depth, called_local)
                return  # later transitions are unreachable, as in the oracle
        self.flush(depth)
        self._observe(depth, state.name, state.name, False, called_local)
        self.line(depth, "break")

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
        slot = self.plan.service_slot(self.cand, call.service)
        self.line(depth, f"_d, _v = v{slot}.step([{', '.join(args)}])")
        self.line(depth, "if _d:")
        inner = depth + 1
        if call.store:
            self.line(inner, f"_e[{call.store!r}] = _v")
        if transition.guard is not None:
            guard = self.expr(transition.guard)
            self.flush(inner)
            self.line(inner, f"if {guard}:")
            self._fire(transition, state, inner + 1, "_cl")
        else:
            self._fire(transition, state, inner, "_cl")
        return False


def _chunk_zero_init(names, lines, depth):
    """Emit ``a = b = ... = 0`` chains in readable chunks."""
    pad = "    " * depth
    for start in range(0, len(names), 8):
        chunk = names[start:start + 8]
        lines.append(pad + " = ".join(chunk) + " = 0")


def _defaults(pairs):
    """Render default-argument bindings, eight per line."""
    out = []
    for start in range(0, len(pairs), 8):
        out.append(", ".join(f"{name}={value}"
                             for name, value in pairs[start:start + 8]))
    return (",\n              ").join(out)


def generate_system_source(model, plan=None):
    """The whole-system source text — a pure function of the model.

    The candidate fragments are emitted first (slot allocation on the plan
    is demand-driven: a signal/service gets a slot when a fragment first
    references it), then the factory header — whose default-argument
    bindings must cover every allocated slot — is rendered around them.
    """
    plan = plan or SystemPlan(model)

    lines = []

    def emit_candidate(cand):
        i = cand.index
        tag = f", protocol {cand.protocol}" if cand.protocol else ""
        lines.append(f"        # {cand.kind} {cand.label} "
                     f"(fsm {cand.fsm.name!r}{tag})")
        lines.append("        try:")
        lines.append(f"            i{i}.steps += 1")
        lines.append(f"            _e = i{i}.env")
        lines.append(f"            _c = i{i}.current")
        lines.append(f"            _ob = i{i}.observer")
        keyword = "if"
        for state in cand.fsm.iter_states():
            lines.append(f"            {keyword} _c == {state.name!r}:")
            keyword = "elif"
            lines.append("                while True:")
            emitter = _FragmentEmitter(plan, cand, lines)
            emitter.emit_state(state, 5)
        lines.append("            else:")
        lines.append(f"                i{i}.steps -= 1")
        lines.append("                _hits -= 1")
        lines.append("                _ses.system_fallback += 1")
        lines.append(f"                i{i}.step()")
        lines.append("        except KeyError as exc:")
        lines.append("            _k = exc.args[0] if exc.args else None")
        lines.append(f"            if _k in _ER{i} and _k not in i{i}.env:")
        lines.append("                raise SE('undefined variable %r' % (_k,))"
                     " from None")
        lines.append("            raise")

    for cand in plan.candidates:
        if cand.kind == "ctrl":
            emit_candidate(cand)
    for adapter_index, module_name in enumerate(plan.adapter_keys):
        lines.append(f"        # hardware module {module_name!r}")
        lines.append(f"        d{adapter_index}.cycles += 1")
        for cand in plan.candidates:
            if cand.kind == "hw" and cand.owner == module_name:
                emit_candidate(cand)
    lines.append('        _st["transactions"] += _tx')
    for n in range(len(plan.accessor_keys)):
        lines.append(f"        a{n}.reads += _r{n}")
        lines.append(f"        a{n}.writes += _w{n}")
    lines.append("        _ses.system_compile_hits += _hits")
    lines.append("    return _step")

    # ------------------------------------- assemble (slots now complete)
    out = [
        f"# Whole-system program for {model.name!r}"
        f" (repro.ir.syscompile format {SOURCE_FORMAT}).",
        "from repro.ir.compile import _eager_and as _and, _eager_or as _or, "
        "_pos_div, _pos_mod",
        "from repro.ir.interp import StepResult, _int_div as _div, _int_mod as _mod",
        "from repro.utils.errors import SimulationError",
        "",
    ]
    for cand in plan.candidates:
        reads = ", ".join(repr(name) for name in sorted(cand.env_reads))
        out.append(f"_ER{cand.index} = frozenset(({reads}{',' if reads else ''}))")
    out.append("")
    defaults = [("_sim", '_c["sim"]'), ("_clk", '_c["clock"]'),
                ("_ses", '_c["session"]'), ("SR", "StepResult"),
                ("SE", "SimulationError")]
    defaults += [(f"g{n}", f'_c["signals"][{n}]')
                 for n in range(len(plan.signal_keys))]
    defaults += [(f"i{c.index}", f'_c["instances"][{c.index}]')
                 for c in plan.candidates]
    defaults += [(f"a{n}", f'_c["accessors"][{n}]')
                 for n in range(len(plan.accessor_keys))]
    defaults += [(f"v{n}", f'_c["services"][{n}]')
                 for n in range(len(plan.service_keys))]
    defaults += [(f"d{n}", f'_c["adapters"][{n}]')
                 for n in range(len(plan.adapter_keys))]
    out.append("def _bind_fused(_c):")
    out.append(f"    def _step({_defaults(defaults)}):")
    out.append("        _st = _sim.statistics")
    out.append(f'        _st["process_runs"] += {plan.process_count - 1}')
    out.append("        if _clk._value != 1:")
    out.append("            return")
    out.append("        _dq = _sim._delta_queue.append")
    out.append("        _tx = 0")
    out.append(f"        _hits = {len(plan.candidates)}")
    counters = []
    for n in range(len(plan.accessor_keys)):
        counters += [f"_r{n}", f"_w{n}"]
    _chunk_zero_init(counters, out, 2)
    out.extend(lines)
    return "\n".join(out)


# ------------------------------------------------------------------ program


class SystemProgram:
    """The compiled whole-system program of one model.

    Holds the generated source, its digest, the slot metadata a session
    needs to assemble a binding context, and the bind entry point of the
    step function.  Shared by every session built from the same model
    object.
    """

    def __init__(self, model, plan, digest, source):
        self.name = model.name
        self.plan = plan
        self.digest = digest
        self.source = source
        code = _CODE_CACHE.get(digest)
        if code is None:
            code = compile(source, f"<syscompile:{model.name}>", "exec")
            _CODE_CACHE.put(digest, code)
        namespace = {}
        exec(code, namespace)  # noqa: S102 - our own generated source
        self._bind_fused = namespace["_bind_fused"]

    def bind(self, ctx):
        """Bind the production step function to one session's objects.

        *ctx* maps ``sim``/``clock``/``session`` plus the slot lists
        (``signals``/``instances``/``accessors``/``services``/``adapters``)
        in the orders recorded on :attr:`plan`.
        """
        return self._bind_fused(ctx)

    def __repr__(self):
        return (f"SystemProgram({self.name}, candidates="
                f"{len(self.plan.candidates)}, digest={self.digest[:12]})")


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


#: Most distinct whole-system code objects kept in-process.
CODE_CACHE_SIZE = 64

_SYSTEM_CACHE = weakref.WeakKeyDictionary()  # model -> SystemProgram
_CODE_CACHE = LruCache(CODE_CACHE_SIZE)      # digest -> code object


def compile_system(model):
    """The (cached) whole-system program of *model*.

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
    source = generate_system_source(model, plan)
    program = SystemProgram(model, plan, model_digest(model), source)
    _SYSTEM_CACHE[model] = program
    return program
