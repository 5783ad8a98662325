"""FSM-level passes: structural checks and dataflow analysis.

Two families:

* **structural** (FSM001–FSM005) — unknown transition targets, unreachable
  and trap states, undeclared variables.
* **dataflow** (DF001–DF004) — use-before-init detection via a forward
  must-be-assigned analysis over the transition graph, dead-store detection,
  and statically-false / shadowed transition guards via interval evaluation
  (:mod:`repro.lint.intervals`).
"""

from repro.ir.stmt import Assign, If, PortWrite
from repro.ir.transform import reachable_states
from repro.ir.visitor import iter_expr_tree
from repro.ir.expr import Var
from repro.lint.diagnostics import Diagnostic
from repro.lint.intervals import (
    eval_interval,
    is_definitely_false,
    is_definitely_true,
)


def structural_pass(fsm, path, report):
    """FSM001–FSM005: the structural checks of one FSM."""

    def emit(rule, severity, where, message):
        report.add(Diagnostic(rule, severity, where, message))

    for state in fsm.iter_states():
        for transition in state.transitions:
            if transition.target not in fsm.states:
                emit("FSM001", "error", f"{path}/{state.name}",
                     f"state {state.name!r}: transition targets unknown state "
                     f"{transition.target!r}")
    unreachable = set(fsm.states) - reachable_states(fsm)
    for name in sorted(unreachable):
        emit("FSM002", "warning", f"{path}/{name}",
             f"state {name!r} is unreachable from {fsm.initial!r}")
    declared = set(fsm.variables)
    for name in sorted(set(fsm.vars_read) - declared):
        emit("FSM004", "error", path,
             f"variable {name!r} is read but never declared")
    for name in sorted(set(fsm.vars_written) - declared):
        emit("FSM005", "error", path,
             f"variable {name!r} is written but never declared")
    for state in fsm.iter_states():
        if not state.transitions and state.name not in fsm.done_states:
            emit("FSM003", "error", f"{path}/{state.name}",
                 f"state {state.name!r} is a trap (no transitions, not done)")


# --------------------------------------------------------------------- DF001

def _expr_reads(expr, tracked, assigned, found):
    for node in iter_expr_tree(expr):
        if isinstance(node, Var) and node.name in tracked and node.name not in assigned:
            found.add(node.name)


def _exec_stmts(stmts, tracked, assigned, found):
    """Advance the must-be-assigned set through a statement list."""
    for stmt in stmts:
        if isinstance(stmt, Assign):
            _expr_reads(stmt.expr, tracked, assigned, found)
            assigned.add(stmt.target)
        elif isinstance(stmt, PortWrite):
            _expr_reads(stmt.expr, tracked, assigned, found)
        elif isinstance(stmt, If):
            _expr_reads(stmt.cond, tracked, assigned, found)
            then_set = set(assigned)
            _exec_stmts(stmt.then, tracked, then_set, found)
            else_set = set(assigned)
            _exec_stmts(stmt.orelse, tracked, else_set, found)
            common = then_set & else_set
            assigned.clear()
            assigned.update(common)


def _state_flow(state, tracked, entry_set, found=None):
    """Run one state; returns {target: must-assigned-at-entry} per transition."""
    if found is None:
        found = set()
    assigned = set(entry_set)
    _exec_stmts(state.actions, tracked, assigned, found)
    out = []
    for transition in state.transitions:
        t_assigned = set(assigned)
        if transition.call is not None:
            for arg in transition.call.args:
                _expr_reads(arg, tracked, t_assigned, found)
            if transition.call.store:
                t_assigned.add(transition.call.store)
        if transition.guard is not None:
            _expr_reads(transition.guard, tracked, t_assigned, found)
        _exec_stmts(transition.actions, tracked, t_assigned, found)
        out.append((transition.target, t_assigned))
    return out, found


def use_before_init_pass(fsm, path, report, pre_assigned=()):
    """DF001: reads of variables with no explicit initialiser that are not
    definitely assigned on every path reaching the read."""
    tracked = {
        name for name, decl in fsm.variables.items()
        if not getattr(decl, "explicit_init", True) and name not in pre_assigned
    }
    if not tracked:
        return
    # Fixpoint: must-be-assigned set at state entry (intersection over
    # predecessors, optimistic start).
    entry = {fsm.initial: frozenset()}
    worklist = [fsm.initial]
    while worklist:
        name = worklist.pop()
        if name not in fsm.states:
            continue
        flows, _ = _state_flow(fsm.states[name], tracked, entry[name])
        for target, assigned in flows:
            incoming = frozenset(assigned)
            if target not in entry:
                entry[target] = incoming
                worklist.append(target)
            else:
                merged = entry[target] & incoming
                if merged != entry[target]:
                    entry[target] = merged
                    worklist.append(target)
    # Reporting sweep over the final entry facts (declaration order).
    flagged = {}
    for state in fsm.iter_states():
        if state.name not in entry:
            continue  # unreachable: FSM002's business
        _, found = _state_flow(state, tracked, entry[state.name])
        for name in sorted(found):
            flagged.setdefault(name, state.name)
    for name, state_name in sorted(flagged.items()):
        report.add(Diagnostic(
            "DF001", "warning", f"{path}/{state_name}",
            f"variable {name!r} may be read before initialisation",
            data={"variable": name},
        ))


def dead_store_pass(fsm, path, report, pre_assigned=()):
    """DF002: declared variables that are written but never read."""
    written = set(fsm.vars_written) & set(fsm.variables)
    dead = written - set(fsm.vars_read) - {fsm.result_var} - set(pre_assigned)
    for name in sorted(dead):
        report.add(Diagnostic(
            "DF002", "warning", f"{path}/{name}",
            f"variable {name!r} is written but never read",
            data={"variable": name},
        ))


def guard_pass(fsm, path, report, var_env=None, port_env=None):
    """DF003 (statically-false guards) and DF004 (shadowed transitions).

    A transition is shadowed when an earlier sibling always fires: it has no
    service call (calls only fire once the callee completes) and its guard is
    absent or definitely true over the declared value ranges.
    """
    for state in fsm.iter_states():
        shadowing = None
        for index, transition in enumerate(state.transitions):
            where = f"{path}/{state.name}/t{index}"
            if shadowing is not None:
                report.add(Diagnostic(
                    "DF004", "warning", where,
                    f"transition to {transition.target!r} is unreachable: "
                    f"transition t{shadowing[0]} (to {shadowing[1]!r}) always "
                    "fires first",
                    data={"state": state.name, "shadowed_by": shadowing[0]},
                ))
                continue
            if transition.guard is not None:
                interval = eval_interval(transition.guard, var_env, port_env)
                if is_definitely_false(interval):
                    report.add(Diagnostic(
                        "DF003", "warning", where,
                        f"guard of transition to {transition.target!r} is "
                        "statically false",
                        data={"state": state.name},
                    ))
                    continue  # can never fire, so it shadows nothing
                always = is_definitely_true(interval)
            else:
                always = True
            if transition.call is None and always:
                shadowing = (index, transition.target)


def dataflow_passes(fsm, path, report, pre_assigned=(), var_env=None,
                    port_env=None):
    """Run DF001–DF004 on one FSM."""
    use_before_init_pass(fsm, path, report, pre_assigned)
    dead_store_pass(fsm, path, report, pre_assigned)
    guard_pass(fsm, path, report, var_env, port_env)
