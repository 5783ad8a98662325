"""Operation scheduling into control steps.

Three classic algorithms are provided:

* **ASAP** — every operation as early as its dependencies allow,
* **ALAP** — as late as a given latency bound allows,
* **list scheduling** — resource-constrained; operations compete for a fixed
  number of functional units per class, priority is ALAP slack (critical
  operations first).

The default resource constraint used by the flow (one ALU, one comparator,
one multiplier, one divider) reflects the small XC4000 parts of the paper's
prototype board.
"""

from repro.cosyn.hls.dfg import OPERATOR_CLASS
from repro.utils.errors import SynthesisError

#: Default number of functional units available per class.
DEFAULT_RESOURCES = {
    "alu": 1,
    "cmp": 1,
    "logic": 2,
    "mult": 1,
    "divider": 1,
    "move": 4,
}


class Schedule:
    """Assignment of operations to control steps for one state DFG."""

    def __init__(self, dfg, assignment, resources=None):
        self.dfg = dfg
        self.assignment = dict(assignment)
        self.resources = dict(resources or {})

    @property
    def length(self):
        """Number of control steps (0 for an empty DFG)."""
        if not self.assignment:
            return 0
        return max(self.assignment.values()) + 1

    def operations_in_step(self, step):
        return [op for op in self.dfg.operations if self.assignment[op.op_id] == step]

    def fu_usage(self):
        """Maximum number of simultaneously busy units per class."""
        usage = {}
        for step in range(self.length):
            per_class = {}
            for operation in self.operations_in_step(step):
                per_class[operation.fu_class] = per_class.get(operation.fu_class, 0) + 1
            for fu_class, count in per_class.items():
                usage[fu_class] = max(usage.get(fu_class, 0), count)
        return usage

    def verify(self):
        """Check dependency and resource constraints; returns problem list."""
        problems = []
        for producer, consumer in self.dfg.edges:
            if self.assignment[producer] > self.assignment[consumer]:
                problems.append(
                    f"dependency violated: {producer} scheduled after {consumer}"
                )
        if self.resources:
            for step in range(self.length):
                per_class = {}
                for operation in self.operations_in_step(step):
                    per_class[operation.fu_class] = per_class.get(operation.fu_class, 0) + 1
                for fu_class, count in per_class.items():
                    limit = self.resources.get(fu_class)
                    if limit is not None and count > limit:
                        problems.append(
                            f"step {step}: {count} {fu_class} operations exceed limit {limit}"
                        )
        return problems

    def __repr__(self):
        return f"Schedule({self.dfg.state_name}, steps={self.length}, ops={len(self.dfg)})"


def asap_schedule(dfg):
    """As-soon-as-possible schedule (unconstrained resources)."""
    assignment = {}
    remaining = {op.op_id for op in dfg.operations}
    guard = 0
    while remaining:
        placed = []
        for op_id in sorted(remaining):
            preds = dfg.predecessors(op_id)
            if all(pred in assignment for pred in preds):
                step = max((assignment[pred] + 1 for pred in preds), default=0)
                assignment[op_id] = step
                placed.append(op_id)
        if not placed:
            raise SynthesisError(
                f"cycle detected in data-flow graph of state {dfg.state_name!r}"
            )
        remaining.difference_update(placed)
        guard += 1
        if guard > 10_000:
            raise SynthesisError("ASAP scheduling did not converge")
    return Schedule(dfg, assignment)


def alap_schedule(dfg, latency=None):
    """As-late-as-possible schedule for a given latency bound."""
    asap = asap_schedule(dfg)
    bound = latency if latency is not None else asap.length
    if bound < asap.length:
        raise SynthesisError(
            f"latency bound {bound} is below the critical path {asap.length}"
        )
    assignment = {}
    remaining = {op.op_id for op in dfg.operations}
    while remaining:
        placed = []
        for op_id in sorted(remaining):
            succs = dfg.successors(op_id)
            if all(succ in assignment for succ in succs):
                step = min((assignment[succ] - 1 for succ in succs), default=bound - 1)
                assignment[op_id] = step
                placed.append(op_id)
        if not placed:
            raise SynthesisError(
                f"cycle detected in data-flow graph of state {dfg.state_name!r}"
            )
        remaining.difference_update(placed)
    return Schedule(dfg, assignment)


def list_schedule(dfg, resources=None):
    """Resource-constrained list scheduling (priority = ALAP urgency)."""
    resources = dict(DEFAULT_RESOURCES if resources is None else resources)
    if not dfg.operations:
        return Schedule(dfg, {}, resources)
    for operation in dfg.operations:
        limit = resources.get(operation.fu_class, 0)
        if limit < 1:
            raise SynthesisError(
                f"no functional unit of class {operation.fu_class!r} available for "
                f"operation {operation.op_id}"
            )
    alap = alap_schedule(dfg)
    priority = {op_id: alap.assignment[op_id] for op_id in alap.assignment}
    assignment = {}
    unscheduled = {op.op_id for op in dfg.operations}
    step = 0
    while unscheduled:
        used = {}
        ready = [
            op_id for op_id in unscheduled
            if all(pred in assignment and assignment[pred] < step
                   for pred in dfg.predecessors(op_id))
        ]
        # Most urgent first (smallest ALAP step), stable by id for determinism.
        ready.sort(key=lambda op_id: (priority[op_id], op_id))
        for op_id in ready:
            fu_class = dfg.operation(op_id).fu_class
            limit = resources.get(fu_class, 1)
            if used.get(fu_class, 0) < limit:
                assignment[op_id] = step
                used[fu_class] = used.get(fu_class, 0) + 1
        scheduled_now = [op_id for op_id in ready if assignment.get(op_id) == step]
        unscheduled.difference_update(scheduled_now)
        step += 1
        if step > 10_000:
            raise SynthesisError("list scheduling did not converge")
    return Schedule(dfg, assignment, resources)
