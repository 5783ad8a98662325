"""The rule catalog: every diagnostic the analyzer can emit.

``docs/lint.md`` renders this table with examples; the CLI's ``--disable``
and the ``lint_suppress`` attributes reference rules by id.  Rules marked
*structural* run in the engine's first stage — the subset model validation
checks before a flow starts.
"""

from collections import namedtuple

Rule = namedtuple("Rule", "rule severity structural title")

#: Every rule, in catalog order.
RULES = [
    # Structural FSM checks.
    Rule("FSM001", "error", True, "transition targets an unknown state"),
    Rule("FSM002", "warning", True, "state unreachable from the initial state"),
    Rule("FSM003", "error", True, "trap state (no transitions, not done)"),
    Rule("FSM004", "error", True, "variable read but never declared"),
    Rule("FSM005", "error", True, "variable written but never declared"),
    Rule("FSM006", "error", True, "software module without exactly one FSM"),
    # IR dataflow analysis.
    Rule("DF001", "warning", False, "variable may be read before initialisation"),
    Rule("DF002", "warning", False, "variable written but never read (dead store)"),
    Rule("DF003", "warning", False, "transition guard is statically false"),
    Rule("DF004", "warning", False, "transition shadowed by an earlier one"),
    # Delta-cycle write races.
    Rule("RACE001", "error", False,
         "signal writable by two processes in the same delta cycle"),
    # Interface / binding checks.
    Rule("IF001", "error", True, "called service not bound to any unit"),
    Rule("IF002", "warning", True, "binding whose service is never called"),
    Rule("IF003", "error", False, "service call arity mismatch"),
    Rule("IF004", "error", False, "stores the result of a void service"),
    Rule("IF005", "error", False, "port write can never be a legal value"),
    Rule("IF006", "error", False, "argument can never fit the parameter"),
    Rule("IF007", "warning", False, "stored result may not fit the variable"),
    Rule("IF008", "error", True, "service/controller uses an undeclared port"),
    # Protocol misuse (derived from comm/protocols FSMs).
    Rule("PROTO001", "warning", False, "channel data written without its strobe"),
    Rule("PROTO002", "error", False, "acknowledge raised outside the data window"),
    Rule("PROTO003", "error", False, "strobe raised while the channel can be full"),
    # View-library completeness.
    Rule("VIEW001", "error", True, "missing service view for a flow"),
    Rule("VIEW002", "error", True, "view library has the wrong type"),
]

RULES_BY_ID = {rule.rule: rule for rule in RULES}

#: The rules of the structural stage.
STRUCTURAL_RULES = frozenset(rule.rule for rule in RULES if rule.structural)


def known_rule(rule_id):
    return rule_id in RULES_BY_ID
