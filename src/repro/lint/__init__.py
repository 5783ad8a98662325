"""Static analysis over system models and the FSM IR.

The analyzer the paper's methodology calls for: catch co-design mistakes —
same-delta write races, dead/contradictory FSM transitions, interface and
protocol misuse — *before* simulation or synthesis.  ``lint_model`` returns
a :class:`LintReport` of structured :class:`Diagnostic` objects; the rule
catalog lives in :mod:`repro.lint.rules` and ``docs/lint.md``.

``python -m repro.lint`` is the command-line front end.
"""

from repro.lint.diagnostics import Diagnostic, LintReport, SEVERITIES
from repro.lint.engine import lint_model
from repro.lint.races import collect_write_contexts, static_race_signals
from repro.lint.rules import RULES, RULES_BY_ID, STRUCTURAL_RULES

__all__ = [
    "Diagnostic",
    "LintReport",
    "SEVERITIES",
    "lint_model",
    "collect_write_contexts",
    "static_race_signals",
    "RULES",
    "RULES_BY_ID",
    "STRUCTURAL_RULES",
]
