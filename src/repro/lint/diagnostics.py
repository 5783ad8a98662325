"""Structured diagnostics: the output vocabulary of the static analyzer.

Every finding is a :class:`Diagnostic`: it carries a stable rule id, a
severity, a location path (``module/<name>/<fsm>/<state>`` style) and a human-readable message.
A :class:`LintReport` is an ordered collection of diagnostics plus the
findings that were suppressed (kept for auditability — a suppressed finding
is still part of the machine-readable report).

Suppression entries are strings of the form ``"RULE"`` (silence a rule
everywhere in the carrying object's scope) or ``"RULE:fragment"`` (silence
the rule only where *fragment* occurs in the diagnostic's path or message).
They can be passed to the engine directly or attached to the
``SystemModel`` or a module as a ``lint_suppress`` attribute (FSMs and
communication units are read-only once built, so they carry none).
"""


#: Severity names, ordered from least to most severe.
SEVERITIES = ("info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity):
    """Numeric rank of *severity* (higher = more severe)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


class Diagnostic:
    """One finding of the static analyzer.

    Parameters
    ----------
    rule:
        Stable rule identifier (e.g. ``"RACE001"``); the catalog lives in
        :mod:`repro.lint.rules` and ``docs/lint.md``.
    severity:
        ``"info"``, ``"warning"`` or ``"error"``.
    path:
        Location of the finding, as a ``/``-separated path into the model
        (``module/SpeedControlMod/CORE/Compute`` or
        ``unit/SwHwUnit/service/SetupControl``).
    message:
        Human-readable description (no location prefix — the path carries
        the location).
    data:
        Optional dict of machine-readable details (signal names, writer
        contexts, ...); must be JSON-serialisable.
    """

    __slots__ = ("rule", "severity", "path", "message", "data")

    def __init__(self, rule, severity, path, message, data=None):
        severity_rank(severity)  # validates
        self.rule = rule
        self.severity = severity
        self.path = path
        self.message = message
        self.data = dict(data) if data else {}

    def format(self):
        """One-line text rendering, used by the CLI and every refusal."""
        return f"{self.severity:<7} {self.rule:<8} {self.path}: {self.message}"

    def as_dict(self):
        entry = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "message": self.message,
        }
        if self.data:
            entry["data"] = self.data
        return entry

    def matches(self, entry):
        """True when suppression *entry* (``"RULE"`` / ``"RULE:frag"``) applies."""
        rule, sep, fragment = entry.partition(":")
        if rule != self.rule:
            return False
        if not sep:
            return True
        return fragment in self.path or fragment in self.message

    def __repr__(self):
        return f"Diagnostic({self.rule}, {self.severity}, {self.path}: {self.message})"


class LintReport:
    """Ordered diagnostics plus the suppressed findings."""

    def __init__(self, target=""):
        self.target = target
        self.diagnostics = []
        self.suppressed = []

    # ----------------------------------------------------------------- build

    def add(self, diagnostic):
        self.diagnostics.append(diagnostic)
        return diagnostic

    def apply_suppressions(self, entries):
        """Move diagnostics matched by any of *entries* to :attr:`suppressed`.

        Each entry is either a plain suppression string or an
        ``(entry, path_prefix)`` pair; the pair form additionally requires
        the diagnostic's path to start with *path_prefix* (how suppressions
        attached to a model object are scoped to that object).
        """
        checks = []
        for entry in entries:
            if not entry:
                continue
            if isinstance(entry, str):
                checks.append((entry, ""))
            else:
                checks.append((entry[0], entry[1] or ""))
        if not checks:
            return
        kept = []
        for diagnostic in self.diagnostics:
            if any(diagnostic.matches(entry) and diagnostic.path.startswith(prefix)
                   for entry, prefix in checks):
                self.suppressed.append(diagnostic)
            else:
                kept.append(diagnostic)
        self.diagnostics = kept

    # ----------------------------------------------------------------- query

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == "warning"]

    def by_rule(self, rule):
        return [d for d in self.diagnostics if d.rule == rule]

    def max_severity(self):
        """Most severe active severity, or ``None`` for a clean report."""
        worst = None
        for diagnostic in self.diagnostics:
            if worst is None or severity_rank(diagnostic.severity) > severity_rank(worst):
                worst = diagnostic.severity
        return worst

    def fails(self, threshold="error"):
        """True when any active diagnostic is at/above *threshold*."""
        floor = severity_rank(threshold)
        return any(severity_rank(d.severity) >= floor for d in self.diagnostics)

    def counts(self):
        counts = {name: 0 for name in SEVERITIES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return counts

    def summary(self):
        """Compact machine-readable summary for job records / artefacts."""
        counts = self.counts()
        return {
            "target": self.target,
            "errors": counts["error"],
            "warnings": counts["warning"],
            "infos": counts["info"],
            "suppressed": len(self.suppressed),
            "rules": sorted({d.rule for d in self.diagnostics}),
        }

    def as_dict(self):
        return {
            "target": self.target,
            "summary": self.summary(),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "suppressed": [d.as_dict() for d in self.suppressed],
        }

    # ---------------------------------------------------------------- render

    def render_text(self):
        lines = []
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.format())
        counts = self.counts()
        tail = (
            f"{self.target or 'model'}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info(s)"
        )
        if self.suppressed:
            tail += f", {len(self.suppressed)} suppressed"
        lines.append(tail)
        return "\n".join(lines)

    def __len__(self):
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self):
        counts = self.counts()
        return (
            f"LintReport({self.target or 'model'}, errors={counts['error']}, "
            f"warnings={counts['warning']}, suppressed={len(self.suppressed)})"
        )
