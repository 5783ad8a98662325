"""Whole-model validation.

Validation is run before either flow starts; it catches exactly the mistakes
the paper's methodology is meant to prevent from going unnoticed:

* a module calling a service that no communication unit provides,
* a communication unit whose services touch undeclared ports,
* behavioural FSMs with unreachable/trap states or undeclared variables,
* missing views for the flow about to run (HW + SW simulation views for
  co-simulation, SW synthesis views for every targeted platform).

Since the :mod:`repro.lint` analyzer landed, this module is a thin
compatibility shim: the checks run on the diagnostics engine
(``lint_model(..., legacy_only=True)``) and the historical problem strings
are reproduced byte-for-byte from each diagnostic's ``legacy`` text.  Without
a view library the legacy stage is read from the model's lint memo
(:func:`~repro.lint.engine.memo_report`), so re-validating a model — every
session built from it, every DSE candidate check — costs a lookup, and
never pays for the extended passes.  New code should call ``lint_model``
directly — it also runs the dataflow, race and protocol passes this API
never had.
"""

from repro.utils.errors import ValidationError


def validate_model(model, library=None, platforms=(), raise_on_error=True):
    """Validate *model* and optionally its view *library*.

    Returns the list of problems found; raises :class:`ValidationError` when
    *raise_on_error* is true and at least one problem exists.  The raised
    error additionally carries the structured diagnostics as
    ``exc.diagnostics``.
    """
    from repro.lint.engine import lint_model, memo_report

    if library is None:
        report = memo_report(model, legacy_only=True)
    else:
        report = lint_model(model, library=library, platforms=platforms,
                            legacy_only=True)
    problems = [diagnostic.legacy_text for diagnostic in report.diagnostics]
    if problems and raise_on_error:
        raise ValidationError(problems, diagnostics=list(report.diagnostics))
    return problems
