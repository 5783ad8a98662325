"""Exception hierarchy used across the library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ModelError(ReproError):
    """The system model is structurally malformed (bad port, duplicate name...)."""


class ValidationError(ModelError):
    """Model validation failed; carries the lint findings that refused it.

    *diagnostics* are the error-level :class:`repro.lint.Diagnostic`
    objects; the message renders each with ``Diagnostic.format()``, so it
    names every finding's rule id and path.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("model validation failed: " + "; ".join(
            diagnostic.format() for diagnostic in self.diagnostics))


class SimulationError(ReproError):
    """The discrete-event simulation reached an illegal condition."""


class SynthesisError(ReproError):
    """Co-synthesis could not map the model onto the requested target."""


class ViewError(ReproError):
    """A required view of a communication service is missing or inconsistent."""
