"""Multi-view library (paper §3, Figure 3).

Every communication procedure exists in several *views*:

* ``ViewKind.HW`` — a VHDL procedure; used both for co-simulation of the
  hardware side and for hardware synthesis,
* ``ViewKind.SW_SIM`` — C code against the simulator's C-language interface
  (``cliGetPortValue`` / ``cliOutput``); used only during co-simulation,
* ``ViewKind.SW_SYNTH`` — C code against a concrete platform's primitives
  (``inport``/``outport`` on the PC-AT, UNIX IPC calls, a micro-code routine
  …); one view per target platform, used only during co-synthesis.

The :class:`MultiViewLibrary` stores views keyed by
``(service, kind, platform)`` and is queried by the co-simulation backplane
and the co-synthesis flow.  A missing view is exactly the situation the
paper describes for retargeting: "to map this application onto another
target architecture, we need to have the corresponding communication
primitives".
"""

import enum

from repro.utils.errors import ViewError
from repro.utils.ids import check_identifier


class ViewKind(enum.Enum):
    """The three view categories of Figure 3."""

    HW = "hw"
    SW_SIM = "sw_sim"
    SW_SYNTH = "sw_synth"


class View:
    """One concrete view of a service.

    Parameters
    ----------
    service:
        Name of the service the view implements.
    kind:
        :class:`ViewKind`.
    language:
        ``"c"`` or ``"vhdl"``.
    text:
        The generated (or hand-written) source text of the view.
    platform:
        Target platform name; required for ``SW_SYNTH`` views, forbidden for
        the platform-independent ``HW`` and ``SW_SIM`` views.
    metadata:
        Free-form dictionary (address maps, estimated cycle counts, ...).
    """

    def __init__(self, service, kind, language, text, platform=None, metadata=None):
        self.service = check_identifier(service, "service name")
        if not isinstance(kind, ViewKind):
            raise ViewError(f"view of {service!r}: kind must be a ViewKind")
        self.kind = kind
        if language not in ("c", "vhdl"):
            raise ViewError(f"view of {service!r}: language must be 'c' or 'vhdl'")
        self.language = language
        self.text = text
        if kind is ViewKind.SW_SYNTH and not platform:
            raise ViewError(
                f"view of {service!r}: SW synthesis views must name their platform"
            )
        if kind is not ViewKind.SW_SYNTH and platform:
            raise ViewError(
                f"view of {service!r}: only SW synthesis views are platform specific"
            )
        self.platform = platform
        self.metadata = dict(metadata or {})

    @property
    def key(self):
        return (self.service, self.kind, self.platform)

    def __repr__(self):
        platform = f", platform={self.platform}" if self.platform else ""
        return f"View({self.service}, {self.kind.value}, {self.language}{platform})"


class MultiViewLibrary:
    """Container of views, indexed by ``(service, kind, platform)``."""

    def __init__(self, views=()):
        self._views = {}
        for view in views:
            self.add(view)

    def add(self, view, replace=False):
        """Register a view; refuses duplicates unless *replace* is true."""
        if not isinstance(view, View):
            raise ViewError(f"{view!r} is not a View")
        if view.key in self._views and not replace:
            raise ViewError(f"duplicate view {view.key}")
        self._views[view.key] = view
        return view

    def get(self, service, kind, platform=None):
        """Return the view for *(service, kind, platform)*; raise if missing."""
        key = (service, kind, platform if kind is ViewKind.SW_SYNTH else None)
        try:
            return self._views[key]
        except KeyError:
            where = f" for platform {platform!r}" if platform else ""
            raise ViewError(
                f"no {kind.value} view of service {service!r}{where}; "
                "add the corresponding communication primitive to the library"
            ) from None

    def has(self, service, kind, platform=None):
        key = (service, kind, platform if kind is ViewKind.SW_SYNTH else None)
        return key in self._views

    def views_of(self, service):
        """All registered views of one service."""
        return [view for view in self._views.values() if view.service == service]

    def services(self):
        """Names of all services having at least one view."""
        return sorted({view.service for view in self._views.values()})

    def platforms(self):
        """Names of all platforms having at least one SW synthesis view."""
        return sorted(
            {view.platform for view in self._views.values() if view.platform}
        )

    def merge(self, other):
        """Add every view of *other* into this library (duplicates rejected)."""
        for view in other._views.values():
            self.add(view)
        return self

    def __len__(self):
        return len(self._views)

    def __iter__(self):
        return iter(self._views.values())

    def __repr__(self):
        return f"MultiViewLibrary({len(self._views)} views, services={self.services()})"
