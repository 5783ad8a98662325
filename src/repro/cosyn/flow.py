"""The co-synthesis flow driver.

``CosynthesisFlow(model, platform).run()`` performs, in order:

1. model validation (including the presence of the SW synthesis views for
   the chosen platform when a view library is supplied),
2. software synthesis of every software module,
3. hardware synthesis of every hardware module (when the platform has
   programmable hardware),
4. communication binding — the ports of the units reachable from software
   are mapped to physical addresses / queue identifiers,
5. constraint checking (device fit, clock achievable, bus rate sustainable),

and returns a :class:`CosynthesisResult` holding every artefact plus a
printable report — the co-synthesis half of the paper's Figure 1.
"""

import json

from repro.lint.engine import validate_structure
from repro.utils.canonical import content_digest
from repro.cosyn.sw_synthesis import synthesize_software
from repro.cosyn.hw_synthesis import synthesize_hardware
from repro.cosyn.target import TargetArchitecture
from repro.platforms.base import Platform
from repro.utils.errors import SynthesisError
from repro.utils.text import format_table

#: A hardware module's clock must track the platform bus within this many
#: bus cycles.
BUS_TRACKING_FACTOR = 4


def check_device_fit(total_clbs, device):
    """Problem string when *total_clbs* overflows *device*, else None.

    Shared with the :mod:`repro.dse` static prune so both verdicts agree.
    """
    if total_clbs > device.clb_count:
        return (f"hardware does not fit: {total_clbs} CLBs needed, "
                f"{device.clb_count} available on {device.name}")
    return None


def check_bus_tracking(achievable_clock_ns, bus):
    """Problem string when a clock cannot track *bus*, else None."""
    if achievable_clock_ns > BUS_TRACKING_FACTOR * bus.cycle_ns:
        return (f"achievable clock {achievable_clock_ns} ns "
                f"is too slow to track the {bus.name} bus "
                f"({bus.cycle_ns:.0f} ns cycle)")
    return None


def check_address_window(address_count, bus):
    """Problem string when *address_count* overflows the bus window, else None."""
    window = getattr(bus, "window", None)
    if window is not None and address_count > window:
        return (f"address map needs {address_count} locations, "
                f"bus window offers {window}")
    return None


class CosynthesisResult:
    """All artefacts produced by one co-synthesis run."""

    def __init__(self, target):
        self.target = target
        self.software = {}
        self.hardware = {}
        self.address_map = {}
        self.problems = []

    # ------------------------------------------------------------------ query

    @property
    def ok(self):
        return not self.problems

    def software_result(self, module_name):
        try:
            return self.software[module_name]
        except KeyError:
            raise SynthesisError(f"no software synthesis result for {module_name!r}") from None

    def hardware_result(self, module_name):
        try:
            return self.hardware[module_name]
        except KeyError:
            raise SynthesisError(f"no hardware synthesis result for {module_name!r}") from None

    def system_clock_ns(self):
        """Clock period the synthesized hardware actually achieves."""
        clocks = [result.clock_ns for result in self.hardware.values()]
        return max(clocks) if clocks else self.target.hw_clock_ns()

    def software_activation_ns(self):
        """Worst per-activation software time across all software modules."""
        times = [result.worst_activation_ns for result in self.software.values()]
        return max(times) if times else 0.0

    def total_clbs(self):
        return sum(result.estimate.clbs_total for result in self.hardware.values())

    def as_dict(self, include_text=False):
        """JSON-serializable summary of the run (mirrors
        :meth:`AreaTimingEstimate.as_dict`); *include_text* adds the emitted
        C and VHDL sources.  Used by DSE reports and CI artifacts."""
        return {
            "system": self.target.model.name,
            "platform": self.target.platform.name,
            "ok": self.ok,
            "problems": list(self.problems),
            "system_clock_ns": self.system_clock_ns(),
            "worst_software_activation_ns": round(self.software_activation_ns(), 1),
            "total_clbs": self.total_clbs(),
            "address_map": dict(self.address_map),
            "software": {
                name: result.as_dict(include_text=include_text)
                for name, result in sorted(self.software.items())
            },
            "hardware": {
                name: result.as_dict(include_text=include_text)
                for name, result in sorted(self.hardware.items())
            },
        }

    def to_json(self, include_text=False, indent=2):
        """Deterministic JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(include_text=include_text),
                          indent=indent, sort_keys=True)

    def digest(self, include_text=True):
        """sha256 content digest of :meth:`as_dict`.

        Used by the sweep service to fingerprint synthesis artefacts:
        equal runs digest equally, so a cached artefact can stand in for a
        re-synthesis byte-for-byte (*include_text* defaults to True so the
        emitted C/VHDL sources are part of the identity).
        """
        return content_digest(self.as_dict(include_text=include_text))

    def communication_binding_table(self):
        rows = [(port, hex(address) if isinstance(address, int) else address)
                for port, address in sorted(self.address_map.items())]
        return format_table(["communication port", "physical address"], rows)

    def report(self):
        lines = [
            f"co-synthesis of {self.target.model.name} onto {self.target.platform.name}",
            "",
            "software modules:",
        ]
        for result in self.software.values():
            lines.append(result.report())
            lines.append("")
        lines.append("hardware modules:")
        for result in self.hardware.values():
            lines.append(result.report())
            lines.append("")
        lines.append("communication binding:")
        lines.append(self.communication_binding_table())
        lines.append("")
        lines.append(f"system clock: {self.system_clock_ns()} ns")
        lines.append(
            f"worst software activation: {self.software_activation_ns():.1f} ns"
        )
        if self.problems:
            lines.append("PROBLEMS:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        else:
            lines.append("all co-synthesis constraints satisfied")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"CosynthesisResult({self.target.model.name}@{self.target.platform.name}, "
            f"ok={self.ok})"
        )


class CosynthesisFlow:
    """Drives co-synthesis of a system model onto a platform."""

    def __init__(self, model, platform, library=None, address_base=None,
                 hw_resources=None, validate=True):
        if not isinstance(platform, Platform):
            raise SynthesisError("platform must be a Platform instance")
        self.model = model
        self.platform = platform
        self.library = library
        self.hw_resources = hw_resources
        self.target = TargetArchitecture(model, platform, address_base=address_base)
        if validate:
            validate_structure(model, library=library,
                               platforms=[platform.name])

    def run(self):
        """Execute the flow and return a :class:`CosynthesisResult`."""
        result = CosynthesisResult(self.target)
        for module in self.target.software_modules():
            result.software[module.name] = synthesize_software(self.target, module)
        if self.platform.has_hardware:
            for module in self.target.hardware_modules():
                result.hardware[module.name] = synthesize_hardware(
                    self.target, module, resources=self.hw_resources
                )
        result.address_map = self.target.address_map()
        result.problems = self._check_constraints(result)
        return result

    # ------------------------------------------------------------ constraints

    def _check_constraints(self, result):
        problems = []
        device = self.platform.device
        if device is not None and result.hardware:
            problem = check_device_fit(result.total_clbs(), device)
            if problem:
                problems.append(problem)
        for module_name, hw_result in result.hardware.items():
            problem = check_bus_tracking(hw_result.achievable_clock_ns,
                                         self.platform.bus)
            if problem:
                problems.append(f"{module_name}: {problem}")
        problem = check_address_window(len(result.address_map),
                                       self.platform.bus)
        if problem:
            problems.append(problem)
        return problems
