"""Target architecture description.

The paper assumes hardware/software partitioning is already done; the target
architecture therefore only records *where* each (already classified) module
goes and which platform provides the processor, the communication resources
and the programmable hardware.
"""

from repro.core.module import HardwareModule, SoftwareModule
from repro.platforms.base import Platform
from repro.utils.errors import SynthesisError


class TargetArchitecture:
    """A platform plus the placement of the model's modules onto it."""

    def __init__(self, model, platform, address_base=None, hw_clock_ns=None):
        if not isinstance(platform, Platform):
            raise SynthesisError("platform must be a Platform instance")
        self.model = model
        self.platform = platform
        self.address_base = address_base
        self._hw_clock_ns = hw_clock_ns
        self._ports = None
        if not platform.has_hardware and model.hardware_modules():
            raise SynthesisError(
                f"platform {platform.name!r} has no programmable hardware but the "
                f"model contains hardware modules "
                f"{[m.name for m in model.hardware_modules()]}"
            )

    # ------------------------------------------------------------------ query

    def software_modules(self):
        return self.model.software_modules()

    def hardware_modules(self):
        return self.model.hardware_modules()

    def hw_clock_ns(self):
        """Clock period offered to the synthesized hardware."""
        if self._hw_clock_ns is not None:
            return self._hw_clock_ns
        period = self.platform.hardware_clock_ns()
        return period if period is not None else 100

    def units_used_by_software(self):
        """Communication units reached by at least one software module."""
        units = []
        for module in self.software_modules():
            for service_name in module.services_used():
                unit = self.model.unit_for(module.name, service_name)
                if unit not in units:
                    units.append(unit)
        return units

    def _software_ports(self):
        """Port names of the SW-visible units, per unit in declaration order.

        The SW views reference ports by their unqualified name inside one
        unit; addresses are assigned in this order so both the software
        and the hardware interface agree on the layout.  Walked once per
        target: software synthesis asks for the address map and port
        syntax once per software module, the flow once more.
        """
        if self._ports is None:
            self._ports = tuple(port for unit in self.units_used_by_software()
                                for port in unit.ports)
        return self._ports

    def address_map(self):
        """Physical addresses (or queue ids) of every SW-visible unit port."""
        return self.platform.assign_addresses(self._software_ports(),
                                              base=self.address_base)

    def port_syntax(self):
        """The port-access syntax software views are generated with."""
        return self.platform.port_syntax(self._software_ports(),
                                         base=self.address_base)

    def __repr__(self):
        return (
            f"TargetArchitecture({self.model.name} on {self.platform.name}, "
            f"sw={[m.name for m in self.software_modules()]}, "
            f"hw={[m.name for m in self.hardware_modules()]})"
        )
