"""Area and timing estimation against the XC4000 device model.

The estimator answers the two questions the paper's prototype had to answer:
does the synthesized Speed Control subsystem fit the FPGA, and can it run at
the clock the ISA bus and the motor's real-time constraints require.
"""

from repro.platforms.fpga import operator_clbs, operator_delay_ns


class AreaTimingEstimate:
    """Area/timing numbers of one synthesized FSMD (or a set of them)."""

    def __init__(self, name, clbs_datapath=0, clbs_registers=0, clbs_controller=0,
                 clbs_interconnect=0, critical_path_ns=0.0, flip_flops=0):
        self.name = name
        self.clbs_datapath = clbs_datapath
        self.clbs_registers = clbs_registers
        self.clbs_controller = clbs_controller
        self.clbs_interconnect = clbs_interconnect
        self.critical_path_ns = critical_path_ns
        self.flip_flops = flip_flops

    @property
    def clbs_total(self):
        return (self.clbs_datapath + self.clbs_registers + self.clbs_controller
                + self.clbs_interconnect)

    @property
    def max_frequency_hz(self):
        if self.critical_path_ns <= 0:
            return None
        return 1e9 / self.critical_path_ns

    def fits(self, device):
        return device.fits(self.clbs_total, self.flip_flops)

    def merge(self, other, name=None):
        """Combine two estimates (modules synthesized side by side)."""
        return AreaTimingEstimate(
            name or f"{self.name}+{other.name}",
            clbs_datapath=self.clbs_datapath + other.clbs_datapath,
            clbs_registers=self.clbs_registers + other.clbs_registers,
            clbs_controller=self.clbs_controller + other.clbs_controller,
            clbs_interconnect=self.clbs_interconnect + other.clbs_interconnect,
            critical_path_ns=max(self.critical_path_ns, other.critical_path_ns),
            flip_flops=self.flip_flops + other.flip_flops,
        )

    def renamed(self, name):
        """A copy of this estimate under *name*."""
        return AreaTimingEstimate(
            name, self.clbs_datapath, self.clbs_registers, self.clbs_controller,
            self.clbs_interconnect, self.critical_path_ns, self.flip_flops)

    def as_dict(self):
        return {
            "name": self.name,
            "clbs_datapath": self.clbs_datapath,
            "clbs_registers": self.clbs_registers,
            "clbs_controller": self.clbs_controller,
            "clbs_interconnect": self.clbs_interconnect,
            "clbs_total": self.clbs_total,
            "flip_flops": self.flip_flops,
            "critical_path_ns": round(self.critical_path_ns, 2),
            "max_frequency_mhz": round(self.max_frequency_hz / 1e6, 2)
            if self.max_frequency_hz else None,
        }

    def __repr__(self):
        return (
            f"AreaTimingEstimate({self.name}, {self.clbs_total} CLBs, "
            f"{self.critical_path_ns:.1f} ns)"
        )


#: CLBs per register bit (two flip-flops per CLB in the XC4000 family).
_CLBS_PER_REGISTER_BIT = 0.5
#: CLBs per controller state bit of one-hot-ish next-state logic.
_CLBS_PER_CONTROLLER_BIT = 3
#: Register setup + clock-to-output overhead added to the combinational path.
_SEQUENCING_OVERHEAD_NS = 6.0
#: Extra delay per multiplexer level in front of a functional unit.
_MUX_DELAY_NS = 6.0


def estimate_fsmd(fsmd, width=16, register_width=None):
    """Estimate area and critical path of one FSMD."""
    allocation = fsmd.allocation
    register_width = register_width or width

    clbs_datapath = 0
    for unit in allocation.functional_units:
        if not unit.operators:
            continue
        clbs_datapath += max(operator_clbs(op, width) for op in unit.operators)

    register_bits = allocation.register_count() * register_width
    clbs_registers = int(round(register_bits * _CLBS_PER_REGISTER_BIT))
    flip_flops = register_bits + fsmd.controller_bits()

    clbs_controller = fsmd.controller_bits() * _CLBS_PER_CONTROLLER_BIT
    clbs_controller += max(1, len(fsmd.transitions) // 4)

    clbs_interconnect = allocation.mux_inputs * operator_clbs("mux", width) // 2

    critical_path = _SEQUENCING_OVERHEAD_NS
    slowest_op = 0.0
    for unit in allocation.functional_units:
        if not unit.operators:
            continue
        slowest_op = max(
            slowest_op, max(operator_delay_ns(op, width) for op in unit.operators)
        )
    mux_levels = 1 if allocation.mux_inputs else 0
    critical_path += slowest_op + mux_levels * _MUX_DELAY_NS

    return AreaTimingEstimate(
        fsmd.fsm.name,
        clbs_datapath=clbs_datapath,
        clbs_registers=clbs_registers,
        clbs_controller=clbs_controller,
        clbs_interconnect=clbs_interconnect,
        critical_path_ns=critical_path,
        flip_flops=flip_flops,
    )

