"""Hardware synthesis.

Each process of a hardware module goes through the high-level synthesis
pipeline (DFG → schedule → allocate → FSMD → RTL → estimate); the module's
estimates are merged and checked against the target FPGA.  The behavioural
VHDL (entity + architecture + HW views of the services the module calls) is
emitted alongside the RTL so the result matches what the paper hands to its
synthesis tools.
"""

from repro.cosyn.hls.allocation import allocate
from repro.cosyn.hls.dfg import build_fsm_dfgs
from repro.cosyn.hls.estimate import estimate_fsmd
from repro.cosyn.hls.fsmd import build_fsmd
from repro.cosyn.hls.rtl import build_netlist, emit_rtl_vhdl
from repro.cosyn.hls.scheduling import DEFAULT_RESOURCES, list_schedule
from repro.hdl.emitter import emit_module
from repro.utils.errors import SynthesisError
from repro.utils.text import format_table


def achievable_clock_ns(critical_path_ns):
    """Smallest integer clock period (ns, ≥ 1) a critical path supports.

    Shared by :class:`HardwareSynthesisResult` and the :mod:`repro.dse`
    cost model so both sides of the flow agree on bus-tracking feasibility.
    """
    return max(1, int(round(critical_path_ns + 0.5)))


class ProcessSynthesis:
    """Synthesis artefacts of one hardware process."""

    def __init__(self, fsm, schedules, allocation, fsmd, netlist, rtl_text, estimate):
        self.fsm = fsm
        self.schedules = schedules
        self.allocation = allocation
        self.fsmd = fsmd
        self.netlist = netlist
        self.rtl_text = rtl_text
        self.estimate = estimate

    def with_estimate(self, estimate):
        """A copy of these artefacts carrying *estimate*."""
        return ProcessSynthesis(self.fsm, self.schedules, self.allocation,
                                self.fsmd, self.netlist, self.rtl_text, estimate)

    def __repr__(self):
        return f"ProcessSynthesis({self.fsm.name}, {self.estimate.clbs_total} CLBs)"


class HardwareSynthesisResult:
    """Everything hardware synthesis produced for one module."""

    def __init__(self, module, platform_name, device, processes, behavioural_vhdl,
                 estimate, clock_ns):
        self.module = module
        self.platform_name = platform_name
        self.device = device
        self.processes = dict(processes)
        self.behavioural_vhdl = behavioural_vhdl
        self.estimate = estimate
        self.clock_ns = clock_ns

    @property
    def fits_device(self):
        return self.device is not None and self.estimate.fits(self.device)

    @property
    def max_frequency_hz(self):
        return self.estimate.max_frequency_hz

    @property
    def achievable_clock_ns(self):
        """Smallest clock period (ns, integer) the synthesized module supports."""
        return achievable_clock_ns(self.estimate.critical_path_ns)

    def utilisation(self):
        if self.device is None:
            return None
        return self.estimate.clbs_total / self.device.clb_count

    def as_dict(self, include_text=False):
        """JSON-serializable summary (set *include_text* for the VHDL)."""
        data = {
            "module": self.module.name,
            "platform": self.platform_name,
            "device": self.device.name if self.device else None,
            "clock_ns": self.clock_ns,
            "achievable_clock_ns": self.achievable_clock_ns,
            "fits_device": self.fits_device,
            "estimate": self.estimate.as_dict(),
            "processes": {
                name: process.estimate.as_dict()
                for name, process in sorted(self.processes.items())
            },
        }
        if include_text:
            data["behavioural_vhdl"] = self.behavioural_vhdl
            data["rtl_vhdl"] = {
                name: process.rtl_text
                for name, process in sorted(self.processes.items())
            }
        return data

    def report(self):
        rows = []
        for name, process in sorted(self.processes.items()):
            data = process.estimate.as_dict()
            rows.append((name, process.fsmd.state_count, data["clbs_total"],
                         data["critical_path_ns"]))
        table = format_table(
            ["process", "FSMD states", "CLBs", "critical path (ns)"], rows
        )
        lines = [
            f"hardware synthesis of {self.module.name} for {self.platform_name}",
            table,
            f"total: {self.estimate.clbs_total} CLBs, "
            f"critical path {self.estimate.critical_path_ns:.1f} ns, "
            f"device {self.device.name if self.device else 'n/a'} "
            f"({'fits' if self.fits_device else 'DOES NOT FIT'})",
        ]
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"HardwareSynthesisResult({self.module.name}@{self.platform_name}, "
            f"{self.estimate.clbs_total} CLBs, fits={self.fits_device})"
        )


def build_process_fsmd(fsm, resources=None, width=16):
    """The HLS front half: DFG → verified schedule → allocation → FSMD.

    Shared by :func:`synthesize_process` (which continues into netlist/RTL
    emission) and the :mod:`repro.dse` cost model (which stops here and
    estimates).  Returns ``(fsmd, schedules, allocation)``.
    """
    resources = dict(DEFAULT_RESOURCES if resources is None else resources)
    dfgs = build_fsm_dfgs(fsm, width=width)
    schedules = {name: list_schedule(dfg, resources) for name, dfg in dfgs.items()}
    for name, schedule in schedules.items():
        problems = schedule.verify()
        if problems:
            raise SynthesisError(
                f"schedule of state {name!r} of {fsm.name!r} is invalid: {problems}"
            )
    allocation = allocate(fsm, schedules, width=width)
    return build_fsmd(fsm, schedules, allocation), schedules, allocation


def synthesize_process(fsm, resources=None, width=16):
    """Run the HLS pipeline for one behavioural FSM."""
    fsmd, schedules, allocation = build_process_fsmd(fsm, resources=resources,
                                                     width=width)
    netlist = build_netlist(fsmd, width=width)
    rtl_text = emit_rtl_vhdl(fsmd, netlist, width=width)
    estimate = estimate_fsmd(fsmd, width=width)
    return ProcessSynthesis(fsm, schedules, allocation, fsmd, netlist, rtl_text, estimate)


def synthesize_hardware(target, module, resources=None, width=16,
                        hls_memo=None):
    """Run hardware synthesis for one module of a target architecture.

    *hls_memo* is a dict of :func:`synthesize_process` results keyed on
    FSM identity, resources and width, shared by several flows over models
    that share FSMs (a design-space exploration's repartitioned winners);
    None synthesizes every process afresh.  Memoised processes are never
    mutated here, so one may appear in several results.
    """
    if module not in target.hardware_modules():
        raise SynthesisError(
            f"module {module.name!r} is not a hardware module of this target"
        )
    platform = target.platform
    if platform.device is None:
        raise SynthesisError(
            f"platform {platform.name!r} offers no FPGA device for hardware synthesis"
        )
    memo = {} if hls_memo is None else hls_memo
    resource_key = None if resources is None else tuple(sorted(resources.items()))
    processes = {}
    for fsm in module.behaviours():
        key = (id(fsm), resource_key, width)
        process = memo.get(key)
        if process is None:
            # The entry keeps the FSM alive, so its id stays unique.
            process = memo[key] = synthesize_process(fsm, resources=resources,
                                                     width=width)
        processes[fsm.name] = process
    first, *others = processes.values()
    estimate = first.estimate
    for process in others:
        estimate = estimate.merge(process.estimate)
    estimate = estimate.renamed(module.name)
    if not others:
        # A one-process module reports its process under the module's
        # name: give this result its own copy of the shared process.
        processes[first.fsm.name] = first.with_estimate(estimate)

    services = []
    for service_name in module.services_used():
        unit = target.model.unit_for(module.name, service_name)
        services.append(unit.service(service_name))
    behavioural_vhdl = emit_module(module, services)

    clock_ns = max(target.hw_clock_ns(), achievable_clock_ns(estimate.critical_path_ns))
    return HardwareSynthesisResult(
        module, platform.name, platform.device, processes, behavioural_vhdl,
        estimate, clock_ns,
    )
