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
from repro.cosyn.hls.scheduling import list_schedule
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


def synthesize_process(fsm):
    """Run the HLS pipeline for one behavioural FSM.

    DFG → verified schedule → allocation → FSMD → netlist/RTL → estimate,
    each stage at its defaults:
    :data:`~repro.cosyn.hls.scheduling.DEFAULT_RESOURCES` and a 16-bit
    datapath.
    """
    schedules = {name: list_schedule(dfg)
                 for name, dfg in build_fsm_dfgs(fsm).items()}
    for name, schedule in schedules.items():
        problems = schedule.verify()
        if problems:
            raise SynthesisError(
                f"schedule of state {name!r} of {fsm.name!r} is invalid: {problems}"
            )
    allocation = allocate(fsm, schedules)
    fsmd = build_fsmd(fsm, schedules, allocation)
    netlist = build_netlist(fsmd)
    return ProcessSynthesis(fsm, schedules, allocation, fsmd, netlist,
                            emit_rtl_vhdl(fsmd, netlist), estimate_fsmd(fsmd))


def synthesize_processes(module, hls_memo):
    """``{process name: ProcessSynthesis}`` of *module*, through *hls_memo*.

    *hls_memo* maps an :class:`~repro.ir.fsm.Fsm` to its
    :func:`synthesize_process` result; an FSM is immutable once built, so
    the FSM object itself is the key.  A process found there is reused,
    one missing is synthesized and stored.
    """
    processes = {}
    for fsm in module.behaviours():
        process = hls_memo.get(fsm)
        if process is None:
            process = hls_memo[fsm] = synthesize_process(fsm)
        processes[fsm.name] = process
    return processes


def merge_estimates(estimates, name):
    """One module's estimate: its processes side by side, under *name*."""
    first, *others = estimates
    for other in others:
        first = first.merge(other)
    return first.renamed(name)


def synthesize_hardware(target, module, hls_memo=None):
    """Run hardware synthesis for one module of a target architecture.

    *hls_memo* is a :func:`synthesize_processes` memo shared by several
    flows over models that share FSMs (a design-space exploration's cost
    model and repartitioned winners); None synthesizes every process
    afresh.  Memoised processes are never mutated here, so one may appear
    in several results.
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
    processes = synthesize_processes(module, {} if hls_memo is None else hls_memo)
    estimate = merge_estimates(
        [process.estimate for process in processes.values()], module.name)
    if len(processes) == 1:
        # A one-process module reports its process under the module's
        # name: give this result its own copy of the shared process.
        (process,) = processes.values()
        processes[process.fsm.name] = process.with_estimate(estimate)

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
