"""Static candidate cost model with memoized per-module synthesis.

Evaluating a candidate must be orders of magnitude cheaper than running the
full :class:`~repro.cosyn.flow.CosynthesisFlow`, or sweeping ``2^n``
placements is hopeless.  Two properties make that possible:

* a module's **software metrics** depend only on its FSM, the service views
  it calls and the platform timing model — not on where the other modules
  sit — so they are memoized per ``(module, "sw", platform)``,
* a module's **hardware area/timing estimate** (the flow's own process
  synthesis, through :attr:`CandidateEvaluator.hls_memo`) is
  device-family-wide, so it is memoized once per module (``(module, "hw",
  None)``) and shared across every platform of the sweep.

The per-candidate work that remains is pure aggregation: summing cached
module costs, sizing the address map, pricing the SW/HW boundary traffic
(:func:`repro.analysis.metrics.static_boundary_traffic`) and applying the
same constraint checks :class:`CosynthesisFlow` enforces (device fit, clock
vs. bus tracking, bus address window).
"""

import dataclasses

from repro.analysis.metrics import static_boundary_traffic
from repro.core.module import HardwareModule
from repro.cosyn.flow import (
    check_address_window,
    check_bus_tracking,
    check_device_fit,
)
from repro.cosyn.hw_synthesis import achievable_clock_ns, merge_estimates, synthesize_processes
from repro.cosyn.sw_synthesis import estimate_software_metrics
from repro.dse.space import (
    Candidate,
    convertible_to_software,
    software_conversion_error,
)
from repro.platforms import available_platforms, get_platform
from repro.utils.errors import SynthesisError


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """Static cost-model outcome of one candidate.

    Objectives (all minimized) are ``(area_clbs, latency_ns, sw_load_ns)``:
    FPGA area, worst per-activation end-to-end time (the slower of the worst
    software activation and the hardware clock, plus one round of boundary
    traffic) and total software load (summed worst activation times — the
    processor-saturation proxy).
    """

    candidate: Candidate
    feasible: bool
    reasons: tuple
    area_clbs: int
    flip_flops: int
    clock_ns: float
    latency_ns: float
    sw_load_ns: float
    bus_ns: float
    address_count: int

    def objectives(self):
        return (self.area_clbs, self.latency_ns, self.sw_load_ns)

    def as_dict(self):
        return {
            "platform": self.candidate.platform,
            "hw_modules": list(self.candidate.hw_modules),
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "area_clbs": self.area_clbs,
            "flip_flops": self.flip_flops,
            "clock_ns": round(self.clock_ns, 1),
            "latency_ns": round(self.latency_ns, 1),
            "sw_load_ns": round(self.sw_load_ns, 1),
            "bus_ns": round(self.bus_ns, 1),
            "address_count": self.address_count,
        }


class CandidateEvaluator:
    """Scores candidates against the static cost model, with memoization.

    ``stats`` counts the cache behaviour: ``synthesis_calls`` is the number
    of real per-module synthesis estimates performed, ``cache_hits`` the
    number of requests served from the memo — the evidence that shared work
    across candidates is done once.
    """

    def __init__(self, model, platform_names=None):
        self.model = model
        names = (list(platform_names) if platform_names is not None
                 else available_platforms())
        self.platforms = {name: get_platform(name) for name in names}
        self.stats = {"synthesis_calls": 0, "cache_hits": 0}
        self._cache = {}
        #: ``{Fsm: ProcessSynthesis}``, shared with the front's flows.
        self.hls_memo = {}
        # Placement-independent per-module data, resolved once so evaluate()
        # is pure aggregation: the service views a module calls and the
        # units it reaches (one binding traversal), plus the
        # boundary-traffic words it contributes when placed in software
        # (aggregated from the analysis layer's static traffic model).
        self._services = {}
        self._module_units = {}
        for name, module in model.modules.items():
            services = []
            unit_names = []
            for service_name in module.services_used():
                unit = model.unit_for(name, service_name)
                services.append(unit.service(service_name))
                unit_names.append(unit.name)
            self._services[name] = services
            self._module_units[name] = unit_names
        self._module_traffic = {name: 0 for name in model.modules}
        traffic = static_boundary_traffic(model,
                                          software_names=list(model.modules))
        for (module_name, _service_name), words in traffic.items():
            self._module_traffic[module_name] += words
        self._unit_port_names = {
            unit.name: frozenset(unit.ports)
            for unit in model.comm_units.values()
        }

    # ------------------------------------------------- memoized module costs

    def _cached(self, key, compute):
        if key in self._cache:
            self.stats["cache_hits"] += 1
            value = self._cache[key]
        else:
            self.stats["synthesis_calls"] += 1
            try:
                value = compute()
            except SynthesisError as exc:
                value = exc
            self._cache[key] = value
        if isinstance(value, SynthesisError):
            # Each raise would append this call's frames to the cached
            # instance's traceback: raise it bare.
            raise value.with_traceback(None)
        return value

    def software_cost(self, module_name, platform_name):
        """Metrics dict of *module_name* run as software on *platform_name*."""
        def compute():
            module = self.model.module(module_name)
            if isinstance(module, HardwareModule) \
                    and not convertible_to_software(module):
                # Same movability rule as PartitionSpace/repartition: a
                # feasible score must correspond to a buildable placement.
                raise software_conversion_error(module_name,
                                                "run as software")
            (fsm,) = module.behaviours()
            return estimate_software_metrics(
                self.platforms[platform_name], fsm,
                self._services[module_name],
            )
        return self._cached((module_name, "sw", platform_name), compute)

    def hardware_cost(self, module_name):
        """Merged :class:`AreaTimingEstimate` of *module_name* as hardware.

        The estimator models the XC4000 family independent of the concrete
        device, so the result is shared across every platform of the sweep.
        """
        def compute():
            processes = synthesize_processes(self.model.module(module_name),
                                             self.hls_memo)
            return merge_estimates(
                [process.estimate for process in processes.values()],
                module_name)
        return self._cached((module_name, "hw", None), compute)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, candidate):
        """Score one candidate; never raises for an infeasible placement."""
        platform = self.platforms[candidate.platform]
        hw_names = sorted(candidate.hw_modules)
        sw_names = sorted(set(self.model.modules) - set(hw_names))
        reasons = []

        if hw_names and not platform.has_hardware:
            return CandidateScore(
                candidate, False,
                (f"platform {candidate.platform!r} has no programmable hardware",),
                0, 0, 0.0, 0.0, 0.0, 0.0, 0,
            )

        area = flip_flops = 0
        critical_path = 0.0
        for name in hw_names:
            try:
                estimate = self.hardware_cost(name)
            except SynthesisError as exc:
                reasons.append(f"{name}: {exc}")
                continue
            area += estimate.clbs_total
            flip_flops += estimate.flip_flops
            critical_path = max(critical_path, estimate.critical_path_ns)

        hw_clock = platform.hardware_clock_ns() or 0
        if hw_names:
            achievable = achievable_clock_ns(critical_path)
            clock_ns = float(max(hw_clock, achievable))
        else:
            achievable = None
            clock_ns = 0.0

        sw_load = 0.0
        worst_sw = 0.0
        for name in sw_names:
            try:
                metrics = self.software_cost(name, candidate.platform)
            except SynthesisError as exc:
                reasons.append(f"{name}: {exc}")
                continue
            sw_load += metrics["worst_activation_ns"]
            worst_sw = max(worst_sw, metrics["worst_activation_ns"])

        words = sum(self._module_traffic.get(name, 0) for name in sw_names)
        bus_ns = platform.bus.transfer_ns(words) if words else 0.0

        # Count distinct unqualified port names of the SW-reachable units,
        # exactly like the flow's address map (a dict keyed by port name
        # collapses duplicates across units).
        sw_port_names = set()
        for name in sw_names:
            for unit_name in self._module_units[name]:
                sw_port_names |= self._unit_port_names[unit_name]
        address_count = len(sw_port_names)

        # The same predicates CosynthesisFlow._check_constraints applies —
        # shared functions, so the static prune cannot drift from the flow.
        device = platform.device
        if hw_names:
            if device is None:
                reasons.append(
                    f"platform {candidate.platform!r} offers no FPGA device"
                )
            else:
                problem = check_device_fit(area, device)
                if problem:
                    reasons.append(problem)
            if achievable is not None:
                problem = check_bus_tracking(achievable, platform.bus)
                if problem:
                    reasons.append(problem)
        problem = check_address_window(address_count, platform.bus)
        if problem:
            reasons.append(problem)

        latency = max(worst_sw, clock_ns) + bus_ns
        return CandidateScore(
            candidate, not reasons, tuple(reasons),
            area, flip_flops, clock_ns, latency, sw_load, bus_ns, address_count,
        )

    def evaluate_many(self, candidates):
        """Serial batch evaluation (order-preserving)."""
        return [self.evaluate(candidate) for candidate in candidates]
