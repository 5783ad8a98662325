"""Fault-injection and real-time scenario families.

Two scenario families extending the conformance kit beyond the fault-free
functional runs of :mod:`repro.testkit.models`:

* :class:`FaultScenario` — a generated system with a
  :class:`~repro.cosim.faults.FaultPlan` installed against one of its
  communication units.  Faults may legitimately change the functional
  outcome (that is the point), so the oracle
  (:func:`check_fault_scenario`) asserts *determinism* and *kernel/tier
  conformance* only; whether the functional expectations survived is
  reported separately (:meth:`FaultScenario.survival`) and feeds the
  coverage scoreboard's fault-survival field.

* :class:`RealtimeScenario` — a generated system co-synthesised on a real
  platform, re-simulated with the back-annotated clock and activation
  periods under a load multiplier, and checked against deadlines derived
  from the annotation via :mod:`repro.analysis.timing`.  Deadline misses
  are counted, not asserted — they are the scoreboard's deadline-miss
  field.

Scenario names follow the testkit convention and replay from the CLI:
``fault-<kind>-<seed>`` and ``realtime-<seed>``.
"""

from repro.analysis.back_annotation import back_annotate
from repro.analysis.timing import check_pulse_timing, check_response_latency
from repro.cosim import CosimSession
from repro.cosim.faults import FAULT_KINDS, default_fault_window, plan_for_unit
from repro.cosyn import CosynthesisFlow
from repro.platforms import get_platform
from repro.testkit.models import generate_system
from repro.testkit.oracles import (
    check_functional_outcome,
    cosim_fingerprint,
    run_session_to_completion,
    variant_label,
    variant_matrix,
)
from repro.utils.errors import SimulationError

#: Completion horizon of faulted runs: generous for delay faults, bounded
#: for the genuinely lossy ones (a dropped FIFO strobe or a mid-transaction
#: reset may leave a network stuck forever by design).
FAULT_MAX_TIME = 120_000

#: Completion horizon of platform-timed real-time runs, in multiples of
#: the back-annotated software activation period.
REALTIME_HORIZON_ACTIVATIONS = 1_000


class FaultScenario:
    """One generated system plus one fault plan against one of its units."""

    def __init__(self, seed, kind="stuck_handshake", at=None, duration=None,
                 networks=None, unit_index=0):
        if kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        self.seed = seed
        self.kind = kind
        self.networks = networks
        self.unit_index = unit_index
        self.system = generate_system(seed, networks=networks)
        default_at, default_duration = default_fault_window(
            self.system.cosim_params["clock_period"])
        self.at = at if at is not None else default_at
        self.duration = duration if duration is not None else default_duration
        self.name = f"fault-{kind}-{seed}"

    def spec(self):
        return {
            "family": "fault",
            "seed": self.seed,
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
            "networks": self.networks,
            "unit_index": self.unit_index,
        }

    def build_session(self, kernel="production", tier=None, coverage=None):
        """A fresh faulted session (built when *coverage* is attached)."""
        model = self.system.build_model()
        session = CosimSession(model, kernel=kernel, tier=tier,
                               **self.system.cosim_params)
        units = list(model.comm_units.values())
        unit = units[self.unit_index % len(units)]
        session.add_fault_plan(plan_for_unit(self.kind, unit, at=self.at,
                                             duration=self.duration))
        if coverage is not None:
            from repro.testkit.coverage import attach_session
            attach_session(session, coverage)
        return session

    def run(self, kernel="production", tier=None, coverage=None,
            max_time=FAULT_MAX_TIME):
        """Run to completion (or the horizon); returns ``(session, result)``."""
        session = self.build_session(kernel, tier=tier, coverage=coverage)
        result = run_session_to_completion(session, self.system.expectations,
                                           max_time=max_time)
        if coverage is not None:
            coverage.record_trace(result.trace)
        return session, result

    def survival(self, session, result, max_time=FAULT_MAX_TIME):
        """True when the functional expectations held despite the fault."""
        return not check_functional_outcome(session, result,
                                            self.system.expectations,
                                            max_time=max_time)


def check_fault_scenario(scenario, kernels=("production", "reference"),
                         tier=None):
    """Differential oracle for one fault scenario; returns problem strings.

    Asserts seeded determinism per (kernel, tier) variant and byte-identical
    observables across the whole variant matrix — every tier when *tier*
    is ``"differential"`` — plus that the
    fault plan actually fired.  The functional outcome is *not* asserted
    (faults may break it) but must itself be identical everywhere, which
    the fingerprint comparison already guarantees.
    """
    variants = variant_matrix(kernels, tier)

    def label(variant):
        return variant_label(variant, variants)

    problems = []
    fingerprints = {}
    for variant in variants:
        kernel, each = variant
        session_a, result_a = scenario.run(kernel, tier=each)
        session_b, result_b = scenario.run(kernel, tier=each)
        fingerprint_a = cosim_fingerprint(session_a, result_a)
        fingerprint_b = cosim_fingerprint(session_b, result_b)
        for field in fingerprint_a:
            if fingerprint_a[field] != fingerprint_b[field]:
                problems.append(
                    f"{scenario.name}: {label(variant)} not deterministic "
                    f"under fault injection ({field} differs)"
                )
        for injector in session_a.fault_injectors.values():
            if injector.cursor == 0:
                problems.append(
                    f"{scenario.name}: fault plan {injector.plan.name!r} "
                    "never fired"
                )
        fingerprints[variant] = fingerprint_a
    baseline = variants[0]
    for variant in variants[1:]:
        for field in fingerprints[baseline]:
            if fingerprints[baseline][field] != fingerprints[variant][field]:
                problems.append(
                    f"{scenario.name}: {label(baseline)} vs {label(variant)} "
                    f"disagree on {field} under fault injection"
                )
    return problems


class RealtimeScenario:
    """Back-annotated platform timing under load, with deadline accounting."""

    def __init__(self, seed, load=2, deadline_factor=40, networks=None,
                 platform="pc_at_fpga"):
        self.seed = seed
        self.load = load
        self.deadline_factor = deadline_factor
        self.networks = networks
        self.platform = platform
        self.system = generate_system(seed, networks=networks)
        self.name = f"realtime-{seed}"

    def spec(self):
        return {
            "family": "realtime",
            "seed": self.seed,
            "load": self.load,
            "deadline_factor": self.deadline_factor,
            "networks": self.networks,
            "platform": self.platform,
        }

    def session_parameters(self):
        """Back-annotated cosim parameters with the load multiplier applied."""
        flow = CosynthesisFlow(self.system.build_model(),
                               get_platform(self.platform)).run()
        params = back_annotate(flow).session_parameters()
        # The kernel requires an even clock period; round up.
        params["clock_period"] += params["clock_period"] % 2
        params["sw_activation_period"] = (
            max(params["sw_activation_period"], params["clock_period"])
            * self.load
        )
        return params

    def run(self, kernel="production", tier=None, coverage=None):
        """Run the platform-timed session; returns ``(session, result, report)``.

        The report carries the scoreboard inputs: the back-annotated
        deadline, the per-call deadline-miss count, the first-response
        latency check and the clock pulse-train check (both from
        :mod:`repro.analysis.timing`).
        """
        params = self.session_parameters()
        session = CosimSession(self.system.build_model(), kernel=kernel,
                               tier=tier, **params)
        if coverage is not None:
            from repro.testkit.coverage import attach_session
            attach_session(session, coverage)
        deadline_ns = self.deadline_factor * params["sw_activation_period"]
        max_time = REALTIME_HORIZON_ACTIVATIONS * params["sw_activation_period"]
        result = run_session_to_completion(session, self.system.expectations,
                                           max_time=max_time)
        if coverage is not None:
            coverage.record_trace(result.trace)
        completed = [record for record in result.trace.records
                     if record.completed]
        misses = sum(1 for record in completed
                     if record.latency > deadline_ns)
        latency = check_response_latency(
            [record.start_time for record in completed],
            [record.end_time for record in completed],
            max_latency_ns=deadline_ns,
        )
        pulses = check_pulse_timing(result.waveform, "hwclk",
                                    min_period_ns=params["clock_period"],
                                    max_period_ns=params["clock_period"])
        report = {
            "clock_period": params["clock_period"],
            "sw_activation_period": params["sw_activation_period"],
            "deadline_ns": deadline_ns,
            "deadline_misses": misses,
            "calls_completed": len(completed),
            "first_response_ok": latency.ok,
            "clock_train_ok": pulses.ok,
            "finished": all(result.sw_finished.values()),
        }
        return session, result, report


def check_realtime_scenario(scenario, kernels=("production", "reference"),
                            tier=None):
    """Differential oracle for one real-time scenario.

    Asserts determinism and kernel conformance of the platform-timed run
    *and* of its deadline report (the miss count is part of the observable
    contract), plus that the clock pulse train satisfies its own
    back-annotated period — the one timing property load cannot excuse.
    """
    variants = variant_matrix(kernels, tier)

    def label(variant):
        return variant_label(variant, variants)

    problems = []
    fingerprints = {}
    reports = {}
    for variant in variants:
        kernel, each = variant
        session_a, result_a, report_a = scenario.run(kernel, tier=each)
        session_b, result_b, report_b = scenario.run(kernel, tier=each)
        fingerprint_a = cosim_fingerprint(session_a, result_a)
        fingerprint_b = cosim_fingerprint(session_b, result_b)
        for field in fingerprint_a:
            if fingerprint_a[field] != fingerprint_b[field]:
                problems.append(
                    f"{scenario.name}: {label(variant)} platform-timed run "
                    f"not deterministic ({field} differs)"
                )
        if report_a != report_b:
            problems.append(
                f"{scenario.name}: {label(variant)} deadline report not "
                "deterministic"
            )
        if not report_a["clock_train_ok"]:
            problems.append(
                f"{scenario.name}: {label(variant)} clock pulse train "
                "violates the back-annotated period"
            )
        fingerprints[variant] = fingerprint_a
        reports[variant] = report_a
    baseline = variants[0]
    for variant in variants[1:]:
        for field in fingerprints[baseline]:
            if fingerprints[baseline][field] != fingerprints[variant][field]:
                problems.append(
                    f"{scenario.name}: {label(baseline)} vs {label(variant)} "
                    f"disagree on {field} in the platform-timed run"
                )
        if reports[baseline] != reports[variant]:
            problems.append(
                f"{scenario.name}: {label(baseline)} vs {label(variant)} "
                "disagree on the deadline report"
            )
    return problems
