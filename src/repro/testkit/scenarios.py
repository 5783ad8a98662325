"""Co-simulation scenario families and their one differential oracle.

A scenario is a generated system plus a recipe for co-simulating it.
:class:`SystemScenario` owns the recipe — session parameters, completion
horizon, session build, run to completion, observation — and the families
override only what makes them different:

* :class:`SystemScenario` — the plain family (``system-<seed>``): the
  generator's functional expectations must hold on every variant.
* :class:`FaultScenario` (``fault-<kind>-<seed>``) — installs a
  :class:`~repro.cosim.faults.FaultPlan` against one of the system's
  communication units.  Faults may legitimately change the functional
  outcome (that is the point), so only that the plan fired is asserted;
  whether the expectations survived is reported separately
  (:meth:`SystemScenario.functional_problems`) and feeds the coverage
  scoreboard's fault-survival field.
* :class:`RealtimeScenario` (``realtime-<seed>``) — co-synthesises the
  system on a real platform and re-simulates it with the back-annotated
  clock and activation periods under a load multiplier.  Its deadline
  report (via :mod:`repro.analysis.timing`) is part of the observables:
  deadline misses are counted, not asserted, but must be deterministic
  and conformant.

:func:`check_scenario` is the oracle for all three.
"""

from repro.analysis.back_annotation import back_annotate
from repro.analysis.timing import check_pulse_timing, check_response_latency
from repro.cosim import CosimSession
from repro.cosim.faults import FAULT_KINDS, default_fault_window, plan_for_unit
from repro.cosyn import CosynthesisFlow
from repro.platforms import get_platform
from repro.testkit.coverage import attach_session
from repro.testkit.models import generate_system
from repro.testkit.oracles import (
    COSIM_MAX_TIME,
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


class SystemScenario:
    """One generated system co-simulated to completion; the plain family."""

    def __init__(self, system):
        self.system = system
        self.name = system.name

    def session_parameters(self):
        """Keyword arguments of every :class:`CosimSession` of the scenario."""
        return self.system.cosim_params

    def max_time(self, session):
        """Completion horizon of *session*, in ns."""
        return COSIM_MAX_TIME

    def install(self, session):
        """Arm a fresh *session* with the family's extras (none here)."""

    def build_session(self, kernel="production", tier=None, model=None):
        """A fresh installed session; *model* defaults to a new build."""
        params = self.session_parameters()
        if model is None:
            model = self.system.build_model()
        session = CosimSession(model, kernel=kernel, tier=tier, **params)
        self.install(session)
        return session

    def run(self, kernel="production", tier=None, coverage=None):
        """Run to completion (or the horizon); returns ``(session, result)``."""
        session = self.build_session(kernel, tier)
        if coverage is not None:
            attach_session(session, coverage)
        result = run_session_to_completion(session, self.system.expectations,
                                           max_time=self.max_time(session))
        if coverage is not None:
            coverage.record_trace(result.trace)
        return session, result

    def functional_problems(self, session, result):
        """The generator's expectations missed by one run, unprefixed."""
        return check_functional_outcome(session, result,
                                        self.system.expectations,
                                        max_time=self.max_time(session))

    def observe(self, session, result):
        """``(observables, problems)`` of one run.

        *observables* must match byte for byte across runs and variants;
        *problems* are the family's own unprefixed verdicts on the run.
        """
        return (cosim_fingerprint(session, result),
                self.functional_problems(session, result))


class FaultScenario(SystemScenario):
    """One generated system plus one fault plan against one of its units.

    The fault window is :func:`~repro.cosim.faults.default_fault_window`
    of the system's clock.
    """

    def __init__(self, seed, kind="stuck_handshake", networks=None,
                 unit_index=0):
        if kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        super().__init__(generate_system(seed, networks=networks))
        self.kind = kind
        self.unit_index = unit_index
        self.at, self.duration = default_fault_window(
            self.system.cosim_params["clock_period"])
        self.name = f"fault-{kind}-{seed}"

    def max_time(self, session):
        return FAULT_MAX_TIME

    def install(self, session):
        units = list(session.model.comm_units.values())
        unit = units[self.unit_index % len(units)]
        session.add_fault_plan(plan_for_unit(
            self.kind, unit, at=self.at, duration=self.duration))

    def observe(self, session, result):
        problems = [f"fault plan {injector.plan.name!r} never fired"
                    for injector in session.fault_injectors.values()
                    if injector.cursor == 0]
        return cosim_fingerprint(session, result), problems


class RealtimeScenario(SystemScenario):
    """Back-annotated platform timing under load, with deadline accounting."""

    def __init__(self, seed, load=2, deadline_factor=40, networks=None,
                 platform="pc_at_fpga"):
        super().__init__(generate_system(seed, networks=networks))
        self.load = load
        self.deadline_factor = deadline_factor
        self.platform = platform
        self.name = f"realtime-{seed}"
        self._params = None

    def session_parameters(self):
        """Back-annotated cosim parameters with the load multiplier applied.

        The co-synthesis flow behind them runs once per scenario, on first
        use; every session gets its own copy.
        """
        if self._params is None:
            flow = CosynthesisFlow(self.system.build_model(),
                                   get_platform(self.platform)).run()
            params = back_annotate(flow).session_parameters()
            # The kernel requires an even clock period; round up.
            params["clock_period"] += params["clock_period"] % 2
            params["sw_activation_period"] = (
                max(params["sw_activation_period"], params["clock_period"])
                * self.load
            )
            self._params = params
        return dict(self._params)

    def max_time(self, session):
        return REALTIME_HORIZON_ACTIVATIONS * session.sw_activation_period

    def deadline_report(self, session, result):
        """The scoreboard inputs of one run.

        The deadline is *deadline_factor* activation periods; the report
        counts per-call deadline misses and carries the first-response
        latency check and the clock pulse-train check (both from
        :mod:`repro.analysis.timing`).
        """
        deadline_ns = self.deadline_factor * session.sw_activation_period
        completed = [record for record in result.trace.records
                     if record.completed]
        latency = check_response_latency(
            [record.start_time for record in completed],
            [record.end_time for record in completed],
            max_latency_ns=deadline_ns,
        )
        pulses = check_pulse_timing(result.waveform, "hwclk",
                                    min_period_ns=session.clock_period,
                                    max_period_ns=session.clock_period)
        return {
            "clock_period": session.clock_period,
            "sw_activation_period": session.sw_activation_period,
            "deadline_ns": deadline_ns,
            "deadline_misses": sum(1 for record in completed
                                   if record.latency > deadline_ns),
            "calls_completed": len(completed),
            "first_response_ok": latency.ok,
            "clock_train_ok": pulses.ok,
            "finished": all(result.sw_finished.values()),
        }

    def observe(self, session, result):
        # Load may excuse missed deadlines, never a clock that violates
        # its own back-annotated period.
        report = self.deadline_report(session, result)
        problems = ([] if report["clock_train_ok"] else
                    ["clock pulse train violates the back-annotated period"])
        return (dict(cosim_fingerprint(session, result),
                     deadline_report=report), problems)


def check_scenario(scenario, kernels=("production", "reference"), tier=None):
    """The differential oracle for one scenario; returns problem strings.

    Runs every (kernel, tier) variant — every tier when *tier* is
    ``"differential"`` — twice, and reports each observable that differs
    between the two runs (seeded determinism) or from the first variant
    (kernel/tier conformance), plus the family's own problems on every
    variant.  Each string starts with the scenario name.
    """
    variants = variant_matrix(kernels, tier)

    def label(variant):
        return variant_label(variant, variants)

    problems = []
    observed = {}
    for variant in variants:
        observables, family_problems = scenario.observe(*scenario.run(*variant))
        again, _ = scenario.observe(*scenario.run(*variant))
        problems.extend(
            f"{scenario.name}: {label(variant)} not deterministic "
            f"({field} differs)"
            for field in observables if observables[field] != again[field]
        )
        problems.extend(f"{scenario.name}: {label(variant)}: {problem}"
                        for problem in family_problems)
        observed[variant] = observables
    baseline = observed[variants[0]]
    for variant in variants[1:]:
        problems.extend(
            f"{scenario.name}: {label(variants[0])} vs {label(variant)} "
            f"disagree on {field}"
            for field in baseline if baseline[field] != observed[variant][field]
        )
    return problems
