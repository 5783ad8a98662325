"""The differential conformance runner.

Executes generated scenarios against the production and reference kernels
and collects divergences into a :class:`ConformanceReport`.  Every failure
message starts with the scenario name (``kernel-<size>-<seed>``,
``system-<seed>``, ``fault-<kind>-<seed>`` or ``realtime-<seed>``), which
is all that is needed to reproduce it::

    python -m repro.testkit --replay kernel-medium-17
"""

from repro.cosim.faults import FAULT_KINDS
from repro.testkit.generator import SIZES, KernelScenario
from repro.testkit.models import generate_system
from repro.testkit.oracles import check_cosim_conformance, check_cosyn_conformance
from repro.testkit.scenarios import FaultScenario, RealtimeScenario, check_scenario

#: Full-tier composition: (size, count) for kernel scenarios.  Together
#: with the model tiers below this yields 200+ scenarios per `make
#: conformance` run.
FULL_KERNEL_TIER = (("tiny", 80), ("small", 60), ("medium", 30), ("stress", 4))
FULL_COSIM_MODELS = 60
FULL_COSYN_MODELS = 40
#: Fault tier: seeds per fault kind (every kind runs on every seed).
FULL_FAULT_SEEDS = 12
FULL_REALTIME_MODELS = 12

#: Quick tier (< 30 s, wired into pytest).
QUICK_KERNEL_TIER = (("tiny", 14), ("small", 8), ("medium", 2))
QUICK_COSIM_MODELS = 5
QUICK_COSYN_MODELS = 3
QUICK_FAULT_SEEDS = 2
QUICK_REALTIME_MODELS = 2


def _describe_log_divergence(left_log, right_log):
    """Pinpoint the first differing entry of two execution logs."""
    for index, (left, right) in enumerate(zip(left_log, right_log)):
        if left != right:
            return (f"first divergence at log entry {index}: "
                    f"production={left!r} reference={right!r}")
    return (f"log length differs: production={len(left_log)} "
            f"reference={len(right_log)}")


def check_kernel_scenario(scenario, kernels=("production", "reference")):
    """Run *scenario* on both kernels; returns problem strings (empty = pass)."""
    fingerprints = []
    for kernel in kernels:
        instance = scenario.build(kernel)
        instance.run()
        fingerprints.append(instance.fingerprint())
    baseline, other = fingerprints[0], fingerprints[1]
    problems = []
    for field in baseline:
        if baseline[field] != other[field]:
            detail = ""
            if field == "log":
                detail = " — " + _describe_log_divergence(baseline["log"],
                                                          other["log"])
            problems.append(
                f"{scenario.name}: {kernels[0]} vs {kernels[1]} "
                f"disagree on {field}{detail}"
            )
    return problems


class ConformanceReport:
    """Aggregated outcome of one conformance run."""

    def __init__(self):
        self.scenarios_run = 0
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def record(self, problems):
        self.scenarios_run += 1
        self.problems.extend(problems)

    def summary(self):
        verdict = "PASS" if self.ok else f"FAIL ({len(self.problems)} problems)"
        lines = [f"conformance: {self.scenarios_run} scenarios — {verdict}"]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def run_conformance(kernel_tier=FULL_KERNEL_TIER,
                    cosim_models=FULL_COSIM_MODELS,
                    cosyn_models=FULL_COSYN_MODELS,
                    fault_seeds=FULL_FAULT_SEEDS,
                    realtime_models=FULL_REALTIME_MODELS,
                    seed_base=0, progress=None, tier=None):
    """Run a full conformance sweep; returns a :class:`ConformanceReport`.

    *seed_base* shifts every generated seed, so nightly runs can explore
    fresh scenarios while `make conformance` stays reproducible by default.
    *tier* selects the execution tier of the cosim, fault and real-time
    oracles (``fused``, ``interpreted``, ``differential`` to cross-check
    both against each other, or ``None`` for the project
    default — see :func:`repro.testkit.oracles.check_cosim_conformance`).
    """
    report = ConformanceReport()

    def note(message):
        if progress is not None:
            progress(message)

    for size, count in kernel_tier:
        for offset in range(count):
            scenario = KernelScenario(seed_base + offset, size=size)
            problems = check_kernel_scenario(scenario)
            report.record(problems)
            note(f"[kernel] {scenario.name}: "
                 f"{'ok' if not problems else 'DIVERGED'}")
    for offset in range(cosim_models):
        system = generate_system(seed_base + offset)
        problems = check_cosim_conformance(system, tier=tier)
        report.record(problems)
        note(f"[cosim ] {system.name} ({system.summary}): "
             f"{'ok' if not problems else 'FAILED'}")
    for offset in range(cosyn_models):
        system = generate_system(seed_base + offset)
        problems = check_cosyn_conformance(system)
        report.record(problems)
        note(f"[cosyn ] {system.name} ({system.summary}): "
             f"{'ok' if not problems else 'FAILED'}")
    for kind in FAULT_KINDS:
        for offset in range(fault_seeds):
            scenario = FaultScenario(seed_base + offset, kind=kind)
            problems = check_scenario(scenario, tier=tier)
            report.record(problems)
            note(f"[fault ] {scenario.name}: "
                 f"{'ok' if not problems else 'FAILED'}")
    for offset in range(realtime_models):
        scenario = RealtimeScenario(seed_base + offset)
        problems = check_scenario(scenario, tier=tier)
        report.record(problems)
        note(f"[rtime ] {scenario.name}: "
             f"{'ok' if not problems else 'FAILED'}")
    return report


def parse_scenario_name(name):
    """``(family, variant, seed)`` of a printed scenario name; *variant* is
    the kernel size or the fault kind, else None.

    ``ValueError`` unless *name* has one of the four forms :func:`replay`
    takes, an int seed, a size in ``SIZES`` and a kind in ``FAULT_KINDS``.
    """
    family, _, rest = str(name).partition("-")
    *head, seed = rest.split("-")
    known = {"kernel": SIZES, "fault": FAULT_KINDS}.get(family, ())
    if (family not in ("kernel", "system", "fault", "realtime")
            or len(head) != bool(known) or not seed.isdecimal()
            or any(value not in known for value in head)):
        raise ValueError(
            f"unrecognised scenario name {name!r}; expected "
            f"'kernel-<size>-<seed>' (size in {sorted(SIZES)}), "
            "'system-<seed>', 'fault-<kind>-<seed>' (kind in "
            f"{list(FAULT_KINDS)}) or 'realtime-<seed>', with an int seed")
    return family, head[0] if head else None, int(seed)


def replay(name, tier=None):
    """Re-run one scenario from its printed name; returns problem strings.

    Accepts ``kernel-<size>-<seed>`` (differential kernel check),
    ``system-<seed>`` (both cosim and cosyn oracles),
    ``fault-<kind>-<seed>`` (differential fault-injection check) and
    ``realtime-<seed>`` (back-annotated deadline check); any other name
    raises ``ValueError`` (:func:`parse_scenario_name`).
    """
    family, variant, seed = parse_scenario_name(name)
    if family == "kernel":
        return check_kernel_scenario(KernelScenario(seed, size=variant))
    if family == "system":
        system = generate_system(seed)
        return (check_cosim_conformance(system, tier=tier)
                + check_cosyn_conformance(system))
    if family == "fault":
        return check_scenario(FaultScenario(seed, kind=variant), tier=tier)
    return check_scenario(RealtimeScenario(seed), tier=tier)
