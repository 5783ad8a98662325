"""Oracle checks for generated system models.

Two oracles, one per flow of the paper's Figure 1:

* :func:`check_cosim_conformance` — lints the generated model
  (:func:`repro.lint.lint_model` pre-flight: error-level findings fail the
  oracle before any run), then runs the system through
  :class:`~repro.cosim.session.CosimSession` four times (production kernel
  twice, reference kernel twice) and checks

  - **seeded determinism**: two runs of the same generated system on the
    same kernel produce byte-identical waveform dumps and service-call
    trace tables,
  - **kernel conformance**: the production and reference kernels agree on
    every observable (waveform, trace, final software states, activation
    counts, hardware cycles, statistics),
  - **functional outcome**: every consumer on a lossless channel reports
    exactly the generated word count and arithmetic-series sum.

* :func:`check_cosyn_conformance` — runs the system through
  :class:`~repro.cosyn.flow.CosynthesisFlow` twice per compatible platform
  and checks report stability, address-map consistency (all SW-reachable
  unit ports mapped, no address collisions) and constraint-report sanity.

Both return a list of human-readable problem strings (empty = pass), each
prefixed with the generated system's name so a failure pins its seed.
"""

from repro.cosim import DEFAULT_TIER, TIERS, CosimSession
from repro.cosyn import CosynthesisFlow
from repro.lint import lint_model
from repro.platforms import get_platform

#: Generous completion horizon: generated systems transfer < 20 words.
COSIM_MAX_TIME = 500_000


def variant_matrix(kernels, tier=None):
    """The (kernel, tier) grid a conformance check runs.

    ``tier="differential"`` expands to every execution tier of
    :data:`repro.cosim.session.TIERS` — the fused-codegen oracle;
    ``None`` defers to the project default.
    """
    if tier is None:
        tier = DEFAULT_TIER
    tiers = TIERS if tier == "differential" else (tier,)
    return [(kernel, each) for kernel in kernels for each in tiers]


def variant_label(variant, variants):
    """Human label for one matrix entry, terse when the tier is constant."""
    kernel, tier = variant
    if len({v[1] for v in variants}) > 1:
        return f"{kernel}/{tier}"
    return kernel


def hw_consumers_pending(session, expectations):
    """Expected consumers living in hardware that have not reached Done."""
    pending = []
    for module_name, expected in expectations.items():
        if expected is None or module_name not in session.hw_adapters:
            continue
        adapter = session.hw_adapters[module_name]
        (process_name,) = adapter.instances.keys()
        if adapter.process_state(process_name) != "Done":
            pending.append(module_name)
    return pending


def run_session_to_completion(session, expectations, max_time=COSIM_MAX_TIME):
    """Run *session* until its expected consumers are done; returns the result.

    ``run_until_software_done`` only waits for software modules; an
    all-hardware network (with a functional expectation) may still be mid
    transfer when a fast all-software network releases the stop condition.
    Keep running in slices until every expected hardware consumer reaches
    ``Done``, activity dries up, or the horizon is hit — the functional
    check then reports a genuinely stuck network instead of a network that
    merely had not finished yet.  Shared with :mod:`repro.dse.validate`.
    """
    result = session.run_until_software_done(max_time=max_time)
    while (session.simulator.now < max_time
           and hw_consumers_pending(session, expectations)):
        before = session.simulator.now
        result = session.run(until=min(before + 10_000, max_time))
        if session.simulator.now == before:
            break  # no activity left: the network really is stuck
    return result


def run_cosim(system, kernel, tier=None):
    """One fresh co-simulation of *system* on *kernel*; returns (session, result).

    ``tier=None`` defers to :data:`repro.cosim.session.DEFAULT_TIER`,
    resolved by the session.
    """
    session = CosimSession(system.build_model(), kernel=kernel, tier=tier,
                           **system.cosim_params)
    result = run_session_to_completion(session, system.expectations)
    return session, result


def check_functional_outcome(session, result, expectations,
                             max_time=COSIM_MAX_TIME):
    """Problem strings for the testkit expectation convention, unprefixed.

    Checks every expected consumer's ``RECEIVED``/``TOTAL`` end state and
    that every software module finished.  Shared between the conformance
    oracle (which prefixes the system name) and DSE front validation.
    """
    problems = []
    for module_name, expected in expectations.items():
        if expected is None:
            continue
        end_state = _module_end_state(session, result, module_name)
        if end_state.get("RECEIVED") != expected["words"]:
            problems.append(
                f"{module_name} received {end_state.get('RECEIVED')} words, "
                f"expected {expected['words']}"
            )
        if end_state.get("TOTAL") != expected["total"]:
            problems.append(
                f"{module_name} total {end_state.get('TOTAL')}, "
                f"expected {expected['total']}"
            )
    for module_name, finished in result.sw_finished.items():
        if not finished:
            problems.append(
                f"software module {module_name} did not finish within "
                f"{max_time} ns (state {result.sw_states[module_name]})"
            )
    return problems


def cosim_fingerprint(session, result):
    """Every observable two conforming runs must agree on, as text + dicts."""
    hw_states = {
        name: {proc: adapter.process_state(proc)
               for proc in adapter.instances}
        for name, adapter in session.hw_adapters.items()
    }
    hw_vars = {
        name: {proc: adapter.process_variables(proc)
               for proc in adapter.instances}
        for name, adapter in session.hw_adapters.items()
    }
    return {
        "end_time": result.end_time,
        "waveform_dump": result.waveform.dump(),
        "trace_table": result.trace.as_table(),
        "sw_states": result.sw_states,
        "sw_finished": result.sw_finished,
        "sw_activations": result.sw_activations,
        "hw_cycles": result.hw_cycles,
        "hw_states": hw_states,
        "hw_vars": hw_vars,
        "statistics": result.statistics,
    }


def _module_end_state(session, result, module_name):
    """Final FSM variables of *module_name*, software or hardware."""
    if module_name in session.sw_executors:
        return session.sw_executors[module_name].variables()
    adapter = session.hw_adapters[module_name]
    (process_name,) = adapter.instances.keys()
    return adapter.process_variables(process_name)


def _diff_fingerprints(label, left, right):
    problems = []
    for field in left:
        if left[field] != right[field]:
            problems.append(f"{label}: {field} differs")
    return problems


def check_cosim_conformance(system, kernels=("production", "reference"),
                            tier=None):
    """Run the full co-simulation oracle on one generated system.

    *tier* selects the execution tier every run uses (``fused`` or
    ``interpreted``; ``None`` defers to the project default); the reports
    must be identical either way.  The special value ``"differential"``
    crosses each kernel with **every** tier and asserts every observable
    matches across the whole (kernel, tier) matrix — the fused-codegen
    oracle.
    """
    variants = variant_matrix(kernels, tier)

    # Lint pre-flight: a generated system must be free of error-level
    # findings before any simulation is trusted (warnings are tolerated —
    # the generator corpus is expected to stay warning-free, but a warning
    # must not fail the oracle for every sweep consumer).
    problems = [
        f"{system.name}: lint {diagnostic.rule}: "
        f"{diagnostic.path}: {diagnostic.message}"
        for diagnostic in lint_model(system.build_model()).errors
    ]
    if problems:
        return problems

    def label(variant):
        return variant_label(variant, variants)

    fingerprints = {}
    sessions = {}
    for variant in variants:
        kernel, each = variant
        session_a, result_a = run_cosim(system, kernel, tier=each)
        session_b, result_b = run_cosim(system, kernel, tier=each)
        fingerprint_a = cosim_fingerprint(session_a, result_a)
        fingerprint_b = cosim_fingerprint(session_b, result_b)
        problems.extend(_diff_fingerprints(
            f"{system.name}: {label(variant)} kernel not deterministic "
            "under fixed seed",
            fingerprint_a, fingerprint_b,
        ))
        fingerprints[variant] = fingerprint_a
        sessions[variant] = (session_a, result_a)
    baseline = variants[0]
    for variant in variants[1:]:
        problems.extend(_diff_fingerprints(
            f"{system.name}: {label(baseline)} vs {label(variant)} divergence",
            fingerprints[baseline], fingerprints[variant],
        ))

    session, result = sessions[baseline]
    problems.extend(
        f"{system.name}: {problem}"
        for problem in check_functional_outcome(session, result,
                                                system.expectations)
    )
    return problems


def _compatible_platforms(model):
    names = ["pc_at_fpga", "microcoded", "multiproc"]
    if not model.hardware_modules():
        names.append("unix_ipc")
    return names


def check_cosyn_conformance(system):
    """Run the co-synthesis oracle on one generated system."""
    problems = []
    model = system.build_model()
    for platform_name in _compatible_platforms(model):
        label = f"{system.name}@{platform_name}"
        first = CosynthesisFlow(system.build_model(),
                                get_platform(platform_name)).run()
        second = CosynthesisFlow(system.build_model(),
                                 get_platform(platform_name)).run()
        if first.report() != second.report():
            problems.append(f"{label}: constraint report not stable across runs")
        if first.address_map != second.address_map:
            problems.append(f"{label}: address map not stable across runs")

        target = first.target
        expected_ports = []
        for unit in target.units_used_by_software():
            expected_ports.extend(unit.ports)
        missing = [port for port in expected_ports
                   if port not in first.address_map]
        if missing:
            problems.append(f"{label}: unmapped SW-visible ports {missing}")
        addresses = list(first.address_map.values())
        if len(set(addresses)) != len(addresses):
            problems.append(f"{label}: address collision in {first.address_map}")
        if first.system_clock_ns() <= 0:
            problems.append(f"{label}: non-positive system clock")
        if first.problems and not isinstance(first.problems, list):
            problems.append(f"{label}: problems is not a list")
        for module in model.software_modules():
            if module.name not in first.software:
                problems.append(f"{label}: no SW synthesis result for {module.name}")
        for module in model.hardware_modules():
            if module.name not in first.hardware:
                problems.append(f"{label}: no HW synthesis result for {module.name}")
    return problems
