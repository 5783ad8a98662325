"""Randomized scenario generator + differential conformance kit.

The ROADMAP asks the simulation stack to handle "as many scenarios as you
can imagine"; this package *generates* them and keeps the optimised kernel
honest while it evolves.  Three layers:

* :mod:`repro.testkit.generator` — seeded random **kernel scenarios**:
  layered process networks mixing sensitivity processes, clocked processes,
  generator scripts, watchdogs and idle waiters, sized from tiny
  (unit-test) to 1k+ processes (stress).
* :mod:`repro.testkit.models` — seeded random **system models**: producer /
  relay / consumer module networks with mixed hw/sw partitionings over
  handshake, FIFO and shared-register channels, with computable expected
  outcomes for the lossless channel kinds.
* :mod:`repro.testkit.scenarios`, :mod:`repro.testkit.oracles` and
  :mod:`repro.testkit.runner` — the checks: every kernel scenario runs on
  both the production kernel and the naive
  :class:`~repro.desim.reference.ReferenceSimulator` and must produce
  identical event ordering, waveforms, final states and statistics; the
  plain, fault-injection and real-time system scenarios share one recipe
  (:class:`~repro.testkit.scenarios.SystemScenario`) and one differential
  oracle (:func:`~repro.testkit.scenarios.check_scenario`: every
  (kernel, tier) variant run twice for seeded determinism and compared
  with the first); system models also go through
  :class:`~repro.cosyn.flow.CosynthesisFlow` (address-map consistency,
  constraint-report stability).

Entry points: ``python -m repro.testkit`` (``make conformance``) for the
batch tiers, ``tests/test_testkit_conformance.py`` for the pytest-wired
``--quick`` subset.  Every scenario is reproducible from its printed name
alone — see ``docs/testing.md``.
"""

from repro.testkit.coverage import (
    CoverageMap,
    attach_session,
    coverage_universe,
    merge_universes,
    scoreboard,
)
from repro.testkit.generator import (
    KernelScenario,
    SIZES,
    campaign_universe,
    dedupe_scenarios,
    run_directed,
    run_uniform,
)
from repro.testkit.models import GeneratedSystem, generate_models, generate_system
from repro.testkit.oracles import (
    check_cosim_conformance,
    check_cosyn_conformance,
)
from repro.testkit.runner import (
    ConformanceReport,
    check_kernel_scenario,
    run_conformance,
)
from repro.testkit.scenarios import (
    FaultScenario,
    RealtimeScenario,
    SystemScenario,
    check_scenario,
)

__all__ = [
    "KernelScenario",
    "SIZES",
    "GeneratedSystem",
    "generate_models",
    "generate_system",
    "check_cosim_conformance",
    "check_cosyn_conformance",
    "check_kernel_scenario",
    "ConformanceReport",
    "run_conformance",
    "CoverageMap",
    "attach_session",
    "coverage_universe",
    "merge_universes",
    "scoreboard",
    "campaign_universe",
    "dedupe_scenarios",
    "run_directed",
    "run_uniform",
    "SystemScenario",
    "FaultScenario",
    "RealtimeScenario",
    "check_scenario",
]
