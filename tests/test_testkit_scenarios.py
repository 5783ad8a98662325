"""The scenario families and their one differential oracle.

:func:`~repro.testkit.scenarios.check_scenario` must *catch* failures, not
only pass working code: scenario doubles whose observables vary by
variant or by call prove that each comparison is made.  The sweep's
:class:`~repro.sweep.jobs.CosimJob` runs the same scenario recipe as the
kit, so their fingerprints must agree digest for digest.
"""

import pytest

from repro.cosim.faults import FAULT_KINDS
from repro.cosyn import CosynthesisFlow
from repro.sweep.jobs import CosimJob
from repro.testkit.models import generate_system
from repro.testkit.oracles import cosim_fingerprint
from repro.testkit.scenarios import (
    FAULT_MAX_TIME,
    FaultScenario,
    RealtimeScenario,
    SystemScenario,
    check_scenario,
)
from repro.utils.canonical import content_digest


class ScenarioDouble:
    """A scenario whose observables are ``observe(variant, call number)``."""

    name = "double-0"

    def __init__(self, observe, problems=()):
        self._observe = observe
        self._problems = list(problems)
        self.calls = 0

    def run(self, kernel="production", tier=None, coverage=None):
        self.calls += 1
        return (kernel, tier), self.calls

    def observe(self, variant, call):
        return self._observe(variant, call), self._problems


class TestOracleCatchesFailures:
    def test_agreeing_double_passes(self):
        double = ScenarioDouble(lambda variant, call: {"end_time": 7})
        assert check_scenario(double, tier="differential") == []
        # Two runs of each of the four (kernel, tier) variants.
        assert double.calls == 8

    def test_variant_disagreement_is_reported(self):
        double = ScenarioDouble(
            lambda variant, call: {"end_time": 7, "kernel": variant[0]})
        assert check_scenario(double, tier="fused") == [
            "double-0: production vs reference disagree on kernel",
        ]

    def test_tier_disagreement_names_both_tiers(self):
        double = ScenarioDouble(
            lambda variant, call: {"tier": variant[1], "end_time": 7})
        problems = check_scenario(double, kernels=("production",),
                                  tier="differential")
        assert problems == [
            "double-0: production/fused vs production/interpreted "
            "disagree on tier",
        ]

    def test_nondeterminism_is_reported(self):
        double = ScenarioDouble(
            lambda variant, call: {"end_time": 7, "run": call})
        problems = check_scenario(double, kernels=("production",),
                                  tier="fused")
        assert problems == ["double-0: production not deterministic "
                            "(run differs)"]

    def test_family_problems_carry_the_variant_label(self):
        double = ScenarioDouble(lambda variant, call: {"end_time": 7},
                                problems=["stuck"])
        assert check_scenario(double, tier="fused") == [
            "double-0: production: stuck",
            "double-0: reference: stuck",
        ]

    def test_fault_plan_beyond_the_horizon_never_fires(self):
        scenario = FaultScenario(0, "stuck_handshake")
        scenario.at = FAULT_MAX_TIME + 1_000
        problems = check_scenario(scenario, kernels=("production",))
        assert problems
        assert all(problem.startswith("fault-stuck_handshake-0: production: "
                                      "fault plan ")
                   and problem.endswith(" never fired")
                   for problem in problems)

    def test_missed_expectation_fails_the_plain_family(self, monkeypatch):
        scenario = SystemScenario(generate_system(0))
        monkeypatch.setattr(scenario, "max_time", lambda session: 200)
        problems = check_scenario(scenario, tier="fused")
        assert any(problem.startswith("system-0: production: ")
                   for problem in problems)
        assert any(problem.startswith("system-0: reference: ")
                   for problem in problems)


class TestFamilies:
    def test_realtime_deadline_report_is_observed(self):
        scenario = RealtimeScenario(0)
        session, result = scenario.run()
        observables, problems = scenario.observe(session, result)
        report = observables["deadline_report"]
        assert problems == []
        assert report == scenario.deadline_report(session, result)
        assert report["clock_period"] == session.clock_period
        assert report["deadline_ns"] \
            == scenario.deadline_factor * session.sw_activation_period

    def test_realtime_flow_runs_once_per_scenario(self, monkeypatch):
        runs = []
        original = CosynthesisFlow.run

        def counting_run(flow):
            runs.append(flow)
            return original(flow)

        monkeypatch.setattr(CosynthesisFlow, "run", counting_run)
        scenario = RealtimeScenario(0)
        assert check_scenario(scenario, tier="differential") == []
        assert len(runs) == 1


class TestSweepRunsTheKitScenario:
    """``CosimJob`` and the kit simulate one scenario, not two copies."""

    @pytest.mark.parametrize("unit_index", range(3))
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_job_digest_matches_the_scenario(self, kind, unit_index):
        for seed in (0, 1):
            record, _ = CosimJob(seed, fault_kind=kind,
                                 fault_unit_index=unit_index).execute()
            scenario = FaultScenario(seed, kind, unit_index=unit_index)
            assert record["fingerprint_digest"] \
                == content_digest(cosim_fingerprint(*scenario.run()))

    def test_plain_job_digest_matches_the_scenario(self):
        for seed in range(4):
            record, _ = CosimJob(seed).execute()
            scenario = SystemScenario(generate_system(seed))
            assert record["fingerprint_digest"] \
                == content_digest(cosim_fingerprint(*scenario.run()))
