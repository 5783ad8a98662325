"""Coverage instrumentation and the coverage-directed campaign.

Pins the tentpole contracts of ``repro.testkit.coverage`` and the
campaign loop in ``repro.testkit.generator``:

* the :class:`CoverageMap` of a run is **byte-identical** across the
  fused and interpreted execution tiers, and across
  ``PYTHONHASHSEED`` values (checked in subprocesses) — coverage is part
  of the deterministic observable surface, not a diagnostic;
* the coverage-directed generator strictly beats uniform random
  scenario selection on transition-edge coverage at an equal scenario
  budget (the acceptance criterion of the campaign design);
* scenario deduplication drops identical ``(seed, config)`` draws before
  dispatch, order-preserved;
* the scoreboard carries the sweep-facing summary fields.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cosim import CosimSession
from repro.testkit.coverage import CoverageMap, attach_session, scoreboard
from repro.testkit.generator import (
    campaign_universe,
    dedupe_scenarios,
    run_directed,
    run_uniform,
)
from repro.testkit.models import generate_system
from repro.testkit.oracles import run_session_to_completion

SRC = str(Path(__file__).resolve().parent.parent / "src")


def coverage_json(seed, tier):
    """Serialized coverage of one full system run on the given tier."""
    system = generate_system(seed)
    session = CosimSession(system.build_model(), tier=tier,
                           **system.cosim_params)
    coverage = attach_session(session, CoverageMap())
    result = run_session_to_completion(session, system.expectations)
    coverage.record_trace(result.trace)
    return coverage.to_json()


class TestCoverageDeterminism:
    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_byte_identical_across_fsm_tiers(self, seed):
        """Every execution tier counts the same transitions."""
        assert coverage_json(seed, "interpreted") \
            == coverage_json(seed, "fused")

    def test_byte_identical_across_hash_seeds(self):
        """The directed campaign is hash-randomization independent.

        The campaign sums novelty weights over *sets* of coverage bins, so
        any float or iteration-order dependence would leak the interpreter
        hash seed into scenario selection.  Two subprocesses with
        different ``PYTHONHASHSEED`` must print identical digests.
        """
        probe = (
            "from repro.testkit.generator import run_directed\n"
            "campaign = run_directed(8, rng_seed=0)\n"
            "print(campaign['coverage'].digest())\n"
            "print([r['digest'] for r in campaign['reports']])\n"
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            done = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestDirectedCampaign:
    @pytest.mark.parametrize("rng_seed", [0, 2, 3])
    def test_directed_beats_uniform_on_edge_coverage(self, rng_seed):
        """Equal budget, strictly more transition edges covered.

        The acceptance bar of the directed loop: novelty-weighted
        mutation plus promise-decayed bin targeting must out-cover blind
        uniform draws at the same scenario budget.
        """
        budget = 24
        universe = campaign_universe()
        directed = run_directed(budget, rng_seed=rng_seed, universe=universe)
        uniform = run_uniform(budget, rng_seed=rng_seed)
        directed_edges = scoreboard(directed["coverage"],
                                    universe)["edge_coverage"]
        uniform_edges = scoreboard(uniform["coverage"],
                                   universe)["edge_coverage"]
        assert directed_edges > uniform_edges

    def test_campaign_reports_carry_family_observations(self):
        campaign = run_directed(10, rng_seed=0)
        assert campaign["executed"] == len(campaign["reports"]) <= 10
        families = {report["config"]["family"]
                    for report in campaign["reports"]}
        assert families <= {"system", "fault", "realtime"}
        for report in campaign["reports"]:
            if report["config"]["family"] == "fault":
                assert report["survival"] in (True, False)
            if report["config"]["family"] == "realtime":
                assert report["deadline_misses"] >= 0

    def test_campaign_never_dispatches_duplicate_configs(self):
        for campaign in (run_uniform(20, rng_seed=1),
                         run_directed(20, rng_seed=1)):
            digests = [report["digest"] for report in campaign["reports"]]
            assert len(digests) == len(set(digests))


class TestDedupeScenarios:
    def test_identical_configs_deduped_order_preserved(self):
        """Regression: identical (seed, config) draws collapse to one.

        The generator used to dispatch duplicate draws verbatim, wasting
        budget on runs whose outcome is seeded-deterministic and thus
        already known.
        """
        first = {"family": "system", "seed": 3}
        second = {"family": "fault", "seed": 3, "kind": "bus_contention",
                  "unit_index": 0}
        third = {"family": "system", "seed": 4}
        configs = [first, dict(second), dict(first), third,
                   dict(second), dict(first)]
        assert dedupe_scenarios(configs) == [first, second, third]

    def test_differing_knobs_are_not_duplicates(self):
        configs = [
            {"family": "fault", "seed": 1, "kind": "stuck_handshake"},
            {"family": "fault", "seed": 1, "kind": "dropped_handshake"},
            {"family": "fault", "seed": 2, "kind": "stuck_handshake"},
        ]
        assert dedupe_scenarios(configs) == configs


class TestScoreboard:
    def test_scoreboard_fields_and_ranges(self):
        system = generate_system(2)
        session = CosimSession(system.build_model(), **system.cosim_params)
        coverage = attach_session(session, CoverageMap())
        result = run_session_to_completion(session, system.expectations)
        coverage.record_trace(result.trace)
        from repro.testkit.coverage import coverage_universe

        board = scoreboard(coverage, coverage_universe(session.model),
                           fault_survival=0.75, deadline_misses=2)
        assert set(board) == {
            "states_visited", "states_total", "state_coverage",
            "edges_covered", "edges_total", "edge_coverage",
            "phase_bins", "call_bins", "fault_survival", "deadline_misses",
        }
        assert 0.0 <= board["state_coverage"] <= 1.0
        assert 0.0 <= board["edge_coverage"] <= 1.0
        assert board["fault_survival"] == 0.75
        assert board["deadline_misses"] == 2
