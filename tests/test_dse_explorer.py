"""Tests of the DSE engine: coverage, Pareto correctness, memoization,
heuristic determinism and cosim validation of the front."""

import pytest

from repro.dse import (
    Candidate,
    DesignSpaceExplorer,
    dominates,
    pareto_front,
)
from repro.dse.cost import CandidateEvaluator
from repro.testkit import generate_system
from repro.utils.errors import SynthesisError

from tests.conftest import (
    ALL_PLATFORMS,
    HW_PLATFORMS,
    make_producer_consumer_model,
)


def explore_fixture(**kwargs):
    explorer = DesignSpaceExplorer(make_producer_consumer_model(),
                                   platforms=ALL_PLATFORMS)
    return explorer, explorer.explore(**kwargs)


class TestExhaustiveCoverage:
    def test_covers_all_placements_per_platform(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        # 2 movable modules: 2^2 placements on each hardware platform plus
        # the single all-software placement on unix_ipc.
        assert len(report.scores) == 3 * 4 + 1
        seen = {s.candidate.key() for s in report.scores}
        assert len(seen) == len(report.scores)
        for platform in HW_PLATFORMS:
            subsets = {key[1] for key in seen if key[0] == platform}
            assert subsets == {(), ("HostMod",), ("ServerMod",),
                               ("HostMod", "ServerMod")}
            assert report.stats[platform]["enumerated"] == 4
            assert report.stats[platform]["evaluated"] == 4
        assert report.stats["unix_ipc"] == {
            "enumerated": 1, "evaluated": 1, "feasible": 1,
        }

    def test_auto_mode_resolves_to_exhaustive_for_small_models(self):
        _explorer, report = explore_fixture(mode="auto")
        assert report.mode == "exhaustive"

    def test_explicit_exhaustive_refuses_huge_spaces(self):
        system = generate_system(0, networks=9)
        explorer = DesignSpaceExplorer(system.build_model(),
                                       platforms=ALL_PLATFORMS)
        with pytest.raises(SynthesisError, match="refused"):
            explorer.explore(mode="exhaustive")

    def test_exhaustive_guard_keys_on_enumeration_size_not_movables(self):
        """21 movable modules on a software-only platform enumerate exactly
        one placement — exhaustive (and auto) must accept that sweep."""
        system = generate_system(0, networks=9)
        explorer = DesignSpaceExplorer(system.build_model(),
                                       platforms=("unix_ipc",))
        report = explorer.explore(mode="exhaustive")
        assert len(report.scores) == 1
        assert report.scores[0].candidate.key() == ("unix_ipc", ())
        assert explorer.resolve_mode("auto") == "exhaustive"


class TestParetoFront:
    def test_front_is_pinned_for_the_fixture_model(self):
        """Hand-checkable: multiproc (fastest CPU+bus) dominates the partial
        placements of the other platforms; the three all-hardware placements
        tie on (area, latency, load) = (82, 40, 0) and are all kept; unix_ipc
        (syscall-priced IPC) and pc_at/microcoded partials are dominated."""
        _explorer, report = explore_fixture(mode="exhaustive")
        assert [s.candidate.label() for s in report.front] == [
            "multiproc:all-sw",
            "multiproc:HostMod",
            "multiproc:ServerMod",
            "microcoded:HostMod+ServerMod",
            "multiproc:HostMod+ServerMod",
            "pc_at_fpga:HostMod+ServerMod",
        ]
        all_hw = [s for s in report.front if len(s.candidate.hw_modules) == 2]
        assert {s.objectives() for s in all_hw} == {(82, 40.0, 0.0)}

    def test_front_matches_independent_dominance_filter(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        feasible = [s for s in report.scores if s.feasible]
        expected = {
            s.candidate.key() for s in feasible
            if not any(dominates(o.objectives(), s.objectives())
                       for o in feasible)
        }
        assert {s.candidate.key() for s in report.front} == expected

    def test_front_ignores_infeasible_scores(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        assert all(s.feasible for s in report.front)

    def test_dominates_is_strict(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 2, 2), (2, 2, 2))
        assert not dominates((2, 2, 2), (2, 2, 2))
        assert not dominates((1, 3, 1), (2, 2, 2))

    def test_pareto_front_collapses_duplicate_candidates(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        doubled = list(report.scores) + list(report.scores)
        assert [s.candidate.key() for s in pareto_front(doubled)] == \
            [s.candidate.key() for s in report.front]


class TestWinnersAndConstraints:
    def test_front_members_carry_full_cosynthesis_artefacts(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        entries = report.front_entries()
        assert len(entries) == len(report.front)
        for entry in entries:
            artefacts = entry["cosynthesis"]
            assert artefacts["ok"] is True
            assert artefacts["platform"] == entry["platform"]
            assert sorted(artefacts["hardware"]) == entry["hw_modules"]
        host_hw = next(e for e in entries
                       if e["platform"] == "multiproc"
                       and e["hw_modules"] == ["HostMod", "ServerMod"])
        assert host_hw["cosynthesis"]["hardware"]["HostMod"]["estimate"]["clbs_total"] > 0

    def test_static_prune_matches_flow_constraint_check(self):
        """The microcoded platform's XC4005 cannot hold the 4-module
        all-hardware placement; the static model and the full flow agree."""
        system = generate_system(0, networks=2)
        explorer = DesignSpaceExplorer(system.build_model(),
                                       platforms=ALL_PLATFORMS)
        report = explorer.explore(mode="exhaustive")
        infeasible = [s for s in report.scores if not s.feasible]
        assert len(infeasible) == 1
        (score,) = infeasible
        assert score.candidate.platform == "microcoded"
        assert len(score.candidate.hw_modules) == 4
        assert "does not fit" in score.reasons[0]

    def test_address_count_collapses_duplicate_port_names_like_the_flow(self):
        """Two units sharing unqualified port names (legal: uniqueness is
        per unit) must count once, exactly like the flow's address map."""
        from repro.comm import handshake_channel
        from repro.core import SystemModel
        from repro.cosyn import TargetArchitecture
        from tests.conftest import make_host_module

        model = SystemModel("DupPorts")
        for index in ("0", "1"):
            model.add_comm_unit(handshake_channel(
                f"Chan{index}", put_name=f"Put{index}", get_name=f"Get{index}",
                prefix="SAME"))
            model.add_software_module(make_host_module(
                name=f"Host{index}", service=f"Put{index}"))
            model.bind(f"Host{index}", f"Put{index}", f"Chan{index}")
        evaluator = CandidateEvaluator(model, ALL_PLATFORMS)
        score = evaluator.evaluate(Candidate("pc_at_fpga", ()))
        target = TargetArchitecture(model,
                                    evaluator.platforms["pc_at_fpga"])
        assert score.address_count == len(target.address_map())

    def test_all_sw_candidate_has_zero_area_and_hw_clock(self):
        _explorer, report = explore_fixture(mode="exhaustive")
        all_sw = next(s for s in report.scores
                      if s.candidate.key() == ("multiproc", ()))
        assert all_sw.area_clbs == 0
        assert all_sw.clock_ns == 0.0
        assert all_sw.sw_load_ns > 0


class TestCostFlowParity:
    def test_static_feasibility_agrees_with_the_full_flow(self):
        """The cost model's prune must match CosynthesisFlow's verdict on
        every candidate, or DSE drops placements the flow accepts (and vice
        versa) — differential parity over two exhaustively swept systems.
        A feasible candidate with hardware also carries the flow's area and
        clock, since both come from the same process synthesis."""
        from repro.cosyn import CosynthesisFlow
        from repro.dse import repartition

        for seed in (0, 1):
            system = generate_system(seed, networks=2)
            model = system.build_model()
            explorer = DesignSpaceExplorer(model, platforms=ALL_PLATFORMS)
            report = explorer.explore(mode="exhaustive",
                                      synthesize_winners=False)
            for score in report.scores:
                flow = CosynthesisFlow(
                    repartition(model, score.candidate.hw_modules),
                    explorer.platforms[score.candidate.platform],
                )
                result = flow.run()
                label = score.candidate.label()
                assert score.feasible == result.ok, label
                if score.feasible and score.candidate.hw_modules:
                    assert score.area_clbs == result.total_clbs(), label
                    assert score.clock_ns == result.system_clock_ns(), label


class TestMemoization:
    def test_shared_synthesis_work_is_done_once(self):
        explorer, report = explore_fixture(mode="exhaustive")
        stats = explorer.evaluator.stats
        # 2 modules x (4 platforms software + 1 device-family-wide hardware)
        assert stats["synthesis_calls"] == 2 * (len(ALL_PLATFORMS) + 1)
        assert stats["cache_hits"] > 0
        # Without the memo every candidate would re-synthesize its modules.
        requests = stats["synthesis_calls"] + stats["cache_hits"]
        assert requests > 2 * len(report.scores) - 4
        assert stats["synthesis_calls"] < requests / 2

    def test_evaluator_results_are_deterministic(self):
        model = make_producer_consumer_model()
        first = CandidateEvaluator(model, ALL_PLATFORMS)
        second = CandidateEvaluator(model, ALL_PLATFORMS)
        candidate = Candidate("pc_at_fpga", ("ServerMod",))
        assert first.evaluate(candidate) == second.evaluate(candidate)

    def test_a_cached_error_keeps_one_traceback(self):
        """Re-raising a memoised SynthesisError must not append each
        request's frames to the one cached instance."""
        import traceback

        from repro.apps.motor_controller import build_system

        model, _config = build_system()
        evaluator = CandidateEvaluator(model, ("pc_at_fpga",))
        # SpeedControlMod has three processes and cannot run as software.
        candidate = Candidate("pc_at_fpga", ())

        def depth():
            with pytest.raises(SynthesisError) as excinfo:
                evaluator.software_cost("SpeedControlMod", "pc_at_fpga")
            return len(traceback.extract_tb(excinfo.value.__traceback__))

        assert not evaluator.evaluate(candidate).feasible
        first = depth()
        for _ in range(50):
            assert not evaluator.evaluate(candidate).feasible
            assert depth() == first


class TestFrontSynthesisReuse:
    """One exploration synthesizes each hardware FSM once, cost model and
    front together."""

    SEEDS = (0, 1, 3, 5, 7)

    @staticmethod
    def _count_hls(monkeypatch):
        """Ids of the FSMs whose DFGs were built: every HLS run of an FSM
        starts there."""
        from repro.cosyn import hw_synthesis

        calls = []
        real = hw_synthesis.build_fsm_dfgs

        def counting(fsm, **kwargs):
            calls.append(id(fsm))
            return real(fsm, **kwargs)

        monkeypatch.setattr(hw_synthesis, "build_fsm_dfgs", counting)
        return calls

    @pytest.mark.parametrize("seed", SEEDS)
    def test_winners_equal_standalone_flows(self, seed):
        from repro.cosyn import CosynthesisFlow
        from repro.dse.space import repartition
        from repro.platforms import get_platform

        system = generate_system(seed, networks=2)
        report = DesignSpaceExplorer(system.build_model()).explore()
        assert len(report.front) > 1
        for score in report.front:
            candidate = score.candidate
            alone = CosynthesisFlow(
                repartition(system.build_model(), candidate.hw_modules),
                get_platform(candidate.platform)).run()
            winner = report.winners[candidate.key()]
            assert winner.as_dict(include_text=True) \
                == alone.as_dict(include_text=True), candidate.label()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_hardware_fsm_passes_hls_once(self, seed, monkeypatch):
        calls = self._count_hls(monkeypatch)
        explorer = DesignSpaceExplorer(
            generate_system(seed, networks=2).build_model())
        report = explorer.explore()
        assert calls and len(calls) == len(set(calls))
        assert set(calls) == {id(fsm) for fsm in explorer.evaluator.hls_memo}
        front = [process
                 for winner in report.winners.values()
                 for hw in winner.hardware.values()
                 for process in hw.processes.values()]
        assert {id(process.fsm) for process in front} <= set(calls)
        assert len(front) > len({id(process.fsm) for process in front}), \
            "the front shares no FSM"

    def test_a_shared_process_is_never_renamed_in_place(self, monkeypatch):
        """One-process modules report their process under the module name,
        on a copy: the memoised synthesis keeps its FSM's name."""
        from repro.cosyn import hw_synthesis

        made = []
        real = hw_synthesis.synthesize_process

        def keeping(fsm, **kwargs):
            made.append(real(fsm, **kwargs))
            return made[-1]

        monkeypatch.setattr(hw_synthesis, "synthesize_process", keeping)
        DesignSpaceExplorer(generate_system(3, networks=2).build_model()
                            ).explore()
        assert made
        for process in made:
            assert process.estimate.name == process.fsm.name

    def test_the_memo_keeps_no_model_alive_once_the_explorer_is_released(
            self, monkeypatch):
        import gc
        import weakref

        from repro.dse import explorer as explorer_module

        memos = []
        real_flow = explorer_module.CosynthesisFlow

        def flow(model, platform, **kwargs):
            memos.append(kwargs["hls_memo"])
            return real_flow(model, platform, **kwargs)

        monkeypatch.setattr(explorer_module, "CosynthesisFlow", flow)
        model = generate_system(3, networks=2).build_model()
        model_ref = weakref.ref(model)
        explorer = DesignSpaceExplorer(model)
        report = explorer.explore()
        assert len(memos) == len(report.front)
        assert all(memo is explorer.evaluator.hls_memo for memo in memos)
        fsm_refs = [weakref.ref(fsm) for fsm in memos[0]]
        assert fsm_refs
        del model, explorer, report, memos
        gc.collect()
        assert model_ref() is None
        assert all(ref() is None for ref in fsm_refs)


class TestHeuristicSearch:
    @pytest.fixture(scope="class")
    def big_system(self):
        system = generate_system(0, networks=9)
        model = system.build_model()
        assert len(model.modules) >= 20
        return system, model

    def test_finds_feasible_candidates_on_20plus_module_model(self, big_system):
        _system, model = big_system
        explorer = DesignSpaceExplorer(model, platforms=ALL_PLATFORMS)
        report = explorer.explore(mode="auto", seed=3)
        assert report.mode == "heuristic"
        assert len(report.feasible) >= 1
        assert len(report.front) >= 1

    def test_deterministic_for_a_fixed_seed(self, big_system):
        system, _model = big_system
        reports = [
            DesignSpaceExplorer(system.build_model(),
                                platforms=ALL_PLATFORMS).explore(
                mode="heuristic", seed=3)
            for _ in range(2)
        ]
        assert reports[0].to_json(include_scores=True) == \
            reports[1].to_json(include_scores=True)

    def test_different_seeds_explore_different_candidates(self, big_system):
        system, _model = big_system
        visited = []
        for seed in (3, 4):
            report = DesignSpaceExplorer(
                system.build_model(), platforms=ALL_PLATFORMS,
            ).explore(mode="heuristic", seed=seed, restarts=2)
            visited.append({s.candidate.key() for s in report.scores})
        assert visited[0] != visited[1]


class TestValidation:
    def test_unplaceable_candidate_yields_a_verdict_not_an_abort(self):
        from repro.apps.motor_controller import build_system
        from repro.dse import validate_candidate

        model, _config = build_system()
        # SpeedControlMod has three processes and cannot move to software.
        verdict = validate_candidate(model, Candidate("pc_at_fpga", ()))
        assert verdict["ok"] is False
        assert "co-simulation failed" in verdict["problems"][0]

    def test_front_survives_cosim_validation(self):
        system = generate_system(0, networks=2)
        explorer = DesignSpaceExplorer(
            system.build_model(), platforms=ALL_PLATFORMS,
            pins={name: "sw" for name in system.sw_only},
            cosim_params=system.cosim_params,
            expectations=system.expectations,
        )
        report = explorer.explore(mode="exhaustive", validate=True)
        assert report.validation is not None
        assert len(report.validation) == len(report.front)
        failed = [item for item in report.validation if not item["ok"]]
        assert failed == []
        assert all(item["end_time"] is not None for item in report.validation)
