"""Whole-system compilation (:mod:`repro.ir.syscompile`) contracts.

The fused tier's one promise is *invisibility*: a session run on the
generated whole-system step function must be byte-identical — waveforms,
traces, states, kernel statistics — to the interpreted per-FSM tier, on
both kernels.  This file pins that promise over the
testkit's generated population (plain, fault-injected and real-time
scenario families), plus the machinery around it: batched multi-scenario
execution, program caching, the lint pre-flight refusal path and the
tier counters.

The full 334-scenario sweep across both tiers runs via
``python -m repro.testkit --tier differential``; here the same check
runs at quick scale so tier-1 catches a divergence early.
"""

import pytest

from repro.core import HardwareModule, SystemModel
from repro.cosim import CosimSession
from repro.ir import (
    INT,
    Assign,
    FsmBuilder,
    SystemCompileError,
    compile_system,
    generate_system_source,
    model_digest,
    system_spec,
    var,
)
from repro.ir.expr import BinOp, Const
from repro.ir.syscompile import SOURCE_FORMAT, SystemPlan, SystemProgram
from repro.lint.selfcheck import MUTANTS
from repro.sweep.jobs import CosimJob
from repro.testkit.models import generate_system
from repro.testkit.oracles import check_cosim_conformance, cosim_fingerprint
from repro.testkit.scenarios import (
    FAULT_KINDS,
    FaultScenario,
    RealtimeScenario,
    check_fault_scenario,
    check_realtime_scenario,
)
from repro.utils.canonical import content_digest
from repro.utils.errors import SimulationError


class TestLockstepDifferential:
    """Fused vs interpreted, both kernels, byte-identical."""

    @staticmethod
    def _tier_fingerprints(seed, kernel, until=40_000):
        system = generate_system(seed)
        fingerprints = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(system.build_model(), kernel=kernel,
                                   tier=tier, **system.cosim_params)
            result = session.run(until=until)
            fingerprints.append(cosim_fingerprint(session, result))
        return fingerprints

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_system_identical_across_tiers(self, seed):
        fused, interpreted = self._tier_fingerprints(seed, "production")
        assert fused == interpreted

    @pytest.mark.parametrize("seed", [2, 7])
    def test_reference_kernel_agrees_too(self, seed):
        assert self._tier_fingerprints(seed, "production") \
            == self._tier_fingerprints(seed, "reference")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_full_conformance_matrix_at_quick_scale(self, seed):
        # The complete oracle (completion runs, determinism double-runs,
        # functional expectations) across both tiers on both kernels;
        # the 334-scenario version runs via
        # ``python -m repro.testkit --tier differential``.
        problems = check_cosim_conformance(generate_system(seed),
                                           tier="differential")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_family_identical_across_tiers(self, kind, seed):
        problems = check_fault_scenario(FaultScenario(seed, kind),
                                        tier="differential")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_realtime_family_identical_across_tiers(self, seed):
        problems = check_realtime_scenario(RealtimeScenario(seed),
                                           tier="differential")
        assert not problems, "\n".join(problems)


class TestSessionModes:
    def test_fused_is_the_default_tier(self):
        session = CosimSession(generate_system(0).build_model())
        session.run(until=20_000)
        assert session.wired_tier == "fused"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] > 0
        assert counters["system_fallback"] == 0
        assert counters["fallback"] == 0
        # Every step is accounted to exactly one engine.
        assert counters["steps"] == (counters["interpreted"]
                                     + counters["system_compile_hits"])

    def test_interpreted_tier_runs_no_fused_program(self):
        model = generate_system(0).build_model()
        session = CosimSession(model, tier="interpreted")
        session.run(until=5_000)
        assert session.wired_tier == "interpreted"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] == 0
        assert counters["interpreted"] == counters["steps"] > 0
        # Requested, not fallen back to.
        assert counters["fallback"] == 0

    def test_unknown_tier_is_refused(self):
        for tier in ("per-fsm", "compiled"):
            with pytest.raises(SimulationError, match="unknown tier"):
                CosimSession(generate_system(0).build_model(), tier=tier)

    def test_detect_races_falls_back_to_interpreted(self):
        session = CosimSession(generate_system(0).build_model(),
                               detect_races=True)
        session.build()
        assert session.tier == "fused"
        assert session.wired_tier == "interpreted"
        assert "detect_races" in session.system_fallback_reason

    @pytest.mark.parametrize("seed,races,reason", [
        (113, False, "no fusable FSM"),
        (0, True, "detect_races attributes writes to kernel processes"),
    ])
    def test_tier_decision_carries_its_reason(self, seed, races, reason):
        system = generate_system(seed)
        session = CosimSession(system.build_model(), detect_races=races,
                               **system.cosim_params)
        summary = session.run(until=20_000).summary()
        assert summary["tier"] == "interpreted"
        assert summary["tier_reason"].startswith(reason)
        assert summary["fsm"]["fallback"] == summary["fsm"]["steps"] > 0


class TestCheckpointUnderFused:
    def test_resume_matches_uninterrupted_fused_run(self):
        system = generate_system(4)
        straight = CosimSession(system.build_model(), **system.cosim_params)
        expected = straight.run(until=30_000)
        assert straight.wired_tier == "fused"

        interrupted = CosimSession(system.build_model(),
                                   **system.cosim_params)
        interrupted.run(until=12_345)
        checkpoint = interrupted.save()
        resumed = CosimSession(system.build_model(),
                               **system.cosim_params).restore(checkpoint)
        actual = resumed.run(until=30_000)
        assert actual.summary() == expected.summary()

    def test_checkpoint_records_the_wired_tier(self):
        # detect_races wires a fused request per FSM; the checkpoint must
        # say so, and a fused session must refuse it by name rather than
        # fail on the kernel's process registrations.
        system = generate_system(4)
        raced = CosimSession(system.build_model(), detect_races=True,
                             **system.cosim_params)
        raced.run(until=5_000)
        checkpoint = raced.save()
        assert checkpoint["tier"] == "interpreted"
        fused = CosimSession(system.build_model(), **system.cosim_params)
        with pytest.raises(SimulationError,
                           match="tier: checkpoint has 'interpreted', "
                                 "session has 'fused'"):
            fused.restore(checkpoint)
        interpreted = CosimSession(system.build_model(), tier="interpreted",
                                   **system.cosim_params)
        assert interpreted.restore(checkpoint).simulator.now == 5_000


class TestBatchedExecution:
    def test_batch_digest_folds_the_sequential_digests(self):
        sequential = [CosimJob(2, coverage=True).execute()
                      for _ in range(3)]
        batch_record, batch_payload = CosimJob(2, coverage=True,
                                               batch=3).execute()
        per_scenario = [record["fingerprint_digest"]
                        for record, _ in sequential]
        assert all(digest == per_scenario[0] for digest in per_scenario)
        assert len(batch_record["scenarios"]) == 3
        assert [entry["fingerprint_digest"]
                for entry in batch_record["scenarios"]] == per_scenario
        assert batch_record["fingerprint_digest"] \
            == content_digest(per_scenario)
        # Coverage payloads are per scenario and identical to standalone.
        assert batch_payload["coverage"] \
            == [payload["coverage"] for _, payload in sequential]

    def test_faulted_batch_spreads_injection_offsets(self):
        job = CosimJob(1, fault_kind="stuck_handshake", batch=2,
                       fault_at_offset=500)
        record, _ = job.execute()
        assert len(record["scenarios"]) == 2
        assert record["functional_problems"] is None
        assert job.spec()["fault_at_offset"] == 500

    def test_checkpoint_refuses_batch(self):
        with pytest.raises(ValueError, match="single-scenario"):
            CosimJob(0, checkpoint_at=1_000, batch=2)


class TestSourceCache:
    def test_program_is_weakly_cached_per_model(self):
        model = generate_system(0).build_model()
        assert compile_system(model) is compile_system(model)

    def test_spec_records_protocol_templates(self):
        model = generate_system(1).build_model()
        spec = system_spec(model)
        assert spec["syscompile"] == SOURCE_FORMAT
        tags = [controller["protocol"]
                for unit in spec["units"]
                for controller in unit["controllers"]]
        source = generate_system_source(model)
        for tag in tags:
            if tag:
                assert f"protocol {tag}" in source

    def test_digest_excludes_bindings_but_not_structure(self):
        left = generate_system(6).build_model()
        right = generate_system(6).build_model()
        other = generate_system(7).build_model()
        assert model_digest(left) == model_digest(right)
        assert model_digest(left) != model_digest(other)


class TestLintPreflight:
    def _mutant_model(self):
        builder, rule = MUTANTS["dup-writer"]
        return builder()

    def test_lint_errors_refuse_compilation(self):
        with pytest.raises(SystemCompileError, match="lint errors"):
            compile_system(self._mutant_model())

    def test_only_lint_refuses_the_mutant(self):
        # Planned and generated without consulting lint, the mutant fuses.
        model = self._mutant_model()
        plan = SystemPlan(model)
        assert plan.candidates
        program = SystemProgram(model, plan, model_digest(model),
                                generate_system_source(model, plan))
        assert program.plan is plan

    def test_session_degrades_to_interpreted_with_reason(self):
        session = CosimSession(self._mutant_model())
        session.build()
        assert session.wired_tier == "interpreted"
        assert "lint errors" in session.system_fallback_reason


class TestConstantDivisor:
    @staticmethod
    def _model(op, divisor):
        build = FsmBuilder("CDIV")
        build.variable("N", INT, -7)
        build.variable("Q", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("Q", BinOp(op, var("N"), Const(divisor))))
            state.do(Assign("N", var("N") + 3))
            state.stay()
        model = SystemModel(f"ConstantDivisor{op.title()}")
        model.add_hardware_module(
            HardwareModule("Cd", [build.build(initial="Run")]))
        return model

    @pytest.mark.parametrize("op", ["div", "mod"])
    @pytest.mark.parametrize("divisor", [3, -3])
    def test_single_call_form_matches_across_tiers(self, op, divisor):
        source = generate_system_source(self._model(op, divisor))
        assert f"_pos_{op}(" in source
        assert "_div(" not in source.replace("_pos_div(", "")
        assert "_mod(" not in source.replace("_pos_mod(", "")
        fingerprints = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(self._model(op, divisor), tier=tier)
            result = session.run(until=2_000)
            assert session.wired_tier == tier
            fingerprints.append(cosim_fingerprint(session, result))
        assert fingerprints[0] == fingerprints[1]

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    @pytest.mark.parametrize("op,message", [
        ("div", "division by zero in IR expression"),
        ("mod", "modulo by zero in IR expression"),
    ])
    def test_zero_constant_divisor_raises_at_run_time(self, tier, op,
                                                      message):
        session = CosimSession(self._model(op, 0), tier=tier)
        session.build()  # code generation accepts the constant zero
        assert session.wired_tier == tier
        with pytest.raises(SimulationError, match=f"^{message}$"):
            session.run(until=1_000)
