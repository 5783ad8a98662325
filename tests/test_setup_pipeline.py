"""One setup pass per scenario: one model, one lint, no per-FSM programs.

A single-scenario ``CosimJob`` builds its model once; the sweep pre-flight,
the session's validation and the fused-codegen gate read one staged lint
memo; no per-FSM program is compiled (FSMs outside the fused step run on
the interpreter).  The fused code cache (fragments and steps), and the
retired per-FSM program cache, are keyed on content in bounded LRUs.
"""

import pytest

from repro.apps.motor_controller.system import build_system
from repro.cosim import CosimSession
from repro.ir import compile as ir_compile
from repro.ir import compile_system, syscompile
from repro.ir.interp import DictPortAccessor
from repro.lint import engine, lint_model
from repro.sweep.jobs import CosimJob
from repro.testkit.models import GeneratedSystem, generate_system
from repro.testkit.oracles import cosim_fingerprint
from repro.utils.lru import LruCache
from tests.conftest import ProgramStepper

#: Testkit seed whose model has no fusable FSM (no controllers, no
#: hardware-module behaviours).
NO_FUSABLE_SEED = 113


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list of positional args per call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _fused_fsms(model):
    """The FSM objects the fused whole-system step executes."""
    fsms = [controller.fsm for unit in model.comm_units.values()
            for controller in unit.controllers]
    fsms += [fsm for module in model.hardware_modules()
             for fsm in module.behaviours()]
    return fsms


class TestOneSetupPass:
    def test_job_builds_lints_and_compiles_once(self, monkeypatch):
        models = []
        build = GeneratedSystem.build_model

        def counting_build(system):
            model = build(system)
            models.append(model)
            return model

        monkeypatch.setattr(GeneratedSystem, "build_model", counting_build)
        extended = _count_calls(monkeypatch, engine, "_extended_stage")
        record, _ = CosimJob(9).execute()
        assert record["error"] is None
        assert not record["functional_problems"]
        assert record["tier"] == "fused"
        assert len(models) == 1
        assert len(extended) == 1
        assert _fused_fsms(models[0])

    def test_fused_job_compiles_no_per_fsm_program(self, monkeypatch):
        compiled = _count_calls(monkeypatch, ir_compile, "compile_fsm")
        record, _ = CosimJob(9).execute()
        assert record["tier"] == "fused"
        # Services and software FSMs step per-FSM, on the interpreter.
        assert record["fsm"]["interpreted"] > 0
        assert record["fsm"]["system_compile_hits"] > 0
        assert compiled == []

    def test_checkpointed_job_restores_into_the_same_model(self, monkeypatch):
        builds = _count_calls(monkeypatch, GeneratedSystem, "build_model")
        straight, _ = CosimJob(3, until=20_000).execute()
        resumed, _ = CosimJob(3, until=20_000, checkpoint_at=7_777).execute()
        assert len(builds) == 2  # one per job
        assert resumed["fingerprint_digest"] == straight["fingerprint_digest"]


class TestStagedLintMemo:
    @staticmethod
    def _models():
        models = [generate_system(seed).build_model() for seed in range(10)]
        models.append(build_system()[0])
        return models

    def test_structural_memo_matches_lint_before_and_after_full(
            self, monkeypatch):
        extended = _count_calls(monkeypatch, engine, "_extended_stage")
        for model in self._models():
            expected = lint_model(model, structural_only=True).as_dict()
            structural = engine.memo_report(model, structural_only=True)
            assert structural.as_dict() == expected
            # Validation reads the memo and never pays for the extended
            # passes.
            CosimSession(model)
            assert engine.memo_report(model, structural_only=True) is structural
            assert extended == []
            full = engine.memo_report(model)
            assert len(extended) == 1
            assert engine.memo_report(model, structural_only=True) is structural
            assert structural.as_dict() == expected
            assert engine.memo_report(model) is full
            assert len(extended) == 1
            del extended[:]

    def test_full_memo_equals_a_fresh_lint(self):
        for model in self._models():
            memo = engine.memo_report(model).as_dict()
            assert memo == lint_model(model).as_dict()

    def test_motor_suppression_applies_to_the_memo_only_in_full(self):
        model = build_system()[0]
        structural = engine.memo_report(model, structural_only=True)
        full = engine.memo_report(model)
        assert full.suppressed  # the distribution FSM's DF002 entry
        assert structural.suppressed == []


class TestBoundedProgramCaches:
    @staticmethod
    def _counter(limit):
        from repro.ir import INT, Assign, FsmBuilder, var

        build = FsmBuilder("LRU_COUNTER")
        build.variable("COUNT", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("COUNT", var("COUNT") + 1))
            state.go("Stop", when=var("COUNT").ge(limit))
            state.stay()
        with build.state("Stop", done=True) as state:
            state.stay()
        return build.build(initial="Run")

    @staticmethod
    def _history(fsm):
        stepper = ProgramStepper(fsm, DictPortAccessor(), call_handler=None)
        steps = [(r.from_state, r.to_state, r.fired, r.done)
                 for r in stepper.run_to_done()]
        return steps, stepper.env, stepper.program

    def test_default_bounds_are_fixed(self):
        assert ir_compile._PROGRAM_CACHE.maxsize == ir_compile.PROGRAM_CACHE_SIZE
        assert syscompile._CODE_CACHE.maxsize == syscompile.CODE_CACHE_SIZE
        assert len(ir_compile._PROGRAM_CACHE) <= ir_compile.PROGRAM_CACHE_SIZE
        assert len(syscompile._CODE_CACHE) <= syscompile.CODE_CACHE_SIZE

    def test_fsm_program_lru_stays_bounded_and_recompiles(self, monkeypatch):
        monkeypatch.setattr(ir_compile, "_PROGRAM_CACHE", LruCache(3))
        first = self._counter(2)
        steps, env, program = self._history(first)
        for limit in range(3, 7):
            ir_compile.compile_fsm(self._counter(limit))
            assert len(ir_compile._PROGRAM_CACHE) <= 3
        assert len(ir_compile._PROGRAM_CACHE) == 3
        assert ir_compile.fsm_digest(first) not in ir_compile._PROGRAM_CACHE
        again_steps, again_env, again = self._history(self._counter(2))
        assert again is not program
        assert (again_steps, again_env) == (steps, env)

    def test_system_code_lru_stays_bounded_and_recompiles(self, monkeypatch):
        monkeypatch.setattr(syscompile, "_CODE_CACHE", LruCache(2))

        def fingerprint(model):
            system = generate_system(0)
            session = CosimSession(model, **system.cosim_params)
            result = session.run(until=20_000)
            assert session.wired_tier == "fused"
            return cosim_fingerprint(session, result)

        first = generate_system(0).build_model()
        expected = fingerprint(first)
        for seed in (1, 2, 3):
            compile_system(generate_system(seed).build_model())
            assert len(syscompile._CODE_CACHE) <= 2
        assert len(syscompile._CODE_CACHE) == 2
        key = syscompile._fragment_step_source(syscompile.SystemPlan(first))
        assert key not in syscompile._CODE_CACHE
        assert fingerprint(generate_system(0).build_model()) == expected
        assert key in syscompile._CODE_CACHE


class TestNoFusableFsm:
    def test_compile_system_refuses_an_empty_plan(self):
        model = generate_system(NO_FUSABLE_SEED).build_model()
        assert not syscompile.SystemPlan(model).candidates
        with pytest.raises(syscompile.SystemCompileError,
                           match="no fusable FSM"):
            compile_system(model)

    def test_identical_across_tiers_with_reason(self):
        system = generate_system(NO_FUSABLE_SEED)
        fingerprints = {}
        for tier in ("fused", "interpreted"):
            session = CosimSession(system.build_model(), tier=tier,
                                   **system.cosim_params)
            result = session.run(until=40_000)
            fingerprints[tier] = cosim_fingerprint(session, result)
            assert session.wired_tier == "interpreted"
            if tier == "fused":
                assert session.system_fallback_reason == "no fusable FSM"
        assert fingerprints["fused"] == fingerprints["interpreted"]

    def test_job_runs_clean(self):
        record, _ = CosimJob(NO_FUSABLE_SEED).execute()
        assert record["error"] is None
        assert not record["functional_problems"]
        assert record["tier"] == "interpreted"
        assert record["tier_reason"] == "no fusable FSM"
        # Every step fell back to the interpreter, and says so.
        assert record["fsm"]["fallback"] == record["fsm"]["interpreted"] \
            == record["fsm"]["steps"] > 0


class TestInterpretedJob:
    def test_interpreted_tier_runs_interpreted_fsms(self):
        job = CosimJob(0, tier="interpreted")
        assert job.spec()["tier"] == "interpreted"
        record, _ = job.execute()
        assert record["error"] is None
        assert not record["functional_problems"]
        assert record["tier"] == "interpreted"
        assert record["tier_reason"] is None
        assert record["fsm"]["interpreted"] == record["fsm"]["steps"]
        assert record["fsm"]["fallback"] == 0
        default, _ = CosimJob(0).execute()
        assert record["fingerprint_digest"] == default["fingerprint_digest"]
