"""One setup pass per scenario: one model, one lint, no per-FSM programs.

A single-scenario ``CosimJob`` builds its model once; the sweep pre-flight
and the session's validation read one staged lint memo, and a job run with
``no_lint`` runs only its structural stage; no per-FSM program is compiled
(FSMs outside the fused step run on the interpreter).  The fused code
cache (fragments and steps) is keyed on content in a bounded LRU.
"""

import os
import subprocess
import sys

import pytest

from repro.apps.motor_controller.system import build_system
from repro.cosim import CosimSession
from repro.ir import compile as ir_compile
from repro.ir import compile_system, syscompile
from repro.lint import engine, lint_model
from repro.sweep.jobs import CosimJob
from repro.testkit.models import GeneratedSystem, generate_system
from repro.testkit.oracles import cosim_fingerprint
from repro.utils.lru import LruCache

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

    def test_no_lint_job_runs_no_extended_lint(self, monkeypatch):
        extended = _count_calls(monkeypatch, engine, "_extended_stage")
        record, _ = CosimJob(9, no_lint=True).execute()
        assert record["error"] is None
        assert record["lint"] is None
        assert record["tier"] == "fused"
        assert extended == []

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


#: Imports every production surface and runs one job of each sweep kind.
_FRESH_PROCESS_SCRIPT = """
import sys
import repro.cosim, repro.dse, repro.server, repro.sweep, repro.testkit
from repro.sweep import CosimJob, CosynJob, KernelJob, SweepService
report = SweepService([CosimJob(9), CosynJob(1), KernelJob("tiny", 0)]).run()
assert report.ok, [record["error"] for record in report.records]
print("repro.ir.compile" in sys.modules)
"""


class TestRetiredGeneratorOffTheLivePath:
    def test_no_production_path_imports_the_per_fsm_generator(self):
        # The test process itself has imported repro.ir.compile (through
        # the conftest's ProgramStepper), so the check needs a fresh one.
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "src"
        )
        completed = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_SCRIPT],
            capture_output=True, text=True, timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "False"


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
    def test_default_bounds_are_fixed(self):
        assert syscompile._CODE_CACHE.maxsize == syscompile.CODE_CACHE_SIZE
        assert len(syscompile._CODE_CACHE) <= syscompile.CODE_CACHE_SIZE

    def test_system_code_lru_stays_bounded_and_recompiles(self, monkeypatch):
        monkeypatch.setattr(syscompile, "_CODE_CACHE", LruCache(2))

        def fingerprint(model):
            system = generate_system(0)
            session = CosimSession(model, **system.cosim_params)
            result = session.run(until=20_000)
            assert session.tier == "fused"
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
    def test_compile_system_accepts_an_empty_plan(self):
        model = generate_system(NO_FUSABLE_SEED).build_model()
        program = compile_system(model)
        assert not program.plan.candidates
        assert program.fragments == []
        source = syscompile.generate_system_source(model)
        assert "    _w = 0\n" in source
        assert "_fragment" not in source

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_identical_across_tiers(self, kernel):
        system = generate_system(NO_FUSABLE_SEED)
        fingerprints = {}
        for tier in ("fused", "interpreted"):
            session = CosimSession(system.build_model(), tier=tier,
                                   kernel=kernel, **system.cosim_params)
            result = session.run(until=40_000)
            fingerprints[tier] = cosim_fingerprint(session, result)
            assert session.tier == tier
        assert fingerprints["fused"] == fingerprints["interpreted"]

    def test_job_runs_clean(self):
        record, _ = CosimJob(NO_FUSABLE_SEED).execute()
        assert record["error"] is None
        assert not record["functional_problems"]
        assert record["tier"] == "fused"
        # No FSM is fused: every step is a software or service step,
        # interpreted on both tiers.
        assert record["fsm"]["system_compile_hits"] == 0
        assert record["fsm"]["interpreted"] == record["fsm"]["steps"] > 0


class TestInterpretedJob:
    def test_interpreted_tier_runs_interpreted_fsms(self):
        job = CosimJob(0, tier="interpreted")
        assert job.spec()["tier"] == "interpreted"
        record, _ = job.execute()
        assert record["error"] is None
        assert not record["functional_problems"]
        assert record["tier"] == "interpreted"
        assert record["fsm"]["interpreted"] == record["fsm"]["steps"]
        default, _ = CosimJob(0).execute()
        assert record["fingerprint_digest"] == default["fingerprint_digest"]
