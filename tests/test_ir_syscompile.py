"""Whole-system compilation (:mod:`repro.ir.syscompile`) contracts.

The fused tier's one promise is *invisibility*: a session run on the
generated fused step — one compiled fragment per clocked FSM, called in
plan order — must be byte-identical — waveforms,
traces, states, kernel statistics — to the interpreted per-FSM tier, on
both kernels.  This file pins that promise over the
testkit's generated population (plain, fault-injected and real-time
scenario families), plus the machinery around it: program caching, the
tier a session resolves (race detection runs interpreted; a codegen
refusal reaches the caller) and the tier counters.

The full 334-scenario sweep across both tiers runs via
``python -m repro.testkit --tier differential``; here the same check
runs at quick scale so tier-1 catches a divergence early.
"""

import gc
import re
import weakref

import pytest

from repro.core import HardwareModule, SystemModel
from repro.core.comm_unit import CommunicationController, CommunicationUnit
from repro.core.port import Port
from repro.cosim import CosimSession
from repro.ir import (
    BOOL,
    INT,
    Assign,
    FsmBuilder,
    PortWrite,
    compile_system,
    generate_system_source,
    port,
    syscompile,
    var,
)
from repro.ir.dtypes import word_type
from repro.ir.expr import BinOp, Const
from repro.lint.rules import RULES_BY_ID
from repro.lint.selfcheck import MUTANTS, build_dup_writer_model
from repro.sweep.jobs import CosimJob
from repro.sweep.service import SweepService
from repro.testkit.models import generate_system
from repro.testkit.oracles import check_cosim_conformance, cosim_fingerprint
from repro.testkit.scenarios import (
    FAULT_KINDS,
    FaultScenario,
    RealtimeScenario,
    check_scenario,
)
from repro.utils.canonical import content_digest
from repro.utils.errors import ModelError, SimulationError, ValidationError
from repro.utils.lru import LruCache


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
        problems = check_scenario(FaultScenario(seed, kind),
                                  tier="differential")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_realtime_family_identical_across_tiers(self, seed):
        problems = check_scenario(RealtimeScenario(seed),
                                  tier="differential")
        assert not problems, "\n".join(problems)


class TestSessionModes:
    def test_fused_is_the_default_tier(self):
        session = CosimSession(generate_system(0).build_model())
        session.run(until=20_000)
        assert session.tier == "fused"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] > 0
        assert counters["system_fallback"] == 0
        assert counters["fallback"] == 0
        # Every step is accounted to exactly one engine.
        assert counters["steps"] == (counters["interpreted"]
                                     + counters["system_compile_hits"])

    def test_unit_reset_keeps_the_engine_split_exact(self):
        # The fused count is derived from the candidates' steps, so after
        # a reset fault the interpreted share is still exactly the steps
        # of the FSMs outside the fused program: services and software.
        session, _ = FaultScenario(1, "reset_mid_transaction").run()
        assert session.tier == "fused"
        assert all(injector.cursor for injector
                   in session.fault_injectors.values())
        others = [service.instance
                  for adapter in session.hw_adapters.values()
                  for service in adapter.registry.instances()]
        for executor in session.sw_executors.values():
            others.append(executor.instance)
            others.extend(service.instance
                          for service in executor.registry.instances())
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] > 0
        assert counters["interpreted"] == sum(fsm.steps for fsm in others)

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    def test_unit_reset_keeps_its_work_counters(self, tier):
        # A reset restores the unit's state, not the work done: its
        # controllers' step counts never fall, on either tier.
        scenario = FaultScenario(1, "reset_mid_transaction")
        session = scenario.build_session(tier=tier)
        session.build()
        assert session.tier == tier
        units = list(session.model.comm_units)
        marker = f"{units[scenario.unit_index % len(units)]}."
        reset = [instance for key, instance
                 in session.controller_instances.items()
                 if key.startswith(marker)]
        [injector] = session.fault_injectors.values()
        period = session.clock_period
        counts = []
        for edge in range(1, scenario.at // period + 6):
            session.run(until=edge * period)
            counts.append(sum(instance.steps for instance in reset))
            counters = session.fsm_counters()
            assert counters["steps"] == (counters["interpreted"]
                                         + counters["system_compile_hits"])
        assert injector.cursor  # the reset happened mid-run
        assert counts == sorted(counts)
        assert counts[-1] > counts[scenario.at // period - 1] > 0

    def test_interpreted_tier_runs_no_fused_program(self):
        model = generate_system(0).build_model()
        session = CosimSession(model, tier="interpreted")
        session.run(until=5_000)
        assert session.tier == "interpreted"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] == 0
        assert counters["interpreted"] == counters["steps"] > 0

    def test_unknown_tier_is_refused(self):
        for tier in ("per-fsm", "compiled"):
            with pytest.raises(SimulationError, match="unknown tier"):
                CosimSession(generate_system(0).build_model(), tier=tier)

    def test_detect_races_resolves_to_interpreted(self):
        # Race attribution picks the interpreted tier at construction, and
        # both kernels attribute the dup-writer mutant's races alike.
        logs = []
        for kernel in ("production", "reference"):
            session = CosimSession(build_dup_writer_model(), kernel=kernel,
                                   detect_races=True)
            assert session.tier == "interpreted"
            session.run(until=5_000)
            assert session.fsm_counters()["system_compile_hits"] == 0
            logs.append(session.simulator.race_log)
        assert logs[0] and logs[0] == logs[1]

    def test_fused_with_detect_races_is_refused(self):
        with pytest.raises(SimulationError,
                           match="tier 'fused' cannot run with detect_races: "
                                 "race attribution needs one kernel process "
                                 "per writer"):
            CosimSession(generate_system(0).build_model(), tier="fused",
                         detect_races=True)


class TestCodegenRefusal:
    """A model codegen cannot translate is refused, never run elsewhere."""

    @pytest.fixture
    def no_add_template(self, monkeypatch):
        # Codegen meets an operator it has no template for; a fresh
        # fragment memo and program cache make it emit every FSM.
        monkeypatch.delitem(syscompile._BINOP_TEMPLATES, "add")
        monkeypatch.setattr(syscompile, "_FRAGMENTS",
                            weakref.WeakKeyDictionary())
        monkeypatch.setattr(syscompile, "_SYSTEM_CACHE",
                            weakref.WeakKeyDictionary())

    def test_build_raises_model_error(self, no_add_template):
        system = generate_system(0)
        session = CosimSession(system.build_model(), **system.cosim_params)
        for _ in range(2):  # a refused build leaves the session untouched
            with pytest.raises(ModelError, match="cannot compile expression"):
                session.build()
        # The interpreted tier needs no codegen.
        interpreted = CosimSession(system.build_model(), tier="interpreted",
                                   **system.cosim_params)
        assert interpreted.run(until=5_000).tier == "interpreted"

    def test_cosim_job_records_the_refusal(self, no_add_template):
        report = SweepService([CosimJob(0)], workers=1).run()
        [record] = report.records
        assert record["error"].startswith(
            "ModelError: cannot compile expression")


class TestCheckpointUnderFused:
    def test_resume_matches_uninterrupted_fused_run(self):
        system = generate_system(4)
        straight = CosimSession(system.build_model(), **system.cosim_params)
        expected = straight.run(until=30_000)
        assert straight.tier == "fused"

        interrupted = CosimSession(system.build_model(),
                                   **system.cosim_params)
        interrupted.run(until=12_345)
        checkpoint = interrupted.save()
        resumed = CosimSession(system.build_model(),
                               **system.cosim_params).restore(checkpoint)
        actual = resumed.run(until=30_000)
        assert actual.summary() == expected.summary()

    def test_restore_in_place_reproduces_the_fingerprint(self):
        # A session restored to a checkpoint it already ran past replays
        # the same fused run, equal to the interpreted one.
        system = generate_system(4)
        session = CosimSession(system.build_model(), **system.cosim_params)
        session.run(until=10_000)
        checkpoint = session.save()
        first = cosim_fingerprint(session, session.run(until=30_000))
        session.restore(checkpoint)
        again = cosim_fingerprint(session, session.run(until=30_000))
        assert session.tier == "fused"
        reference = CosimSession(system.build_model(), tier="interpreted",
                                 **system.cosim_params)
        assert first == again == cosim_fingerprint(
            reference, reference.run(until=30_000))

    def test_each_session_binds_its_step_once(self, monkeypatch):
        binds = []
        original = CosimSession._system_bind

        def recording(session):
            binds.append(session)
            original(session)

        monkeypatch.setattr(CosimSession, "_system_bind", recording)
        system = generate_system(4)
        session = CosimSession(system.build_model(), **system.cosim_params)
        session.run(until=10_000)
        checkpoint = session.save()
        session.run(until=20_000)
        session.restore(checkpoint)
        session.run(until=30_000)
        assert binds == [session]
        resumed = CosimSession(system.build_model(), **system.cosim_params)
        resumed.restore(checkpoint).run(until=30_000)
        assert binds == [session, resumed]

    def test_raced_checkpoint_restores_only_into_interpreted(self):
        # detect_races runs the interpreted tier; the checkpoint says so,
        # and a fused session refuses it by name rather than fail on the
        # kernel's process registrations.
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


def _live_models():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, SystemModel)]


class TestSourceCache:
    def test_program_is_weakly_cached_per_model(self):
        model = generate_system(0).build_model()
        assert compile_system(model) is compile_system(model)

    def test_program_dies_with_its_last_session(self, monkeypatch):
        monkeypatch.setattr(syscompile, "_SYSTEM_CACHE",
                            weakref.WeakKeyDictionary())
        system = generate_system(1)
        session = CosimSession(system.build_model(), **system.cosim_params)
        result = session.run(until=20_000)
        assert session.tier == "fused"
        model = weakref.ref(session.model)
        assert len(syscompile._SYSTEM_CACHE) == 1
        del session, result
        gc.collect()
        assert model() is None
        assert len(syscompile._SYSTEM_CACHE) == 0

    def test_sweep_service_leaves_no_model_alive(self):
        before = _live_models()
        report = SweepService([CosimJob(seed) for seed in range(30)],
                              workers=1).run()
        assert len(report.records) == 30
        assert not report.errors
        del report
        leaked = [model for model in _live_models()
                  if not any(model is old for old in before)]
        assert leaked == []

    def test_source_is_the_code_that_runs(self, monkeypatch):
        # Every function compile_system compiles, and nothing else, is in
        # the generated source: the fragments in plan order, then the step.
        monkeypatch.setattr(syscompile, "_CODE_CACHE",
                            LruCache(syscompile.CODE_CACHE_SIZE))
        compiled = []
        monkeypatch.setattr(
            syscompile, "compile",
            lambda source, filename, mode: compiled.append(source)
            or compile(source, filename, mode), raising=False)
        model = generate_system(1).build_model()
        program = compile_system(model)
        chunks = generate_system_source(model).split("\n\n")
        assert len(chunks) == len(program.fragments) + 1
        assert chunks[-1].startswith("def _step(")
        assert sorted(set(chunks)) == sorted(compiled)

    def test_code_is_shared_across_bindings_but_not_structure(self):
        left = generate_system(6).build_model()
        right = generate_system(6).build_model()
        other = generate_system(7).build_model()
        programs = [compile_system(model) for model in (left, right, other)]
        assert programs[0] is not programs[1]
        codes = [[fragment.code for fragment in program.fragments]
                 + [program._fragment_step] for program in programs]
        assert all(a is b for a, b in zip(codes[0], codes[1]))
        assert codes[0] != codes[2]
        sources = [generate_system_source(model)
                   for model in (left, right, other)]
        assert sources[0] == sources[1] != sources[2]


class TestObserverParity:
    """The fused step's one observer site reproduces every StepResult."""

    @staticmethod
    def _counter_model():
        # A fused hardware FSM with a done state and a result variable.
        build = FsmBuilder("CNT")
        build.variable("N", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("N", var("N") + 1))
            state.go("Done", when=BinOp("ge", var("N"), Const(3)))
            state.stay()
        with build.state("Done", done=True) as state:
            state.stay()
        build.returns("N")
        model = SystemModel("ObservedCounter")
        model.add_hardware_module(
            HardwareModule("Cnt", [build.build(initial="Run")]))
        return model, {}

    @staticmethod
    def _instances(session):
        """Every FSM instance of *session* by a tier-independent name."""
        instances = dict(session.controller_instances)
        for name, adapter in session.hw_adapters.items():
            for fsm_name, instance in adapter.instances.items():
                instances[f"{name}.{fsm_name}"] = instance
            for service in adapter.registry.instances():
                instances[f"{name}/{service.instance.fsm.name}"] = \
                    service.instance
        for name, executor in session.sw_executors.items():
            instances[name] = executor.instance
        return instances

    @classmethod
    def _observed_steps(cls, model, tier, params, until):
        session = CosimSession(model, tier=tier, **params)
        session.build()
        assert session.tier == tier
        instances = cls._instances(session)
        steps = {name: [] for name in instances}
        for name, instance in instances.items():
            instance.observer = lambda r, log=steps[name]: log.append(
                (r.from_state, r.to_state, r.fired, r.done, r.result,
                 r.called))
        session.run(until=until)
        return steps

    @pytest.mark.parametrize("source", [0, 1, 4, 9, 12, "counter"])
    def test_fused_and_interpreted_observers_see_equal_steps(self, source):
        runs = []
        for tier in ("fused", "interpreted"):
            if source == "counter":
                model, params = self._counter_model()
            else:
                system = generate_system(source)
                model, params = system.build_model(), system.cosim_params
            runs.append(self._observed_steps(model, tier, params, 20_000))
        assert runs[0] == runs[1]
        steps = [step for log in runs[0].values() for step in log]
        assert any(done for _, _, _, done, _, _ in steps)
        if source == "counter":
            assert ("Run", "Done", True, True, 3, None) in steps
        else:
            assert any(called for *_, called in steps)


def _mix(dst, taps, modulus):
    """``dst = (weighted mix of taps) mod modulus`` as a deep BinOp tree."""
    acc = BinOp("mul", var(taps[0][0]), taps[0][1])
    for name, weight in taps[1:]:
        acc = BinOp("add", acc, BinOp("mul", var(name), weight))
    return Assign(dst, BinOp("mod", BinOp("add", acc, 13), modulus))


def _datapath_fsm(name, inits):
    """A three-state FSM with a filter-style datapath in every state."""
    build = FsmBuilder(name)
    regs = [f"R{index}" for index in range(8)]
    for reg, init in zip(regs, inits):
        build.variable(reg, INT, init)
    build.variable("ACC", INT, 0)

    def stage(state, rotation):
        rotated = regs[rotation:] + regs[:rotation]
        for position, reg in enumerate(rotated):
            taps = [(rotated[(position + offset) % len(rotated)],
                     3 + 2 * offset) for offset in range(3)]
            state.do(_mix(reg, taps, 251 + 2 * position))
        state.do(Assign("ACC", BinOp(
            "mod",
            BinOp("add", var("ACC"),
                  BinOp("add", BinOp("mul", var(rotated[0]), var(rotated[1])),
                        BinOp("max", var(rotated[2]), var(rotated[3])))),
            65521,
        )))

    with build.state("Fetch") as state:
        stage(state, 0)
        state.go("Execute", when=BinOp("ge", var("ACC"), 1024))
        state.go("Execute")
    with build.state("Execute") as state:
        stage(state, 3)
        state.go("Commit", when=BinOp("lt", var("R0"), var("R4")))
        state.go("Commit")
    with build.state("Commit") as state:
        stage(state, 5)
        state.go("Fetch")
    return build.build(initial="Fetch")


def _datapath_model(modules=32):
    model = SystemModel(f"Datapath{modules}")
    for index in range(modules):
        inits = [(7 * index + 3 * reg) % 250 + 1 for reg in range(8)]
        model.add_hardware_module(HardwareModule(
            f"Dp{index}", [_datapath_fsm(f"DP{index}", inits)]))
    return model


def _bound_fragments(session):
    """The fragment functions bound into *session*'s fragment step."""
    return [default for default in session._fused_process.func.__defaults__
            if getattr(default, "__name__", None) == "_fragment"]


class TestFragmentForms:
    """What the emitted fragments of the benchmark populations contain."""

    @staticmethod
    def _sources():
        yield generate_system_source(_datapath_model(2))
        for seed in range(0, 2000, 4):
            yield generate_system_source(generate_system(seed).build_model())

    def test_variables_read_from_locals_and_no_builtin_calls(self):
        for source in self._sources():
            assert "max(" not in source and "min(" not in source
            assert "bool(" not in source
            # The only environment accesses left are first-read loads into
            # a local and write-through stores.
            rest = re.sub(r"\(x_(\w+) := _e\['\1'\]\)", "", source)
            rest = re.sub(r"_e\['(\w+)'\] = x_\1 = ", "", rest)
            assert "_e[" not in rest


class TestFragmentCache:
    """One code object per fragment source, shared across models."""

    def test_shared_protocol_template_binds_one_controller_code(self):
        codes = []
        for seed in (1, 3):
            system = generate_system(seed)
            session = CosimSession(system.build_model(),
                                   **system.cosim_params)
            session.build()
            protocols = {f"{unit.name}.{controller.name}": controller.protocol
                         for unit in session.model.comm_units.values()
                         for controller in unit.controllers}
            plan = session.system_program.plan
            codes.append([
                fragment.__code__ for cand, fragment
                in zip(plan.candidates, _bound_fragments(session))
                if protocols.get(cand.label) == "handshake"
            ])
        assert codes[0] and codes[1]
        assert all(code is codes[0][0] for code in codes[0] + codes[1])

    def test_datapath_model_compiles_one_fragment(self, monkeypatch):
        monkeypatch.setattr(syscompile, "_CODE_CACHE",
                            LruCache(syscompile.CODE_CACHE_SIZE))
        compiled = []
        monkeypatch.setattr(
            syscompile, "compile",
            lambda source, filename, mode: compiled.append(filename)
            or compile(source, filename, mode), raising=False)
        model = _datapath_model()
        program = compile_system(model)
        assert len(program.fragments) == 32
        assert len({id(fragment.code) for fragment in program.fragments}) == 1
        # A long session compiles nothing more: 4,000 edges is past the
        # ~3,960 at which a compile of all 2,112 fragment lines as one
        # inlined step would have repaid itself.
        session = CosimSession(model, clock_period=20)
        session.run(until=20 * 4_000)
        assert session.fsm_counters()["system_compile_hits"] \
            == 32 * 4_001
        assert compiled == ["<syscompile:fragment>", "<syscompile:step>"]

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_datapath_model_matches_the_interpreter(self, kernel):
        fingerprints = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(_datapath_model(), clock_period=20,
                                   kernel=kernel, tier=tier)
            result = session.run(until=400)
            assert session.tier == tier
            fingerprints.append(cosim_fingerprint(session, result))
        assert fingerprints[0] == fingerprints[1]

    def test_cache_stays_bounded_and_recompiles_identically(self,
                                                            monkeypatch):
        monkeypatch.setattr(syscompile, "_CODE_CACHE", LruCache(4))
        system = generate_system(0)
        first = compile_system(system.build_model())
        codes = [fragment.code for fragment in first.fragments]
        codes.append(first._fragment_step)
        for seed in range(1, 8):
            compile_system(generate_system(seed).build_model())
            assert len(syscompile._CODE_CACHE) <= 4
        model = system.build_model()
        again = compile_system(model)
        recompiled = [fragment.code for fragment in again.fragments]
        recompiled.append(again._fragment_step)
        assert recompiled == codes
        assert any(new is not old for new, old in zip(recompiled, codes))
        session = CosimSession(model, **system.cosim_params)
        result = session.run(until=20_000)
        assert session.system_program is again
        reference = CosimSession(system.build_model(), tier="interpreted",
                                 **system.cosim_params)
        assert cosim_fingerprint(session, result) == cosim_fingerprint(
            reference, reference.run(until=20_000))


class TestJobDigests:
    """Fused job digests equal the interpreted ones, seed for seed."""

    def test_fused_job_digests_match_the_interpreter(self):
        seeds = range(60)
        fused = [CosimJob(seed).execute()[0]["fingerprint_digest"]
                 for seed in seeds]
        interpreted = [CosimJob(seed, tier="interpreted").execute()[0]
                       ["fingerprint_digest"] for seed in seeds]
        assert fused == interpreted


class TestRaisingStep:
    """A raising fused step adds no transactions."""

    @staticmethod
    def _controller(name, reads, writes, raising=False, late=False):
        build = FsmBuilder(name)
        build.variable("N", INT, 0)
        if late:
            # A port write and an assignment before the first read of N.
            build.variable("M", INT, 0)
        with build.state("Run") as state:
            if late:
                state.do(PortWrite(writes, Const(1)),
                         Assign("M", var("M") + 1))
            state.do(Assign("N", BinOp("mod", var("N") + port(reads),
                                       Const(1000))))
            state.do(PortWrite(writes, var("N") + 1))
            state.stay()
        if raising:
            with build.state("Call") as state:
                state.call("Missing", then="Run")
        return CommunicationController(name, build.build(initial="Run"))

    def _model(self, late=False):
        wires = [Port(name, dtype=word_type(16)) for name in "ABC"]
        model = SystemModel("RaisingStep")
        model.add_comm_unit(CommunicationUnit("Ring", ports=wires, controllers=[
            self._controller("C0", "C", "A"),
            self._controller("C1", "A", "B", raising=True, late=late),
            self._controller("C2", "B", "C"),
        ]))
        return model

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    @pytest.mark.parametrize("kind,message", [
        ("undefined", "undefined variable 'N'"),
        ("unbound", "FSM 'C1' calls service 'Missing' but no call handler "
                    "is bound"),
    ])
    def test_second_candidate_raises_and_nothing_is_flushed(self, kind,
                                                            message, kernel):
        session = CosimSession(self._model(), kernel=kernel)
        session.run(until=1_000)
        assert session.tier == "fused"
        instances = session.controller_instances
        if kind == "undefined":
            del instances["Ring.C1"].env["N"]
        else:
            instances["Ring.C1"].current = "Call"
        with pytest.raises(SimulationError, match=f"^{message}$"):
            session.run(until=2_000)
        # 11 completed edges added their 33 writes; the twelfth counted
        # its first two candidates' steps and nothing else (the two extra
        # transactions are its clock toggles).  The fused-step count is
        # the candidates' steps, so it includes those two started steps.
        assert session.simulator.statistics["transactions"] == 56
        assert {name: instance.steps for name, instance in instances.items()} \
            == {"Ring.C0": 12, "Ring.C1": 12, "Ring.C2": 11}
        assert session.fsm_counters()["system_compile_hits"] == 35

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    @pytest.mark.parametrize("where,name", [("controller", "C1"),
                                            ("hardware", "DP")])
    def test_unknown_state_raises_the_interpreters_error(self, where, name,
                                                         kernel):
        runs = []
        for tier in ("fused", "interpreted"):
            model = self._model()
            build = FsmBuilder("DP")
            build.variable("K", INT, 0)
            with build.state("Run") as state:
                state.stay(actions=[Assign("K", var("K") + 1)])
            model.add_hardware_module(
                HardwareModule("Dp", [build.build(initial="Run")]))
            session = CosimSession(model, kernel=kernel, tier=tier)
            session.run(until=1_000)
            assert session.tier == tier
            if where == "controller":
                instance = session.controller_instances["Ring.C1"]
            else:
                instance = session.hw_adapters["Dp"].instances["DP"]
            instance.current = "Nowhere"
            with pytest.raises(ModelError) as raised:
                session.run(until=2_000)
            runs.append((str(raised.value),
                         [each.steps for each in session.fsm_instances()]))
        assert runs[0] == runs[1]
        assert runs[0][0] == f"FSM {name!r}: unknown state 'Nowhere'"

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_deleted_variable_raises_after_the_same_writes(self, kernel):
        # C1 writes a port and M before it first reads the deleted N: the
        # fused step must raise where the interpreter does, not earlier.
        runs = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(self._model(late=True), kernel=kernel,
                                   tier=tier)
            session.run(until=1_000)
            assert session.tier == tier
            instances = session.controller_instances
            del instances["Ring.C1"].env["N"]
            with pytest.raises(SimulationError,
                               match="^undefined variable 'N'$"):
                session.run(until=2_000)
            runs.append((
                [(signal.name, value)
                 for signal, value in session.simulator._delta_queue],
                {name: dict(instance.env)
                 for name, instance in instances.items()},
            ))
        assert runs[0] == runs[1]
        queued, envs = runs[0]
        assert [name for name, _ in queued] == ["Ring_A", "Ring_B"]
        assert envs["Ring.C1"] == {"M": 12}


class TestLintLeavesTheTierAlone:
    """Structural lint errors refuse a session; no finding picks its tier."""

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_is_refused_or_fuses_identically(self, name):
        # Structural errors refuse the session; every other mutant,
        # extended-stage errors included, runs fused.
        builder, rule = MUTANTS[name]
        catalog = RULES_BY_ID[rule]
        if catalog.structural and catalog.severity == "error":
            with pytest.raises(ValidationError):
                CosimSession(builder())
            return
        digests = set()
        for kernel in ("production", "reference"):
            for tier in ("fused", "interpreted"):
                session = CosimSession(builder(), kernel=kernel, tier=tier)
                result = session.run(until=5_000)
                assert session.tier == tier
                digests.add(content_digest(cosim_fingerprint(session,
                                                             result)))
        assert len(digests) == 1


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

    # The dividend N is first read here: it is loaded into its local x_N,
    # which then serves as the temporary.  The next line reads x_N.
    @pytest.mark.parametrize("op,divisor,inline", [
        ("div", 3, "(x_N // 3 if (x_N := _e['N']) >= 0 else -(-x_N // 3))"),
        ("div", -3, "(-(x_N // 3) if (x_N := _e['N']) >= 0 else -x_N // 3)"),
        ("mod", 3, "((x_N := _e['N']) % (3 if x_N >= 0 else -3))"),
        ("mod", -3, "((x_N := _e['N']) % (3 if x_N >= 0 else -3))"),
    ])
    def test_inline_form_matches_across_tiers(self, op, divisor, inline):
        source = generate_system_source(self._model(op, divisor))
        assert f"_e['Q'] = x_Q = {inline}\n" in source
        assert "_e['N'] = x_N = (x_N + 3)\n" in source
        assert "_div(" not in source and "_mod(" not in source
        fingerprints = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(self._model(op, divisor), tier=tier)
            result = session.run(until=2_000)
            assert session.tier == tier
            fingerprints.append(cosim_fingerprint(session, result))
        assert fingerprints[0] == fingerprints[1]

    @staticmethod
    def _builtin_model():
        build = FsmBuilder("MINMAX")
        build.variable("A", INT, 3)
        build.variable("B", BOOL, True)
        build.variable("M", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("M", BinOp("max", var("A"), var("B"))))
            state.do(Assign("A", BinOp("min", var("A") - 1, var("B"))))
            state.do(Assign("B", BinOp("xor", var("A"), Const(1))))
            state.go("Run", when=BinOp("xor", var("M"), var("B")))
            state.stay()
        model = SystemModel("InlineBuiltins")
        model.add_hardware_module(
            HardwareModule("Mm", [build.build(initial="Run")]))
        return model

    def test_min_max_xor_call_no_builtin(self):
        source = generate_system_source(self._builtin_model())
        for line in [
            "_e['M'] = x_M = (x_B if ((x_A := _e['A']) or 1) and "
            "(x_B := _e['B']) > x_A else x_A)",
            "_e['A'] = x_A = (x_B if ((_b1 := (x_A - 1)) or 1) and "
            "x_B < _b1 else _b1)",
            "_e['B'] = x_B = (1 if (not x_A) != (not 1) else 0)",
            "if ((not x_M) != (not x_B)):",
        ]:
            assert f" {line}\n" in source
        assert "max(" not in source and "min(" not in source
        assert "bool(" not in source
        fingerprints = []
        for tier in ("fused", "interpreted"):
            session = CosimSession(self._builtin_model(), tier=tier)
            result = session.run(until=2_000)
            assert session.tier == tier
            fingerprints.append(cosim_fingerprint(session, result))
        assert fingerprints[0] == fingerprints[1]

    @pytest.mark.parametrize("op,message", [
        ("min", "'<' not supported between instances of 'str' and 'int'"),
        ("max", "'>' not supported between instances of 'str' and 'int'"),
        ("add", "unsupported operand type(s) for +: 'int' and 'str'"),
    ])
    def test_unlike_operands_raise_one_simulation_error(self, op, message):
        # An enum literal against an int: both tiers map the step's
        # TypeError to one SimulationError naming the FSM and the state.
        expected = f"FSM 'MIXED' in state 'Run': TypeError: {message}"
        for tier in ("fused", "interpreted"):
            build = FsmBuilder("MIXED")
            build.variable("A", INT, 1)
            build.variable("M", INT, 0)
            with build.state("Run") as state:
                state.do(Assign("M", BinOp(op, var("A"), Const("IDLE"))))
                state.stay()
            model = SystemModel("UnlikeOperands")
            model.add_hardware_module(
                HardwareModule("Ul", [build.build(initial="Run")]))
            session = CosimSession(model, tier=tier)
            session.build()
            assert session.tier == tier
            with pytest.raises(SimulationError) as error:
                session.run(until=1_000)
            assert str(error.value) == expected
            assert isinstance(error.value.__cause__, TypeError)

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    @pytest.mark.parametrize("op,message", [
        ("div", "division by zero in IR expression"),
        ("mod", "modulo by zero in IR expression"),
    ])
    def test_zero_constant_divisor_raises_at_run_time(self, tier, op,
                                                      message):
        session = CosimSession(self._model(op, 0), tier=tier)
        session.build()  # code generation accepts the constant zero
        assert session.tier == tier
        with pytest.raises(SimulationError, match=f"^{message}$"):
            session.run(until=1_000)
