"""CosimSession save/resume round-trips.

Pins the sweep layer's checkpoint contract: a session saved mid-run and
restored into a freshly built session resumes **byte-identically** to an
uninterrupted run — same waveform dump, same service-call trace table,
same states, counters and statistics — on both kernels and across
generator seeds; and checkpoints survive pickling to disk.
"""

import pickle

import pytest

from repro.core import HardwareModule, SystemModel
from repro.cosim import CosimSession
from repro.desim import Monitor
from repro.ir.builder import FsmBuilder
from repro.ir.dtypes import INT
from repro.ir.expr import var
from repro.ir.stmt import Assign
from repro.testkit.models import generate_system
from repro.testkit.oracles import cosim_fingerprint, run_session_to_completion
from repro.testkit.scenarios import FAULT_MAX_TIME, FaultScenario
from repro.utils.errors import SimulationError


def make_session(system, kernel="production"):
    return CosimSession(system.build_model(), kernel=kernel,
                        **system.cosim_params)


class TestSessionCheckpoint:
    @pytest.mark.parametrize("kernel", ["production", "reference"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_resume_matches_uninterrupted_completion_run(self, kernel, seed):
        system = generate_system(seed)
        straight = make_session(system, kernel)
        expected = cosim_fingerprint(
            straight, run_session_to_completion(straight, system.expectations)
        )

        interrupted = make_session(system, kernel)
        interrupted.run(until=1700)  # off the completion-check grid on purpose
        blob = pickle.dumps(interrupted.save())

        resumed = make_session(system, kernel)
        resumed.restore(pickle.loads(blob))
        actual = cosim_fingerprint(
            resumed, run_session_to_completion(resumed, system.expectations)
        )
        assert actual == expected

    @pytest.mark.parametrize("seed", [1, 4])
    def test_resume_matches_uninterrupted_fixed_horizon_run(self, seed):
        system = generate_system(seed)
        straight = make_session(system)
        expected = cosim_fingerprint(straight, straight.run(until=30_000))

        interrupted = make_session(system)
        interrupted.run(until=12_345)
        checkpoint = interrupted.save()
        resumed = make_session(system).restore(checkpoint)
        actual = cosim_fingerprint(resumed, resumed.run(until=30_000))
        assert actual == expected

    def test_checkpoint_chain_of_checkpoints(self):
        system = generate_system(2)
        straight = make_session(system)
        expected = cosim_fingerprint(straight, straight.run(until=24_000))

        session = make_session(system)
        for cut in (3_000, 9_500, 17_777):
            session.run(until=cut)
            session = make_session(system).restore(session.save())
        actual = cosim_fingerprint(session, session.run(until=24_000))
        assert actual == expected

    def test_save_before_any_run_checkpoints_time_zero(self):
        system = generate_system(0)
        checkpoint = make_session(system).save()
        straight = make_session(system)
        expected = cosim_fingerprint(straight, straight.run(until=8_000))
        resumed = make_session(system).restore(checkpoint)
        actual = cosim_fingerprint(resumed, resumed.run(until=8_000))
        assert actual == expected

    def test_monitor_state_travels_with_the_checkpoint(self):
        system = generate_system(0)
        session = make_session(system)
        session.add_monitor(Monitor("always_fails", lambda sim: False))
        session.run(until=500)
        checkpoint = session.save()
        violations_at_cut = len(session.monitors[0].violations)
        assert violations_at_cut > 0

        resumed = make_session(system)
        resumed.add_monitor(Monitor("always_fails", lambda sim: False))
        resumed.restore(checkpoint)
        assert len(resumed.monitors[0].violations) == violations_at_cut
        assert resumed.monitors[0].checks == session.monitors[0].checks

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_restore_mid_stuck_handshake_resumes_byte_identically(self, kernel):
        """A checkpoint taken *inside* a fault window survives the round-trip.

        The save lands while the acknowledge strobe is still forced low —
        the injector's cursor sits between the force and release events,
        and the signal's force/shadow state must travel with the
        checkpoint for the release to restore the correct value.
        """
        scenario = FaultScenario(2, kind="stuck_handshake")
        in_window = scenario.at + scenario.duration // 2

        straight = scenario.build_session(kernel)
        expected = cosim_fingerprint(
            straight,
            run_session_to_completion(straight, scenario.system.expectations,
                                      max_time=FAULT_MAX_TIME),
        )

        interrupted = scenario.build_session(kernel)
        interrupted.run(until=in_window)
        injector = next(iter(interrupted.fault_injectors.values()))
        assert injector.cursor == 1, "save must land between force and release"
        forced_event = injector.plan.events[0]
        assert interrupted.unit_signal(forced_event.unit,
                                       forced_event.port).forced
        blob = pickle.dumps(interrupted.save())

        resumed = scenario.build_session(kernel).restore(pickle.loads(blob))
        assert resumed.unit_signal(forced_event.unit, forced_event.port).forced
        actual = cosim_fingerprint(
            resumed,
            run_session_to_completion(resumed, scenario.system.expectations,
                                      max_time=FAULT_MAX_TIME),
        )
        assert actual == expected

    @pytest.mark.parametrize("kind", ["dropped_handshake", "bus_contention",
                                      "reset_mid_transaction"])
    def test_restore_round_trips_every_fault_kind(self, kind):
        scenario = FaultScenario(4, kind=kind, unit_index=1)
        straight = scenario.build_session()
        expected = cosim_fingerprint(
            straight,
            run_session_to_completion(straight, scenario.system.expectations,
                                      max_time=FAULT_MAX_TIME),
        )
        interrupted = scenario.build_session()
        interrupted.run(until=scenario.at + 1)
        resumed = scenario.build_session().restore(interrupted.save())
        actual = cosim_fingerprint(
            resumed,
            run_session_to_completion(resumed, scenario.system.expectations,
                                      max_time=FAULT_MAX_TIME),
        )
        assert actual == expected

    def test_restore_refuses_format_3_checkpoint(self):
        # Format 3 kept the count of fused steps handed back to the
        # interpreter, which can no longer be nonzero.
        system = generate_system(0)
        straight = make_session(system)
        expected = cosim_fingerprint(straight, straight.run(until=30_000))

        interrupted = make_session(system)
        interrupted.run(until=12_345)
        checkpoint = interrupted.save()
        assert checkpoint["format"] == 4
        assert "system_fallback" not in checkpoint
        checkpoint["format"] = 3
        checkpoint["system_fallback"] = 0
        session = make_session(system).build()
        with pytest.raises(SimulationError,
                           match="unsupported session checkpoint format 3"):
            session.restore(checkpoint)
        # Left as built: it runs as if the restore had not been tried.
        assert session.simulator.now == 0
        actual = cosim_fingerprint(session, session.run(until=30_000))
        assert actual == expected

    def test_restore_rejects_parameter_mismatch(self):
        system = generate_system(0)
        checkpoint = make_session(system).save()
        other = CosimSession(system.build_model(), kernel="reference",
                             **system.cosim_params)
        with pytest.raises(SimulationError, match="does not match"):
            other.restore(checkpoint)

    def test_restore_rejects_different_system(self):
        checkpoint = make_session(generate_system(0)).save()
        other_system = generate_system(1)
        other = make_session(other_system)
        with pytest.raises(SimulationError, match="does not match"):
            other.restore(checkpoint)

    @staticmethod
    def _one_process_model(process):
        """A model ``Same`` whose hardware module ``Cnt`` runs one counting
        process FSM named *process*."""
        build = FsmBuilder(process)
        build.variable("N", INT, 0)
        with build.state("Run") as state:
            state.stay(actions=[Assign("N", var("N") + 1)])
        model = SystemModel("Same")
        model.add_hardware_module(
            HardwareModule("Cnt", [build.build(initial="Run")]))
        return model

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    def test_restore_rejects_renamed_process_before_changing_anything(
            self, tier):
        saved = CosimSession(self._one_process_model("P1"), tier=tier)
        saved.run(until=1_000)
        checkpoint = saved.save()
        session = CosimSession(self._one_process_model("P2"),
                               tier=tier).build()
        statistics = dict(session.simulator.statistics)
        states = [(fsm.current, dict(fsm.env), fsm.steps)
                  for fsm in session.fsm_instances()]
        with pytest.raises(SimulationError, match="hardware adapters"):
            session.restore(checkpoint)
        assert session.simulator.now == 0
        assert session.simulator.statistics == statistics
        assert [(fsm.current, dict(fsm.env), fsm.steps)
                for fsm in session.fsm_instances()] == states

    @pytest.mark.parametrize("what", ["controllers", "software executors",
                                      "hardware adapters"])
    def test_restore_rejects_foreign_fsm_or_service_names(self, what):
        system = generate_system(4)  # controllers, software and hardware
        session = make_session(system)
        session.run(until=1_000)
        checkpoint = session.save()
        if what == "controllers":
            state = next(iter(checkpoint["controllers"].values()))
            state["fsm"] = "Foreign"
        elif what == "software executors":
            state = next(iter(checkpoint["sw_executors"].values()))
            services = state["services"]
            services["Foreign"] = services.pop(next(iter(services)))
        else:
            state = next(iter(checkpoint["hw_adapters"].values()))
            instance = next(iter(state["instances"].values()))
            instance["fsm"] = "Foreign"
        fresh = make_session(system).build()
        with pytest.raises(SimulationError, match=what):
            fresh.restore(checkpoint)
        assert fresh.simulator.now == 0
        assert all(fsm.steps == 0 for fsm in fresh.fsm_instances())

    def test_restore_rejects_missing_monitor(self):
        system = generate_system(0)
        session = make_session(system)
        session.run(until=900)
        session.add_monitor(Monitor("probe", lambda sim: True))
        checkpoint = session.save()
        bare = make_session(system)
        with pytest.raises(SimulationError, match="monitors"):
            bare.restore(checkpoint)
        # A refused restore must not leave a half-restored hybrid: the
        # session is still the fresh build and runs from scratch.
        assert bare.simulator.now == 0
        assert len(bare.trace) == 0
        result = run_session_to_completion(bare, system.expectations)
        straight = make_session(system)
        straight_result = run_session_to_completion(straight,
                                                    system.expectations)
        assert cosim_fingerprint(bare, result) == \
            cosim_fingerprint(straight, straight_result)
