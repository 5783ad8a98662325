"""The kernel's steady-period skip is unobservable.

Once one whole clock period leaves a co-simulation exactly as it found it
(every FSM state and variable, every non-clock signal, the service trace),
``Simulator._clock_edges`` accounts the further whole periods before
``until`` arithmetically instead of firing them.  Every test here runs
the same scenario three ways — skip on, skip forced off (by patching the
kernel's skip into a no-op) and on the naive reference kernel — and
demands identical observables: fingerprints, waveforms, FSM counters and,
between skip on and off, byte-identical ``save()`` checkpoints.  The
guard tests pin what must keep the skip off.
"""

import pickle

import pytest

from repro.comm.channels import shared_register_channel
from repro.core import HardwareModule, SystemModel
from repro.cosim import CosimSession
from repro.cosim.faults import FaultEvent, FaultPlan
from repro.desim import Monitor, ReferenceSimulator, SignalChange, Simulator
from repro.ir.builder import FsmBuilder
from repro.ir.dtypes import word_type
from repro.obs import TELEMETRY
from repro.testkit.models import generate_system
from repro.testkit.oracles import cosim_fingerprint

#: ``run(until)`` slices; the session is saved and restored into a fresh
#: one before the slice at :data:`RESTORE_AT`.
SLICES = (3_000, 7_001, 12_000, 20_000, 30_000)
RESTORE_AT = 3

#: One generated system with 20 ns, one with 60 ns clock periods.
SEEDS = (5, 7)


def _skip_off(monkeypatch):
    monkeypatch.setattr(Simulator, "_skip_periods",
                        lambda self, base, wait, until: None)


def _session(system, kernel="production", tier=None, setup=None):
    session = CosimSession(system.build_model(), kernel=kernel, tier=tier,
                           **system.cosim_params)
    if setup is not None:
        setup(session)
    return session


def _run(system, kernel="production", tier=None, telemetry=False,
         setup=None, slices=SLICES, restore_at=RESTORE_AT):
    """Observables after every slice, the last checkpoint's bytes and
    the edges skipped, across one save()/restore() into a new session."""
    if telemetry:
        TELEMETRY.enable()
    try:
        session = _session(system, kernel, tier, setup)
        observed = []
        skipped = 0
        for index, until in enumerate(slices):
            if index == restore_at:
                checkpoint = pickle.loads(pickle.dumps(session.save()))
                skipped += session.simulator.clock_skipped_edges
                session = _session(system, kernel, tier, setup)
                session.restore(checkpoint)
            result = session.run(until=until)
            observed.append({"fingerprint": cosim_fingerprint(session, result),
                             "fsm": session.fsm_counters()})
        skipped += session.simulator.clock_skipped_edges
        return observed, pickle.dumps(session.save()), skipped
    finally:
        if telemetry:
            TELEMETRY.disable()
            TELEMETRY.reset()


class TestThreeWays:
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_skip_on_off_and_reference_agree(self, seed, tier, telemetry,
                                             monkeypatch):
        system = generate_system(seed)
        on, on_checkpoint, skipped = _run(system, tier=tier,
                                          telemetry=telemetry)
        reference, _, _ = _run(system, kernel="reference", tier=tier,
                               telemetry=telemetry)
        _skip_off(monkeypatch)
        off, off_checkpoint, off_skipped = _run(system, tier=tier,
                                                telemetry=telemetry)
        # Bound telemetry keeps the skip off; without it the quiet tail
        # after the transfers is skipped.
        assert (skipped == 0) if telemetry else (skipped > 0)
        assert off_skipped == 0
        assert on == off == reference
        assert on_checkpoint == off_checkpoint
        # The waveform holds every clock toggle a full run records.
        dump = on[-1]["fingerprint"]["waveform_dump"]
        assert dump.count(" hwclk ") == 2 * SLICES[-1] // (
            system.cosim_params["clock_period"]) + 1

    def test_unrecorded_session_skips_to_the_same_checkpoint(self,
                                                             monkeypatch):
        def untraced(session):
            session.trace_signals = False

        system = generate_system(977, networks=2)
        on, on_checkpoint, skipped = _run(system, setup=untraced)
        _skip_off(monkeypatch)
        off, off_checkpoint, _ = _run(system, setup=untraced)
        assert skipped > 0
        assert on == off
        assert on_checkpoint == off_checkpoint


def _guarded(system, setup, monkeypatch, tier=None):
    """Run *system* with *setup* on the production kernel, with the skip
    forced off and on the reference kernel; check that all three
    fingerprints agree and return the production session."""
    runs = []
    for kernel in ("production", "reference"):
        session = _session(system, kernel, tier, setup)
        for until in SLICES:
            result = session.run(until=until)
        runs.append((session, cosim_fingerprint(session, result)))
    with monkeypatch.context() as patch:
        _skip_off(patch)
        session = _session(system, "production", tier, setup)
        for until in SLICES:
            result = session.run(until=until)
        runs.append((session, cosim_fingerprint(session, result)))
    (production, fingerprint), (_, reference), (_, off) = runs
    assert fingerprint == reference == off
    return production


class TestGuards:
    def test_foreign_clocked_process_sees_every_edge(self, monkeypatch):
        counts = {}

        def hook(session):
            simulator = session.simulator
            key = id(session)
            counts[key] = 0

            def count_edge():
                counts[key] += 1

            simulator.add_clocked_process("edge_counter", count_edge,
                                          session.clock)

        def setup(session):
            session.add_environment(hook)

        system = generate_system(5)
        session = _guarded(system, setup, monkeypatch)
        assert session.simulator.clock_skipped_edges == 0
        period = system.cosim_params["clock_period"]
        # Rising edges at 0, period, ..., the last slice's end.
        assert counts[id(session)] == SLICES[-1] // period + 1

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    def test_observed_controllers_see_every_step(self, tier, monkeypatch):
        observed = {}

        def setup(session):
            session.build()
            for instance in session.controller_instances.values():
                log = observed[instance] = []
                instance.observer = log.append

        system = generate_system(5)
        session = _guarded(system, setup, monkeypatch, tier=tier)
        assert session.simulator.clock_skipped_edges == 0
        edges = SLICES[-1] // system.cosim_params["clock_period"] + 1
        for instance in session.controller_instances.values():
            assert len(observed[instance]) == instance.steps == edges

    def test_monitor_keeps_the_skip_off(self, monkeypatch):
        def setup(session):
            session.add_monitor(Monitor("inert", lambda simulator: True))

        session = _guarded(generate_system(5), setup, monkeypatch)
        assert session.simulator.clock_skipped_edges == 0

    def test_fault_due_mid_slice_is_not_skipped(self, monkeypatch):
        system = generate_system(5)
        unit = next(iter(system.build_model().comm_units))
        at = 15_037  # inside the quiet tail, off the clock-edge grid

        def setup(session):
            session.add_fault_plan(FaultPlan(
                "late_reset", [FaultEvent(at, "reset_unit", unit)]))

        session = _guarded(system, setup, monkeypatch)
        # The plan held the skip off until its last event fired; the
        # tail after it is quiet again and skipped.
        assert session.fault_injectors["late_reset"].cursor == 1
        assert session.simulator.clock_skipped_edges > 0
        early = _session(system, setup=setup)
        early.run(until=at)
        assert early.simulator.clock_skipped_edges == 0
        plain = _session(system)
        plain.run(until=at)
        assert plain.simulator.clock_skipped_edges > 0

    def test_service_polled_every_edge_keeps_every_record(self,
                                                          monkeypatch):
        # Each poll completes a one-step service call: nothing but the
        # trace changes from one period to the next.
        build = FsmBuilder("POLLER")
        build.variable("RX", word_type(16), 0)
        with build.state("Poll") as state:
            state.call("Sample", store="RX", then="Poll")
        model = SystemModel("Polling")
        model.add_comm_unit(shared_register_channel(
            "Reg", put_name="Write", get_name="Sample", prefix="SR"))
        model.add_hardware_module(
            HardwareModule("Poller", [build.build(initial="Poll")]))
        model.bind("Poller", "Sample", "Reg")

        class Polling:
            cosim_params = {"clock_period": 20}

            @staticmethod
            def build_model():
                return model

        session = _guarded(Polling, None, monkeypatch)
        assert session.simulator.clock_skipped_edges == 0
        assert len(session.trace) == SLICES[-1] // 20 + 1


class TestKernelKey:
    @staticmethod
    def build(sim):
        """From t=500 on (``enable`` high), a clocked process re-schedules
        a held value 1 us ahead on every rising edge: no signal changes,
        but every period adds a pending transaction beyond the next
        period, so no period after t=500 is steady."""
        clk = sim.add_clock("clk", period=10)
        enable = sim.add_signal("enable", init=0)
        held = sim.add_signal("held", init=0)
        sim.schedule(enable, 1, 500)

        def on_edge():
            if clk.value == 1 and enable.value:
                sim.schedule(held, 0, 1_000)

        sim.add_process("delayer", on_edge, sensitivity=[clk],
                        initial_run=False)
        sim._steady_probe = lambda: ((), tuple)
        return sim

    @staticmethod
    def snapshots(build, monkeypatch):
        """``(skipped edges, snapshot)`` with the skip on, then forced off,
        and the reference kernel's statistics."""
        runs = []
        for factory, skip in ((Simulator, True), (Simulator, False),
                              (ReferenceSimulator, True)):
            if not skip:
                _skip_off(monkeypatch)
            sim = build(factory())
            for until in (1_000, 2_345, 5_000):
                sim.run(until=until)
            runs.append((sim.clock_skipped_edges, sim.snapshot()))
            monkeypatch.undo()
        (skipped, on), (off_skipped, off), (_, reference) = runs
        assert off_skipped == 0
        assert on == off
        assert on["statistics"] == reference["statistics"]
        return skipped

    def test_a_period_that_schedules_is_not_steady(self, monkeypatch):
        # Only the idle stretch before t=500 (100 edges) may be skipped.
        assert 0 < self.snapshots(self.build, monkeypatch) < 100

    def test_a_toggling_signal_is_not_steady(self, monkeypatch):
        def toggling(sim):
            clk = sim.add_clock("clk", period=10)
            flag = sim.add_signal("flag", init=0)
            sim.add_clocked_process(
                "flip", lambda: sim.schedule(flag, 1 - flag.value), clk)
            sim._steady_probe = lambda: ((), tuple)
            return sim

        assert self.snapshots(toggling, monkeypatch) == 0

    def test_a_generator_waiting_on_the_clock_sees_every_edge(self,
                                                               monkeypatch):
        woken = []

        def waiting(sim):
            clk = sim.add_clock("clk", period=10)

            def waiter():
                while True:
                    yield SignalChange(clk)
                    woken.append(sim.now)

            sim.add_process("waiter", waiter)
            sim._steady_probe = lambda: ((), tuple)
            return sim

        assert self.snapshots(waiting, monkeypatch) == 0
        # Woken on every clock change (0, 5, ..., 5000 ns) in each run.
        assert woken == list(range(0, 5_001, 5)) * 3

    def test_an_idle_clock_is_skipped_to_the_same_snapshot(self,
                                                           monkeypatch):
        def idle(sim):
            sim.add_clock("clk", period=10)
            sim._steady_probe = lambda: ((), tuple)
            return sim

        assert self.snapshots(idle, monkeypatch) > 0
