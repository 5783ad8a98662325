"""The production kernel's clock-edge fast path is unobservable.

``Simulator._clock_edges`` fires a time point whose only due activity is
a free-running clock's toggle arithmetically, compensating the counters
of the delta cycle it skips, and fires the following lone edges of that
clock in the same loop.  Every test here compares a fast-path run with
the same model forced onto the generic path — by an inert monitor, which
disables the fast path — or with the naive reference kernel, and demands
identical observables: values, waveforms, run counts, statistics,
snapshots and co-simulation fingerprints.
"""

import pickle

import pytest

from conftest import CLOCK_BURST_SLICES, build_clock_burst
from repro.cosim import CosimSession
from repro.desim import (
    ForceValue,
    Monitor,
    ReferenceSimulator,
    ReleaseValue,
    SimulationError,
    Simulator,
    Timeout,
    WaveformRecorder,
)
from repro.obs import TELEMETRY
from repro.testkit.models import generate_system
from repro.testkit.oracles import cosim_fingerprint


def _inert_monitor():
    return Monitor("inert", lambda simulator: True)


def build_clocked(sim, generic=False):
    """Two clocks, an edge-triggered counter and edge-coincident activity.

    ``pulse`` schedules future transactions that mature exactly on clock
    edges (every 20 ns from t=0), and ``soft`` wakes from a timeout on
    every 30 ns — on a ``clk`` edge, like a software activation — so a
    share of the time points must fall back to the generic path.
    """
    clk = sim.add_clock("clk", period=10)
    slow = sim.add_clock("slow", period=6, start_delay=4)
    count = sim.add_signal("count", init=0)
    mark = sim.add_signal("mark", init=0)

    def on_clk():
        if clk.value == 1:
            sim.schedule(count, count.value + 1, 0)

    sim.add_process("counter", on_clk, sensitivity=[clk], initial_run=False)

    def on_slow():
        sim.schedule(mark, mark.value ^ slow.value, 20)

    sim.add_process("pulse", on_slow, sensitivity=[slow], initial_run=False)

    def soft():
        while True:
            sim.schedule(mark, count.value % 7, 0)
            yield Timeout(30)

    sim.add_process("soft", soft, first_wait=Timeout(30), rearmable=True)
    recorder = sim.add_recorder(WaveformRecorder())
    if generic:
        sim.add_monitor(_inert_monitor())
    return sim, recorder


def fingerprint(sim, recorder):
    return {
        "now": sim.now,
        "values": {name: signal.value for name, signal in sim.signals.items()},
        "run_counts": {name: process.run_count
                       for name, process in sim.processes.items()},
        "statistics": dict(sim.statistics),
        "waveform": {name: list(changes)
                     for name, changes in recorder.changes.items()},
    }


class TestKernelFastPath:
    def test_matches_forced_generic_path(self):
        fast, fast_rec = build_clocked(Simulator())
        generic, generic_rec = build_clocked(Simulator(), generic=True)
        fast.run(until=2_000)
        generic.run(until=2_000)
        assert fast.clock_fast_edges > 0
        assert generic.clock_fast_edges == 0
        assert fingerprint(fast, fast_rec) == fingerprint(generic,
                                                          generic_rec)

    def test_coincident_activity_falls_back_and_matches_reference(self):
        fast, fast_rec = build_clocked(Simulator())
        reference, reference_rec = build_clocked(ReferenceSimulator())
        fast.run(until=2_000)
        reference.run(until=2_000)
        # Not every clock wake took the fast path: the edges shared with
        # matured transactions and the software-like timeout fell back.
        assert 0 < fast.clock_fast_edges < fast.statistics["timeouts"]
        assert reference.clock_fast_edges == 0
        assert fingerprint(fast, fast_rec) == fingerprint(reference,
                                                          reference_rec)

    def test_lone_clock_takes_the_fast_path_on_every_edge(self):
        sim = Simulator()
        clk = sim.add_clock("clk", period=4)
        sim.run(until=400)
        # The toggler's initial run (t=0) is generic; t=2..400 is fast.
        assert sim.clock_fast_edges == sim.statistics["timeouts"] == 200
        assert clk.change_count == 201
        assert sim.processes["clk_gen"].run_count == 201

    def test_race_detection_disables_the_fast_path(self):
        sim, _ = build_clocked(Simulator(detect_races=True))
        sim.run(until=500)
        assert sim.clock_fast_edges == 0

    @pytest.mark.parametrize("cut", [100, 137, 500])
    def test_snapshot_matches_generic_snapshot(self, cut):
        fast, _ = build_clocked(Simulator())
        generic, _ = build_clocked(Simulator(), generic=True)
        fast.run(until=cut)
        generic.run(until=cut)
        assert fast.clock_fast_edges > 0
        assert fast.snapshot() == generic.snapshot()

    @pytest.mark.parametrize("cut", [100, 137, 500])
    def test_restore_then_continue_equals_uninterrupted_run(self, cut):
        straight, straight_rec = build_clocked(Simulator())
        straight.run(until=1_000)
        expected = fingerprint(straight, straight_rec)

        source, source_rec = build_clocked(Simulator())
        source.run(until=cut)
        blob = pickle.dumps((source.snapshot(), source_rec.capture_state()))
        target, target_rec = build_clocked(Simulator())
        snapshot, recorder_state = pickle.loads(blob)
        target.restore(snapshot)
        target_rec.restore_state(recorder_state)
        target.run(until=1_000)
        assert target.clock_fast_edges > 0
        assert fingerprint(target, target_rec) == expected

    def test_taken_with_telemetry_on_and_exported(self):
        plain, plain_rec = build_clocked(Simulator())
        plain.run(until=1_000)
        exported = []
        for generic in (False, True):
            TELEMETRY.enable()
            try:
                observed, observed_rec = build_clocked(Simulator(),
                                                       generic=generic)
                observed.run(until=1_000)
                exported.append(_families(TELEMETRY.metrics.as_dict()))
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
            assert fingerprint(observed, observed_rec) == fingerprint(
                plain, plain_rec)
            [edges] = exported[-1]["repro_kernel_clock_fast_edges_total"]
            assert edges["value"] == observed.clock_fast_edges
            assert (observed.clock_fast_edges == 0) == generic
        assert plain.clock_fast_edges > 0
        # The skipped delta cycles are still observed and profiled.
        fast, generic = exported
        for name in ("repro_kernel_delta_queue_depth",
                     "repro_kernel_timeout_heap_depth"):
            assert ([series["counts"] for series in fast[name]]
                    == [series["counts"] for series in generic[name]])
        assert _profile_runs(fast) == _profile_runs(generic)
        assert _profile_runs(fast)["clk_gen"] > 0


#: ``clock_fast_edges`` after each of the ``CLOCK_BURST_SLICES``: one per
#: lone clock edge, however many edges one ``_clock_edges`` call fires.
BURST_FAST_EDGES = [25, 97, 194, 387, 484, 784, 795, 1_161, 1_506, 1_937]


def _run_burst(factory, telemetry, generic=False):
    """Run :func:`build_clock_burst` over every slice; return observables."""
    if telemetry:
        TELEMETRY.enable()
    try:
        sim = factory()
        log = []
        recorder = build_clock_burst(sim, log)
        if generic:
            sim.add_monitor(_inert_monitor())
        snapshots, edges = [], []
        for until in CLOCK_BURST_SLICES:
            assert sim.run(until=until) == until
            snapshots.append(sim.snapshot())
            edges.append(sim.clock_fast_edges)
        families = (_families(TELEMETRY.metrics.as_dict()) if telemetry
                    else None)
    finally:
        if telemetry:
            TELEMETRY.disable()
            TELEMETRY.reset()
    return {"fingerprint": fingerprint(sim, recorder), "log": log,
            "snapshots": snapshots, "edges": edges, "families": families}


def _depth_counts(families):
    return {name: [series["counts"] for series in families[name]]
            for name in ("repro_kernel_delta_queue_depth",
                         "repro_kernel_timeout_heap_depth")}


class TestClockBurst:
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_matches_generic_and_reference_runs(self, telemetry):
        burst = _run_burst(Simulator, telemetry)
        generic = _run_burst(Simulator, telemetry, generic=True)
        reference = _run_burst(ReferenceSimulator, telemetry)
        # The scenario exercises every interruption of a quiet stretch.
        tags = {entry[2] for entry in burst["log"]}
        assert tags == {"clk", "watch", "late", "soft"}
        assert burst["fingerprint"]["values"]["late_data"] > 0
        assert burst["fingerprint"]["waveform"]["mark"]
        assert burst["edges"] == BURST_FAST_EDGES
        assert generic["edges"][-1] == reference["edges"][-1] == 0
        for other in (generic, reference):
            assert other["fingerprint"] == burst["fingerprint"]
            assert other["log"] == burst["log"]
        assert generic["snapshots"] == burst["snapshots"]
        if telemetry:
            families = burst["families"]
            assert (_depth_counts(generic["families"])
                    == _depth_counts(families))
            assert (_profile_runs(generic["families"])
                    == _profile_runs(families))
            [exported] = families["repro_kernel_clock_fast_edges_total"]
            assert exported["value"] == BURST_FAST_EDGES[-1]

    @pytest.mark.parametrize("cut", [1_205, 1_207])
    def test_restore_inside_a_quiet_stretch_then_continue(self, cut):
        straight_log = []
        straight = Simulator()
        straight_rec = build_clock_burst(straight, straight_log)
        straight.run(until=3_000)

        source_log = []
        source = Simulator()
        source_rec = build_clock_burst(source, source_log)
        source.run(until=cut)
        blob = pickle.dumps((source.snapshot(), source_rec.capture_state()))
        target_log = []
        target = Simulator()
        target_rec = build_clock_burst(target, target_log)
        snapshot, recorder_state = pickle.loads(blob)
        target.restore(snapshot)
        target_rec.restore_state(recorder_state)
        target.run(until=3_000)
        assert source_log + target_log == straight_log
        assert target_log and target_log[0][0] > cut
        assert (fingerprint(target, target_rec)
                == fingerprint(straight, straight_rec))

    def test_quiet_stretch_enters_the_burst_once(self, monkeypatch):
        entries = []
        burst = Simulator._clock_edges

        def counting(self, until):
            entries.append(self.now)
            return burst(self, until)

        monkeypatch.setattr(Simulator, "_clock_edges", counting)
        sim = Simulator()
        clk = sim.add_clock("clk", period=20)
        rising = []
        sim.add_clocked_process("count", lambda: rising.append(sim.now), clk)
        sim.run(until=10_000)
        assert sim.clock_fast_edges == 1_000
        assert len(rising) == 501  # rising edges at 0, 20, ..., 10_000
        assert entries == [10]


def _on_three_kernels(build, script):
    """Fingerprints of *build* on the fast path, the forced generic path
    and the reference kernel, each run through *script*: ``(until,
    action)`` pairs, *action* called with the simulator after that run."""
    runs = []
    for factory, generic in ((Simulator, False), (Simulator, True),
                             (ReferenceSimulator, False)):
        sim = factory()
        log = []
        recorder = build(sim, log)
        if generic:
            sim.add_monitor(_inert_monitor())
        for until, action in script:
            sim.run(until=until)
            if action is not None:
                action(sim)
        runs.append((sim, {**fingerprint(sim, recorder), "log": log}))
    (fast, expected), (generic, _), (reference, _) = runs
    assert fast.clock_fast_edges > 0
    assert generic.clock_fast_edges == reference.clock_fast_edges == 0
    assert [observed for _, observed in runs] == [expected] * 3
    return fast, expected


def build_forced_echo(sim, log):
    """A clocked process re-writing the visible value of ``wire``."""
    clk = sim.add_clock("clk", period=10)
    wire = sim.add_signal("wire", init=0)

    def echo():
        sim.schedule(wire, wire.value, 0)
        log.append((sim.now, wire.value, wire.forced))

    sim.add_clocked_process("echo", echo, clk)
    return sim.add_recorder(WaveformRecorder())


def build_self_forcing(sim, log):
    """A clocked process queueing force/release and plain writes of ``wire``."""
    clk = sim.add_clock("clk", period=10)
    wire = sim.add_signal("wire", init=3)
    edges = []

    def pin():
        edges.append(sim.now)
        phase = len(edges) % 10
        if phase == 3:
            sim.schedule(wire, ForceValue(wire.value), 0)
        elif phase == 7:
            sim.schedule(wire, ReleaseValue(), 0)
        elif phase == 9:
            sim.schedule(wire, ReleaseValue(), 0)  # releases an unforced signal
        else:
            sim.schedule(wire, wire.value + (phase == 5), 0)
        log.append((sim.now, wire.value, wire.forced))

    sim.add_clocked_process("pin", pin, clk)
    return sim.add_recorder(WaveformRecorder())


def build_mixed_queue(sim, log):
    """Each rising edge queues held-value writes around one real change."""
    clk = sim.add_clock("clk", period=10)
    held = sim.add_signal("held", init=5)
    count = sim.add_signal("count", init=0)

    def step():
        sim.schedule(held, held.value, 0)
        sim.schedule(count, count.value + 1, 0)
        sim.schedule(held, held.value, 0)

    sim.add_clocked_process("step", step, clk)
    sim.add_process("watch", lambda: log.append((sim.now, count.value)),
                    sensitivity=[count], initial_run=False)
    return sim.add_recorder(WaveformRecorder())


class TestNoOpDelta2:
    """The fast path drops a delta 2 that only re-writes held values, and
    refuses to for anything else."""

    def test_held_value_writes_drain_no_delta_2(self, monkeypatch):
        _on_three_kernels(build_forced_echo, [(500, None)])
        drains = []
        drain = Simulator._drain_deltas

        def counting(self, delta=0):
            drains.append(delta)
            return drain(self, delta)

        monkeypatch.setattr(Simulator, "_drain_deltas", counting)
        sim = Simulator()
        build_forced_echo(sim, [])
        sim.run(until=500)
        assert sim.clock_fast_edges == 100
        assert sim.statistics["transactions"] == 101 + 51  # clock + echoes
        assert 2 not in drains

    def test_forced_signal_write_is_shadowed_for_release(self):
        # Forced to 7, the echo re-writes 7 on every edge: equal to the
        # visible value, but the release must restore it from the shadow.
        fast, _ = _on_three_kernels(build_forced_echo, [
            (100, lambda sim: sim.force("wire", 7)),
            (300, lambda sim: sim.release("wire")),
            (500, None),
        ])
        assert fast.signals["wire"].value == 7
        assert not fast.signals["wire"].forced

    def test_queued_force_and_release_are_applied(self):
        _, observed = _on_three_kernels(build_self_forcing, [(1_000, None)])
        assert any(forced for *_, forced in observed["log"])

    def test_mixed_queue_applies_the_real_change(self):
        fast, _ = _on_three_kernels(build_mixed_queue, [(1_000, None)])
        assert fast.signals["count"].value == 101  # rising edges 0..1000
        assert fast.signals["held"].change_count == 0


class TestDeltaLimit:
    @pytest.mark.parametrize("factory", [Simulator, ReferenceSimulator])
    def test_a_clock_edge_exceeds_a_limit_of_one_delta(self, factory):
        sim = factory(max_deltas=1)
        clk = sim.add_clock("clk", period=10)
        sim.add_clocked_process("count", lambda: None, clk)
        with pytest.raises(SimulationError, match="delta-cycle limit"):
            sim.run(until=100)
        assert sim.now == 5


class TestRunUntil:
    @pytest.mark.parametrize("factory", [Simulator, ReferenceSimulator])
    def test_until_in_the_past_raises_and_keeps_time(self, factory):
        sim = factory()
        sim.add_clock("clk", period=10)
        sim.run(until=100)
        statistics = dict(sim.statistics)
        with pytest.raises(SimulationError, match="cannot go back"):
            sim.run(until=50)
        assert sim.now == 100
        assert sim.run(until=100) == 100
        assert sim.statistics == statistics


def _families(snapshot):
    return {family["name"]: family["series"]
            for family in snapshot["families"]}


def _profile_runs(families):
    return {series["labels"]["process"]: series["value"]
            for series in families["repro_kernel_process_profile_runs_total"]}


class TestCosimFastPath:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_fingerprint_matches_forced_generic_path(self, seed):
        system = generate_system(seed)
        fingerprints = []
        edges = []
        for generic in (False, True):
            session = CosimSession(system.build_model(),
                                   **system.cosim_params)
            if generic:
                session.add_monitor(_inert_monitor())
            result = session.run(until=30_000)
            fingerprints.append(cosim_fingerprint(session, result))
            edges.append(session.simulator.clock_fast_edges)
        assert edges[0] > 0 and edges[1] == 0
        assert fingerprints[0] == fingerprints[1]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_software_activations_match_reference_kernel(self, seed):
        system = generate_system(seed)
        fingerprints = []
        for kernel in ("production", "reference"):
            session = CosimSession(system.build_model(), kernel=kernel,
                                   **system.cosim_params)
            result = session.run(until=30_000)
            fingerprints.append(cosim_fingerprint(session, result))
        assert fingerprints[0] == fingerprints[1]
