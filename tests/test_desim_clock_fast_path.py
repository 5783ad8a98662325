"""The production kernel's clock-edge fast path is unobservable.

``Simulator._clock_edge`` fires a time point whose only due activity is a
free-running clock's toggle arithmetically, compensating the counters of
the delta cycle it skips.  Every test here compares a fast-path run with
the same model forced onto the generic path — by an inert monitor, which
disables the fast path — or with the naive reference kernel, and demands
identical observables: values, waveforms, run counts, statistics,
snapshots and co-simulation fingerprints.
"""

import pickle

import pytest

from repro.cosim import CosimSession
from repro.desim import (
    Monitor,
    ReferenceSimulator,
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
