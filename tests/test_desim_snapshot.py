"""Kernel snapshot/restore round-trips.

The contract under test: restoring a snapshot into a *fresh, identically
built* simulator and resuming produces byte-identical observables to the
uninterrupted run — on both kernels, across seeds and snapshot times — and
taking the snapshot never perturbs the simulator it came from.
"""

import pickle

import pytest

from repro.desim import (
    SignalChange,
    Simulator,
    Timeout,
    WaveformRecorder,
    create_simulator,
)
from repro.utils.errors import SimulationError


def build_network(kernel="production", seed=1):
    """A deterministic network covering every restorable process shape."""
    sim = create_simulator(kernel)
    clk = sim.add_clock("clk", period=10)
    slow = sim.add_clock("slow", period=14, start_delay=3)
    data = sim.add_signal("data", init=seed)
    acc = sim.add_signal("acc", init=0)
    flag = sim.add_signal("flag", init=0)

    def on_clk():
        if clk.value == 1:
            sim.schedule(acc, (acc.value + data.value) % 211, 0)

    sim.add_process("accum", on_clk, sensitivity=[clk], initial_run=False)

    def on_any():
        sim.schedule(flag, 1 - flag.value, 5)

    sim.add_process("edge", on_any, sensitivity=[slow], initial_run=False)

    def pump():
        while True:
            sim.schedule(data, (data.value * 5 + 1) % 31, 0)
            yield Timeout(7)

    sim.add_process("pump", pump, first_wait=Timeout(3), rearmable=True)

    def watcher():
        while True:
            sim.schedule(acc, (acc.value + flag.value + 1) % 211, 2)
            yield SignalChange(flag, timeout=40)

    sim.add_process("watch", watcher, first_wait=SignalChange(flag, timeout=9),
                    rearmable=True)
    recorder = sim.add_recorder(WaveformRecorder())
    return sim, recorder


def fingerprint(sim, recorder):
    return {
        "now": sim.now,
        "values": {name: signal.value for name, signal in sim.signals.items()},
        "change_counts": {name: signal.change_count
                          for name, signal in sim.signals.items()},
        "run_counts": {name: process.run_count
                       for name, process in sim.processes.items()},
        "statistics": dict(sim.statistics),
        "waveform": {name: list(changes)
                     for name, changes in recorder.changes.items()},
    }


class TestKernelSnapshotRestore:
    @pytest.mark.parametrize("kernel", ["production", "reference"])
    @pytest.mark.parametrize("seed,cut", [(1, 100), (2, 137), (9, 311)])
    def test_restore_resumes_byte_identical(self, kernel, seed, cut):
        straight, straight_rec = build_network(kernel, seed)
        straight.run(until=600)
        expected = fingerprint(straight, straight_rec)

        source, source_rec = build_network(kernel, seed)
        source.run(until=cut)
        blob = pickle.dumps((source.snapshot(), source_rec.capture_state()))

        target, target_rec = build_network(kernel, seed)
        snapshot, recorder_state = pickle.loads(blob)
        target.restore(snapshot)
        target_rec.restore_state(recorder_state)
        target.run(until=600)
        assert fingerprint(target, target_rec) == expected

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_snapshot_does_not_perturb_the_source(self, kernel):
        straight, straight_rec = build_network(kernel)
        straight.run(until=500)
        expected = fingerprint(straight, straight_rec)

        probed, probed_rec = build_network(kernel)
        for cut in (50, 123, 200, 377):
            probed.run(until=cut)
            probed.snapshot()
        probed.run(until=500)
        assert fingerprint(probed, probed_rec) == expected

    def test_restore_same_simulator_rewinds(self):
        sim, recorder = build_network()
        sim.run(until=150)
        snapshot = sim.snapshot()
        state_at_cut = fingerprint(sim, recorder)
        recorder_state = recorder.capture_state()
        sim.run(until=400)
        assert fingerprint(sim, recorder) != state_at_cut
        sim.restore(snapshot)
        recorder.restore_state(recorder_state)
        assert fingerprint(sim, recorder) == state_at_cut
        # ...and the replayed segment matches a straight run.
        straight, straight_rec = build_network()
        straight.run(until=400)
        sim.run(until=400)
        assert fingerprint(sim, recorder) == fingerprint(straight, straight_rec)

    def test_unstarted_target_is_started_by_restore(self):
        source, source_rec = build_network()
        source.run(until=99)
        snapshot = source.snapshot()
        target, target_rec = build_network()
        target.restore(snapshot)  # never ran
        target_rec.restore_state(source_rec.capture_state())
        source.run(until=300)
        target.run(until=300)
        assert fingerprint(target, target_rec) == fingerprint(source, source_rec)

    def test_snapshot_on_unstarted_simulator_captures_time_zero(self):
        sim, _ = build_network()
        snapshot = sim.snapshot()
        assert snapshot["now"] == 0
        assert snapshot["statistics"]["process_runs"] > 0  # start ran

    def test_non_rearmable_generator_is_refused(self):
        def build():
            sim = create_simulator()
            sig = sim.add_signal("sig", init=0)

            def script():
                total = 0  # loop-carried frame state: not rearmable
                for step in range(50):
                    total += step
                    sim.schedule(sig, total % 97, 0)
                    yield Timeout(5)

            sim.add_process("script", script)
            return sim

        source = build()
        source.run(until=20)
        snapshot = source.snapshot()
        target = build()
        with pytest.raises(SimulationError, match="non-rearmable"):
            target.restore(snapshot)

    def test_restore_rejects_structural_mismatch(self):
        source, _ = build_network()
        source.run(until=50)
        snapshot = source.snapshot()
        other = Simulator()
        other.add_signal("unrelated")
        with pytest.raises(SimulationError, match="different signal"):
            other.restore(snapshot)

    def test_restore_rejects_unknown_format(self):
        sim, _ = build_network()
        with pytest.raises(SimulationError, match="format"):
            sim.restore({"format": 99})

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_pending_pokes_between_runs_travel_with_the_snapshot(self, kernel):
        # Zero-delay activity injected between run() calls (a testbench
        # poke) is pending work the snapshot must carry, or the restored
        # run silently loses the write.
        straight, straight_rec = build_network(kernel)
        straight.run(until=100)
        straight.poke("data", 23, 0)
        straight.poke("flag", 9, 12)
        straight.run(until=300)
        expected = fingerprint(straight, straight_rec)

        source, source_rec = build_network(kernel)
        source.run(until=100)
        source.poke("data", 23, 0)
        source.poke("flag", 9, 12)
        snapshot = source.snapshot()
        target, target_rec = build_network(kernel)
        target.restore(snapshot)
        target_rec.restore_state(source_rec.capture_state())
        target.run(until=300)
        assert fingerprint(target, target_rec) == expected

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_snapshots_holding_the_same_force_and_release_compare_equal(
            self, kernel):
        snapshots = []
        for forced in (7, 7, 8):
            sim, _ = build_network(kernel)
            sim.run(until=100)
            sim.force("data", forced)
            sim.release("flag")
            sim.force("acc", forced, 12)
            snapshots.append(sim.snapshot())
        same, again, other = snapshots
        assert same == again
        assert same != other
        assert [name for name, _ in same["delta_queue"]] == ["data", "flag"]

    def test_snapshot_inside_a_process_is_refused(self):
        sim = create_simulator()
        sim.add_signal("sig", init=0)
        captured = {}

        def prober():
            yield Timeout(5)
            try:
                sim.snapshot()
            except SimulationError as exc:
                captured["error"] = str(exc)

        sim.add_process("prober", prober)
        sim.run(until=20)
        assert "between run() calls" in captured["error"]


class TestFirstWaitAndRearmableApi:
    def test_first_wait_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="generator"):
            sim.add_process("plain", lambda: None, first_wait=Timeout(5))

    def test_first_wait_must_be_wait_condition(self):
        sim = Simulator()

        def proc():
            yield Timeout(1)

        with pytest.raises(SimulationError, match="WaitCondition"):
            sim.add_process("proc", proc, first_wait=7)

    def test_rearmable_rejected_for_sensitivity_processes(self):
        sim = Simulator()
        sig = sim.add_signal("sig")
        with pytest.raises(SimulationError, match="rearmable"):
            sim.add_process("plain", lambda: None, sensitivity=[sig],
                            rearmable=True)

    @pytest.mark.parametrize("kernel", ["production", "reference"])
    def test_first_wait_defers_the_first_run(self, kernel):
        sim = create_simulator(kernel)
        sig = sim.add_signal("sig", init=0)
        ran_at = []

        def proc():
            while True:
                ran_at.append(sim.now)
                sim.schedule(sig, sig.value + 1, 0)
                yield Timeout(10)

        sim.add_process("proc", proc, first_wait=Timeout(25), rearmable=True)
        sim.run(until=60)
        assert ran_at == [25, 35, 45, 55]
        assert sig.value == 4
