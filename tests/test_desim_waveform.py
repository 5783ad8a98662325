"""Unit tests of the waveform recorder."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosim import CosimSession
from repro.desim import Simulator, Timeout, WaveformRecorder
from repro.desim.waveform import _vcd_value
from repro.testkit.models import generate_system
from repro.utils.text import format_table


def _run_small_trace():
    sim = Simulator()
    data = sim.add_signal("data", init=0)
    strobe = sim.add_signal("strobe", init=0)
    recorder = sim.add_recorder(WaveformRecorder())

    def stim():
        yield Timeout(10)
        sim.schedule(data, 5)
        sim.schedule(strobe, 1)
        yield Timeout(10)
        sim.schedule(strobe, 0)
        yield Timeout(10)
        sim.schedule(data, 9)
        sim.schedule(strobe, 1)
        yield Timeout(10)
        sim.schedule(strobe, 0)

    sim.add_process("stim", stim)
    sim.run()
    return recorder


class TestWaveformRecorder:
    def test_history_is_time_ordered(self):
        recorder = _run_small_trace()
        history = recorder.history("data")
        assert history == [(10, 5), (30, 9)]

    def test_value_at_interpolates_between_changes(self):
        recorder = _run_small_trace()
        assert recorder.value_at("data", 0) == 0
        assert recorder.value_at("data", 10) == 5
        assert recorder.value_at("data", 29) == 5
        assert recorder.value_at("data", 1000) == 9

    def test_count_pulses_counts_rising_transitions(self):
        recorder = _run_small_trace()
        assert recorder.count_pulses("strobe") == 2

    def test_edge_times(self):
        recorder = _run_small_trace()
        assert recorder.edge_times("strobe") == [10, 30]

    def test_unknown_signal_has_empty_history(self):
        recorder = _run_small_trace()
        assert recorder.history("does_not_exist") == []
        assert recorder.count_pulses("does_not_exist") == 0

    def test_dump_contains_all_changes(self):
        recorder = _run_small_trace()
        dump = recorder.dump(["data", "strobe"])
        assert "data" in dump and "strobe" in dump
        assert dump.count("\n") >= 6

    def test_vcd_export_structure(self):
        recorder = _run_small_trace()
        vcd = recorder.to_vcd(["data", "strobe"])
        assert vcd.startswith("$timescale 1ns $end")
        assert "$enddefinitions $end" in vcd
        assert "#10" in vcd and "#30" in vcd

    def test_vcd_integers_are_binary_vectors_not_reals(self):
        # r<value> changes on a $var wire are invalid VCD that standard
        # viewers reject; integers must be emitted as b<binary> vectors.
        recorder = _run_small_trace()
        vcd = recorder.to_vcd(["data", "strobe"])
        assert "r5" not in vcd and "r9" not in vcd
        assert "b101 !" in vcd  # data == 5 at t=10, code '!' is the first name
        assert "b1001 !" in vcd  # data == 9 at t=30

    def test_vcd_widths_are_honest(self):
        # data takes values {0, 5, 9} -> 4 bits; strobe {0, 1} -> 1-bit
        # scalar wire using the 0/1 shorthand.
        recorder = _run_small_trace()
        vcd = recorder.to_vcd(["data", "strobe"])
        assert '$var wire 4 ! data $end' in vcd
        assert '$var wire 1 " strobe $end' in vcd
        assert '1"' in vcd and '0"' in vcd
        assert "$var wire 32" not in vcd

    def test_vcd_initial_values_present(self):
        recorder = _run_small_trace()
        vcd = recorder.to_vcd(["data", "strobe"]).splitlines()
        at_zero = vcd[vcd.index("#0") + 1:vcd.index("#10")]
        assert at_zero == ["b0 !", '0"']

    def test_vcd_mixed_int_float_signal_stays_real_throughout(self):
        # A signal that carried both ints and floats is declared real;
        # every numeric change must then be an r change — b-vectors on a
        # real variable are just as invalid as r on a wire.
        sim = Simulator()
        temp = sim.add_signal("temp", init=0)
        recorder = sim.add_recorder(WaveformRecorder())

        def stim():
            yield Timeout(10)
            sim.schedule(temp, 2.5)
            yield Timeout(10)
            sim.schedule(temp, 3)

        sim.add_process("stim", stim)
        sim.run()
        vcd = recorder.to_vcd(["temp"])
        assert "$var real 64 ! temp $end" in vcd
        assert "r0.0 !" in vcd and "r2.5 !" in vcd and "r3.0 !" in vcd
        assert "b" not in vcd.split("$enddefinitions $end")[1]

    def test_late_registered_signal_keeps_true_initial_value(self):
        # A signal added after start() must not be assumed to start at 0:
        # the kernel announces it and the recorder pins its real initial
        # value, so value_at/count_pulses/edge_times stay truthful.
        sim = Simulator()
        sim.add_signal("early", init=2)
        recorder = sim.add_recorder(WaveformRecorder())

        def stim():
            yield Timeout(5)
            late = sim.add_signal("late", init=7)
            yield Timeout(5)
            sim.schedule(late, 7)  # no event: same value
            yield Timeout(5)
            sim.schedule(late, 1)

        sim.add_process("stim", stim)
        sim.run(until=40)
        assert recorder.initial_value("late") == 7
        assert recorder.value_at("late", 6) == 7
        assert recorder.value_at("late", 20) == 1
        # 7 -> 1 is not a rising edge to level 7; and with the honest
        # initial value the 7 at t=10 is not a pulse either.
        assert recorder.count_pulses("late", level=7) == 0
        assert recorder.edge_times("late", level=1) == [15]

    def test_merge_sort_survives_heterogeneous_values_on_time_ties(self):
        # One signal changing twice within a single time point (two delta
        # cycles), once to an int and once to a str, used to make
        # dump()/to_vcd() compare the values on the (time, name) tie and
        # raise TypeError; the sort keys on (time, name) only and is
        # stable, so the delta order survives.
        from repro.desim import Delta

        sim = Simulator()
        status = sim.add_signal("status", init=0)
        recorder = sim.add_recorder(WaveformRecorder())

        def stim():
            yield Timeout(10)
            sim.schedule(status, 3)
            yield Delta()
            sim.schedule(status, "overflow")

        sim.add_process("stim", stim)
        sim.run()
        assert recorder.history("status") == [(10, 3), (10, "overflow")]
        dump = recorder.dump()
        assert "overflow" in dump and "3" in dump
        vcd = recorder.to_vcd()
        assert "b11 !" in vcd and "soverflow !" in vcd

    def test_filtered_recorder_ignores_other_signals(self):
        sim = Simulator()
        keep = sim.add_signal("keep", init=0)
        sim.add_signal("drop", init=0)
        recorder = sim.add_recorder(WaveformRecorder([keep]))

        def stim():
            yield Timeout(5)
            sim.schedule(sim.signal("keep"), 1)
            sim.schedule(sim.signal("drop"), 1)

        sim.add_process("stim", stim)
        sim.run()
        assert recorder.history("keep") == [(5, 1)]
        assert recorder.history("drop") == []


# ------------------------------------------------------------ byte equality
#
# The reference renderers below are the recorder's original dump and VCD
# export: a (time, name)-keyed merge and a format_table dump.  The recorder
# renders both in one pass now; the bytes must not move.


def _reference_merged(recorder, names):
    merged = []
    for name in names:
        for change_time, value in recorder.changes.get(name, []):
            merged.append((change_time, name, value))
    merged.sort(key=lambda entry: (entry[0], entry[1]))
    return merged


def _reference_dump(recorder, names=None):
    names = list(names) if names is not None else sorted(recorder.changes)
    return format_table(["time (ns)", "signal", "value"],
                        _reference_merged(recorder, names))


def _reference_vcd(recorder, names=None):
    names = list(names) if names is not None else sorted(recorder.changes)
    codes = {name: chr(33 + index) for index, name in enumerate(names)}
    widths, reals = {}, {}
    lines = ["$timescale 1ns $end"]
    for name in names:
        values = [recorder.initial_value(name)]
        values.extend(value for _, value in recorder.changes.get(name, ()))
        widths[name] = recorder._declared_width(name)
        reals[name] = any(isinstance(value, float) for value in values)
        if reals[name]:
            lines.append(f"$var real 64 {codes[name]} {name} $end")
        else:
            lines.append(f"$var wire {widths[name]} {codes[name]} {name} $end")
    lines.append("$enddefinitions $end")
    lines.append("#0")
    for name in names:
        lines.append(_vcd_value(recorder.initial_value(name), widths[name],
                                codes[name], real=reals[name]))
    current_time = 0
    for change_time, name, value in _reference_merged(recorder, names):
        if change_time != current_time:
            lines.append(f"#{change_time}")
            current_time = change_time
        lines.append(_vcd_value(value, widths[name], codes[name],
                                real=reals[name]))
    return "\n".join(lines)


class _Stub:
    """A signal as the recorder sees it: a name and a current value."""

    def __init__(self, name, value):
        self.name = name
        self.value = value


class _StubSimulator:
    def __init__(self, signals):
        self.signals = {signal.name: signal for signal in signals}


#: Short and long names: the long ones are wider than the "signal" title.
_NAMES = ("a", "b", "clk", "data_bus", "a_very_long_signal_name", "z")

_VALUES = st.one_of(
    st.integers(-(1 << 40), 1 << 40),
    st.booleans(),
    st.text(max_size=24),
    st.floats(allow_nan=False),
)

_CHANGE = st.tuples(st.integers(0, 40), _VALUES)

_OP = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(_NAMES), _CHANGE),
    st.tuples(st.just("extend"), st.sampled_from(_NAMES),
              st.lists(_CHANGE, max_size=6)),
)


@st.composite
def _recorders(draw):
    """A started recorder with random changes, and a ``names`` argument."""
    registered = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    signals = [_Stub(name, draw(_VALUES)) for name in registered]
    recorder = WaveformRecorder()
    recorder.start(_StubSimulator(signals))
    by_name = {signal.name: signal for signal in signals}
    for op, name, payload in draw(st.lists(_OP, max_size=40)):
        signal = by_name.get(name, _Stub(name, None))
        if op == "record":
            signal.value = payload[1]
            recorder.record(payload[0], signal)
        else:
            recorder.extend(signal, payload)
    names = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(_NAMES + ("unknown",)), max_size=8),
    ))
    return recorder, names


class TestByteEquality:
    @settings(max_examples=300, deadline=None)
    @given(_recorders())
    def test_dump_and_vcd_match_the_reference(self, drawn):
        recorder, names = drawn
        assert recorder.dump(names) == _reference_dump(recorder, names)
        assert recorder.to_vcd(names) == _reference_vcd(recorder, names)

    def test_empty_recorder(self):
        recorder = WaveformRecorder()
        recorder.start(_StubSimulator([]))
        assert recorder.dump() == _reference_dump(recorder)
        assert recorder.dump().count("\n") == 1
        assert recorder.to_vcd() == _reference_vcd(recorder)

    def test_time_ties_keep_name_then_delta_order(self):
        recorder = WaveformRecorder()
        signals = [_Stub("b", 0), _Stub("a", 0), _Stub("quiet", 0)]
        recorder.start(_StubSimulator(signals))
        b, a, _ = signals
        for value in (1, "x", 2.5):
            b.value = value
            recorder.record(10, b)
        recorder.extend(a, [(10, True), (10, "wider than the header")])
        dump = recorder.dump(["quiet", "b", "a", "b", "nope"])
        assert dump == _reference_dump(recorder, ["quiet", "b", "a", "b",
                                                  "nope"])
        rows = [line.split("|")[2].strip() + "=" + line.split("|")[3].strip()
                for line in dump.splitlines()[2:]]
        assert rows == ["a=True", "a=wider than the header",
                        "b=1", "b=x", "b=2.5", "b=1", "b=x", "b=2.5"]

    def test_untraced_signal_is_not_recorded(self):
        recorder = WaveformRecorder()
        recorder.start(_StubSimulator([_Stub("known", 0)]))
        recorder.record(5, _Stub("stranger", 1))
        recorder.extend(_Stub("stranger", 1), [(6, 0)])
        assert recorder.history("stranger") == []
        assert "stranger" not in recorder.dump()

    def test_recorder_added_after_start_pins_current_values(self):
        sim = Simulator()
        data = sim.add_signal("data", init=0)

        def stim():
            yield Timeout(5)
            sim.schedule(data, 3)
            yield Timeout(5)
            sim.schedule(data, 4)

        sim.add_process("stim", stim)
        sim.run(until=7)
        recorder = sim.add_recorder(WaveformRecorder())
        sim.run(until=20)
        assert recorder.initial_value("data") == 3
        assert recorder.history("data") == [(10, 4)]


#: sha256 of ``to_vcd()`` after 20 µs of generated systems (fused tier).
#: VCD output is not part of the conformance fingerprint; these pin it.
VCD_DIGESTS = {
    3: "03520576bd9fbca5627ea7ffe947f92475c8853a14623dce718b4428fd8e0f01",
    5: "b79a6943b5df275238920ea508577ac023c4b0cda46e1b4b50649b3cabf67ccb",
    42: "4ceaae3d8962d7d621b0f212f86543557ec774f1d42abd23e49bc077e327751e",
}


@pytest.mark.parametrize("seed", sorted(VCD_DIGESTS))
def test_generated_system_vcd_is_pinned(seed):
    system = generate_system(seed)
    session = CosimSession(system.build_model(), **system.cosim_params)
    waveform = session.run(until=20_000).waveform
    vcd = waveform.to_vcd()
    assert hashlib.sha256(vcd.encode()).hexdigest() == VCD_DIGESTS[seed]
    assert waveform.dump() == _reference_dump(waveform)
