"""Value-change tracing.

The recorder keeps an in-memory value-change list per signal and can render a
textual VCD-style dump.  It is used by the co-simulation session to provide
the "functional validation" evidence the paper obtains from the VHDL
simulator's trace window.

Two correctness rules the recorder guarantees:

* every traced signal has a recorded **initial value** — signals registered
  after :meth:`start` are announced by the kernel through :meth:`register`,
  so ``value_at``/``count_pulses``/``edge_times`` never silently assume 0;
  which signals are traced is decided there too, once per signal, so
  :meth:`record` only appends,
* the merged dumps are built visiting signals in sorted-name order, then
  stable-sorted on time alone: the result is ``(time, name)`` ordered,
  same-signal changes within one time point keep their delta order, and
  values are never compared, so signals carrying heterogeneous value types
  (ints next to strings) cannot raise ``TypeError`` on a time tie.
"""

from operator import itemgetter

#: Column titles of :meth:`WaveformRecorder.dump`.
_DUMP_HEADERS = ("time (ns)", "signal", "value")


def _vcd_value(value, width, code, real=False):
    """One VCD value-change line for *value* under identifier *code*.

    Integers are emitted as binary vectors (``b101 <code>``), the only
    encoding standard viewers accept for ``wire`` variables; 1-bit wires use
    the scalar shorthand (``1<code>``).  Negative integers are emitted in
    two's complement at the declared width.  On a ``real``-declared
    variable every numeric value — including the ints of a mixed-type
    signal — is emitted as an ``r`` change instead, since vector changes
    on a real variable are just as invalid as the reverse.  Any other
    value becomes a VCD string change.
    """
    if isinstance(value, bool):
        value = int(value)
    if real and isinstance(value, (int, float)):
        return f"r{float(value)} {code}"
    if isinstance(value, int):
        if width == 1 and value in (0, 1):
            return f"{value}{code}"
        masked = value & ((1 << width) - 1)
        return f"b{masked:b} {code}"
    if isinstance(value, float):
        return f"r{value} {code}"
    return f"s{value} {code}"


def _int_width(value):
    """Bits needed to represent one integer value (two's complement for <0)."""
    if isinstance(value, bool):
        return 1
    if value < 0:
        return value.bit_length() + 1
    return max(1, value.bit_length())


class WaveformRecorder:
    """Records every value change of the signals it watches.

    Parameters
    ----------
    signals:
        Iterable of signals to watch; when empty, every signal registered
        with the simulator at start time is traced (plus any signal
        registered later, which the kernel announces via :meth:`register`).
    """

    def __init__(self, signals=()):
        self._filter = {sig.name for sig in signals} or None
        self.changes = {}
        self._initial = {}

    def start(self, simulator):
        """Trace the simulator's signals (or the filtered ones it has)."""
        names = self._filter or set(simulator.signals)
        for name in names:
            if name in simulator.signals:
                self.register(simulator.signals[name])

    def register(self, signal):
        """Announce a signal registered after :meth:`start`.

        The kernel calls this for a late ``add_signal`` so the recorder
        can pin the signal's true initial value instead of assuming 0 in
        :meth:`value_at` and friends.
        """
        if self._filter is not None and signal.name not in self._filter:
            return
        self.changes.setdefault(signal.name, [])
        self._initial.setdefault(signal.name, signal.value)

    def record(self, time, signal):
        """Append one change of *signal*; untraced signals are ignored."""
        changes = self.changes.get(signal.name)
        if changes is not None:
            changes.append((time, signal.value))

    def extend(self, signal, changes):
        """Record the ``(time, value)`` *changes* of a started signal at
        once (the clock toggles of the kernel's steady-period skip)."""
        recorded = self.changes.get(signal.name)
        if recorded is not None:
            recorded.extend(changes)

    # ------------------------------------------------------------------ query

    def initial_value(self, name, default=0):
        """The value signal *name* held before its first recorded change."""
        return self._initial.get(name, default)

    def history(self, name):
        """Return the list of ``(time, value)`` changes of signal *name*."""
        return list(self.changes.get(name, []))

    def value_at(self, name, time):
        """Return the value signal *name* held at simulation time *time*."""
        value = self._initial.get(name, 0)
        for change_time, change_value in self.changes.get(name, []):
            if change_time > time:
                break
            value = change_value
        return value

    def count_pulses(self, name, level=1):
        """Count rising transitions to *level* (used for motor pulse counting)."""
        pulses = 0
        previous = self._initial.get(name, 0)
        for _, value in self.changes.get(name, []):
            if value == level and previous != level:
                pulses += 1
            previous = value
        return pulses

    def edge_times(self, name, level=1):
        """Return the times of transitions of signal *name* to *level*."""
        times = []
        previous = self._initial.get(name, 0)
        for change_time, value in self.changes.get(name, []):
            if value == level and previous != level:
                times.append(change_time)
            previous = value
        return times

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable copy of the recorder's mutable state (checkpointing)."""
        return {
            "changes": {name: list(changes)
                        for name, changes in self.changes.items()},
            "initial": dict(self._initial),
        }

    def restore_state(self, state):
        """Overwrite the recorder's state with a :meth:`capture_state` copy."""
        self.changes = {name: list(changes)
                        for name, changes in state["changes"].items()}
        self._initial = dict(state["initial"])

    # ------------------------------------------------------------------- dump

    def _merged_changes(self, names):
        """All changes of *names* as ``(time, name, value)``, (time, name)
        ordered: built in sorted-name order, then stable-sorted on time, so
        per-signal delta order is preserved and values are never compared."""
        merged = []
        for name in sorted(names):
            merged += [(change_time, name, value)
                       for change_time, value in self.changes.get(name, ())]
        merged.sort(key=itemgetter(0))
        return merged

    def dump(self, names=None):
        """Return a textual table of all recorded changes (time-ordered).

        The table is the one :func:`repro.utils.text.format_table` draws
        for these rows, rendered in one pass: each column is converted
        once, its width is the widest cell or title, and every row goes
        through one ``%`` template.
        """
        if names is None:
            names = self.changes
        merged = self._merged_changes(names)
        if merged:
            times, signals, values = zip(*merged)
            columns = (list(map(str, times)), signals, list(map(str, values)))
            widths = [max(len(title), max(map(len, column)))
                      for title, column in zip(_DUMP_HEADERS, columns)]
        else:
            columns = ((), (), ())
            widths = list(map(len, _DUMP_HEADERS))
        template = "| %%-%ds | %%-%ds | %%-%ds |" % tuple(widths)
        separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
        lines = [template % _DUMP_HEADERS, separator]
        lines += map(template.__mod__, zip(*columns))
        return "\n".join(lines)

    def _declared_width(self, name):
        """Honest bit width of signal *name*: the widest integer it took."""
        values = [self._initial.get(name, 0)]
        values.extend(value for _, value in self.changes.get(name, ()))
        widths = [_int_width(value) for value in values
                  if isinstance(value, int)]
        return max(widths) if widths else 1

    def to_vcd(self, names=None):
        """Render a minimal VCD document for the recorded signals.

        Integer values are emitted as binary vector changes (``b...``) with
        the declared width computed from the values actually seen — never as
        ``r`` real-number changes, which standard viewers reject for
        ``wire`` variables.  Floats become ``real`` variables and any other
        value a VCD string change.
        """
        names = list(names) if names is not None else sorted(self.changes)
        codes = {name: chr(33 + index) for index, name in enumerate(names)}
        widths = {name: self._declared_width(name) for name in names}
        reals = {}
        lines = ["$timescale 1ns $end"]
        for name in names:
            values = [self._initial.get(name, 0)]
            values.extend(value for _, value in self.changes.get(name, ()))
            reals[name] = any(isinstance(value, float) for value in values)
            if reals[name]:
                lines.append(f"$var real 64 {codes[name]} {name} $end")
            else:
                lines.append(
                    f"$var wire {widths[name]} {codes[name]} {name} $end"
                )
        lines.append("$enddefinitions $end")
        lines.append("#0")
        for name in names:
            lines.append(_vcd_value(self._initial.get(name, 0), widths[name],
                                    codes[name], real=reals[name]))
        current_time = 0
        for change_time, name, value in self._merged_changes(names):
            if change_time != current_time:
                lines.append(f"#{change_time}")
                current_time = change_time
            lines.append(_vcd_value(value, widths[name], codes[name],
                                    real=reals[name]))
        return "\n".join(lines)
