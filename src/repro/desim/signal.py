"""Signals: the only shared state between simulation processes.

A signal carries a current value and accepts *scheduled transactions*
(``schedule`` is normally called through :meth:`Simulator.schedule` or the
process-facing helpers).  The kernel applies pending transactions during the
signal-update phase of each delta cycle; a signal whose value actually
changes has its ``event`` flag set for the following process-execution phase,
matching the VHDL ``'event`` attribute.

Signals do not know who waits on them: the kernel keeps a per-signal waiter
index so an event wakes exactly the processes blocked on that signal.  The
only kernel-owned state stored here is the ``_staged`` mark used to batch
the update phase without a dedup set.
"""

from repro.utils.ids import check_identifier


class ForceValue:
    """Transaction payload that *forces* a signal (HDL ``force``).

    Scheduling ``ForceValue(v)`` on a signal pins its visible value to
    ``v`` at the next update phase.  While forced, ordinary transactions
    do not change the visible value; the most recent suppressed write is
    remembered and re-applied by :class:`ReleaseValue`.  Fault injection
    (:mod:`repro.cosim.faults`) uses force/release to model stuck wires
    and bus contention without touching the drivers.

    Force and release travel through the normal transaction queue, but a
    signal stages them in a *control slot separate from the driven slot*:
    within one delta, "last write wins" applies to driven writes and to
    force/release independently, and a control transaction colliding with
    a driven write in the same delta can never swallow it.  A same-delta
    ``force + write`` pins the forced value and shadows the write; a
    same-delta ``release + write`` unpins and then applies the write
    (the driver's latest intent supersedes the restored shadow).  Both
    kernels stage every queued value, so fault runs stay differentially
    comparable.  Two payloads are equal when their values are, so kernel
    snapshots holding the same queued force compare equal.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if type(other) is not ForceValue:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((ForceValue, self.value))

    def __repr__(self):
        return f"ForceValue({self.value!r})"


class ReleaseValue:
    """Transaction payload that releases a forced signal (HDL ``release``).

    The signal resumes the most recent value its drivers tried to write
    during the force window (or the pre-force value when none did).
    Releasing an unforced signal is a no-op.  All releases are equal.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not ReleaseValue:
            return NotImplemented
        return True

    def __hash__(self):
        return hash(ReleaseValue)

    def __repr__(self):
        return "ReleaseValue()"


class Signal:
    """A named simulation signal.

    Parameters
    ----------
    name:
        Identifier (also used in waveform dumps).
    init:
        Initial value.  Any hashable/comparable Python value is accepted;
        typical values are ``0``/``1`` bits, integers and strings.
    dtype:
        Optional data-type tag from :mod:`repro.ir.dtypes`; used only for
        reporting and code generation, never enforced by the kernel.
    """

    def __init__(self, name, init=0, dtype=None):
        self.name = check_identifier(name, "signal name")
        self.dtype = dtype
        self._value = init
        self._init = init
        self.last_changed = 0
        self.event = False
        self.change_count = 0
        # Pending transactions for the *next* update phase.  Driven writes
        # and force/release controls occupy separate slots so a control
        # colliding with a same-delta write cannot swallow it (each slot is
        # independently last-write-wins): (value,) / ForceValue / ReleaseValue.
        self._pending_drive = None
        self._pending_ctl = None
        # Kernel-owned dedup mark: True while this signal sits in the update
        # phase's staged list for the current delta (cleared when applied).
        self._staged = False
        # Force state: (value,) while forced, else None; _shadow remembers
        # the latest write suppressed during the force window (starts as the
        # pre-force value) so release restores last-write-wins semantics.
        self._forced = None
        self._shadow = None
        # Future transactions are kept by the kernel, not the signal.

    @property
    def value(self):
        """Current value of the signal."""
        return self._value

    def read(self):
        """Alias of :attr:`value`, convenient in lambda sensitivity code."""
        return self._value

    def stage(self, value):
        """Stage *value* to be applied at the next update phase.

        Later stages within the same delta overwrite earlier ones (last
        driver wins within a single driver context — the kernel resolves
        multiple drivers before staging).  Force/release controls stage
        into their own slot, so they compound with — rather than replace —
        a driven write staged in the same delta.
        """
        if type(value) is ForceValue or type(value) is ReleaseValue:
            self._pending_ctl = value
        else:
            self._pending_drive = (value,)

    @property
    def forced(self):
        """True while the signal is pinned by a :class:`ForceValue`."""
        return self._forced is not None

    def apply_pending(self, now):
        """Apply the staged transactions.  Returns ``True`` on an event.

        The control slot (force/release) is applied first, then the driven
        slot — the one order that makes a same-delta collision mean what
        both parties intended: ``force + write`` pins the forced value and
        shadows the write for a later release; ``release + write`` unpins
        and lets the write through (the driver's latest intent supersedes
        the restored shadow).
        """
        ctl = self._pending_ctl
        drive = self._pending_drive
        if ctl is None and drive is None:
            return False
        self._pending_ctl = None
        self._pending_drive = None
        new_value = self._value
        if type(ctl) is ForceValue:
            if self._forced is None:
                self._shadow = (self._value,)
            self._forced = (ctl.value,)
            new_value = ctl.value
        elif type(ctl) is ReleaseValue and self._forced is not None:
            self._forced = None
            shadow, self._shadow = self._shadow, None
            (new_value,) = shadow
        if drive is not None:
            if self._forced is not None:
                # Drivers keep driving a forced signal; the visible value
                # does not move, but the last attempt is remembered so a
                # release restores last-write-wins semantics.
                self._shadow = drive
            else:
                (new_value,) = drive
        if new_value == self._value:
            return False
        self._value = new_value
        self.last_changed = now
        self.change_count += 1
        self.event = True
        return True

    def clear_event(self):
        self.event = False

    def reset(self):
        """Restore the initial value (used when a simulator is re-run)."""
        self._value = self._init
        self._pending_drive = None
        self._pending_ctl = None
        self._staged = False
        self._forced = None
        self._shadow = None
        self.last_changed = 0
        self.event = False
        self.change_count = 0

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable copy of the signal's mutable state (checkpointing).

        Only taken between delta cycles, when ``event`` and the pending
        slots are quiescent; pending *future* transactions live in the
        kernel, not here.
        """
        return {
            "value": self._value,
            "last_changed": self.last_changed,
            "change_count": self.change_count,
            "forced": self._forced,
            "shadow": self._shadow,
        }

    def restore_state(self, state):
        """Overwrite the signal's state with a :meth:`capture_state` copy."""
        self._value = state["value"]
        self.last_changed = state["last_changed"]
        self.change_count = state["change_count"]
        self._forced = state.get("forced")
        self._shadow = state.get("shadow")
        self._pending_drive = None
        self._pending_ctl = None
        self._staged = False
        self.event = False

    def __repr__(self):
        return f"Signal({self.name}={self._value!r})"
