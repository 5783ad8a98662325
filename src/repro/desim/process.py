"""Simulation processes.

Two flavours are supported, both present in VHDL practice:

* **Sensitivity-list processes** — a plain callable re-executed from the top
  whenever one of the signals in its sensitivity list has an event.  This is
  the natural shape for combinational logic and clocked FSMs (sensitive to
  the clock).
* **Generator processes** — a Python generator yielding
  :class:`~repro.desim.events.WaitCondition` objects, mirroring VHDL
  processes with explicit ``wait`` statements.  This is the natural shape for
  testbench stimulus and the motor's physical model.

A suspended generator costs the kernel nothing until the yielded condition
fires: it sits in the per-signal waiter index and/or the timeout heap, and
is only touched when one of its signals has an event or its deadline
matures.
"""

import inspect

from repro.desim.events import WaitCondition
from repro.utils.errors import SimulationError
from repro.utils.ids import check_identifier


class Process:
    """A simulation process registered with a :class:`Simulator`.

    Parameters
    ----------
    name, func, sensitivity, initial_run:
        As registered through :meth:`Simulator.add_process`.
    first_wait:
        Optional :class:`WaitCondition` the kernel arms at simulation start
        instead of running the process: the generator is parked on the wait
        and first stepped when it fires.  This turns a *wait-first* loop
        (``while True: yield w; act()``) into the equivalent *act-first*
        loop (``while True: act(); yield w``) — the shape required for
        ``rearmable``.  Implies ``initial_run=False``.
    rearmable:
        Declares that a **fresh** generator instance, stepped once, behaves
        exactly like the suspended one being resumed — true for act-first
        loops with no prologue and no loop-carried frame state (all state
        lives in signals or captured objects).  Only rearmable generator
        processes can be re-suspended by :meth:`Simulator.restore`;
        sensitivity-list processes are always restorable.
    """

    def __init__(self, name, func, sensitivity=(), initial_run=True,
                 first_wait=None, rearmable=False):
        self.name = check_identifier(name, "process name")
        self.func = func
        self.sensitivity = tuple(sensitivity)
        self.is_generator = inspect.isgeneratorfunction(func)
        if self.is_generator and self.sensitivity:
            raise SimulationError(
                f"process {name!r}: generator processes use wait conditions, "
                "not sensitivity lists"
            )
        if first_wait is not None:
            if not self.is_generator:
                raise SimulationError(
                    f"process {name!r}: first_wait requires a generator process"
                )
            if not isinstance(first_wait, WaitCondition):
                raise SimulationError(
                    f"process {name!r}: first_wait must be a WaitCondition, "
                    f"got {first_wait!r}"
                )
            initial_run = False
        if rearmable and not self.is_generator:
            raise SimulationError(
                f"process {name!r}: only generator processes need rearmable "
                "(sensitivity processes are always restorable)"
            )
        self.initial_run = initial_run
        self.first_wait = first_wait
        self.rearmable = rearmable
        self._gen = None
        self.finished = False
        self.run_count = 0
        # Recyclable deadline-only wait (Timeout/Delta), owned by the
        # kernel's _park_timed; reused only when consumed (done).
        self._timer_wait = None
        # (signal, half period) when the kernel registered this process as
        # a free-running clock (Simulator.add_clock): its edges may then be
        # fired arithmetically instead of by stepping the generator.
        self._clock = None

    @property
    def restorable(self):
        """True when :meth:`Simulator.restore` can re-suspend this process."""
        return not self.is_generator or self.rearmable

    def start(self):
        """Instantiate the generator (no-op for sensitivity processes)."""
        self.finished = False
        self.run_count = 0
        if self.is_generator:
            self._gen = self.func()

    def step(self):
        """Run the process once.

        For a sensitivity-list process this calls the function and returns
        ``None``.  For a generator process this resumes the generator and
        returns the yielded :class:`WaitCondition`, or ``None`` when the
        generator terminates (the process is then finished for good).
        """
        self.run_count += 1
        if not self.is_generator:
            self.func()
            return None
        if self._gen is None:
            self.start()
        try:
            condition = next(self._gen)
        except StopIteration:
            self.finished = True
            return None
        if not isinstance(condition, WaitCondition):
            raise SimulationError(
                f"process {self.name!r} yielded {condition!r}; "
                "expected a WaitCondition (Timeout, SignalChange, Delta)"
            )
        return condition

    def __repr__(self):
        kind = "generator" if self.is_generator else "sensitivity"
        return f"Process({self.name}, {kind}, runs={self.run_count})"
