"""A deliberately naive reference kernel for differential testing.

:class:`ReferenceSimulator` implements the exact VHDL delta-cycle semantics
of :class:`~repro.desim.kernel.Simulator` behind the same public API, but
with the dumbest data structures that can possibly work:

* future transactions live in an **unsorted list** that is linearly scanned
  for the minimum time (no heap),
* every suspended generator wait sits in **one flat list** in suspension
  order; each delta cycle linearly scans the whole list for matured
  deadlines and, per changed signal, for watching waits (no per-signal
  waiter index, no lazy invalidation, no compaction),
* the next activity time is recomputed from scratch on every query
  (no memoisation).

Per-delta cost is therefore O(population), which is the point: the
production kernel earns its complexity only if it is *observably
indistinguishable* from this one.  The conformance kit
(:mod:`repro.testkit`) runs generated scenarios on both kernels and asserts
identical event ordering, waveforms, final states and statistics.

The observable contract both kernels must satisfy, per delta cycle:

1. apply queued transactions in queue order (last write to a signal wins);
   the changed-signal list is ordered by first staging,
2. wake, in order: for each changed signal — its sensitivity-list processes
   in registration order, then its suspended waiters in suspension order
   (a multi-signal wait wakes at its first triggering signal only); then
   matured deadlines in (deadline, suspension) order,
3. a woken wait is consumed entirely: neither its other signals nor its
   deadline may wake the process again.
"""

from repro.desim.events import Delta, SignalChange, Timeout
from repro.desim.kernel import Simulator
from repro.desim.simtime import check_delay
from repro.utils.errors import SimulationError


class _RefWait:
    """One suspended generator wait: signals watched, optional deadline."""

    __slots__ = ("process", "signals", "resume_at", "seq", "woken")

    def __init__(self, process, signals=(), resume_at=None, seq=0):
        self.process = process
        self.signals = tuple(signals)
        self.resume_at = resume_at
        self.seq = seq
        self.woken = False


class ReferenceSimulator(Simulator):
    """Same observable behaviour as :class:`Simulator`, via linear scans."""

    kernel_name = "reference"

    # Deadlines live in the flat wait list, not a heap, so the clock fast
    # path (which finds the next edge at the heap top) is never taken.
    deadlines_in_heap = False

    def __init__(self, max_deltas=10_000, detect_races=False):
        super().__init__(max_deltas=max_deltas, detect_races=detect_races)
        # Unsorted future transactions: [(time, seq, signal, value)].
        self._ref_future = []
        # Every live suspended wait, in suspension order.
        self._ref_waits = []
        self._ref_seq = 0

    def _next_seq(self):
        self._ref_seq += 1
        return self._ref_seq

    # --------------------------------------------------------------- schedule

    def schedule(self, signal, value, delay=0):
        check_delay(delay)
        self.statistics["transactions"] += 1
        if delay == 0:
            self._delta_queue.append((signal, value))
            if self.detect_races:
                self._record_write(signal, value)
        else:
            self._ref_future.append(
                (self.now + delay, self._next_seq(), signal, value)
            )

    # ---------------------------------------------------------------- phases

    def _next_activity_time(self):
        if self._delta_queue:
            return self.now
        candidates = [entry[0] for entry in self._ref_future]
        candidates.extend(
            wait.resume_at for wait in self._ref_waits
            if not wait.woken and wait.resume_at is not None
        )
        if not candidates:
            return None
        earliest = min(candidates)
        return self.now if earliest <= self.now else earliest

    def _begin_time_point(self):
        matured = [entry for entry in self._ref_future if entry[0] <= self.now]
        if matured:
            self._ref_future = [
                entry for entry in self._ref_future if entry[0] > self.now
            ]
            for _, _, signal, value in sorted(matured):
                self._delta_queue.append((signal, value))

    def _update_phase(self):
        queue, self._delta_queue = self._delta_queue, []
        # Keyed by id: first staging fixes the position; every queued value
        # is staged so the signal's own slots resolve last-write-wins — a
        # force/release control must compound with, not replace, a driven
        # write queued in the same delta.
        staged = {}
        for signal, value in queue:
            staged.setdefault(id(signal), signal)
            signal.stage(value)
        changed = []
        for signal in staged.values():
            if signal.apply_pending(self.now):
                changed.append(signal)
                if signal.name in self.signals:
                    for recorder in self.recorders:
                        recorder.record(self.now, signal)
        return changed

    def _collect_runnable(self, changed):
        runnable = []
        picked = set()
        for signal in changed:
            for process in self.processes.values():
                if process.is_generator or signal not in process.sensitivity:
                    continue
                if process.name not in picked:
                    picked.add(process.name)
                    runnable.append(process)
            for wait in self._ref_waits:
                if not wait.woken and signal in wait.signals:
                    wait.woken = True
                    runnable.append(wait.process)
        if runnable:
            self._compact_waits()
        return runnable

    def _expired_waits(self):
        due = [
            wait for wait in self._ref_waits
            if not wait.woken and wait.resume_at is not None
            and wait.resume_at <= self.now
        ]
        due.sort(key=lambda wait: (wait.resume_at, wait.seq))
        for wait in due:
            wait.woken = True
        if due:
            # Same "timeouts" statistic as the production kernel: matured
            # deadline wakes, so differential runs compare activity
            # profiles counter-for-counter.
            self.statistics["timeouts"] += len(due)
            self._compact_waits()
        return [wait.process for wait in due]

    def _compact_waits(self):
        self._ref_waits = [wait for wait in self._ref_waits if not wait.woken]

    def _obs_timeout_depth(self):
        """Deadline-index population: live waits carrying a deadline.

        The reference kernel has no timeout heap; the comparable quantity
        (exported under the same ``repro_kernel_timeout_heap_depth`` name,
        ``kernel="reference"`` label) is the number of suspended waits a
        deadline could wake.
        """
        return sum(1 for wait in self._ref_waits
                   if not wait.woken and wait.resume_at is not None)

    def _suspend(self, process, condition):
        if condition is None:
            return
        if isinstance(condition, Timeout):
            wait = _RefWait(process, resume_at=self.now + condition.delay,
                            seq=self._next_seq())
        elif isinstance(condition, Delta):
            wait = _RefWait(process, resume_at=self.now, seq=self._next_seq())
        elif isinstance(condition, SignalChange):
            resume_at = None
            if condition.timeout is not None:
                resume_at = self.now + condition.timeout
            wait = _RefWait(process, signals=condition.signals,
                            resume_at=resume_at, seq=self._next_seq())
        else:  # pragma: no cover - Process.step already validates
            raise SimulationError(f"unknown wait condition {condition!r}")
        self._ref_waits.append(wait)

    # ------------------------------------------------------- snapshot/restore

    def _snapshot_pending(self):
        """Naive-structure flavour of the snapshot's scheduling state.

        The flat wait list is already in suspension (seq) order and the
        unsorted future list is order-insensitive (matured entries are
        sorted by ``(time, seq)`` when they drain), so both serialise
        directly.
        """
        return {
            "future": [(time, seq, signal.name, value)
                       for time, seq, signal, value in self._ref_future],
            "waits": [
                {
                    "process": wait.process.name,
                    "signals": [signal.name for signal in wait.signals],
                    "resume_at": wait.resume_at,
                    "seq": wait.seq,
                }
                for wait in self._ref_waits if not wait.woken
            ],
            "seq_next": self._ref_seq + 1,
        }

    def _restore_pending(self, pending):
        self._ref_future = [
            (time, seq, self.signals[name], value)
            for time, seq, name, value in pending["future"]
        ]
        self._ref_waits = [
            _RefWait(
                self.processes[entry["process"]],
                signals=tuple(self.signals[name] for name in entry["signals"]),
                resume_at=entry["resume_at"],
                seq=entry["seq"],
            )
            for entry in pending["waits"]
        ]
        self._ref_seq = pending["seq_next"] - 1

    def __repr__(self):
        return (
            f"ReferenceSimulator(now={self.now}, signals={len(self.signals)}, "
            f"processes={len(self.processes)})"
        )
