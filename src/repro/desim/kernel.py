"""The delta-cycle simulation kernel.

The kernel follows the VHDL simulation cycle:

1. **Signal update phase** — all transactions scheduled for the current
   ``(time, delta)`` are applied; signals whose value changes get an event.
2. **Process execution phase** — processes sensitive to (or waiting on) the
   signals with events, plus processes whose timed waits expire, are run.
   Zero-delay assignments they perform become transactions for the next
   delta cycle of the same physical time.

The cycle repeats until no delta activity remains, then time advances to the
next scheduled transaction or process timeout.

Scheduling data structures
--------------------------

Per-delta work is proportional to *activity* (signals that changed, waits
that matured), never to *population* (total processes registered).  Three
structures make that true:

* ``_future`` — min-heap of ``(time, seq, signal, value)`` transactions.
* ``_timeout_heap`` — min-heap of ``(resume_at, seq, wait)`` for every
  suspended generator with a deadline (``wait for``, ``wait on ... for``).
  Entries are *lazily invalidated*: a wait cancelled by a signal wakeup
  stays in the heap, flagged ``done``, and is discarded when it surfaces.
* ``_waiters`` — per-signal lists of suspended waits (``wait on``), so a
  signal event wakes exactly its own waiters instead of scanning every
  suspended process.  Entries are lazily invalidated the same way.

The invariant tying them together: a suspended process has exactly one
live (``done == False``) wait; waking it — by signal or by deadline,
whichever fires first — sets ``done``, which implicitly cancels every other
index entry that still references it.  Waiter lists additionally count
their stale entries and compact once half the list is dead, so repeated
bounded waits on a quiet signal cannot accumulate unbounded garbage.  See
``docs/kernel.md`` for the full decision rules.
"""

import heapq
import itertools
import operator
import time

from repro.desim.events import Delta, SignalChange, Timeout
from repro.desim.process import Process
from repro.desim.signal import ForceValue, ReleaseValue, Signal
from repro.desim.simtime import check_delay, format_time
from repro.obs import DEPTH_BUCKETS, TELEMETRY
from repro.utils.errors import SimulationError


class _KernelObs:
    """Instruments cached for one telemetry-enabled :meth:`Simulator.run`.

    Bound once per ``run()`` call (:meth:`Simulator._obs_bind`), so the
    delta loop's telemetry branches increment plain attributes instead of
    doing registry lookups per delta cycle.  ``profile`` accumulates
    per-process ``[runs, seconds]`` locally and is flushed into labelled
    counters when the run returns — both kernels report under the same
    counter names, distinguished only by the ``kernel`` label.
    """

    __slots__ = ("registry", "labels", "update_s", "wake_s", "run_s",
                 "delta_depth", "timeout_depth", "totals", "profile")

    #: statistics key -> exported counter name (identical across kernels).
    STAT_COUNTERS = {
        "delta_cycles": "repro_kernel_delta_cycles_total",
        "process_runs": "repro_kernel_process_runs_total",
        "transactions": "repro_kernel_transactions_total",
        "time_points": "repro_kernel_time_points_total",
        "timeouts": "repro_kernel_timeouts_total",
    }

    def __init__(self, registry, kernel_name):
        self.registry = registry
        self.labels = {"kernel": kernel_name}
        phase_help = "Wall-clock seconds spent per kernel phase"
        self.update_s = registry.counter(
            "repro_kernel_phase_seconds_total",
            labels={**self.labels, "phase": "update"}, help=phase_help)
        self.wake_s = registry.counter(
            "repro_kernel_phase_seconds_total",
            labels={**self.labels, "phase": "wake"}, help=phase_help)
        self.run_s = registry.counter(
            "repro_kernel_phase_seconds_total",
            labels={**self.labels, "phase": "run"}, help=phase_help)
        self.delta_depth = registry.histogram(
            "repro_kernel_delta_queue_depth", buckets=DEPTH_BUCKETS,
            labels=self.labels,
            help="Pending zero-delay transactions per delta cycle")
        self.timeout_depth = registry.histogram(
            "repro_kernel_timeout_heap_depth", buckets=DEPTH_BUCKETS,
            labels=self.labels,
            help="Suspended deadline waits per delta cycle")
        self.totals = {
            key: registry.counter(name, labels=self.labels,
                                  help=f"Kernel statistics: {key}")
            for key, name in self.STAT_COUNTERS.items()
        }
        self.profile = {}  # process name -> [runs, seconds]

    def clock_edge(self, process_name, timeout_depth):
        """Account the delta 0 a fast-path clock edge did not run.

        The depth histograms get the observations the skipped delta 0
        would have made (an empty delta queue, the unchanged deadline
        index) and the toggler's profile its run, so histogram counts
        and profiled runs do not depend on which path fired the edge.
        """
        self.delta_depth.observe(0)
        self.timeout_depth.observe(timeout_depth)
        self.profile_run(process_name, 0.0)

    def profile_run(self, process_name, seconds):
        """Add one run of *process_name* taking *seconds* to the profile."""
        entry = self.profile.get(process_name)
        if entry is None:
            self.profile[process_name] = entry = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    def flush(self, statistics, stats_before, fast_edges):
        """Export the run's statistics deltas and per-process profile.

        *fast_edges* is the run's count of fast-path clock edges, kept
        outside ``statistics`` (see :attr:`Simulator.clock_fast_edges`).
        """
        for key, counter in self.totals.items():
            counter.inc(statistics[key] - stats_before[key])
        self.registry.counter(
            "repro_kernel_clock_fast_edges_total", labels=self.labels,
            help="Clock edges fired by the kernel's arithmetic fast path",
        ).inc(fast_edges)
        for name, (runs, seconds) in self.profile.items():
            self.registry.counter(
                "repro_kernel_process_seconds_total",
                labels={**self.labels, "process": name},
                help="Wall-clock seconds spent running each process",
            ).inc(seconds)
            self.registry.counter(
                "repro_kernel_process_profile_runs_total",
                labels={**self.labels, "process": name},
                help="Process runs observed by the wall-clock profiler",
            ).inc(runs)
        self.profile.clear()


class _GenWait:
    """Book-keeping for one suspended generator process.

    A wait may be registered in several indexes at once: the per-signal
    waiter lists (one per signal in *signals*) and the timeout heap (when
    *resume_at* is set).  Whichever index wakes the process first marks the
    wait ``done``; stale references left in the other indexes are skipped
    and dropped when next encountered (*lazy invalidation*), so cancelling
    a wait never requires searching a heap or a list.

    *seq* records the suspension order: it breaks deadline ties on the
    timeout heap and lets :meth:`Simulator.snapshot` serialise the waiter
    index in an order :meth:`Simulator.restore` can rebuild exactly.
    """

    __slots__ = ("process", "signals", "resume_at", "done", "seq")

    def __init__(self, process, signals=(), resume_at=None, seq=0):
        self.process = process
        self.signals = tuple(signals)
        self.resume_at = resume_at
        self.done = False
        self.seq = seq


class Simulator:
    """Discrete-event simulator holding signals and processes.

    Typical use::

        sim = Simulator()
        clk = sim.add_clock("clk", period=100)
        data = sim.add_signal("data", init=0)
        sim.add_process("producer", produce, sensitivity=[clk])
        sim.run(until=10_000)

    The public surface is ``add_signal`` / ``add_process`` / ``add_clock`` /
    ``schedule`` / ``run`` plus the testbench helpers (``peek``, ``poke``,
    ``signal``).  Scheduling cost per delta cycle is proportional to the
    number of signals that changed and waits that matured, independent of
    how many processes are registered or suspended.
    """

    kernel_name = "production"

    #: True when every matured deadline is discoverable from
    #: ``_timeout_heap[0]`` — the precondition for the clock fast path of
    #: :meth:`_clock_edges`.  A subclass keeping deadlines in a different
    #: structure (the reference kernel's flat wait list) must set this
    #: False, which keeps :meth:`run` off that path.
    deadlines_in_heap = True

    #: Fewest and most rising edges a failed steady-state probe waits
    #: before the next one (see :meth:`_steady_period`).
    STEADY_BACKOFF_MIN = 8
    STEADY_BACKOFF_CAP = 64

    def __init__(self, max_deltas=10_000, detect_races=False):
        self.max_deltas = max_deltas
        #: when true, zero-delay writes are attributed to the running
        #: process and same-delta multi-writer signals are logged in
        #: :attr:`race_log` — the dynamic cross-check of the static
        #: ``repro.lint`` RACE001 analysis.
        self.detect_races = bool(detect_races)
        #: race events observed so far: dicts with ``time``, ``delta``,
        #: ``signal`` and the sorted distinct ``writers``.  Observation
        #: state, not simulation state: excluded from ``statistics`` and
        #: from :meth:`snapshot`, and recording never perturbs scheduling.
        self.race_log = []
        self._current_writer = None
        # Zero-delay writes of the pending delta: [(signal, writer name)].
        self._delta_writes = []
        self.now = 0
        self.delta = 0
        self.signals = {}
        self.processes = {}
        self.recorders = []
        self.monitors = []
        self._seq = itertools.count()
        # Future transactions: heap of (time, seq, signal, value).
        self._future = []
        # Transactions for the next delta of the current time: [(signal, value)].
        self._delta_queue = []
        # Signal name -> {process name: Process} (dict, not set: iteration
        # must follow registration order, so same-delta run order is
        # identical in every interpreter process regardless of
        # PYTHONHASHSEED — seeded co-simulations depend on it).  The values
        # hold the Process objects so waking a fully-active population costs
        # one dict-values iteration, not a name lookup per process per delta.
        self._sensitivity = {}
        # Deadline index: heap of (resume_at, seq, _GenWait), lazily pruned.
        self._timeout_heap = []
        # Waiter index: id(signal) -> [_GenWait], lazily pruned.
        self._waiters = {}
        # id(signal) -> count of done entries still in its waiter list;
        # drives compaction once half a list is dead.
        self._waiter_stale = {}
        self._started = False
        self._in_run = False
        # Telemetry binding for the current run (None = disabled fast path).
        self._obs = None
        # The counter set is part of the kernel's observable contract: both
        # kernels expose the same keys with the same meanings ("timeouts"
        # counts matured deadline wakes), so differential runs can compare
        # activity profiles, not just results.
        self.statistics = {
            "delta_cycles": 0,
            "process_runs": 0,
            "transactions": 0,
            "time_points": 0,
            "timeouts": 0,
        }
        #: clock edges fired by the fast path of :meth:`_clock_edges`.
        #: Observation state like :attr:`race_log`: the fast path is
        #: unobservable by design, so the count is kept out of
        #: ``statistics`` (which fingerprints compare across kernels) and
        #: out of :meth:`snapshot`.
        self.clock_fast_edges = 0
        #: the part of ``clock_fast_edges`` the steady-period skip of
        #: :meth:`_clock_edges` accounted arithmetically, without firing.
        self.clock_skipped_edges = 0
        # A co-simulation session's probe, ``() -> (key, cells) | None``
        # (see _steady_period), and its back-off: the first rising edges,
        # a start-up, go unprobed.
        self._steady_probe = None
        self._steady_wait = self._steady_backoff = self.STEADY_BACKOFF_MIN

    # ------------------------------------------------------------------ setup

    def add_signal(self, name, init=0, dtype=None):
        """Create and register a :class:`Signal`; returns it."""
        if name in self.signals:
            raise SimulationError(f"duplicate signal name {name!r}")
        signal = Signal(name, init=init, dtype=dtype)
        self.signals[name] = signal
        self._announce_signal(signal)
        return signal

    def _announce_signal(self, signal):
        """Tell started recorders about a late-registered signal.

        Recorders pin a signal's initial value at :meth:`start`; a signal
        registered afterwards would otherwise be assumed to start at 0 in
        ``value_at``/``count_pulses``/``edge_times``.
        """
        if not self._started:
            return
        for recorder in self.recorders:
            register = getattr(recorder, "register", None)
            if register is not None:
                register(signal)

    def add_process(self, name, func, sensitivity=(), initial_run=True,
                    first_wait=None, rearmable=False):
        """Register a process; *func* is a callable or generator function.

        *first_wait* parks a generator process on a wait condition at
        simulation start instead of running it (implies
        ``initial_run=False``); *rearmable* declares the generator safe for
        :meth:`restore` re-suspension — see :class:`Process`.
        """
        if name in self.processes:
            raise SimulationError(f"duplicate process name {name!r}")
        process = Process(name, func, sensitivity=sensitivity,
                          initial_run=initial_run, first_wait=first_wait,
                          rearmable=rearmable)
        self.processes[name] = process
        for signal in process.sensitivity:
            self._sensitivity.setdefault(signal.name, {})[process.name] = process
        return process

    def add_clocked_process(self, name, func, clock, edge=1):
        """Register *func* to run after each transition of *clock* to *edge*.

        Sugar over :meth:`add_process` for the dominant co-simulation shape
        (an FSM stepped once per rising clock edge): the process is made
        sensitive to *clock* and the edge filter is applied before *func*
        is entered.  Returns the created :class:`Process`.
        """

        def on_edge():
            if clock.value == edge:
                func()

        return self.add_process(name, on_edge, sensitivity=[clock],
                                initial_run=False)

    def add_clock(self, name, period, start_value=0, start_delay=0):
        """Create a free-running clock signal toggling every ``period/2`` ns."""
        check_delay(period)
        if period < 2 or period % 2:
            raise SimulationError("clock period must be an even number of ns >= 2")
        clock = self.add_signal(name, init=start_value)
        half = period // 2

        # Act-first loop with no prologue and no loop-carried frame state:
        # the clock's whole state is the signal value, so the process is
        # rearmable and clocks survive snapshot/restore.  A start delay is
        # expressed as the kernel-armed first wait, not as frame state.
        def toggler():
            tick = Timeout(half)
            schedule = self.schedule
            while True:
                schedule(clock, 1 - clock.value, 0)
                yield tick

        first_wait = Timeout(start_delay) if start_delay else None
        process = self.add_process(f"{name}_gen", toggler,
                                   first_wait=first_wait, rearmable=True)
        process._clock = (clock, half)
        return clock

    def add_recorder(self, recorder):
        """Attach a waveform recorder (anything with ``record(time, signal)``).

        A recorder attached after the run started is started at once, so
        it pins the current values as its signals' initial values.
        """
        self.recorders.append(recorder)
        if self._started:
            recorder.start(self)
        return recorder

    def add_monitor(self, monitor):
        """Attach a monitor checked after every delta cycle."""
        self.monitors.append(monitor)
        return monitor

    # --------------------------------------------------------------- schedule

    def schedule(self, signal, value, delay=0):
        """Schedule a transaction on *signal* after *delay* nanoseconds.

        A zero delay means "next delta cycle", exactly like a VHDL signal
        assignment with no after clause.
        """
        check_delay(delay)
        self.statistics["transactions"] += 1
        if delay == 0:
            self._delta_queue.append((signal, value))
            if self.detect_races:
                self._record_write(signal, value)
        else:
            heapq.heappush(
                self._future, (self.now + delay, next(self._seq), signal, value)
            )

    # ---------------------------------------------------------- race detection

    def _record_write(self, signal, value):
        """Attribute a zero-delay write to the process currently running.

        Force/release controls are fault-injection overlays, not drivers —
        they never count as writers.  Writes scheduled from outside any
        process (a testbench ``poke`` between runs) are attributed to
        ``"<external>"``.
        """
        if isinstance(value, (ForceValue, ReleaseValue)):
            return
        self._delta_writes.append(
            (signal, self._current_writer or "<external>"))

    def _race_scan(self):
        """Log every signal of the pending delta with >= 2 distinct writers.

        Called by the delta loop immediately before the update phase, when
        the queued transactions of one delta cycle are complete.  Delayed
        transactions matured by ``_begin_time_point`` are deliberately not
        tracked: the race model (like the static RACE001 analysis) covers
        same-delta driver conflicts, where last-write-wins resolution hides
        a nondeterministic outcome.
        """
        writes, self._delta_writes = self._delta_writes, []
        per_signal = {}
        for signal, writer in writes:
            per_signal.setdefault(signal.name, []).append(writer)
        for name, writers in per_signal.items():
            distinct = sorted(set(writers))
            if len(distinct) >= 2:
                self.race_log.append({
                    "time": self.now,
                    "delta": self.delta,
                    "signal": name,
                    "writers": distinct,
                })

    def race_signals(self):
        """Distinct signal names with at least one observed write race."""
        return {event["signal"] for event in self.race_log}

    # -------------------------------------------------------------------- run

    def _start(self):
        self._started = True
        for recorder in self.recorders:
            recorder.start(self)
        runnable = []
        for process in self.processes.values():
            process.start()
            if process.first_wait is not None:
                self._suspend(process, process.first_wait)
            elif process.initial_run:
                runnable.append(process)
        self._run_processes(runnable)
        self._drain_deltas()

    def run(self, until=None):
        """Run the simulation.

        *until* is an absolute stop time in nanoseconds; when omitted the
        simulation runs until no activity remains.  A stop time before
        ``now`` raises :class:`SimulationError`: simulated time never moves
        backwards.  Returns the simulation time reached.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is before the current time "
                f"{format_time(self.now)}: simulated time cannot go back"
            )
        obs = self._obs_bind()
        stats_before = dict(self.statistics) if obs is not None else None
        edges_before = self.clock_fast_edges
        if not self._started:
            self._start()
        # The clock fast path finds due deadlines at the heap top (which
        # the reference kernel does not keep) and skips a delta cycle that
        # race attribution would have to see.
        fast_clocks = self.deadlines_in_heap and not self.detect_races
        self._in_run = True
        try:
            while True:
                next_time = self._next_activity_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                self.now = next_time
                self.statistics["time_points"] += 1
                if not (fast_clocks and self._clock_edges(until)):
                    self._begin_time_point()
                    self._drain_deltas()
                if until is not None and self.now >= until:
                    break
        finally:
            self._in_run = False
            if obs is not None:
                obs.flush(self.statistics, stats_before,
                          self.clock_fast_edges - edges_before)
        return self.now

    def run_for(self, duration):
        """Run for *duration* additional nanoseconds."""
        return self.run(until=self.now + check_delay(duration))

    # ---------------------------------------------------------------- phases

    def _next_activity_time(self):
        """Earliest time with pending work, or ``None`` when fully idle.

        Pending zero-delay transactions and past-due waits (a deadline at
        or before ``now``, reachable when activity is injected between two
        :meth:`run` calls) report ``self.now``: they are due immediately
        and must not be mistaken for "no activity", which would stall
        :meth:`run`.
        """
        if self._delta_queue:
            return self.now
        earliest = self._peek_deadline()
        if self._future and (earliest is None
                             or self._future[0][0] < earliest):
            earliest = self._future[0][0]
        if earliest is None:
            return None
        return self.now if earliest <= self.now else earliest

    def _peek_deadline(self):
        """Earliest live deadline, discarding cancelled waits from the heap top."""
        heap = self._timeout_heap
        while heap:
            resume_at, _, wait = heap[0]
            if wait.done:
                heapq.heappop(heap)
                continue
            return resume_at
        return None

    def _begin_time_point(self):
        """Move matured future transactions into the delta queue."""
        while self._future and self._future[0][0] <= self.now:
            _, _, signal, value = heapq.heappop(self._future)
            self._delta_queue.append((signal, value))

    def _lone_clock_wait(self, now):
        """The clock wait that is the only activity due at *now*, or None.

        That is a live wait of an unfinished :meth:`add_clock` toggler at
        the timeout-heap top, due exactly at *now*, with no other matured
        deadline (a heap entry's ancestors are never later than it, so
        checking the top's two children suffices), no future transaction
        maturing at *now*, no queued zero-delay transaction and no monitor
        to check.  :meth:`_clock_edges` checks it before every edge.
        """
        heap = self._timeout_heap
        if not heap or self._delta_queue or self.monitors:
            return None
        resume_at, _, wait = heap[0]
        process = wait.process
        if (process._clock is None or resume_at != now or wait.done
                or process.finished
                or (len(heap) > 1 and heap[1][0] <= now)
                or (len(heap) > 2 and heap[2][0] <= now)
                or (self._future and self._future[0][0] <= now)):
            return None
        return wait

    def _clock_edges(self, until):
        """Fire lone clock edges from ``now`` in one loop; False if none.

        Runs while the clock's next edge is the only due activity
        (:meth:`_lone_clock_wait`) and not after *until*, one whole time
        point per iteration.  Delta 0 of such a time point would only wake
        the toggler, which schedules the inverted clock value and re-arms
        its half-period timeout.  Here the wait is re-armed in place with
        the sequence number the generator's suspension would have drawn
        and the counters delta 0 would have bumped are compensated; the
        generator is not resumed (its loop carries no state beyond the
        clock signal).  Delta 1 is done inline: flip and record the clock,
        run its sensitivity-list processes (falling edges too: the fused
        step's falling-edge effect is its ``process_runs`` compensation)
        and hand staged writes to :meth:`_drain_deltas` from delta 2.  A
        forced clock, a generator waiting on it or a ``max_deltas`` below 2
        (which delta 1 exceeds) takes the generic delta 1 instead.
        Statistics, run counts and snapshots match the generic path
        exactly.

        With a steady-state probe, telemetry unbound and an *until*, a
        rising edge may first skip whole periods (:meth:`_steady_period`).
        """
        now = self.now
        wait = self._lone_clock_wait(now)
        if wait is None:
            return False
        process = wait.process
        signal, half = process._clock
        key = id(signal)
        heap = self._timeout_heap
        waiters = self._waiters
        sensitivity = self._sensitivity
        recorders = self.recorders
        statistics = self.statistics
        obs = self._obs
        inline = self.max_deltas >= 2
        probe = self._steady_probe
        if obs is not None or until is None:
            probe = None
        base = None
        while True:
            if probe is not None and not signal._value:
                if self._steady_wait:
                    self._steady_wait -= 1
                else:
                    base = self._steady_period(base, probe, wait, until)
                    now = self.now
            seq = next(self._seq)
            wait.resume_at = resume_at = now + half
            wait.seq = seq
            heapq.heapreplace(heap, (resume_at, seq, wait))
            process.run_count += 1
            statistics["timeouts"] += 1
            statistics["process_runs"] += 1
            statistics["transactions"] += 1
            statistics["delta_cycles"] += 1
            self.clock_fast_edges += 1
            if obs is not None:
                obs.clock_edge(process.name, len(heap))
            if not inline or key in waiters or signal._forced is not None:
                self._delta_queue.append((signal, 1 - signal._value))
                self._drain_deltas(1)
            else:
                if obs is not None:
                    obs.delta_depth.observe(1)
                    obs.timeout_depth.observe(len(heap))
                self.delta = 1
                signal._value = 1 - signal._value
                signal.last_changed = now
                signal.change_count += 1
                signal.event = True
                for recorder in recorders:
                    recorder.record(now, signal)
                procs = sensitivity.get(signal.name)
                runnable = list(procs.values()) if procs else ()
                for clocked in runnable:
                    clocked.run_count += 1
                    if obs is None:
                        clocked.func()
                    else:
                        begin = time.perf_counter()
                        clocked.func()
                        obs.profile_run(clocked.name,
                                        time.perf_counter() - begin)
                statistics["process_runs"] += len(runnable)
                signal.event = False
                self.delta = 2
                statistics["delta_cycles"] += 1
                if self._delta_queue:
                    self._drain_deltas(2)
                elif obs is not None:
                    obs.delta_depth.observe(0)
                    obs.timeout_depth.observe(len(heap))
            now = heap[0][0]
            if (until is not None and now > until
                    or self._lone_clock_wait(now) is not wait):
                return True
            self.now = now
            statistics["time_points"] += 1

    def _steady_period(self, base, probe, wait, until):
        """Sample or compare the steady state at a lone rising edge.

        *base* is this burst's sample of the previous rising edge, one
        period of lone edges ago.  A sample is a state key (heap sizes,
        every other signal's state, then the probe's parts) and counter
        cells (the probe's, every process's ``run_count``, the clock's
        ``change_count``, its wait's ``seq``, ``now`` and
        ``clock_fast_edges``).  A key equal to the base's, compared part
        by part, makes the period a fixpoint that :meth:`_skip_periods`
        repeats arithmetically.  No sample is taken unless the clock keeps
        the inline delta 1 and every recorder has ``extend``; a refusal or
        a changed key backs off, doubling from :attr:`STEADY_BACKOFF_MIN`
        to :attr:`STEADY_BACKOFF_CAP` rising edges.  Returns the new base.
        """
        signal = wait.process._clock[0]
        sample = None
        if (self.max_deltas >= 2 and id(signal) not in self._waiters
                and signal._forced is None
                and all(hasattr(recorder, "extend")
                        for recorder in self.recorders)):
            sample = probe()
        if sample is not None:
            key = itertools.chain(
                [(len(self._future), len(self._timeout_heap))],
                ((other._value, other.change_count, other._forced,
                  other._shadow)
                 for other in self.signals.values() if other is not signal),
                sample[0])
            if base is None:
                cells = [*sample[1](),
                         *((process, "run_count")
                           for process in self.processes.values()),
                         (signal, "change_count"), (wait, "seq"),
                         (self, "now"), (self, "clock_fast_edges")]
                return (list(key), cells,
                        [getattr(obj, name) for obj, name in cells],
                        dict(self.statistics))
            if all(map(operator.eq, base[0], key)):
                self._steady_backoff = self.STEADY_BACKOFF_MIN
                self._skip_periods(base, wait, until)
                return None
        self._steady_wait = self._steady_backoff
        self._steady_backoff = min(2 * self._steady_backoff,
                                   self.STEADY_BACKOFF_CAP)
        return None

    def _skip_periods(self, base, wait, until):
        """Account n whole steady periods from ``now`` without firing them.

        n is the most periods whose edges, and the edge they land on, fall
        before any other deadline or future transaction and not after
        *until*.  Each cell and statistic grows by n times its growth since
        *base*, ``_seq`` resumes n periods' draws later and recorders get
        the toggles in one call.  The burst fires the landing edge next,
        which re-arms the clock wait and sets the clock's ``last_changed``.
        """
        signal, half = wait.process._clock
        start = self.now
        heap = self._timeout_heap
        limit = until
        for entry in heap[1:3]:
            limit = min(limit, entry[0] - 1)
        if self._future:
            limit = min(limit, self._future[0][0] - 1)
        n = (limit - start) // (2 * half)
        if n <= 0:
            return
        _, cells, before, stats_before = base
        draws = wait.seq
        for (obj, name), old in zip(cells, before):
            new = getattr(obj, name)
            if new != old:
                setattr(obj, name, new + n * (new - old))
        statistics = self.statistics
        for name, old in stats_before.items():
            statistics[name] += n * (statistics[name] - old)
        self._seq = itertools.count(next(self._seq) + wait.seq - draws)
        self.clock_skipped_edges += 2 * n
        if self.recorders:
            pair = (1 - signal._value, signal._value)
            toggles = [(start + i * half, pair[i & 1])
                       for i in range(2 * n)]
            for recorder in self.recorders:
                recorder.extend(signal, toggles)

    def _expired_waits(self):
        """Pop and wake every wait whose deadline has matured.

        Cancelled (``done``) entries surfacing at the heap top are
        discarded — this is where lazy invalidation pays its debt, once
        per cancelled wait over the whole simulation.
        """
        expired = []
        heap = self._timeout_heap
        while heap:
            resume_at, _, wait = heap[0]
            if wait.done:
                heapq.heappop(heap)
                continue
            if resume_at > self.now:
                break
            heapq.heappop(heap)
            self._wake(wait)
            expired.append(wait.process)
        if expired:
            self.statistics["timeouts"] += len(expired)
        return expired

    def _wake(self, wait):
        """Consume *wait*: it no longer wakes its process through any index.

        Stale timeout-heap entries are discarded when they surface at the
        top; waiter lists have no such guaranteed drain (the watched signal
        may never change again), so each list tracks its dead-entry count
        and is compacted in place once at least half of it is stale —
        amortised O(1) per wake, and bounded garbage per signal.
        """
        wait.done = True
        for signal in wait.signals:
            key = id(signal)
            waiters = self._waiters.get(key)
            if waiters is None:
                continue
            stale = self._waiter_stale.get(key, 0) + 1
            if 2 * stale >= len(waiters):
                live = [entry for entry in waiters if not entry.done]
                if live:
                    self._waiters[key] = live
                else:
                    del self._waiters[key]
                self._waiter_stale.pop(key, None)
            else:
                self._waiter_stale[key] = stale

    # ------------------------------------------------------------- telemetry

    def _obs_bind(self):
        """(Re)bind cached telemetry instruments for the next run.

        With telemetry off, ``self._obs`` stays ``None`` and the one delta
        loop (:meth:`_drain_deltas`, :meth:`_run_processes`) skips every
        instrument behind an ``is None`` check.
        """
        if not TELEMETRY.enabled:
            self._obs = None
        elif self._obs is None:
            self._obs = _KernelObs(TELEMETRY.metrics, self.kernel_name)
        return self._obs

    def _obs_timeout_depth(self):
        """Current deadline-index population (for the depth histogram)."""
        return len(self._timeout_heap)

    def _drain_deltas(self, delta=0):
        """Run delta cycles from *delta* until the time point settles.

        *delta* is 1 or 2 after a fast-path clock edge (:meth:`_clock_edges`
        already did delta 0's or deltas 0 and 1's work).  With telemetry
        bound, each delta also samples the queue depths and times its
        update, wake and run phases.
        """
        self.delta = delta
        statistics = self.statistics
        obs = self._obs
        while True:
            if self._delta_writes:
                self._race_scan()
            if obs is not None:
                obs.delta_depth.observe(len(self._delta_queue))
                obs.timeout_depth.observe(self._obs_timeout_depth())
                begin = time.perf_counter()
            changed = self._update_phase()
            if obs is not None:
                updated = time.perf_counter()
            runnable = self._collect_runnable(changed)
            runnable.extend(self._expired_waits())
            if obs is not None:
                woken = time.perf_counter()
                obs.update_s.inc(updated - begin)
                obs.wake_s.inc(woken - updated)
            if not changed and not runnable:
                break
            self._run_processes(runnable)
            if obs is not None:
                obs.run_s.inc(time.perf_counter() - woken)
            for signal in changed:
                signal.clear_event()
            for monitor in self.monitors:
                monitor.check(self)
            self.delta += 1
            statistics["delta_cycles"] += 1
            if self.delta > self.max_deltas:
                raise SimulationError(
                    f"delta-cycle limit exceeded at {format_time(self.now)}; "
                    "combinational loop or zero-delay oscillation"
                )

    def _update_phase(self):
        """Apply queued transactions; returns the signals whose value changed.

        Staging is batched: each signal's ``_staged`` flag marks it as
        already collected this delta, replacing the ``id()``-set dedup pass
        (last write still wins, because later stages overwrite the pending
        value while the signal is appended only once).
        """
        queue, self._delta_queue = self._delta_queue, []
        staged = []
        for signal, value in queue:
            if not signal._staged:
                signal._staged = True
                staged.append(signal)
            signal.stage(value)
        changed = []
        now = self.now
        recorders = self.recorders
        signals = self.signals
        for signal in staged:
            signal._staged = False
            if signal.apply_pending(now):
                changed.append(signal)
                if recorders and signal.name in signals:
                    for recorder in recorders:
                        recorder.record(now, signal)
        return changed

    def _collect_runnable(self, changed):
        """Processes triggered by the *changed* signals of this delta.

        Sensitivity-list processes come from the per-signal ``_sensitivity``
        index; suspended generators come from the per-signal ``_waiters``
        lists, which are popped wholesale (their live entries wake, their
        stale entries drop).  Nothing here iterates over the full process
        population.
        """
        sensitivity = self._sensitivity
        waiters_index = self._waiters
        runnable = []
        picked = set()
        for signal in changed:
            procs = sensitivity.get(signal.name)
            if procs:
                for process in procs.values():
                    if process not in picked:
                        picked.add(process)
                        runnable.append(process)
            waiters = waiters_index.pop(id(signal), None)
            if waiters:
                self._waiter_stale.pop(id(signal), None)
                for wait in waiters:
                    if wait.done:
                        continue
                    self._wake(wait)
                    runnable.append(wait.process)
        return runnable

    def _run_processes(self, runnable):
        """Run every process in *runnable*, re-suspending generators.

        Every process runs through :meth:`Process.step`; the run statistic
        is accumulated locally and added once.  With telemetry bound, each
        run is also timed into the profile (:meth:`_KernelObs.profile_run`).
        """
        if not runnable:
            return
        runs = 0
        suspend = self._suspend
        detect = self.detect_races
        obs = self._obs
        for process in runnable:
            if process.finished:
                continue
            runs += 1
            if detect:
                self._current_writer = process.name
            if obs is not None:
                begin = time.perf_counter()
            suspend(process, process.step())
            if obs is not None:
                obs.profile_run(process.name, time.perf_counter() - begin)
        if detect:
            self._current_writer = None
        self.statistics["process_runs"] += runs

    def _suspend(self, process, condition):
        """Park a generator process until *condition* is met.

        The wait is indexed under every signal it watches and, when it has
        a deadline, on the timeout heap; a ``Delta`` wait is a deadline at
        the current time, which the delta loop picks up on its next
        iteration within the same time point.
        """
        if condition is None:
            return
        seq = next(self._seq)
        if isinstance(condition, Timeout):
            wait = _GenWait(process, resume_at=self.now + condition.delay,
                            seq=seq)
        elif isinstance(condition, Delta):
            wait = _GenWait(process, resume_at=self.now, seq=seq)
        elif isinstance(condition, SignalChange):
            resume_at = None
            if condition.timeout is not None:
                resume_at = self.now + condition.timeout
            wait = _GenWait(process, signals=condition.signals,
                            resume_at=resume_at, seq=seq)
        else:  # pragma: no cover - Process.step already validates
            raise SimulationError(f"unknown wait condition {condition!r}")
        self._register_wait(wait)

    def _register_wait(self, wait):
        """Index a wait under its signals and, with a deadline, on the heap."""
        for signal in wait.signals:
            self._waiters.setdefault(id(signal), []).append(wait)
        if wait.resume_at is not None:
            heapq.heappush(
                self._timeout_heap, (wait.resume_at, wait.seq, wait)
            )

    # ------------------------------------------------------- snapshot/restore

    def snapshot(self):
        """Capture the kernel's complete state as a picklable dict.

        The snapshot covers simulation time, statistics, every signal's
        state, every pending future transaction, the timeout heap, the
        per-signal waiter index and every process's counters — everything
        the kernel owns.  It is taken **between** :meth:`run` calls (never
        from inside a running process); an unstarted simulator is started
        first so time-0 activity is part of the captured state.

        Generator *frames* are not serialisable; a suspended generator is
        captured as its pending wait, which :meth:`restore` re-arms on a
        fresh generator instance.  That round-trip is exact only for
        processes registered ``rearmable=True`` (act-first loops whose
        state lives in signals or captured objects) — restore refuses
        anything else rather than resume it wrongly.
        """
        if self._in_run:
            raise SimulationError(
                "snapshot() must be taken between run() calls, "
                "not from inside a running process"
            )
        if not self._started:
            self._start()
        return {
            "format": 1,
            "kernel": self.kernel_name,
            "now": self.now,
            "delta": self.delta,
            "statistics": dict(self.statistics),
            # Zero-delay transactions injected between run() calls (a
            # testbench poke) are pending work, not yet signal state.
            "delta_queue": [(signal.name, value)
                            for signal, value in self._delta_queue],
            "signal_order": list(self.signals),
            "signals": {name: signal.capture_state()
                        for name, signal in self.signals.items()},
            "process_order": list(self.processes),
            "processes": {
                name: {"finished": process.finished,
                       "run_count": process.run_count}
                for name, process in self.processes.items()
            },
            "pending": self._snapshot_pending(),
        }

    def restore(self, snapshot):
        """Reset this simulator to a :meth:`snapshot`'s state and return it.

        The target must have the **same structure** as the snapshotted
        simulator: identical signal and process registrations in identical
        order (typically a fresh build of the same scenario, or the very
        simulator the snapshot came from).  Every suspended generator wait
        in the snapshot is re-armed on a fresh generator, which requires
        the process to be rearmable; waveform recorders are left alone
        (their history is owned by whoever owns the recorder — see
        ``CosimSession.save``).
        """
        if self._in_run:
            raise SimulationError(
                "restore() must happen between run() calls, "
                "not from inside a running process"
            )
        if snapshot.get("format") != 1:
            raise SimulationError(
                f"unsupported kernel snapshot format {snapshot.get('format')!r}"
            )
        if snapshot["signal_order"] != list(self.signals):
            raise SimulationError(
                "snapshot does not match this simulator: different signal "
                "registrations"
            )
        if snapshot["process_order"] != list(self.processes):
            raise SimulationError(
                "snapshot does not match this simulator: different process "
                "registrations"
            )
        suspended = {entry["process"] for entry in snapshot["pending"]["waits"]}
        for name in suspended:
            process = self.processes[name]
            if not process.restorable:
                raise SimulationError(
                    f"process {name!r} is a non-rearmable generator: its "
                    "suspended frame cannot be rebuilt from a snapshot "
                    "(register act-first loops with rearmable=True)"
                )
        if not self._started:
            # Start recorders so they know their signals and pin initial
            # values; initial process runs are NOT executed — their effects
            # are already part of the snapshotted state.
            self._started = True
            for recorder in self.recorders:
                recorder.start(self)
        self.now = snapshot["now"]
        self.delta = snapshot["delta"]
        self.statistics = dict(snapshot["statistics"])
        for name, state in snapshot["signals"].items():
            self.signals[name].restore_state(state)
        for name, state in snapshot["processes"].items():
            process = self.processes[name]
            process.start()
            process.finished = state["finished"]
            process.run_count = state["run_count"]
        self._delta_queue = [(self.signals[name], value)
                             for name, value in snapshot["delta_queue"]]
        # Race observation state is not part of a snapshot (it never feeds
        # back into scheduling); restored pending writes lose attribution.
        self._delta_writes = []
        self._restore_pending(snapshot["pending"])
        return self

    def _snapshot_pending(self):
        """Scheduling state: future transactions, live waits, seq counter."""
        future = sorted(
            (time, seq, signal.name, value)
            for time, seq, signal, value in self._future
        )
        waits = sorted(self._iter_live_waits(), key=lambda wait: wait.seq)
        # Reserve the counter's current value without disturbing the
        # sequence the simulator itself will hand out next.
        seq_next = next(self._seq)
        self._seq = itertools.count(seq_next)
        return {
            "future": future,
            "waits": [
                {
                    "process": wait.process.name,
                    "signals": [signal.name for signal in wait.signals],
                    "resume_at": wait.resume_at,
                    "seq": wait.seq,
                }
                for wait in waits
            ],
            "seq_next": seq_next,
        }

    def _iter_live_waits(self):
        """Every live (not ``done``) wait, deduplicated across indexes."""
        seen = {}
        for waiters in self._waiters.values():
            for wait in waiters:
                if not wait.done:
                    seen[id(wait)] = wait
        for _, _, wait in self._timeout_heap:
            if not wait.done:
                seen[id(wait)] = wait
        return list(seen.values())

    def _restore_pending(self, pending):
        """Rebuild the scheduling structures from a snapshot's pending state."""
        self._future = [
            (time, seq, self.signals[name], value)
            for time, seq, name, value in pending["future"]
        ]
        heapq.heapify(self._future)
        self._timeout_heap = []
        self._waiters = {}
        self._waiter_stale = {}
        for entry in pending["waits"]:
            wait = _GenWait(
                self.processes[entry["process"]],
                signals=tuple(self.signals[name] for name in entry["signals"]),
                resume_at=entry["resume_at"],
                seq=entry["seq"],
            )
            self._register_wait(wait)
        self._seq = itertools.count(pending["seq_next"])

    # ---------------------------------------------------------------- helpers

    def signal(self, name):
        """Return a registered signal by name."""
        try:
            return self.signals[name]
        except KeyError:
            raise SimulationError(f"unknown signal {name!r}") from None

    def peek(self, name):
        """Return the current value of the signal called *name*."""
        return self.signal(name).value

    def poke(self, name, value, delay=0):
        """Schedule *value* on the signal called *name* (testbench helper)."""
        self.schedule(self.signal(name), value, delay)

    def force(self, name, value, delay=0):
        """Pin the signal called *name* to *value* (HDL ``force``).

        The force engages at the update phase *delay* ns from now and
        holds until :meth:`release`; driver writes in between are
        suppressed (the last one is remembered).  Used by fault injection
        to model stuck wires without touching the drivers.
        """
        self.schedule(self.signal(name), ForceValue(value), delay)

    def release(self, name, delay=0):
        """Release a forced signal (HDL ``release``).

        The signal resumes the most recent value its drivers attempted
        during the force window (the pre-force value when none did).
        Releasing an unforced signal is a no-op.
        """
        self.schedule(self.signal(name), ReleaseValue(), delay)

    def __repr__(self):
        return (
            f"Simulator(now={format_time(self.now)}, signals={len(self.signals)}, "
            f"processes={len(self.processes)})"
        )
