"""Seeded random generation of kernel-level scenarios.

A :class:`KernelScenario` is a reproducible recipe: given ``(size, seed)``
it builds *the same* process network into any kernel honouring the
:class:`~repro.desim.kernel.Simulator` API, so the differential runner can
execute it once per kernel and compare every observable.

Generated networks mix every scheduling shape the kernel supports:

* free-running clocks (``add_clock``),
* sensitivity-list processes and clocked processes (``add_clocked_process``),
* generator processes running finite random scripts of ``Timeout`` /
  ``SignalChange`` / ``Delta`` waits,
* watchdogs re-issuing bounded waits on quiet signals (waiter-list churn),
* permanently idle waiters with far-future deadlines (population scaling),
* pokers injecting future transaction bursts, plus mid-run pokes between
  segmented ``run()`` calls (the PR-1 stall regressions).

**Boundedness.** Data signals are organised in layers; a process whose
trigger signals reach up to layer *i* may schedule zero-delay writes only
to layers strictly greater than *i* (time-triggered work may start at any
layer).  Zero-delay chains are therefore bounded by the layer count and the
generated networks can never hit the delta-cycle limit, while still
exercising multi-delta cascades every time point.

**Determinism.** All structure is drawn at build time from
``random.Random(<string seed>)`` (string seeding is hash-randomization
independent); runtime behaviour uses per-process streams seeded the same
way, so two builds of one scenario behave identically — unless the kernels
schedule them differently, which is exactly what the kit must detect.
"""

import random

from repro.desim import Delta, SignalChange, Timeout, WaveformRecorder, create_simulator
from repro.cosim.faults import FAULT_KINDS
from repro.testkit.coverage import CoverageMap, coverage_universe, merge_universes
from repro.testkit.models import generate_system
from repro.testkit.scenarios import FaultScenario, RealtimeScenario, SystemScenario
from repro.utils.canonical import content_digest

#: Size bands: (min processes, max processes, min horizon ns, max horizon ns).
SIZES = {
    "tiny": (4, 12, 1_200, 2_000),
    "small": (25, 60, 1_000, 1_800),
    "medium": (100, 220, 600, 1_000),
    "stress": (900, 1_200, 250, 400),
}

#: Far-future deadline for permanently idle waiters (1 simulated second).
IDLE_TIMEOUT = 1_000_000_000

#: Process-kind weights per size band (active kinds thin out as the
#: population grows, mirroring the idle-heavy workloads the kernel targets).
_KIND_WEIGHTS = {
    "tiny": (("sensitivity", 3), ("clocked", 2), ("script", 4),
             ("watchdog", 2), ("poker", 2), ("idle", 1)),
    "small": (("sensitivity", 3), ("clocked", 2), ("script", 4),
              ("watchdog", 2), ("poker", 1), ("idle", 3)),
    "medium": (("sensitivity", 2), ("clocked", 2), ("script", 3),
               ("watchdog", 2), ("poker", 1), ("idle", 8)),
    "stress": (("sensitivity", 1), ("clocked", 1), ("script", 1),
               ("watchdog", 2), ("poker", 1), ("idle", 30)),
}


def _weighted_choice(rng, weights):
    total = sum(weight for _, weight in weights)
    pick = rng.randrange(total)
    for kind, weight in weights:
        if pick < weight:
            return kind
        pick -= weight
    raise AssertionError("unreachable")


class ScenarioInstance:
    """One build of a scenario on one kernel: the simulator plus its probes."""

    def __init__(self, scenario, simulator, log, recorder, segments):
        self.scenario = scenario
        self.simulator = simulator
        #: Execution log appended to by every generated process:
        #: ``(process name, time, delta, observed values)`` in run order.
        self.log = log
        self.recorder = recorder
        #: ``[(until, [(signal name, value, delay), ...]), ...]`` — the
        #: segmented run plan, identical across kernels.
        self.segments = segments

    def run(self):
        """Execute the segmented run plan; returns the final time."""
        for until, pokes in self.segments:
            self.simulator.run(until=until)
            for name, value, delay in pokes:
                self.simulator.poke(name, value, delay)
        return self.simulator.run(until=self.scenario.horizon)

    def fingerprint(self):
        """Every observable the two kernels must agree on."""
        sim = self.simulator
        return {
            "log": list(self.log),
            "end_time": sim.now,
            "waveforms": {name: list(changes)
                          for name, changes in self.recorder.changes.items()},
            "final_values": {name: signal.value
                             for name, signal in sim.signals.items()},
            "run_counts": {name: process.run_count
                           for name, process in sim.processes.items()},
            "finished": {name: process.finished
                         for name, process in sim.processes.items()},
            "statistics": dict(sim.statistics),
        }


class KernelScenario:
    """A reproducible random process network, identified by ``(size, seed)``."""

    def __init__(self, seed, size="small"):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; available: {sorted(SIZES)}")
        self.seed = seed
        self.size = size
        self.name = f"kernel-{size}-{seed}"
        rng = random.Random(f"scenario:{size}:{seed}")
        lo, hi, h_lo, h_hi = SIZES[size]
        self.n_processes = rng.randint(lo, hi)
        self.horizon = rng.randint(h_lo, h_hi)
        self.n_layers = rng.randint(2, 4)
        self.n_clocks = rng.randint(1, 3)

    # ------------------------------------------------------------------ build

    def build(self, kernel="production"):
        """Build the network into a fresh *kernel*; returns the instance."""
        rng = random.Random(f"build:{self.size}:{self.seed}")
        sim = create_simulator(kernel)
        log = []

        clocks = [
            sim.add_clock(f"clk{index}", period=2 * rng.randint(2, 12))
            for index in range(self.n_clocks)
        ]

        # Data signals in layers; layer 0 is the clocks.
        n_signals = max(4, self.n_processes // 2)
        n_signals = min(n_signals, 40 if self.size != "stress" else 60)
        layers = [[] for _ in range(self.n_layers)]
        by_layer = {}
        data_signals = []
        for index in range(n_signals):
            layer = rng.randrange(self.n_layers)
            signal = sim.add_signal(f"data_l{layer}_{index}",
                                    init=rng.randrange(8))
            layers[layer].append(signal)
            by_layer[signal.name] = layer + 1  # clocks occupy layer 0
            data_signals.append(signal)
        for clock in clocks:
            by_layer[clock.name] = 0
        # Guarantee no layer is empty (writers need targets).
        for layer, members in enumerate(layers):
            if not members:
                signal = sim.add_signal(f"data_l{layer}_fill", init=0)
                members.append(signal)
                by_layer[signal.name] = layer + 1
                data_signals.append(signal)

        quiet = [sim.add_signal(f"quiet{index}")
                 for index in range(max(2, self.n_processes // 50))]

        context = _BuildContext(sim, rng, log, clocks, layers, by_layer,
                                data_signals, quiet, self.horizon)
        weights = _KIND_WEIGHTS[self.size]
        builders = {
            "sensitivity": context.add_sensitivity_process,
            "clocked": context.add_clocked_process,
            "script": context.add_script_process,
            "watchdog": context.add_watchdog_process,
            "poker": context.add_poker_process,
            "idle": context.add_idle_process,
        }
        for index in range(self.n_processes):
            builders[_weighted_choice(rng, weights)](index)

        recorder = sim.add_recorder(WaveformRecorder())
        segments = self._draw_segments(rng, sim)
        return ScenarioInstance(self, sim, log, recorder, segments)

    def _draw_segments(self, rng, sim):
        """Split the horizon into run segments with pokes in between."""
        segments = []
        if rng.random() < 0.5:
            cut = rng.randint(self.horizon // 4, 3 * self.horizon // 4)
            pokes = []
            for _ in range(rng.randint(0, 3)):
                name = rng.choice(sorted(sim.signals))
                pokes.append((name, rng.randrange(64),
                              rng.choice((0, 0, 1, rng.randint(1, 40)))))
            segments.append((cut, pokes))
        return segments

    def __repr__(self):
        return (
            f"KernelScenario({self.name}, processes={self.n_processes}, "
            f"horizon={self.horizon} ns)"
        )


class _BuildContext:
    """Shared state while populating one simulator with random processes."""

    def __init__(self, sim, rng, log, clocks, layers, by_layer, data_signals,
                 quiet, horizon):
        self.sim = sim
        self.rng = rng
        self.log = log
        self.clocks = clocks
        self.layers = layers
        self.by_layer = by_layer
        self.data_signals = data_signals
        self.quiet = quiet
        self.horizon = horizon

    # -------------------------------------------------------------- utilities

    def _proc_rng(self, name):
        return random.Random(f"proc:{name}")

    def _observe_set(self, watched):
        extra = self.rng.sample(self.data_signals,
                                min(len(self.data_signals), self.rng.randint(1, 3)))
        merged = list(watched)
        for signal in extra:
            if signal not in merged:
                merged.append(signal)
        return merged

    def _zero_delay_targets(self, trigger_layer):
        """Signals a trigger at *trigger_layer* may write with zero delay."""
        out = []
        for layer_index, members in enumerate(self.layers):
            if layer_index + 1 > trigger_layer:
                out.extend(members)
        return out

    def _max_layer(self, signals):
        return max((self.by_layer[sig.name] for sig in signals), default=0)

    def _make_actions(self, trigger_layer):
        """Draw a static write plan for one process/script step.

        Returns ``(zero_targets, delayed_plan)`` where *delayed_plan* is
        ``[(signal, delay), ...]``; values are computed at runtime from the
        observed signals and the process rng so divergence propagates.
        """
        zero_candidates = self._zero_delay_targets(trigger_layer)
        zero_targets = []
        if zero_candidates:
            for _ in range(self.rng.randint(0, 2)):
                zero_targets.append(self.rng.choice(zero_candidates))
        delayed_plan = []
        for _ in range(self.rng.randint(0, 2)):
            delayed_plan.append((self.rng.choice(self.data_signals),
                                 self.rng.randint(1, 60)))
        return zero_targets, delayed_plan

    def _act(self, name, proc_rng, observe, zero_targets, delayed_plan):
        """Runtime body shared by every generated process kind."""
        sim = self.sim
        observed = tuple(signal.value for signal in observe)
        self.log.append((name, sim.now, sim.delta, observed))
        mix = sum(observed) + proc_rng.randrange(997)
        for signal in zero_targets:
            sim.schedule(signal, (mix + signal.change_count) % 251, 0)
        for signal, delay in delayed_plan:
            sim.schedule(signal, (mix * 7 + delay) % 241, delay)

    # -------------------------------------------------------- process kinds

    def add_sensitivity_process(self, index):
        name = f"sense_{index}"
        count = self.rng.randint(1, 3)
        pool = self.clocks + self.data_signals
        watched = self.rng.sample(pool, min(count, len(pool)))
        observe = self._observe_set(watched)
        zero_targets, delayed_plan = self._make_actions(self._max_layer(watched))
        proc_rng = self._proc_rng(name)
        # Fire on a value filter half the time, so runs depend on data.
        threshold = self.rng.choice((None, None, self.rng.randrange(4)))

        def body():
            if threshold is not None and watched[0].value % 4 != threshold:
                return
            self._act(name, proc_rng, observe, zero_targets, delayed_plan)

        self.sim.add_process(name, body, sensitivity=watched,
                             initial_run=self.rng.random() < 0.3)

    def add_clocked_process(self, index):
        name = f"clocked_{index}"
        clock = self.rng.choice(self.clocks)
        edge = self.rng.choice((0, 1))
        observe = self._observe_set([clock])
        zero_targets, delayed_plan = self._make_actions(0)
        proc_rng = self._proc_rng(name)

        def body():
            self._act(name, proc_rng, observe, zero_targets, delayed_plan)

        self.sim.add_clocked_process(name, body, clock, edge=edge)

    def add_script_process(self, index):
        """A generator running a finite random script of waits + actions."""
        name = f"script_{index}"
        steps = []
        for _ in range(self.rng.randint(3, 14)):
            shape = self.rng.randrange(10)
            if shape < 4:
                wait = Timeout(self.rng.randint(1, 80))
                trigger_layer = 0
            elif shape < 8:
                count = self.rng.randint(1, 2)
                pool = self.clocks + self.data_signals
                watched = self.rng.sample(pool, min(count, len(pool)))
                timeout = (None if self.rng.random() < 0.5
                           else self.rng.randint(1, 120))
                wait = SignalChange(*watched, timeout=timeout)
                trigger_layer = self._max_layer(watched)
            else:
                wait = Delta()
                # A Delta wake happens inside the running delta cascade; be
                # conservative and only allow writes into the last layer.
                trigger_layer = len(self.layers) - 1
            observe = self._observe_set(getattr(wait, "signals", ()))
            steps.append((wait, observe, *self._make_actions(trigger_layer)))
        parks = self.rng.random() < 0.5
        park_signal = self.rng.choice(self.quiet)
        proc_rng = self._proc_rng(name)

        def script():
            for wait, observe, zero_targets, delayed_plan in steps:
                yield wait
                self._act(name, proc_rng, observe, zero_targets, delayed_plan)
            while parks:
                yield SignalChange(park_signal, timeout=IDLE_TIMEOUT)

        self.sim.add_process(name, script)

    def add_watchdog_process(self, index):
        """Bounded wait on a rarely-changing signal, re-issued forever."""
        name = f"watchdog_{index}"
        watched = (self.rng.choice(self.quiet) if self.rng.random() < 0.7
                   else self.rng.choice(self.data_signals))
        period = self.rng.randint(20, 150)
        observe = self._observe_set([watched])
        proc_rng = self._proc_rng(name)

        def watchdog():
            while True:
                yield SignalChange(watched, timeout=period)
                observed = tuple(signal.value for signal in observe)
                self.log.append((name, self.sim.now, self.sim.delta,
                                 (watched.event,) + observed))
                proc_rng.random()

        self.sim.add_process(name, watchdog)

    def add_poker_process(self, index):
        """Finite stimulus source: bursts of future transactions."""
        name = f"poker_{index}"
        bursts = []
        for _ in range(self.rng.randint(2, 6)):
            gap = self.rng.randint(5, 120)
            writes = []
            for _ in range(self.rng.randint(1, 4)):
                # Same-delay writes to one signal from several pokers probe
                # matured-transaction ordering (last write wins by seq).
                writes.append((self.rng.choice(self.data_signals),
                               self.rng.randrange(199),
                               self.rng.randint(1, 50)))
            bursts.append((gap, writes))

        def poker():
            for gap, writes in bursts:
                yield Timeout(gap)
                self.log.append((name, self.sim.now, self.sim.delta, ()))
                for signal, value, delay in writes:
                    self.sim.schedule(signal, value, delay)

        self.sim.add_process(name, poker)

    def add_idle_process(self, index):
        """Permanently idle waiter: private signal + far-future deadline."""
        name = f"idle_{index}"
        idle_signal = self.sim.add_signal(f"idle_sig_{index}")

        def idle():
            while True:
                yield SignalChange(idle_signal, timeout=IDLE_TIMEOUT)

        self.sim.add_process(name, idle)


# ---------------------------------------------------------------------------
# Coverage-directed co-simulation campaigns
# ---------------------------------------------------------------------------
#
# Above this line the generator produces *kernel*-level scenarios.  The
# section below generates *system*-level scenario configs — plain dicts
# naming a family (plain co-simulation, fault injection, back-annotated
# real-time) plus its knobs — and runs them under the coverage
# instrumentation of :mod:`repro.testkit.coverage`.  Two campaign drivers
# share one budget accounting:
#
# * :func:`run_uniform` draws configs blindly (uniform family, uniform
#   knobs, with replacement) and dispatches the deduplicated survivors;
# * :func:`run_directed` spends the same budget one run at a time, mutating
#   novelty-weighted parents — configs whose runs opened new coverage bins
#   breed, barren ones die out.  No learning machinery: a plain feedback
#   loop over the bin counters.
#
# Both dedupe through :func:`dedupe_scenarios` (identical ``(family,
# knobs)`` configs would otherwise inflate the run counts that the sweep
# scoreboard reports).  All draws come from ``random.Random(<string>)`` so
# a campaign is reproducible from ``(budget, rng_seed)`` alone.

#: Families understood by :func:`run_scenario_config`.
SCENARIO_FAMILIES = ("system", "fault", "realtime")

#: Default number of generated-system seeds a campaign draws from.
SCENARIO_SEED_SPAN = 10

#: Fault-target choices: index into the system's communication units.
FAULT_UNIT_CHOICES = (0, 1, 2)

#: Load multipliers of the real-time family.
REALTIME_LOADS = (1, 2, 4)

#: Deadline factors of the real-time family (2 is tight enough to miss).
REALTIME_DEADLINE_FACTORS = (2, 40)


def random_scenario_config(rng, seed_span=SCENARIO_SEED_SPAN):
    """Draw one scenario config blindly: uniform family, uniform knobs."""
    family = rng.choice(SCENARIO_FAMILIES)
    config = {"family": family, "seed": rng.randrange(seed_span)}
    if family == "fault":
        config["kind"] = rng.choice(FAULT_KINDS)
        config["unit_index"] = rng.choice(FAULT_UNIT_CHOICES)
    elif family == "realtime":
        config["load"] = rng.choice(REALTIME_LOADS)
        config["deadline_factor"] = rng.choice(REALTIME_DEADLINE_FACTORS)
    return config


def mutate_scenario_config(rng, config, seed_span=SCENARIO_SEED_SPAN):
    """One deterministic mutation of *config*: reseed, re-knob, or refamily.

    Mutations preserve the family two thirds of the time (exploit: same
    behaviour class, new angle) and otherwise redraw the family blindly
    (explore: escape a saturated family).
    """
    if rng.random() < 1 / 3:
        return random_scenario_config(rng, seed_span)
    config = dict(config)
    family = config["family"]
    if family == "fault":
        mutation = rng.randrange(3)
        if mutation == 0:
            config["seed"] = rng.randrange(seed_span)
        elif mutation == 1:
            config["kind"] = rng.choice(FAULT_KINDS)
        else:
            config["unit_index"] = rng.choice(FAULT_UNIT_CHOICES)
    elif family == "realtime":
        mutation = rng.randrange(3)
        if mutation == 0:
            config["seed"] = rng.randrange(seed_span)
        elif mutation == 1:
            config["load"] = rng.choice(REALTIME_LOADS)
        else:
            config["deadline_factor"] = rng.choice(REALTIME_DEADLINE_FACTORS)
    else:
        config["seed"] = rng.randrange(seed_span)
    return config


def scenario_config_digest(config):
    """Canonical identity of a scenario config (dedup and cache key)."""
    return content_digest(config)


def dedupe_scenarios(configs):
    """Drop configs identical to an earlier one, preserving order.

    Identity is the canonical digest of the config dict, so key order and
    dict identity do not matter.  Duplicate ``(seed, knobs)`` configs would
    execute byte-identical runs and inflate every count the campaign
    reports; they must never reach dispatch.
    """
    seen = set()
    unique = []
    for config in configs:
        digest = scenario_config_digest(config)
        if digest in seen:
            continue
        seen.add(digest)
        unique.append(config)
    return unique


def run_scenario_config(config, coverage, kernel="production", tier=None):
    """Execute one scenario config, folding its run into *coverage*.

    Returns a small report dict: the config, its digest, and the
    scoreboard-feeding observations of its family (fault survival,
    deadline misses).
    """
    family = config["family"]
    if family == "fault":
        scenario = FaultScenario(config["seed"], kind=config["kind"],
                                 unit_index=config["unit_index"])
    elif family == "realtime":
        scenario = RealtimeScenario(config["seed"], load=config["load"],
                                    deadline_factor=config["deadline_factor"])
    elif family == "system":
        scenario = SystemScenario(generate_system(config["seed"]))
    else:
        raise ValueError(f"unknown scenario family {config['family']!r}; "
                         f"available: {SCENARIO_FAMILIES}")
    session, result = scenario.run(kernel, tier=tier, coverage=coverage)
    report = {"config": dict(config),
              "digest": scenario_config_digest(config)}
    if family == "fault":
        report["survival"] = not scenario.functional_problems(session, result)
    elif family == "realtime":
        report["deadline_misses"] = scenario.deadline_report(
            session, result)["deadline_misses"]
    report["end_time"] = result.end_time
    return report


def campaign_universe(seed_span=SCENARIO_SEED_SPAN):
    """The static state/edge universe of every system a campaign can touch."""
    return merge_universes(
        coverage_universe(generate_system(seed).build_model())
        for seed in range(seed_span)
    )


def run_uniform(budget, rng_seed=0, seed_span=SCENARIO_SEED_SPAN,
                kernel="production", tier=None):
    """Blind baseline: *budget* uniform draws, deduplicated, dispatched.

    Duplicate draws are discarded (never dispatched) but still consume
    budget — blindness pays for its collisions.  Returns the same campaign
    dict as :func:`run_directed`.
    """
    rng = random.Random(f"uniform:{rng_seed}")
    drawn = [random_scenario_config(rng, seed_span) for _ in range(budget)]
    unique = dedupe_scenarios(drawn)
    coverage = CoverageMap()
    reports = [run_scenario_config(config, coverage, kernel, tier)
               for config in unique]
    return {"mode": "uniform", "budget": budget, "executed": len(reports),
            "coverage": coverage, "reports": reports}


def _covered_bins(coverage, universe):
    """The universe state/edge bins *coverage* has reached, as a tag set."""
    return ({f"S:{key}" for key in universe["states"]
             if key in coverage.state_visits}
            | {f"E:{key}" for key in universe["edges"]
               if key in coverage.edges})


def _seed_bins(seed, cache):
    """Tag set of the state/edge bins *seed*'s own model declares."""
    if seed not in cache:
        universe = coverage_universe(generate_system(seed).build_model())
        cache[seed] = ({f"S:{key}" for key in universe["states"]}
                       | {f"E:{key}" for key in universe["edges"]})
    return cache[seed]


def _is_stall_bin(tag):
    """True for bins only backpressure reaches: WAIT states, self-loop edges.

    Tags are ``S:<fsm>/<state>`` or ``E:<fsm>/<from>><to>``; a stall bin
    is a WAIT-named state/edge or an edge that loops on its own state —
    exactly the shapes a fault plan (stuck strobe, forced-full buffer)
    exists to provoke.
    """
    if "WAIT" in tag:
        return True
    if tag.startswith("E:"):
        _, _, edge = tag.partition("/")
        source, _, target = edge.partition(">")
        return source == target
    return False


def run_directed(budget, rng_seed=0, seed_span=SCENARIO_SEED_SPAN,
                 kernel="production", tier=None, greed=0.75,
                 universe=None, candidates=12):
    """Coverage-directed campaign: one run at a time, feedback-driven.

    Novelty is measured against the campaign's static state/edge
    *universe* — the metric the scoreboard reports — not against the raw
    bin count, where the unbounded phase/ordering bins would drown the
    signal (every run opens a few interleaving n-grams; only interesting
    runs open unexercised FSM edges).  Each step drafts a pool of fresh
    candidates — mutations of parents weighted by ``1 + 4 × new universe
    bins their run opened`` (*greed* of the time) or blind draws — and
    dispatches the candidate with the highest *potential*: the sum, over
    the uncovered bins its own model declares, of a promise weight that
    halves every time a run declaring the bin fails to cover it (so
    statically-declared-but-unreachable bins stop attracting budget), with
    fault-family candidates scoring uncovered stall bins triple (stuck
    strobes and forced-full buffers are the designated tool for WAIT
    states and blocked self-loops).  The dynamic parent weighting is what
    keeps the loop mutating configs that actually deliver — e.g. spreading
    a stuck-strobe plan that lit a stall state onto the sibling units and
    seeds whose stall bins are still dark.  A step that drafts no fresh
    candidate burns its budget, mirroring the collision cost of the
    uniform baseline.
    """
    rng = random.Random(f"directed:{rng_seed}")
    if universe is None:
        universe = campaign_universe(seed_span)
    coverage = CoverageMap()
    covered = set()
    executed = set()
    corpus = []  # (config, novelty) pairs; weight = 1 + 4 * novelty
    reports = []
    seed_bins_cache = {}
    # Promise decay is keyed per (family, fault kind): a contention run
    # failing to light a stall bin says nothing about what a stuck-strobe
    # run would do to it.
    dark_tries = {}  # (family, kind, bin tag) -> failed promises

    def _signature(config):
        return (config["family"], config.get("kind"))

    def potential(candidate):
        # Integer arithmetic throughout: the sum runs over a set, and only
        # an exact (order-independent) total keeps the campaign identical
        # under every PYTHONHASHSEED.  A full promise is worth 2**8; each
        # failed attempt halves it, hitting zero after eight tries.
        promised = _seed_bins(candidate["seed"], seed_bins_cache) - covered
        signature = _signature(candidate)
        score = 0
        boost = 3 if candidate["family"] == "fault" else 1
        for tag in promised:
            tries = dark_tries.get(signature + (tag,), 0)
            weight = 2 ** (8 - tries) if tries < 8 else 0
            score += weight * (boost if _is_stall_bin(tag) else 1)
        return score

    for _ in range(budget):
        pool = []
        pooled = set()
        for _attempt in range(candidates):
            if corpus and rng.random() < greed:
                weights = [1 + 4 * novelty for _, novelty in corpus]
                parent, _ = rng.choices(corpus, weights=weights)[0]
                candidate = mutate_scenario_config(rng, parent, seed_span)
            else:
                candidate = random_scenario_config(rng, seed_span)
            digest = scenario_config_digest(candidate)
            if digest in executed or digest in pooled:
                continue
            pooled.add(digest)
            pool.append(candidate)
        if not pool:
            continue
        config = max(pool, key=potential)
        promised = _seed_bins(config["seed"], seed_bins_cache) - covered
        before = len(covered)
        report = run_scenario_config(config, coverage, kernel, tier)
        covered = _covered_bins(coverage, universe)
        novelty = len(covered) - before
        signature = _signature(config)
        for tag in promised - covered:
            key = signature + (tag,)
            dark_tries[key] = dark_tries.get(key, 0) + 1
        report["novelty"] = novelty
        executed.add(report["digest"])
        corpus.append((config, novelty))
        reports.append(report)
    return {"mode": "directed", "budget": budget, "executed": len(reports),
            "coverage": coverage, "reports": reports}
