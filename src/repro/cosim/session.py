"""The co-simulation session: build, run, report.

:class:`CosimSession` turns a validated :class:`~repro.core.model.SystemModel`
into a running discrete-event simulation:

1. every port of every communication unit becomes a signal named
   ``<unit>_<port>``,
2. every controller of every unit becomes a clocked process,
3. every hardware module gets signals for its ports / internal wires, and a
   clocked :class:`~repro.cosim.hw_adapter.HardwareAdapter`,
4. every software module gets a :class:`~repro.cosim.sw_executor.SoftwareExecutor`
   activated periodically by a generator process,
5. *environment* hooks (the motor's physical model, user stimulus...) may add
   further signals and processes.

The session owns a waveform recorder and a service-call trace; after
``run()`` it returns a :class:`CosimResult` summarising the functional
outcome — the evidence the paper's co-simulation step is meant to produce.
"""

from repro.cosim.cli import CliPortAccessor, SignalPortAccessor
from repro.cosim.hw_adapter import HardwareAdapter
from repro.cosim.services import ServiceInstance, ServiceRegistry
from repro.cosim.sw_executor import SoftwareExecutor
from repro.cosim.sync import OneTransitionPerActivation
from repro.cosim.tracing import ServiceCallTrace
from repro.desim import Timeout, WaveformRecorder, create_simulator
from repro.ir.interp import FsmInstance
from repro.ir.syscompile import compile_system
from repro.lint.engine import validate_structure
from repro.obs import TELEMETRY
from repro.utils.errors import SimulationError

#: Execution tiers of a session, fastest first.  ``fused`` runs every
#: clocked FSM (unit controllers and hardware-module processes) from one
#: generated step function that calls one compiled fragment per FSM
#: (:mod:`repro.ir.syscompile`); ``interpreted``
#: registers one clocked process per FSM, each walking the IR tree — the
#: oracle.  Software and service FSMs run on the interpreter on both
#: tiers.  Both tiers are byte-identical in every conformance fingerprint.
#: A session runs the tier it resolves at construction, or refuses: race
#: attribution (``detect_races``) needs the ``interpreted`` tier.
TIERS = ("fused", "interpreted")

DEFAULT_TIER = "fused"

#: Grid (ns) on which :meth:`CosimSession.run_until_software_done` checks
#: whether every software module finished.
SOFTWARE_DONE_CHECK_NS = 10_000


def _unbound_system_step():  # pragma: no cover - rebound during build()
    raise SimulationError("fused step ran before it was bound")


def _members(checkpoint):
    """What a :meth:`CosimSession.save` checkpoint is keyed on, by name.

    Each controller's FSM, each software executor's FSM and services,
    each hardware adapter's processes and services, every service's FSM,
    the monitors and the fault plans: a checkpoint restores only into a
    session with the same members.
    """
    def services(state):
        return {name: service["instance"]["fsm"]
                for name, service in state["services"].items()}

    return {
        "controllers": {key: state["fsm"] for key, state
                        in checkpoint["controllers"].items()},
        "software executors": {
            name: (state["instance"]["fsm"], services(state))
            for name, state in checkpoint["sw_executors"].items()},
        "hardware adapters": {
            name: ({process: instance["fsm"]
                    for process, instance in state["instances"].items()},
                   services(state))
            for name, state in checkpoint["hw_adapters"].items()},
        "monitors": sorted(checkpoint["monitors"]),
        "fault plans": sorted(checkpoint["faults"]),
    }


class CosimResult:
    """Summary of one co-simulation run."""

    def __init__(self, session, end_time):
        self.system = session.model.name
        self.end_time = end_time
        self.trace = session.trace
        self.waveform = session.waveform
        self.statistics = dict(session.simulator.statistics)
        self.sw_states = {
            name: executor.current_state
            for name, executor in session.sw_executors.items()
        }
        self.sw_finished = {
            name: executor.finished for name, executor in session.sw_executors.items()
        }
        self.sw_activations = {
            name: executor.activations
            for name, executor in session.sw_executors.items()
        }
        self.hw_cycles = {
            name: adapter.cycles for name, adapter in session.hw_adapters.items()
        }
        self.monitor_violations = {
            monitor.name: list(monitor.violations) for monitor in session.monitors
        }
        self.fsm_counters = session.fsm_counters()
        self.tier = session.tier

    @property
    def all_monitors_ok(self):
        return all(not violations for violations in self.monitor_violations.values())

    def summary(self):
        return {
            "system": self.system,
            "end_time_ns": self.end_time,
            "service_calls": len(self.trace),
            "sw_states": self.sw_states,
            "sw_activations": self.sw_activations,
            "hw_cycles": self.hw_cycles,
            "monitors_ok": self.all_monitors_ok,
            "tier": self.tier,
            "fsm": dict(self.fsm_counters),
            # Per-service latency distributions (simulated ns): count, mean,
            # p50/p95/max — the mean alone hides a saturated channel's tail.
            "services": self.trace.latency_summary(),
        }

    def __repr__(self):
        return f"CosimResult({self.system}, t={self.end_time} ns, calls={len(self.trace)})"


class CosimSession:
    """Builds and runs the joint simulation of a system model."""

    def __init__(self, model, library=None, clock_period=100,
                 sw_activation_period=None, activation_policy=None,
                 trace_signals=True, kernel="production", tier=None,
                 detect_races=False):
        validate_structure(model, library=library)
        self.model = model
        self.clock_period = clock_period
        self.sw_activation_period = sw_activation_period or clock_period
        self.activation_policy = activation_policy or OneTransitionPerActivation()
        self.trace_signals = trace_signals
        self.kernel = kernel
        if tier is None:
            tier = "interpreted" if detect_races else DEFAULT_TIER
        if tier not in TIERS:
            raise SimulationError(
                f"unknown tier {tier!r}; expected one of {TIERS}"
            )
        if tier == "fused" and detect_races:
            raise SimulationError(
                "tier 'fused' cannot run with detect_races: race attribution "
                "needs one kernel process per writer, and the fused step "
                "merges them"
            )
        self.tier = tier
        self.detect_races = detect_races
        self.system_program = None
        self._fused_process = None

        self.simulator = create_simulator(kernel, detect_races=detect_races)
        self.trace = ServiceCallTrace()
        self.waveform = None
        self.clock = None
        self.unit_signals = {}
        self.module_signals = {}
        self.controller_instances = {}
        self.sw_executors = {}
        self.hw_adapters = {}
        self.monitors = []
        self.fault_injectors = {}
        self._environment_hooks = []
        self._built = False
        self._obs_prev = None

    # ------------------------------------------------------------------ build

    def add_environment(self, hook):
        """Register a callable ``hook(session)`` run at the end of build().

        Environment hooks model everything outside the system (the motor, a
        user): they may read :meth:`unit_signal`, add signals and processes
        to :attr:`simulator`.
        """
        self._environment_hooks.append(hook)
        return hook

    def add_monitor(self, monitor):
        """Attach a :class:`repro.desim.Monitor` checked during the run."""
        self.monitors.append(monitor)
        if self._built:
            self.simulator.add_monitor(monitor)
        return monitor

    def add_fault_plan(self, plan):
        """Install a :class:`repro.cosim.faults.FaultPlan`; returns its injector.

        Must be called before the session is built; the injector process is
        registered during :meth:`build` and its cursor travels in
        :meth:`save` checkpoints, so faulted runs snapshot/restore like any
        other.
        """
        from repro.cosim.faults import FaultInjector

        if self._built:
            raise SimulationError(
                "add_fault_plan() must be called before the session is built"
            )
        if plan.name in self.fault_injectors:
            raise SimulationError(f"duplicate fault plan {plan.name!r}")
        injector = FaultInjector(self, plan)
        self.fault_injectors[plan.name] = injector
        return injector

    def build(self):
        """Construct signals, processes and executors.  Idempotent."""
        if self._built:
            return self
        with TELEMETRY.span("cosim.build", cat="cosim",
                            system=self.model.name, kernel=self.kernel):
            return self._do_build()

    def _do_build(self):
        self._system_prepare()  # first: a refusal leaves the session unbuilt
        self.clock = self.simulator.add_clock("hwclk", period=self.clock_period)
        self._build_unit_signals()
        self._build_controllers()
        self._build_hardware()
        self._system_bind()
        self._build_software()
        for injector in self.fault_injectors.values():
            injector.install()
        if self.trace_signals:
            self.waveform = self.simulator.add_recorder(WaveformRecorder())
        else:
            self.waveform = WaveformRecorder([])
        for monitor in self.monitors:
            self.simulator.add_monitor(monitor)
        # The processes the session steps on the clock: one added by a
        # hook (or later) turns the steady-period skip off.
        self._clocked = len(self.simulator._sensitivity.get(self.clock.name,
                                                            ()))
        self._instances = list(self.fsm_instances())  # for the probe
        self.simulator._steady_probe = self._steady_probe
        for hook in self._environment_hooks:
            hook(self)
        self._built = True
        return self

    def _steady_probe(self):
        """The kernel's steady-state probe: ``(key, cells)``, or None.

        The key, a lazy iterable, is the trace's record and pending counts
        and every FSM instance's state and variables; *cells* yields, when
        called, the counters a steady period advances: each instance's
        ``steps``/``transitions_fired``, each adapter's
        ``cycles`` and each pending trace record's ``steps``.  An instance
        with an ``observer`` keeps ``steps`` in the key, so no period it
        steps in is steady.
        None while a monitor, a fault plan with events left or a clocked
        process the session does not own could see skipped edges
        (:meth:`repro.desim.kernel.Simulator._steady_period`).
        """
        simulator = self.simulator
        clocked = simulator._sensitivity.get(self.clock.name, ())
        if (simulator.monitors or len(clocked) != self._clocked
                or self.fault_injectors and any(
                    injector.cursor < len(injector.plan.events)
                    for injector in self.fault_injectors.values())):
            return None
        return self._steady_key(), self._steady_cells

    def _steady_key(self):
        yield len(self.trace.records), len(self.trace._open)
        for fsm in self._instances:
            yield (fsm.current, dict(fsm.env),
                   fsm.observer is not None and fsm.steps)

    def _steady_cells(self):
        for fsm in self._instances:
            if fsm.observer is None:
                yield fsm, "steps"
                yield fsm, "transitions_fired"
        for adapter in self.hw_adapters.values():
            yield adapter, "cycles"
        for record in self.trace._open.values():
            yield record, "steps"

    def _system_prepare(self):
        """Compile the fused program when the session runs ``fused``.

        A codegen refusal (:class:`~repro.utils.errors.ModelError`) reaches
        the caller: a session never switches tiers.
        """
        if self.tier == "fused":
            self.system_program = compile_system(self.model)

    def _system_bind(self):
        """Bind the fragment step to the built backplane, once.

        Runs after controllers and hardware exist: the placeholder process
        registered first on the clock receives the fragment step.
        """
        if self.tier != "fused":
            return
        plan = self.system_program.plan
        instances = []
        for cand in plan.candidates:
            if cand.kind == "ctrl":
                instances.append(self.controller_instances[cand.label])
            else:
                instances.append(self.hw_adapters[cand.owner].instances[cand.name])
        signals = []
        for kind, owner, port in plan.signal_keys:
            table = self.unit_signals if kind == "unit" else self.module_signals
            signals.append(table[owner][port])
        # Every called service is bound: an unbound call is refused with
        # IF001 before the session is built.
        services = [self.hw_adapters[module_name].registry.get(service_name)
                    for module_name, service_name in plan.service_keys]
        self._fused_process.func = self.system_program.bind({
            "sim": self.simulator,
            "clock": self.clock,
            "signals": signals,
            "instances": instances,
            "services": services,
            "adapters": [self.hw_adapters[name] for name in plan.adapter_keys],
        })

    def _build_unit_signals(self):
        for unit in self.model.comm_units.values():
            signals = {}
            for port in unit.ports.values():
                signal = self.simulator.add_signal(
                    f"{unit.name}_{port.name}", init=port.initial, dtype=port.dtype
                )
                signals[port.name] = signal
            self.unit_signals[unit.name] = signals

    def _build_controllers(self):
        # The fused step must occupy the clock-sensitivity position of the
        # first process it replaces (precedes), so registration happens
        # before any controller.
        register = self.tier != "fused"
        if not register:
            # No edge-filter wrapper frame: the fused step checks the edge.
            self._fused_process = self.simulator.add_process(
                "system_fused", _unbound_system_step, sensitivity=[self.clock],
                initial_run=False)
        for unit in self.model.comm_units.values():
            signals = self.unit_signals[unit.name]
            for controller in unit.controllers:
                accessor = SignalPortAccessor(self.simulator, signals,
                                              writer=f"{unit.name}.{controller.name}")
                instance = FsmInstance(controller.fsm, ports=accessor)
                self.controller_instances[f"{unit.name}.{controller.name}"] = instance
                if register:
                    self.simulator.add_clocked_process(
                        f"{unit.name}_{controller.name}_clked", instance.step,
                        self.clock,
                    )

    def _registry_for(self, module, software):
        registry = ServiceRegistry(module.name)
        for service_name in module.services_used():
            unit = self.model.unit_for(module.name, service_name)
            signals = self.unit_signals[unit.name]
            accessor_cls = CliPortAccessor if software else SignalPortAccessor
            accessor = accessor_cls(self.simulator, signals,
                                    writer=f"{module.name}.{service_name}")
            registry.add(
                ServiceInstance(
                    module.name, unit.service(service_name), unit.name, accessor,
                    trace=self.trace, time_fn=lambda: self.simulator.now,
                )
            )
        return registry

    def _build_hardware(self):
        for module in self.model.hardware_modules():
            signals = {}
            for port in list(module.ports.values()) + list(module.internal_signals.values()):
                signal = self.simulator.add_signal(
                    f"{module.name}_{port.name}", init=port.initial, dtype=port.dtype
                )
                signals[port.name] = signal
            self.module_signals[module.name] = signals
            accessor = SignalPortAccessor(self.simulator, signals, writer=module.name)
            registry = self._registry_for(module, software=False)
            self.hw_adapters[module.name] = HardwareAdapter(
                module, self.simulator, self.clock, accessor, registry,
                register=self.tier != "fused",
            )

    def _build_software(self):
        for module in self.model.software_modules():
            registry = self._registry_for(module, software=True)
            executor = SoftwareExecutor(module, registry,
                                        policy=self.activation_policy)
            self.sw_executors[module.name] = executor
            period = module.activation_period or self.sw_activation_period

            def activations(executor=executor, period=period):
                # Act-first loop with no side effects before the first
                # yield: a fresh generator stepped once behaves exactly
                # like the suspended one being resumed, so the process is
                # rearmable and sessions survive save()/restore().  The
                # first activation (one period after start) comes from the
                # kernel-armed first wait, and the single Timeout is reused
                # across iterations (wait conditions are immutable; the
                # kernel copies what it needs on suspend).
                tick = Timeout(period)
                while True:
                    if executor.finished:
                        return
                    executor.activate()
                    yield tick

            self.simulator.add_process(f"{module.name}_activation", activations,
                                       first_wait=Timeout(period),
                                       rearmable=True)

    # -------------------------------------------------------------------- run

    def run(self, until=None):
        """Build if needed, run the simulation and return a :class:`CosimResult`."""
        self.build()
        with TELEMETRY.span("cosim.run", cat="cosim", system=self.model.name,
                            kernel=self.kernel, tier=self.tier):
            end_time = self.simulator.run(until=until)
        result = CosimResult(self, end_time)
        if TELEMETRY.enabled:
            self._obs_record(result)
        return result

    def run_until_software_done(self, max_time=10_000_000):
        """Run until every software module finished (or *max_time* is hit).

        The completion check happens on an **absolute** time grid (the
        multiples of :data:`SOFTWARE_DONE_CHECK_NS`), not relative to where
        the run started: a session resumed from a checkpoint therefore
        checks at exactly the instants an uninterrupted run would, which
        keeps the reported end time — and thus the whole result — identical.
        """
        self.build()
        with TELEMETRY.span("cosim.run_until_software_done", cat="cosim",
                            system=self.model.name, kernel=self.kernel,
                            tier=self.tier):
            while self.simulator.now < max_time:
                step = SOFTWARE_DONE_CHECK_NS
                target = min((self.simulator.now // step + 1) * step, max_time)
                self.simulator.run(until=target)
                if all(executor.finished
                       for executor in self.sw_executors.values()):
                    break
                if self.simulator.now < target:
                    # No more activity is scheduled: nothing will finish.
                    break
        result = CosimResult(self, self.simulator.now)
        if TELEMETRY.enabled:
            self._obs_record(result)
        return result

    def _obs_record(self, result):
        """Flush run-over-run counter deltas into the telemetry registry.

        Sessions may be run repeatedly (checkpoint replay, incremental
        ``run(until=...)`` calls), so absolute counters are diffed against
        the previous flush — each simulated event is counted exactly once
        no matter how the run was sliced.
        """
        labels = {"kernel": self.kernel, "tier": self.tier}
        metrics = TELEMETRY.metrics
        fsm = self.fsm_counters()
        current = {
            "interpreted": fsm["interpreted"],
            "fused": fsm["system_compile_hits"],
            "transitions": fsm["transitions_fired"],
            "services": len(self.trace),
            "channels": self.trace.count(),
        }
        prev = self._obs_prev or {key: 0 for key in current}
        self._obs_prev = current
        metrics.counter("repro_cosim_runs_total", labels=labels,
                        help="Completed CosimSession runs.").inc()
        steps = metrics.counter
        for step_tier in ("interpreted", "fused"):
            delta = current[step_tier] - prev[step_tier]
            if delta:
                steps("repro_cosim_fsm_steps_total",
                      labels=dict(labels, step_tier=step_tier),
                      help="FSM steps split by execution tier.").inc(delta)
        delta = current["transitions"] - prev["transitions"]
        if delta:
            steps("repro_cosim_fsm_transitions_total", labels=labels,
                  help="FSM transitions fired.").inc(delta)
        delta = current["services"] - prev["services"]
        if delta:
            steps("repro_cosim_service_calls_total", labels=labels,
                  help="Service invocations traced (incl. pending).",
                  ).inc(delta)
        delta = current["channels"] - prev["channels"]
        if delta:
            steps("repro_cosim_channel_transactions_total", labels=labels,
                  help="Completed channel/service transactions.").inc(delta)

    # ---------------------------------------------------------- save / resume

    def save(self):
        """Capture the whole session as a picklable checkpoint dict.

        The checkpoint holds the kernel snapshot plus every piece of
        backplane state the kernel does not own: controller and module FSM
        positions, software-executor and hardware-adapter counters, service
        instances, the service-call trace, the waveform recorder and any
        attached monitors.  Taken between runs; an unbuilt session is built
        (and started) first.

        Restoring (:meth:`restore`) requires a session constructed from an
        **equal model with equal parameters** — same kernel, clock and
        activation periods, policy, environment hooks and monitors — so the
        rebuilt structure matches; the resumed simulation then continues
        byte-identically to an uninterrupted run.
        """
        self.build()
        kernel_snapshot = self.simulator.snapshot()
        return {
            "format": 4,
            "system": self.model.name,
            "kernel": self.kernel,
            # A fused tier registers different kernel processes than the
            # interpreted one, so a checkpoint only restores into a session
            # of the same tier.
            "tier": self.tier,
            "clock_period": self.clock_period,
            "sw_activation_period": self.sw_activation_period,
            "policy": self.activation_policy.name,
            "simulator": kernel_snapshot,
            **self._capture_backplane(),
            "trace": self.trace.capture_state(),
            "waveform": self.waveform.capture_state(),
            "monitors": {monitor.name: monitor.capture_state()
                         for monitor in self.monitors},
            "faults": {name: injector.capture_state()
                       for name, injector in self.fault_injectors.items()},
        }

    def _capture_backplane(self):
        """The FSM-holding part of a checkpoint: controllers, software
        executors and hardware adapters, each by name."""
        return {
            "controllers": {key: instance.capture_state()
                            for key, instance in self.controller_instances.items()},
            "sw_executors": {name: executor.capture_state()
                             for name, executor in self.sw_executors.items()},
            "hw_adapters": {name: adapter.capture_state()
                            for name, adapter in self.hw_adapters.items()},
        }

    def restore(self, checkpoint):
        """Reset this session to a :meth:`save` checkpoint; returns self.

        The session must have been constructed from the same model with the
        same parameters (checked); it is built if needed, the kernel state
        is restored, and every backplane component is overwritten with its
        checkpointed state.  ``run()`` then resumes exactly where the saved
        session stopped.
        """
        if checkpoint.get("format") != 4:
            raise SimulationError(
                f"unsupported session checkpoint format "
                f"{checkpoint.get('format')!r}"
            )
        self.build()
        mismatches = [
            f"{what}: checkpoint has {theirs!r}, session has {ours!r}"
            for what, theirs, ours in (
                ("system", checkpoint["system"], self.model.name),
                ("kernel", checkpoint["kernel"], self.kernel),
                ("clock_period", checkpoint["clock_period"], self.clock_period),
                ("sw_activation_period", checkpoint["sw_activation_period"],
                 self.sw_activation_period),
                ("activation policy", checkpoint["policy"],
                 self.activation_policy.name),
                ("tier", checkpoint["tier"], self.tier),
            )
            if theirs != ours
        ]
        if mismatches:
            raise SimulationError(
                "checkpoint does not match this session — "
                + "; ".join(mismatches)
            )
        # Validate every membership BEFORE mutating anything: a restore
        # that raises must leave the session exactly as built, never in a
        # half-restored hybrid of checkpoint and fresh state.
        monitors = {monitor.name: monitor for monitor in self.monitors}
        ours = _members(dict(self._capture_backplane(), monitors=monitors,
                             faults=self.fault_injectors))
        theirs = _members(checkpoint)
        for what in ours:
            if theirs[what] != ours[what]:
                raise SimulationError(
                    f"checkpoint {what} do not match this session's: "
                    f"{theirs[what]} vs {ours[what]}"
                )
        self.simulator.restore(checkpoint["simulator"])
        for key, state in checkpoint["controllers"].items():
            self.controller_instances[key].restore_state(state)
        for name, state in checkpoint["sw_executors"].items():
            self.sw_executors[name].restore_state(state)
        for name, state in checkpoint["hw_adapters"].items():
            self.hw_adapters[name].restore_state(state)
        self.trace.restore_state(checkpoint["trace"])
        self.waveform.restore_state(checkpoint["waveform"])
        for name, state in checkpoint["monitors"].items():
            monitors[name].restore_state(state)
        for name, state in checkpoint["faults"].items():
            self.fault_injectors[name].restore_state(state)
        return self

    # ------------------------------------------------------------------ query

    def fsm_instances(self):
        """Yield every FSM instance the session executes.

        Covers communication-unit controllers, hardware-module processes,
        software-module FSMs and every bound service instance — the complete
        population whose execution tier and counters the session owns.
        """
        yield from self.controller_instances.values()
        for adapter in self.hw_adapters.values():
            yield from adapter.instances.values()
            for service in adapter.registry.instances():
                yield service.instance
        for executor in self.sw_executors.values():
            yield executor.instance
            for service in executor.registry.instances():
                yield service.instance

    def fsm_counters(self):
        """Aggregate execution-tier counters across every FSM instance.

        ``steps`` / ``transitions_fired`` measure behavioural activity, and
        ``interpreted`` / ``system_compile_hits`` split the steps by engine
        (tree-walking interpreter, fused step), so
        ``steps == interpreted + system_compile_hits``; the fused share is
        derived: the steps of a fused session's controllers and hardware
        processes.  ``fallback`` and ``system_fallback`` are always 0: a
        session runs the tier it was given.
        """
        steps = transitions = 0
        for instance in self.fsm_instances():
            steps += instance.steps
            transitions += instance.transitions_fired
        hits = 0
        if self.tier == "fused":
            fused = list(self.controller_instances.values())
            for adapter in self.hw_adapters.values():
                fused.extend(adapter.instances.values())
            hits = sum(fsm.steps for fsm in fused)
        interpreted = steps - hits
        return {"steps": steps, "transitions_fired": transitions,
                "interpreted": interpreted,
                # Always 0, as is system_fallback: no session switches
                # tiers.  Kept because perfbench/spans.py reads both keys;
                # ROADMAP item 4 drops them.
                "fallback": 0,
                "system_compile_hits": hits,
                "system_fallback": 0}

    def unit_signal(self, unit_name, port_name):
        """The simulation signal of a communication-unit port."""
        try:
            return self.unit_signals[unit_name][port_name]
        except KeyError:
            raise SimulationError(
                f"no signal for port {port_name!r} of unit {unit_name!r}"
            ) from None

    def module_signal(self, module_name, port_name):
        """The simulation signal of a hardware-module port or internal wire."""
        try:
            return self.module_signals[module_name][port_name]
        except KeyError:
            raise SimulationError(
                f"no signal for port {port_name!r} of module {module_name!r}"
            ) from None

    def software_executor(self, module_name):
        try:
            return self.sw_executors[module_name]
        except KeyError:
            raise SimulationError(f"no software module {module_name!r}") from None

    def hardware_adapter(self, module_name):
        try:
            return self.hw_adapters[module_name]
        except KeyError:
            raise SimulationError(f"no hardware module {module_name!r}") from None

    def __repr__(self):
        return (
            f"CosimSession({self.model.name}, built={self._built}, "
            f"t={self.simulator.now} ns)"
        )
