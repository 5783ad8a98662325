"""Instrumentation-site tests: kernels, cosim session, sweep service.

Pins the three contracts of :mod:`repro.obs` at its call sites:

* both kernels report the same counter names (``kernel`` label apart),
* the disabled path touches no telemetry structure at all,
* enabling telemetry never changes simulated results.
"""

import pytest

from conftest import (
    CLOCK_BURST_SLICES,
    build_clock_burst,
    make_producer_consumer_model,
)
from repro.cosim import CosimSession
from repro.desim import ReferenceSimulator, Simulator, SignalChange, Timeout
from repro.obs import TELEMETRY
from repro.sweep.jobs import CosimJob, KernelJob
from repro.sweep.service import SweepService
from repro.testkit.scenarios import FaultScenario


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _timeout_scenario(sim, racer=False):
    """A small mixed workload: clocked counter + signal wait with deadline.

    *racer* adds a second driver of ``data`` writing in the producer's
    deltas, so ``detect_races`` has same-delta write races to log.
    """
    clk = sim.add_clock("clk", period=20)
    data = sim.add_signal("data", init=0)

    def producer():
        for value in range(5):
            sim.schedule(data, value + 1)
            yield Timeout(30)

    def rival():
        while True:
            sim.schedule(data, 99)
            yield Timeout(30)

    def watcher():
        while True:
            yield SignalChange(data, timeout=7)

    ticks = []
    sim.add_process("count", lambda: ticks.append(sim.now),
                    sensitivity=[clk])
    sim.add_process("producer", producer)
    sim.add_process("watcher", watcher)
    if racer:
        sim.add_process("rival", rival)
    sim.run(until=200)


def _clock_burst_scenario(sim):
    build_clock_burst(sim, [])
    for until in CLOCK_BURST_SLICES:
        sim.run(until=until)


KERNELS = [(Simulator, "production"), (ReferenceSimulator, "reference")]


def _families(registry):
    return {family["name"]: family for family in
            registry.as_dict()["families"]}


class TestKernelInstrumentation:
    def test_disabled_run_binds_no_observer(self):
        sim = Simulator()
        _timeout_scenario(sim)
        assert sim._obs is None
        assert len(TELEMETRY.tracer) == 0
        assert TELEMETRY.metrics.as_dict()["families"] == []

    @pytest.mark.parametrize("factory,label", KERNELS)
    def test_both_kernels_export_the_same_counter_names(self, factory,
                                                        label):
        TELEMETRY.enable()
        _timeout_scenario(factory())
        families = _families(TELEMETRY.metrics)
        for name in ("repro_kernel_delta_cycles_total",
                     "repro_kernel_process_runs_total",
                     "repro_kernel_transactions_total",
                     "repro_kernel_time_points_total",
                     "repro_kernel_timeouts_total",
                     "repro_kernel_phase_seconds_total",
                     "repro_kernel_process_seconds_total",
                     "repro_kernel_process_profile_runs_total",
                     "repro_kernel_delta_queue_depth",
                     "repro_kernel_timeout_heap_depth"):
            assert name in families, f"{name} missing for {label}"
            labels = [entry["labels"] for entry in families[name]["series"]]
            assert all(entry["kernel"] == label for entry in labels)

    def test_counters_match_the_statistics_deltas(self):
        TELEMETRY.enable()
        sim = Simulator()
        _timeout_scenario(sim)
        families = _families(TELEMETRY.metrics)
        for stat, name in (("delta_cycles",
                            "repro_kernel_delta_cycles_total"),
                           ("process_runs",
                            "repro_kernel_process_runs_total"),
                           ("timeouts", "repro_kernel_timeouts_total")):
            [entry] = families[name]["series"]
            assert entry["value"] == sim.statistics[stat]
        assert sim.statistics["timeouts"] > 0  # the scenario exercises it

    @pytest.mark.parametrize("scenario", [_timeout_scenario,
                                          _clock_burst_scenario])
    @pytest.mark.parametrize("factory,label", KERNELS)
    def test_profiler_attributes_every_process_run(self, factory, label,
                                                   scenario):
        """Initial runs from ``_start`` and clock-burst edges included:
        every run is profiled."""
        TELEMETRY.enable()
        sim = factory()
        scenario(sim)
        families = _families(TELEMETRY.metrics)
        series = families["repro_kernel_process_profile_runs_total"]["series"]
        profiled = sum(entry["value"] for entry in series
                       if entry["labels"]["kernel"] == label)
        assert profiled == sim.statistics["process_runs"]

    def test_per_process_profile_names_every_process(self):
        TELEMETRY.enable()
        _timeout_scenario(Simulator())
        families = _families(TELEMETRY.metrics)
        profiled = {entry["labels"]["process"] for entry in
                    families["repro_kernel_process_profile_runs_total"]
                    ["series"]}
        assert {"count", "producer", "watcher", "clk_gen"} <= profiled

    def test_statistics_parity_between_kernels(self):
        """Both kernels count the same events — the conformance fingerprint
        compares these dicts, so a counter drifting on one side is a bug."""
        production, reference = Simulator(), ReferenceSimulator()
        _timeout_scenario(production)
        _timeout_scenario(reference)
        assert "timeouts" in production.statistics
        assert production.statistics == reference.statistics

    @pytest.mark.parametrize("detect_races", [False, True])
    @pytest.mark.parametrize("factory,label", KERNELS)
    def test_instrumented_run_matches_uninstrumented_results(
            self, factory, label, detect_races):
        plain = factory(detect_races=detect_races)
        _timeout_scenario(plain, racer=detect_races)
        TELEMETRY.enable()
        observed = factory(detect_races=detect_races)
        _timeout_scenario(observed, racer=detect_races)
        assert observed.statistics == plain.statistics
        assert observed.now == plain.now
        assert observed.snapshot() == plain.snapshot()
        assert observed.clock_fast_edges == plain.clock_fast_edges
        assert observed.race_log == plain.race_log
        assert bool(plain.race_log) == detect_races


class TestCosimInstrumentation:
    def _run(self):
        session = CosimSession(make_producer_consumer_model())
        return session, session.run_until_software_done(max_time=1_000_000)

    def test_disabled_run_records_nothing(self):
        self._run()
        assert len(TELEMETRY.tracer) == 0
        assert TELEMETRY.metrics.as_dict()["families"] == []

    def test_enabled_run_exports_counters_and_spans(self):
        TELEMETRY.enable()
        session, result = self._run()
        families = _families(TELEMETRY.metrics)
        [entry] = families["repro_cosim_runs_total"]["series"]
        assert entry["value"] == 1
        assert entry["labels"] == {"kernel": "production", "tier": "fused"}
        tiers = {entry["labels"]["step_tier"]: entry["value"] for entry in
                 families["repro_cosim_fsm_steps_total"]["series"]}
        fsm = session.fsm_counters()
        assert set(tiers) == {"fused", "interpreted"}
        assert tiers["fused"] == fsm["system_compile_hits"]
        assert tiers["interpreted"] == fsm["interpreted"]
        [services] = families["repro_cosim_service_calls_total"]["series"]
        assert services["value"] == len(session.trace)
        names = {span["name"] for span in TELEMETRY.tracer.spans()}
        assert "cosim.build" in names
        assert "cosim.run_until_software_done" in names

    def test_rerun_counts_each_event_once(self):
        TELEMETRY.enable()
        session = CosimSession(make_producer_consumer_model())
        session.run(until=5_000)
        session.run(until=20_000)
        families = _families(TELEMETRY.metrics)
        fsm = session.fsm_counters()
        tiers = {entry["labels"]["step_tier"]: entry["value"] for entry in
                 families["repro_cosim_fsm_steps_total"]["series"]}
        assert sum(tiers.values()) == fsm["steps"] \
            == fsm["interpreted"] + fsm["system_compile_hits"]

    def test_telemetry_never_perturbs_simulated_results(self):
        _, plain = self._run()
        TELEMETRY.enable()
        _, observed = self._run()
        assert observed.end_time == plain.end_time
        assert observed.summary() == plain.summary()

    @pytest.mark.parametrize("tier", ["fused", "interpreted"])
    def test_unit_reset_never_takes_steps_back(self, tier):
        # Run in slices across a reset fault: each flush adds a step
        # delta, so the exported series only grow and end at the steps.
        TELEMETRY.enable()
        scenario = FaultScenario(1, "reset_mid_transaction")
        session = scenario.build_session(tier=tier)
        [injector] = session.fault_injectors.values()
        period = session.clock_period
        totals = []
        for edge in range(1, scenario.at // period + 6):
            session.run(until=edge * period)
            series = _families(TELEMETRY.metrics).get(
                "repro_cosim_fsm_steps_total", {"series": []})["series"]
            totals.append({entry["labels"]["step_tier"]: entry["value"]
                           for entry in series})
        assert session.wired_tier == tier
        assert injector.cursor  # the reset happened mid-run
        for before, after in zip(totals, totals[1:]):
            assert all(after[key] >= value for key, value in before.items())
        assert sum(totals[-1].values()) == session.fsm_counters()["steps"]

    def test_summary_carries_service_latency_percentiles(self):
        _, result = self._run()
        services = result.summary()["services"]
        assert services, "expected at least one traced service"
        for stats in services.values():
            assert set(stats) == {"count", "mean", "p50", "p95", "max"}
            assert stats["p50"] <= stats["p95"] <= stats["max"]


class TestSweepInstrumentation:
    JOBS = [KernelJob("tiny", 0), KernelJob("tiny", 1), CosimJob(0)]

    def test_disabled_sweep_records_nothing(self):
        report = SweepService(self.JOBS, workers=1).run()
        assert report.ok
        assert len(TELEMETRY.tracer) == 0

    def test_serial_sweep_spans_and_counters(self):
        TELEMETRY.enable()
        report = SweepService(self.JOBS, workers=1).run()
        assert report.ok
        spans = TELEMETRY.tracer.spans(name="sweep.job")
        assert len(spans) == len(self.JOBS)
        assert {span["args"]["kind"] for span in spans} \
            == {"kernel", "cosim"}
        assert TELEMETRY.tracer.spans(name="sweep.batch")
        families = _families(TELEMETRY.metrics)
        outcomes = {(entry["labels"]["kind"], entry["labels"]["outcome"]):
                    entry["value"] for entry in
                    families["repro_sweep_jobs_total"]["series"]}
        assert outcomes == {("kernel", "ok"): 2, ("cosim", "ok"): 1}
        waits = families["repro_sweep_queue_wait_seconds"]["series"]
        assert waits[0]["count"] == len(self.JOBS)

    def test_codesign_jobs_record_flow_front_cache_and_lint_spans(
            self, tmp_path):
        from repro.sweep.cache import ArtifactCache
        from repro.sweep.jobs import CosynJob, DseJob

        TELEMETRY.enable()
        jobs = [CosynJob(3, networks=3), DseJob(1, networks=2)]
        cache = ArtifactCache(tmp_path)
        for _ in range(2):  # a cold batch, then a cache-served one
            assert SweepService(jobs, workers=1, cache=cache).run().ok

        def count(name):
            return len(TELEMETRY.tracer.spans(name=name))

        assert count("sweep.cache_get") == 4
        assert count("sweep.cache_put") == 2
        assert count("dse.synthesize_front") == 1
        assert count("cosyn.flow") > 1
        assert count("lint.structural") > 1
        assert count("lint.extended") == 1  # the CosynJob pre-flight

    def test_pooled_sweep_reconstructs_worker_spans(self):
        TELEMETRY.enable()
        report = SweepService(self.JOBS, workers=2).run()
        assert report.ok
        spans = TELEMETRY.tracer.spans(name="sweep.job")
        assert len(spans) == len(self.JOBS)
        assert all(span["dur_us"] > 0 for span in spans)
        families = _families(TELEMETRY.metrics)
        assert "repro_sweep_worker_utilization" in families
        assert "repro_pool_items_total" in families

    def test_parallel_report_identical_to_serial_with_telemetry_on(self):
        TELEMETRY.enable()
        serial = SweepService(self.JOBS, workers=1).run()
        parallel = SweepService(self.JOBS, workers=2).run()
        assert serial.to_json() == parallel.to_json()
