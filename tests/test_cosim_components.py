"""Unit tests of the co-simulation building blocks (accessors, trace, policies)."""

import pytest

from repro.cosim import (
    CliPortAccessor,
    OneTransitionPerActivation,
    RunToIdle,
    ServiceCallTrace,
    SignalPortAccessor,
)
from repro.cosim.services import ServiceInstance, ServiceRegistry
from repro.desim import Simulator
from repro.ir import Assign, FsmBuilder, FsmInstance, INT, var
from repro.utils.errors import SimulationError

from tests.conftest import make_put_like_service


class TestPortAccessors:
    def _simulator_with_signals(self):
        sim = Simulator()
        data = sim.add_signal("U_DATAIN", init=0)
        full = sim.add_signal("U_FULL", init=0)
        return sim, {"DATAIN": data, "B_FULL": full}

    def test_signal_accessor_reads_current_value(self):
        sim, signal_map = self._simulator_with_signals()
        accessor = SignalPortAccessor(sim, signal_map)
        assert accessor.read("B_FULL") == 0

    def test_signal_accessor_write_is_delta_delayed(self):
        sim, signal_map = self._simulator_with_signals()
        accessor = SignalPortAccessor(sim, signal_map)
        accessor.write("DATAIN", 9)
        assert signal_map["DATAIN"].value == 0, "visible only after the update phase"
        sim.run()
        assert signal_map["DATAIN"].value == 9

    def test_unknown_port_raises(self):
        sim, signal_map = self._simulator_with_signals()
        accessor = SignalPortAccessor(sim, signal_map, writer="test")
        with pytest.raises(SimulationError, match="unknown port"):
            accessor.read("MISSING")

    def test_cli_accessor_exposes_paper_api(self):
        sim, signal_map = self._simulator_with_signals()
        accessor = CliPortAccessor(sim, signal_map)
        assert accessor.cli_get_port_value("B_FULL") == 0
        accessor.cli_output("DATAIN", 3)
        sim.run()
        assert signal_map["DATAIN"].value == 3


class TestServiceCallTrace:
    def test_begin_is_idempotent_while_pending(self):
        trace = ServiceCallTrace()
        first = trace.begin("Mod", "Svc", "Unit", 100, token=0)
        again = trace.begin("Mod", "Svc", "Unit", 200, token=0)
        assert first is again
        assert first.steps == 2
        assert len(trace) == 1

    def test_complete_closes_the_pending_record(self):
        trace = ServiceCallTrace()
        trace.begin("Mod", "Svc", "Unit", 100, token=0)
        record = trace.complete("Mod", "Svc", 400, result=7, token=0)
        assert record.latency == 300
        assert record.result == 7
        assert trace.count(service="Svc") == 1

    def test_complete_without_begin_returns_none(self):
        trace = ServiceCallTrace()
        assert trace.complete("Mod", "Svc", 10, token=0) is None

    def test_begin_and_complete_require_a_token(self):
        # Without the invocation token two back-to-back calls would merge
        # into one record.
        trace = ServiceCallTrace()
        with pytest.raises(TypeError):
            trace.begin("Mod", "Svc", "Unit", 100)
        with pytest.raises(TypeError):
            trace.complete("Mod", "Svc", 100)
        assert len(trace) == 0

    def test_statistics_and_filtering(self):
        trace = ServiceCallTrace()
        for token, (start, end) in enumerate([(0, 100), (200, 500)]):
            trace.begin("A", "Put", "U", start, token=token)
            trace.complete("A", "Put", end, token=token)
        trace.begin("B", "Get", "U", 50, token=0)
        trace.complete("B", "Get", 60, token=0)
        assert trace.latency_stats(service="Put")["mean"] == pytest.approx(200)
        assert trace.count(caller="A") == 2
        assert trace.services_seen() == ["Get", "Put"]
        table = trace.as_table()
        assert "Put" in table and "Get" in table


class TestBackToBackInvocations:
    def _one_step_service(self):
        from repro.core.service import Service, ServiceParam

        build = FsmBuilder("ECHO")
        build.variable("REQUEST", INT, 0)
        with build.state("Go") as state:
            state.go("Done")
        with build.state("Done", done=True) as state:
            state.go("Go")
        return Service("ECHO", build.build(initial="Go"),
                       params=[ServiceParam("REQUEST", INT)],
                       interface="HostIf")

    def test_same_delta_invocations_get_distinct_records(self):
        # Two back-to-back invocations of one service by one caller at the
        # same simulation time used to merge into a single trace record
        # (keyed by (caller, service)), halving the call count and skewing
        # the mean latency; the instance's invocation token keeps them apart.
        sim = Simulator()
        trace = ServiceCallTrace()
        instance = ServiceInstance("Caller", self._one_step_service(), "Unit",
                                   SignalPortAccessor(sim, {}), trace=trace,
                                   time_fn=lambda: sim.now)
        assert instance.step([7]) == (True, None)
        assert instance.step([8]) == (True, None)
        assert len(trace) == 2
        assert trace.count(caller="Caller", service="ECHO") == 2
        assert [record.args for record in trace.records] == [(7,), (8,)]
        assert trace.latency_stats(service="ECHO")["mean"] == 0

    def test_trace_tokens_separate_overlapping_invocations(self):
        trace = ServiceCallTrace()
        trace.begin("M", "Svc", "U", 100, token=0)
        trace.begin("M", "Svc", "U", 110, token=0)  # second step, same call
        trace.complete("M", "Svc", 120, token=0)
        trace.begin("M", "Svc", "U", 120, token=1)
        trace.complete("M", "Svc", 200, token=1)
        assert len(trace) == 2
        assert [record.latency for record in trace.records] == [20, 80]
        assert trace.records[0].steps == 2


class TestActivationPolicies:
    def _stepper_fsm(self, limit=10):
        build = FsmBuilder("STEPPER")
        build.variable("COUNT", INT, 0)
        with build.state("Run") as state:
            state.do(Assign("COUNT", var("COUNT") + 1))
            state.go("Stop", when=var("COUNT").ge(limit))
            state.stay()
        with build.state("Stop", done=True) as state:
            state.stay()
        return build.build(initial="Run")

    def test_one_transition_per_activation(self):
        instance = FsmInstance(self._stepper_fsm())
        policy = OneTransitionPerActivation()
        results = policy.activate(instance)
        assert len(results) == 1
        assert instance.env["COUNT"] == 1

    def test_run_to_idle_executes_until_done(self):
        instance = FsmInstance(self._stepper_fsm(limit=5))
        policy = RunToIdle(max_steps_per_activation=64)
        results = policy.activate(instance)
        assert results[-1].done
        assert len(results) == 5

    def test_run_to_idle_bounded(self):
        instance = FsmInstance(self._stepper_fsm(limit=1000))
        policy = RunToIdle(max_steps_per_activation=8)
        assert len(policy.activate(instance)) == 8

    def test_run_to_idle_validates_bound(self):
        with pytest.raises(SimulationError):
            RunToIdle(max_steps_per_activation=0)


class TestServiceRegistry:
    def test_registry_dispatch_and_argument_check(self, put_service):
        sim = Simulator()
        signals = {
            "DATAIN": sim.add_signal("DATAIN", init=0),
            "B_FULL": sim.add_signal("B_FULL", init=0),
            "PUTRDY": sim.add_signal("PUTRDY", init=0),
        }
        accessor = SignalPortAccessor(sim, signals)
        trace = ServiceCallTrace()
        registry = ServiceRegistry("Caller")
        instance = registry.add(
            ServiceInstance("Caller", put_service, "Unit", accessor, trace=trace,
                            time_fn=lambda: sim.now)
        )
        handler = registry.call_handler()
        done, _ = handler(type("C", (), {"service": "PUT"})(), [42])
        assert not done
        assert instance.instance.steps == 1
        assert len(trace) == 1
        with pytest.raises(SimulationError, match="arguments"):
            instance.step([1, 2])
        with pytest.raises(SimulationError):
            registry.get("Missing")
