"""Shared fixtures: small systems reused across the test suite."""

import pytest

#: The built-in platform set, pinned explicitly so registry changes made by
#: other tests (custom platform registration) cannot leak into fixtures.
ALL_PLATFORMS = ("microcoded", "multiproc", "pc_at_fpga", "unix_ipc")
HW_PLATFORMS = ("microcoded", "multiproc", "pc_at_fpga")

from repro.comm import handshake_channel
from repro.core import SystemModel, SoftwareModule, HardwareModule
from repro.core.service import Service, ServiceParam
from repro.ir import FsmBuilder, Assign, PortWrite, var, port, INT
from repro.ir.compile import compile_fsm
from repro.ir.interp import StepResult
from repro.ir.dtypes import word_type


class ProgramStepper:
    """Steps a :func:`compile_fsm` program the way FsmInstance steps the IR."""

    def __init__(self, fsm, ports, call_handler, reset_on_done=False):
        self.program = compile_fsm(fsm)
        self.ports = ports
        self.call_handler = call_handler
        self.reset_on_done = reset_on_done
        self.current = fsm.initial
        self.env = {name: decl.init for name, decl in fsm.variables.items()}
        self.transitions_fired = 0

    def run_to_done(self, max_steps=10_000):
        """Step until a done state; return every StepResult on the way."""
        history = []
        for _ in range(max_steps):
            history.append(self.step())
            if history[-1].done:
                return history
        raise AssertionError(f"program did not finish within {max_steps} steps")

    def step(self, args=None):
        if args:
            self.env.update(args)
        program = self.program
        from_state = self.current
        state = program.states[from_state]
        called = None
        if state.stepper is not None:
            current, fired = state.stepper(self.env, self.ports)
        else:
            current, fired, called = self._call_transitions(state)
        self.transitions_fired += fired
        self.current = current
        done = current in program.done_states
        result = (self.env.get(program.result_var)
                  if done and program.result_var else None)
        if done and self.reset_on_done:
            self.current = program.initial
        return StepResult(from_state, current, fired, done, result, called)

    def _call_transitions(self, state):
        env, ports = self.env, self.ports
        if state.actions is not None:
            state.actions(env, ports)
        called = None
        for transition in state.transitions:
            if transition.call is not None:
                called = transition.service
                args = (transition.args(env, ports)
                        if transition.args is not None else [])
                call_done, value = self.call_handler(transition.call, args)
                if call_done and transition.store:
                    env[transition.store] = value
                if not call_done:
                    continue
            if transition.guard is not None and not transition.guard(env, ports):
                continue
            if transition.actions is not None:
                transition.actions(env, ports)
            return transition.target, True, called
        return state.name, False, called


def make_put_like_service(name="PUT", prefix=""):
    """A Figure-3-style PUT service over DATAIN / B_FULL / PUTRDY ports."""
    data_type = word_type(16)
    build = FsmBuilder(name)
    build.variable("REQUEST", data_type, 0)
    with build.state("INIT") as state:
        state.go("WAIT_B_FULL", when=port(f"{prefix}B_FULL").eq(1))
        state.go("DATA_RDY", actions=[PortWrite(f"{prefix}DATAIN", var("REQUEST")),
                                      PortWrite(f"{prefix}PUTRDY", 1)])
    with build.state("WAIT_B_FULL") as state:
        state.go("INIT", when=port(f"{prefix}B_FULL").eq(0))
        state.stay()
    with build.state("DATA_RDY") as state:
        state.go("IDLE", when=port(f"{prefix}B_FULL").eq(1),
                 actions=[PortWrite(f"{prefix}PUTRDY", 0)])
        state.stay()
    with build.state("IDLE", done=True) as state:
        state.go("INIT")
    fsm = build.build(initial="INIT")
    return Service(name, fsm, params=[ServiceParam("REQUEST", data_type)],
                   interface="HostIf")


def make_host_module(words=5, start=10, name="HostMod", service="HostPut"):
    """Software module sending *words* increasing values through *service*."""
    build = FsmBuilder("HOST")
    build.variable("VALUE", INT, start)
    build.variable("COUNT", INT, 0)
    with build.state("Send") as state:
        state.call(service, args=[var("VALUE")], then="Advance")
    with build.state("Advance") as state:
        state.go("Finish", when=var("COUNT").ge(words - 1))
        state.go("Send", actions=[Assign("VALUE", var("VALUE") + 1),
                                  Assign("COUNT", var("COUNT") + 1)])
    with build.state("Finish", done=True) as state:
        state.stay()
    return SoftwareModule(name, build.build(initial="Send"))


def make_server_module(name="ServerMod", service="ServerGet"):
    """Hardware module accumulating every word received through *service*."""
    build = FsmBuilder("SERVER")
    build.variable("RX", INT, 0)
    build.variable("TOTAL", INT, 0)
    build.variable("RECEIVED", INT, 0)
    with build.state("Receive") as state:
        state.call(service, store="RX", then="Accumulate")
    with build.state("Accumulate") as state:
        state.go("Receive", actions=[Assign("TOTAL", var("TOTAL") + var("RX")),
                                     Assign("RECEIVED", var("RECEIVED") + 1)])
    return HardwareModule(name, [build.build(initial="Receive")])


def make_producer_consumer_model(words=5, start=10):
    """Complete Figure-2-style system: host + server + handshake channel."""
    model = SystemModel("ProducerConsumer")
    model.add_comm_unit(
        handshake_channel("Channel", put_name="HostPut", get_name="ServerGet",
                          prefix="HS", put_interface="HostIf",
                          get_interface="ServerIf")
    )
    model.add_software_module(make_host_module(words=words, start=start))
    model.add_hardware_module(make_server_module())
    model.bind("HostMod", "HostPut", "Channel")
    model.bind("ServerMod", "ServerGet", "Channel")
    return model


@pytest.fixture
def put_service():
    return make_put_like_service()


@pytest.fixture
def producer_consumer_model():
    return make_producer_consumer_model()


@pytest.fixture
def motor_config():
    from repro.apps.motor_controller import MotorControllerConfig
    return MotorControllerConfig(final_position=24, segment=8, speed_limit=6)


@pytest.fixture(scope="module")
def motor_cosim_result():
    """One shared co-simulation run of a small motor scenario (module scope)."""
    from repro.apps.motor_controller import MotorControllerConfig, build_session
    config = MotorControllerConfig(final_position=24, segment=8, speed_limit=6)
    session = build_session(config)
    result = session.run_until_software_done(max_time=10_000_000)
    return config, session, result


@pytest.fixture(scope="module")
def pc_at_cosynthesis():
    """One shared co-synthesis run onto the PC-AT/FPGA platform (module scope)."""
    from repro.apps.motor_controller import (
        MotorControllerConfig, build_system, build_view_library_for,
    )
    from repro.cosyn import CosynthesisFlow
    from repro.platforms import get_platform

    config = MotorControllerConfig()
    model, _ = build_system(config)
    platform = get_platform("pc_at_fpga")
    library = build_view_library_for({platform.name: platform}, config)
    flow = CosynthesisFlow(model, platform, library=library)
    return config, model, platform, library, flow.run()
