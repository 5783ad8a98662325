"""FIG6 — the Distribution subsystem (paper Figure 6).

Regenerates both halves of the figure:

* (a) the subsystem's state graph and its communication primitives
  (SetupControl, MotorPosition, ReadMotorState),
* (b) the C code of the subsystem — a finite state machine executing one
  transition per activation.

The bench also replays the FSM in isolation to check the one-transition-per-
activation rule and the state sequence of one segment.
"""

from benchmarks.conftest import small_motor_config
from repro.apps.motor_controller import build_distribution, build_session
from repro.swc import emit_module_function


def regenerate_fig6():
    config = small_motor_config()
    module = build_distribution(config)
    c_code = emit_module_function(module)
    session = build_session(config, clock_period=100).build()
    executor = session.software_executor("DistributionMod")
    steps = []
    executor.instance.observer = steps.append
    result = session.run_until_software_done(max_time=20_000_000)
    return config, module, c_code, executor, steps, result


def test_fig6_distribution_subsystem(benchmark):
    config, module, c_code, executor, steps, result = benchmark.pedantic(
        regenerate_fig6, rounds=1, iterations=1
    )

    # (a) State graph and primitives of the figure.
    assert module.fsm.initial == "Start"
    assert module.services_used() == ["SetupControl", "MotorPosition", "ReadMotorState"]
    for state in ("Start", "SetupControlCall", "Step", "MotorPositionCall", "Next",
                  "ReadStateCall", "NextStep"):
        assert state in module.fsm.states

    # (b) Generated C: switch-based FSM, service-call guards, DONE protocol.
    assert "int DISTRIBUTION(void)" in c_code
    assert "switch (NextState)" in c_code
    assert "if (SetupControl(MAXSPEED)) { NextState = DISTRIBUTION_Step; }" in c_code
    assert "if (MotorPosition(TARGET)) { NextState = DISTRIBUTION_Next; }" in c_code
    assert "return DONE;" in c_code

    # One transition per activation: one step per activation, and visited
    # states == fired transitions + 1.
    assert len(steps) == executor.activations
    history = [steps[0].from_state] + [step.to_state for step in steps
                                       if step.fired]
    assert len(history) == executor.instance.transitions_fired + 1
    assert history[0] == "Start" and history[-1] == "Finish"
    # The Step/MotorPositionCall/Next/ReadStateCall/NextStep cycle repeats once
    # per segment.
    assert history.count("MotorPositionCall") == config.segments
    assert executor.variables()["SEGMENTS"] == config.segments

    print()
    print("FIG6: Distribution subsystem")
    print(f"  states             : {list(module.fsm.states)}")
    print(f"  primitives         : {module.services_used()}")
    print(f"  generated C        : {len(c_code.splitlines())} lines")
    print(f"  activations        : {executor.activations} "
          f"(transitions fired: {executor.instance.transitions_fired})")
    print(f"  segments commanded : {executor.variables()['SEGMENTS']}")
