"""Co-simulation of the Adaptive Motor Controller (paper §4, Figures 4-7).

Builds the complete system — software Distribution subsystem, hardware Speed
Control subsystem (Position / Core / Timer units), the SW/HW and HW/HW
communication units and the motor's physical model — and validates it
functionally: the motor must reach the commanded final position, the pulse
train must respect the motor's minimum pulse period and the first pulse must
follow the software command within the response bound.

Run with::

    python examples/motor_controller_cosim.py
"""

from repro.analysis.metrics import latency_table
from repro.apps.motor_controller import (
    MotorControllerConfig,
    RealTimeConstraints,
    build_session,
    observables,
)


def main():
    config = MotorControllerConfig(final_position=60, segment=15, speed_limit=8)
    print("scenario:", config)
    print("expected segments:", config.segments)
    print()

    session = build_session(config, clock_period=100)
    result = session.run_until_software_done(max_time=10_000_000)

    print("co-simulation finished at", result.end_time, "ns")
    print("system topology:")
    for key, value in session.model.topology().items():
        if key != "bindings":
            print(f"  {key}: {value}")
    print()

    print("functional outcome:")
    for key, value in observables(session, result).items():
        print(f"  {key}: {value}")
    print()

    print("per-service latency over the SW/HW interface:")
    print(latency_table(result.trace.latency_summary()))
    print()

    constraints = RealTimeConstraints(config)
    report = constraints.check(session, result)
    print("real-time constraint report:")
    print(RealTimeConstraints.as_table(report))

    assert report["ok"], "the co-simulated system violates its constraints"
    assert session.motor.position == config.final_position


if __name__ == "__main__":
    main()
