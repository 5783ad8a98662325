"""FIG4 — structure of the Adaptive Motor Controller (paper Figure 4).

Regenerates the system topology: the Distribution subsystem and the Speed
Control subsystem communicating through a communication channel, with the
motor attached to the hardware side.
"""

from repro.apps.motor_controller import build_system
from repro.lint import lint_model
from repro.utils.text import format_table


def build_topology():
    model, config = build_system()
    return model, config, model.topology()


def test_fig4_system_structure(benchmark):
    model, config, topology = benchmark(build_topology)

    assert lint_model(model, structural_only=True).diagnostics == []
    assert topology["software_modules"] == ["DistributionMod"]
    assert topology["hardware_modules"] == ["SpeedControlMod"]
    assert sorted(topology["comm_units"]) == ["MotorUnit", "SwHwUnit"]

    # The Distribution subsystem provides positions; the Speed Control
    # subsystem consumes them and drives the motor — exactly the Figure 4 flow.
    bindings = {(b["module"], b["service"]): b for b in topology["bindings"]}
    assert bindings[("DistributionMod", "MotorPosition")]["unit"] == "SwHwUnit"
    assert bindings[("SpeedControlMod", "ReadMotorPosition")]["unit"] == "SwHwUnit"
    assert bindings[("SpeedControlMod", "SendMotorPulses")]["unit"] == "MotorUnit"
    assert bindings[("DistributionMod", "MotorPosition")]["interface"] == \
        "Distribution_Interface"

    rows = [(b["module"], b["module_kind"], b["interface"], b["service"], b["unit"])
            for b in topology["bindings"]]
    print()
    print("FIG4: Adaptive Motor Controller structure")
    print(format_table(["module", "kind", "interface", "service", "unit"], rows))
    print(f"  user parameters: final position {config.final_position}, "
          f"segment {config.segment}, speed limit {config.speed_limit}")
