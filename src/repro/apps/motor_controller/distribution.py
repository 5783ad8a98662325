"""The Distribution subsystem (software) — paper Figure 6.

The module is a C program organised as a finite state machine; one transition
executes per activation.  Its job:

1. load the motor constraints and transmit them (``SetupControl``),
2. split the total travel into segments and, for each segment, transmit the
   next position (``MotorPosition``),
3. wait for the hardware's state report (``ReadMotorState``) before issuing
   the next segment,
4. finish once the final position has been commanded and confirmed.
"""

from repro.core.module import SoftwareModule
from repro.ir.builder import FsmBuilder
from repro.ir.dtypes import word_type
from repro.ir.expr import BinOp, var
from repro.ir.stmt import Assign


def build_distribution(config, name="DistributionMod", service_suffix=""):
    """Build the Distribution software module for the given scenario *config*.

    *service_suffix* renames the access procedures (e.g. ``"X"`` gives
    ``SetupControlX``), which lets several axes coexist in one system model
    and one view library (the paper's 2-D table needs one controller per
    axis).
    """
    word = word_type(16)
    build = FsmBuilder("DISTRIBUTION")
    build.variable("MAXSPEED", word, 0)
    build.variable("POSITION", word, config.start_position)
    build.variable("TARGET", word, config.start_position)
    build.variable("MSTATE", word, 0)
    build.variable("SEGMENTS", word, 0)

    with build.state("Start") as state:
        # LoadMotorConstraints
        state.go("SetupControlCall",
                 actions=[Assign("MAXSPEED", config.speed_limit),
                          Assign("POSITION", config.start_position)])

    with build.state("SetupControlCall") as state:
        state.call(f"SetupControl{service_suffix}", args=[var("MAXSPEED")], then="Step")

    with build.state("Step") as state:
        # PositionDefinition: next segment target, clipped to the final position.
        state.go("MotorPositionCall",
                 actions=[Assign("TARGET",
                                 BinOp("min", var("POSITION") + config.segment,
                                       config.final_position))])

    with build.state("MotorPositionCall") as state:
        state.call(f"MotorPosition{service_suffix}", args=[var("TARGET")], then="Next")

    with build.state("Next") as state:
        # UpdatePosition
        state.go("ReadStateCall",
                 actions=[Assign("POSITION", var("TARGET")),
                          Assign("SEGMENTS", var("SEGMENTS") + 1)])

    with build.state("ReadStateCall") as state:
        state.call(f"ReadMotorState{service_suffix}", store="MSTATE", then="NextStep")

    with build.state("NextStep") as state:
        state.go("Finish", when=var("POSITION").ge(config.final_position))
        state.go("Step")

    with build.state("Finish", done=True) as state:
        state.stay()

    module = SoftwareModule(
        name, build.build(initial="Start"),
        description="Distribution subsystem: splits the travel into segments and "
                    "drives the Speed Control hardware through the "
                    "Distribution_Interface access procedures",
    )
    # MSTATE deliberately discards the ReadMotorState result: the call is a
    # pure synchronization point (the paper's Distribution FSM waits for the
    # report before issuing the next segment).  Silence the dead-store rule;
    # the module's scope covers its FSM.
    module.lint_suppress = ("DF002:'MSTATE'",)
    return module
