"""End-to-end co-simulation benchmark workloads.

Where :mod:`benchmarks.perf.workloads` measures the kernel alone, these
workloads drive the whole backplane — session build, clocked hardware
adapters, software activations, service FSMs — so the measured wall-clock
is what ``make conformance`` / ``make dse`` / ``make sweep`` actually pay
per simulated nanosecond.  Two scaling axes:

* :data:`transition_rate` — N hardware modules, each a datapath-heavy FSM
  firing one transition per clock edge.  Total FSM transition rate scales
  linearly with N and the per-transition expression work dominates, which
  is exactly the shape the fused tier targets.  This carries the
  suite's acceptance criterion (fused vs. interpreted-seed speedup).
* :data:`mixed_system` — N testkit-generated producer/consumer networks
  with the generator's random hardware/software split, channel kinds and
  service-call traffic, run to software completion.  FSMs are small, so
  this measures the realistic blend of kernel, backplane and FSM cost.

Sessions are prepared (built, fused program compiled) **outside**
the timed region: program compilation is a once-per-model cost, not a
per-run scheduling cost.  Waveform tracing is disabled so the recorder does
not flatten the very ratio being measured.
"""

from repro.cosim import CosimSession
from repro.core import HardwareModule, SystemModel
from repro.ir import Assign, FsmBuilder, INT, var
from repro.ir.expr import BinOp
from repro.testkit.models import generate_system

#: Hardware clock period of the transition-rate workload (ns).
COSIM_CLOCK_PERIOD = 20

#: Rising edges executed per transition-rate point (full / quick tiers).
#: The quick tier runs fewer sizes, not shorter points: a quick point must
#: run for at least ~5 ms on the fused tier, or host noise alone moves it
#: by up to 2x and the --check gate sees nothing.
TRANSITION_EDGES = 300
TRANSITION_QUICK_EDGES = 500

#: Generator seed and fixed horizon of the mixed-system workload (ns).
MIXED_SEED = 977
MIXED_HORIZON = 200_000
MIXED_QUICK_HORIZON = 20_000


def _mix(dst, taps, modulus):
    """``dst = (weighted mix of taps) mod modulus`` with a deep BinOp tree."""
    acc = BinOp("mul", var(taps[0][0]), taps[0][1])
    for name, weight in taps[1:]:
        acc = BinOp("add", acc, BinOp("mul", var(name), weight))
    return Assign(dst, BinOp("mod", BinOp("add", acc, 13), modulus))


def datapath_fsm(name):
    """A three-state FSM with a filter-style datapath in every state.

    Each state updates an eight-register pipeline with multiply-accumulate
    trees (~130 IR nodes per activation) and always fires a transition, so
    stepping cost is dominated by expression evaluation at a fixed one
    transition per clock edge — the transition-rate-bound regime.
    """
    build = FsmBuilder(name)
    regs = [f"R{index}" for index in range(8)]
    for index, reg in enumerate(regs):
        build.variable(reg, INT, index + 1)
    build.variable("ACC", INT, 0)

    def stage(state, rotation):
        rotated = regs[rotation:] + regs[:rotation]
        for position, reg in enumerate(rotated):
            taps = [(rotated[(position + offset) % len(rotated)], 3 + 2 * offset)
                    for offset in range(3)]
            state.do(_mix(reg, taps, 251 + 2 * position))
        state.do(Assign("ACC", BinOp(
            "mod",
            BinOp("add", var("ACC"),
                  BinOp("add", BinOp("mul", var(rotated[0]), var(rotated[1])),
                        BinOp("max", var(rotated[2]), var(rotated[3])))),
            65521,
        )))

    with build.state("Fetch") as state:
        stage(state, 0)
        state.go("Execute", when=BinOp("ge", var("ACC"), 1024))
        state.go("Execute")
    with build.state("Execute") as state:
        stage(state, 3)
        state.go("Commit", when=BinOp("lt", var("R0"), var("R4")))
        state.go("Commit")
    with build.state("Commit") as state:
        stage(state, 5)
        state.go("Fetch")
    return build.build(initial="Fetch")


def prepare_transition_rate(n_modules, tier, quick=False):
    """N datapath modules on one clock; returns ``(session, run_callable)``."""
    model = SystemModel(f"TransitionRate{n_modules}")
    for index in range(n_modules):
        model.add_hardware_module(
            HardwareModule(f"Dp{index}", [datapath_fsm(f"DP{index}")])
        )
    session = CosimSession(model, clock_period=COSIM_CLOCK_PERIOD,
                           trace_signals=False, tier=tier)
    session.build()
    edges = TRANSITION_QUICK_EDGES if quick else TRANSITION_EDGES
    horizon = edges * COSIM_CLOCK_PERIOD

    def run():
        session.run(until=horizon)

    return session, run


def prepare_mixed_system(n_networks, tier, quick=False):
    """N generated networks run over a fixed horizon.

    The horizon covers the transfers and the steady state after them, so
    the point measures the realistic backplane blend at a fixed amount of
    simulated time regardless of execution tier.  The steady tail is
    skipped arithmetically, not stepped: once the kernel's probe finds
    one quiet clock period, the rest of the horizon costs no edges
    (``clock_skipped_edges``), so the transfers dominate the point's time.
    """
    system = generate_system(MIXED_SEED, networks=n_networks)
    session = CosimSession(system.build_model(), tier=tier,
                           trace_signals=False, **system.cosim_params)
    session.build()
    horizon = MIXED_QUICK_HORIZON if quick else MIXED_HORIZON

    def run():
        session.run(until=horizon)

    return session, run


class CosimWorkload:
    """One cosim benchmark scenario (name, scaling sizes, session factory)."""

    def __init__(self, name, description, preparer, sizes, quick_sizes):
        self.name = name
        self.description = description
        self.preparer = preparer
        self.sizes = tuple(sizes)
        self.quick_sizes = tuple(quick_sizes)

    def prepare(self, size, tier, quick=False):
        """Build an un-run session; returns ``(session, run_callable)``."""
        return self.preparer(size, tier, quick=quick)

    def __repr__(self):
        return f"CosimWorkload({self.name}, sizes={self.sizes})"


#: Registry of cosim workloads, in reporting order.  Quick sizes are a
#: subset of the full sizes, but quick points run other horizons — only
#: runs recorded at the same tier (quick vs. full) are wall-comparable,
#: which the --check gate enforces via the run's "quick" flag.
COSIM_WORKLOADS = [
    CosimWorkload(
        "transition_rate",
        "N hardware datapath FSMs, one transition per module per clock edge",
        prepare_transition_rate,
        sizes=(2, 8, 32),
        quick_sizes=(2, 8),
    ),
    CosimWorkload(
        "mixed_system",
        "N generated hw/sw networks with service traffic, run to completion",
        prepare_mixed_system,
        sizes=(1, 2, 4, 8),
        # The quiet tail is skipped, so a longer horizon adds no work: only
        # the largest size runs its transfers for >= 5 ms.
        quick_sizes=(8,),
    ),
]
