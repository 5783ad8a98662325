"""Self-check of the analyzer: engineered mutants must trip their rules.

Two halves, both cheap enough for CI:

* **mutants** — each builder returns a small system model engineered to
  violate exactly one rule family; the selfcheck asserts the expected rule
  fires.  The duplicate-writer mutant is additionally co-simulated with
  ``detect_races=True`` on both kernels as the positive control of the
  static ⊇ dynamic race property (a detector that never fires would
  vacuously pass every inclusion check).
* **corpus** — the shipped applications (motor controller, two-axis table)
  and the first ten generated conformance systems must stay lint-clean:
  no errors, no warnings (explicitly suppressed findings are fine).

``python -m repro.lint --selfcheck`` runs both and reports each failure as
one line; the CI lint-smoke job gates on it.
"""

from repro.comm import handshake_channel
from repro.core import HardwareModule, SoftwareModule, SystemModel
from repro.core.comm_unit import CommunicationController, CommunicationUnit
from repro.core.service import Service
from repro.ir import INT, Assign, FsmBuilder, PortRef, var
from repro.ir.dtypes import word_type
from repro.ir.stmt import PortWrite
from repro.lint.engine import lint_model
from repro.lint.races import static_race_signals

#: Seeds of the generated-system corpus that must stay clean.
CORPUS_SEEDS = tuple(range(10))


def _producer_fsm(name, service, width=16):
    """Endless producer calling *service* once per completed handshake."""
    build = FsmBuilder(name)
    build.variable("VALUE", word_type(width), 1)
    with build.state("Send") as state:
        state.call(service, args=[var("VALUE")], then="Next")
    with build.state("Next") as state:
        state.go("Send", actions=[Assign("VALUE", var("VALUE") + 1)])
    return build.build(initial="Send")


def _consumer_fsm(name, service, width=16):
    build = FsmBuilder(name)
    build.variable("RX", word_type(width), 0)
    build.variable("TOTAL", INT, 0)
    with build.state("Receive") as state:
        state.call(service, store="RX", then="Accumulate")
    with build.state("Accumulate") as state:
        state.go("Receive", actions=[Assign("TOTAL", var("TOTAL") + var("RX"))])
    return build.build(initial="Receive")


def build_dup_writer_model():
    """Two hardware producers bound to ONE put service: a delta-cycle race.

    Both producer processes step their service-FSM instance on the same
    clock edge, so the channel's ``DATAIN``/``PUTRDY`` ports receive writes
    from two distinct processes in the same delta — statically flagged as
    RACE001, dynamically observable with ``detect_races=True``.
    """
    model = SystemModel("DupWriterMutant")
    model.add_comm_unit(handshake_channel("Net", put_name="Put",
                                          get_name="Get", prefix="NT"))
    model.add_hardware_module(
        HardwareModule("ProdA", [_producer_fsm("PRODA", "Put")]))
    model.add_hardware_module(
        HardwareModule("ProdB", [_producer_fsm("PRODB", "Put")]))
    model.add_software_module(
        SoftwareModule("Cons", _consumer_fsm("CONS", "Get")))
    model.bind("ProdA", "Put", "Net")
    model.bind("ProdB", "Put", "Net")
    model.bind("Cons", "Get", "Net")
    return model


def _single_network_model(name, producer_fsm):
    """One producer (with the given FSM) and one consumer on one channel."""
    model = SystemModel(name)
    model.add_comm_unit(handshake_channel("Net", put_name="Put",
                                          get_name="Get", prefix="NT"))
    model.add_software_module(SoftwareModule("Prod", producer_fsm))
    model.add_software_module(
        SoftwareModule("Cons", _consumer_fsm("CONS", "Get")))
    model.bind("Prod", "Put", "Net")
    model.bind("Cons", "Get", "Net")
    return model


def build_dead_state_model():
    """An FSM state no transition can reach (FSM002)."""
    build = FsmBuilder("PROD")
    build.variable("VALUE", word_type(16), 1)
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Send")
    with build.state("Orphan") as state:
        state.go("Send")
    return _single_network_model("DeadStateMutant", build.build(initial="Send"))


def build_trap_state_model():
    """A non-done state with no way out (FSM003)."""
    build = FsmBuilder("PROD")
    build.variable("VALUE", word_type(16), 1)
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Stuck")
    with build.state("Stuck"):
        pass
    return _single_network_model("TrapStateMutant", build.build(initial="Send"))


def build_bad_width_model():
    """A constant argument that can never fit the word-16 parameter (IF006)."""
    build = FsmBuilder("PROD")
    with build.state("Send") as state:
        state.call("Put", args=[1 << 20], then="Send")
    return _single_network_model("BadWidthMutant", build.build(initial="Send"))


def build_shadowed_model():
    """A guarded transition after an unconditional sibling (DF004)."""
    build = FsmBuilder("PROD")
    build.variable("VALUE", word_type(16), 1)
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Pick")
    with build.state("Pick") as state:
        state.go("Send")
        state.go("Send", when=var("VALUE").ge(10))
    return _single_network_model("ShadowedMutant", build.build(initial="Send"))


def build_false_guard_model():
    """A guard the interval analysis proves can never be true (DF003)."""
    build = FsmBuilder("PROD")
    build.variable("VALUE", word_type(16), 1)
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Pick")
    with build.state("Pick") as state:
        state.go("Send", when=var("VALUE").lt(0))
        state.go("Send")
    return _single_network_model("FalseGuardMutant",
                                 build.build(initial="Send"))


def build_undeclared_read_model():
    """A call argument reading a variable nothing declares (FSM004)."""
    build = FsmBuilder("PROD")
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Send")
    return _single_network_model("UndeclaredReadMutant",
                                 build.build(initial="Send"))


def build_dead_store_model():
    """A declared variable written on every send and never read (DF002)."""
    build = FsmBuilder("PROD")
    build.variable("VALUE", word_type(16), 1)
    build.variable("SENT", INT, 0)
    with build.state("Send") as state:
        state.call("Put", args=[var("VALUE")], then="Send",
                   actions=[Assign("SENT", 1)])
    return _single_network_model("DeadStoreMutant", build.build(initial="Send"))


def build_undeclared_port_model():
    """A second controller strobing a port its unit never declares (IF008)."""
    build = FsmBuilder("ROGUE")
    with build.state("Run") as state:
        state.stay(actions=[PortWrite("NT_STROBE", 1)])
    rogue = CommunicationController("Rogue", build.build(initial="Run"))
    channel = handshake_channel("Net", put_name="Put", get_name="Get",
                                prefix="NT")
    unit = CommunicationUnit("Net", ports=channel.ports.values(),
                             services=channel.services.values(),
                             controllers=[*channel.controllers, rogue])
    model = SystemModel("UndeclaredPortMutant")
    model.add_comm_unit(unit)
    model.add_software_module(
        SoftwareModule("Cons", _consumer_fsm("CONS", "Get")))
    model.bind("Cons", "Get", "Net")
    return model


def _port_probe_fsm():
    """An FSM reading port ``NOPE``, which no module declares."""
    build = FsmBuilder("PROBE")
    with build.state("Run") as state:
        state.go("Run", when=PortRef("NOPE"))
    return build.build(initial="Run")


def build_undeclared_module_port_model():
    """A hardware process reading a port its module never declares (IF008)."""
    model = SystemModel("UndeclaredModulePortMutant")
    model.add_hardware_module(HardwareModule("H", [_port_probe_fsm()]))
    return model


def build_software_port_model():
    """A software FSM reading a port (IF008): software has no ports."""
    model = SystemModel("SoftwarePortMutant")
    model.add_software_module(SoftwareModule("Sw", _port_probe_fsm()))
    return model


def build_bad_protocol_model():
    """A get service acknowledging without waiting for data (PROTO002).

    The mutant service strobes ``GETACK`` unconditionally from its initial
    state; pinning the channel's avail flag (``FULL``) to 0 cannot rule the
    write out, so the acknowledge escapes the data window.
    """
    from repro.comm.protocols.handshake import handshake_ports

    prefix = "NT_"
    build = FsmBuilder("Get")
    build.variable("VALUE", word_type(16), 0)
    build.returns("VALUE")
    build.ports(f"{prefix}BUF", f"{prefix}FULL", f"{prefix}GETACK")
    with build.state("INIT") as state:
        state.go("IDLE", actions=[PortWrite(f"{prefix}GETACK", 1)])
    with build.state("IDLE", done=True) as state:
        state.go("INIT", actions=[PortWrite(f"{prefix}GETACK", 0)])
    service = Service("Get", build.build(initial="INIT"), params=(),
                      returns=word_type(16))
    unit = CommunicationUnit("Net", ports=handshake_ports(prefix),
                             services=[service])
    model = SystemModel("BadProtocolMutant")
    model.add_comm_unit(unit)
    model.add_software_module(
        SoftwareModule("Cons", _consumer_fsm("CONS", "Get")))
    model.bind("Cons", "Get", "Net")
    return model


#: mutant name -> (builder, rule id that must fire).
MUTANTS = {
    "dup-writer": (build_dup_writer_model, "RACE001"),
    "dead-state": (build_dead_state_model, "FSM002"),
    "trap-state": (build_trap_state_model, "FSM003"),
    "bad-width": (build_bad_width_model, "IF006"),
    "shadowed": (build_shadowed_model, "DF004"),
    "false-guard": (build_false_guard_model, "DF003"),
    "bad-protocol": (build_bad_protocol_model, "PROTO002"),
    "undeclared-read": (build_undeclared_read_model, "FSM004"),
    "dead-store": (build_dead_store_model, "DF002"),
    "undeclared-port": (build_undeclared_port_model, "IF008"),
    "undeclared-module-port": (build_undeclared_module_port_model, "IF008"),
    "software-port": (build_software_port_model, "IF008"),
}


def check_mutants():
    """Problem strings for mutants whose expected rule did not fire."""
    problems = []
    for name, (builder, rule) in MUTANTS.items():
        report = lint_model(builder())
        if not report.by_rule(rule):
            fired = sorted({d.rule for d in report.diagnostics})
            problems.append(
                f"mutant {name}: expected {rule}, got {fired or 'nothing'}")
    return problems


def check_dynamic_races(kernels=("production", "reference"), until=5_000):
    """Positive control of the static ⊇ dynamic race property.

    Co-simulates the duplicate-writer mutant with ``detect_races=True`` on
    every kernel; the dynamic detector must observe at least one race and
    every raced signal must be in the static RACE001 write-set analysis.
    """
    from repro.cosim import CosimSession

    model = build_dup_writer_model()
    static = static_race_signals(model)
    problems = []
    if not static:
        problems.append("dup-writer: static analysis found no race signals")
    for kernel in kernels:
        session = CosimSession(build_dup_writer_model(), kernel=kernel,
                               detect_races=True)
        session.run(until=until)
        dynamic = session.simulator.race_signals()
        if not dynamic:
            problems.append(
                f"dup-writer@{kernel}: no dynamic race observed "
                f"(static predicted {sorted(static)})")
        stray = dynamic - static
        if stray:
            problems.append(
                f"dup-writer@{kernel}: dynamic races {sorted(stray)} "
                "not predicted statically")
    return problems


def check_corpus(seeds=CORPUS_SEEDS):
    """The shipped apps and generated seeds must be lint-clean."""
    from repro.apps.motor_controller.system import build_system
    from repro.apps.motor_controller.two_axis import build_two_axis_system
    from repro.testkit.models import generate_system

    targets = [("app motor", build_system()[0]),
               ("app two-axis", build_two_axis_system()[0])]
    targets += [(f"seed {seed}", generate_system(seed).build_model())
                for seed in seeds]
    problems = []
    for label, model in targets:
        report = lint_model(model)
        for diagnostic in report.diagnostics:
            problems.append(f"{label}: {diagnostic.format()}")
    return problems


def run_selfcheck(log=None):
    """Run every selfcheck stage; returns the list of problems (empty = OK)."""
    stages = (("mutants", check_mutants),
              ("dynamic races", check_dynamic_races),
              ("corpus", check_corpus))
    problems = []
    for label, stage in stages:
        found = stage()
        problems.extend(found)
        if log is not None:
            status = "FAIL" if found else "ok"
            log(f"selfcheck {label}: {status}")
    return problems
