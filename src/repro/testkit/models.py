"""Seeded random generation of complete system models.

Where :mod:`repro.testkit.generator` exercises the kernel directly, this
module generates whole :class:`~repro.core.model.SystemModel` instances —
the inputs of the paper's Figure 1 loop — so the co-simulation backplane
and the co-synthesis flow can be oracle-checked at scale.

A generated system is a set of independent *networks*, each either a
producer → consumer pair or a producer → relay → consumer pipeline, wired
through a randomly chosen channel kind (handshake, FIFO, shared register).
Every module is randomly partitioned to hardware or software (at least one
software module always exists so ``run_until_software_done`` terminates on
completion, not on the time limit).

For the lossless channel kinds the expected functional outcome is computed
at generation time: every consumer must report exactly the words sent and
their arithmetic-series sum.  Shared-register channels are lossy by design,
so only structural and determinism invariants apply to them.
"""

import random

from repro.comm import fifo_channel, handshake_channel, shared_register_channel
from repro.core import HardwareModule, SoftwareModule, SystemModel
from repro.ir import INT, Assign, FsmBuilder, var
from repro.ir.dtypes import word_type
from repro.obs import TELEMETRY

#: Channel kinds with their factory and losslessness.
CHANNEL_KINDS = {
    "handshake": (handshake_channel, True),
    "fifo": (fifo_channel, True),
    "shared": (shared_register_channel, False),
}


class GeneratedSystem:
    """A generated model plus everything needed to check and re-run it."""

    def __init__(self, seed, builder, expectations, cosim_params, summary,
                 sw_only=()):
        self.seed = seed
        self.name = f"system-{seed}"
        self._builder = builder
        #: ``{consumer module: {"words": n, "total": sum} | None}`` —
        #: ``None`` marks a lossy network with no functional expectation.
        self.expectations = expectations
        #: Keyword arguments for :class:`~repro.cosim.session.CosimSession`.
        self.cosim_params = cosim_params
        self.summary = summary
        #: Modules that must stay in software for co-simulation validity
        #: (relays: the clocked hardware adapter is only validated for
        #: single-call chains).  DSE pins these when cosim-validating.
        self.sw_only = tuple(sw_only)

    def build_model(self):
        """Return a **fresh** :class:`SystemModel` (never shared between runs)."""
        with TELEMETRY.span("testkit.build_model", cat="testkit",
                            system=self.name):
            return self._builder()

    def __repr__(self):
        return f"GeneratedSystem({self.name}, {self.summary})"


def _producer_fsm(name, service, words, start):
    build = FsmBuilder(name)
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
    return build.build(initial="Send")


def _consumer_fsm(name, service, words):
    accumulate = [Assign("TOTAL", var("TOTAL") + var("RX")),
                  Assign("RECEIVED", var("RECEIVED") + 1)]
    build = FsmBuilder(name)
    # RX receives a channel word; its declared range must cover the get
    # service's return type (lint IF007).
    build.variable("RX", word_type(16), 0)
    build.variable("TOTAL", INT, 0)
    build.variable("RECEIVED", INT, 0)
    with build.state("Receive") as state:
        state.call(service, store="RX", then="Accumulate")
    with build.state("Accumulate") as state:
        state.go("Done", when=var("RECEIVED").ge(words - 1), actions=accumulate)
        state.go("Receive", actions=accumulate)
    with build.state("Done", done=True) as state:
        state.stay()
    return build.build(initial="Receive")


def _relay_fsm(name, get_service, put_service, words):
    build = FsmBuilder(name)
    build.variable("RX", word_type(16), 0)
    build.variable("COUNT", INT, 0)
    with build.state("Receive") as state:
        state.call(get_service, store="RX", then="Forward")
    with build.state("Forward") as state:
        state.call(put_service, args=[var("RX")], then="Advance")
    with build.state("Advance") as state:
        state.go("Done", when=var("COUNT").ge(words - 1))
        state.go("Receive", actions=[Assign("COUNT", var("COUNT") + 1)])
    with build.state("Done", done=True) as state:
        state.stay()
    return build.build(initial="Receive")


def _add_module(model, name, fsm, software, activation_period=None):
    if software:
        model.add_software_module(
            SoftwareModule(name, fsm, activation_period=activation_period)
        )
    else:
        model.add_hardware_module(HardwareModule(name, [fsm]))


def generate_system(seed, networks=None):
    """Generate the reproducible random system identified by *seed*.

    *networks* overrides the random 1–3 network count, which is how DSE and
    stress workloads obtain systems far larger than the conformance tiers
    use; the result is still fully determined by ``(seed, networks)``.
    """
    rng = random.Random(f"system:{seed}")
    n_networks = rng.randint(1, 3) if networks is None else int(networks)
    if n_networks < 1:
        raise ValueError("networks must be >= 1")
    specs = []
    any_software = False
    for index in range(n_networks):
        kind = rng.choice(sorted(CHANNEL_KINDS))
        pipeline = rng.random() < 0.3
        words = rng.randint(2, 6)
        start = rng.randrange(25)
        roles = 3 if pipeline else 2
        software = [rng.random() < 0.5 for _ in range(roles)]
        # Relays issue two interleaved service calls per word; the paper's
        # one-transition-per-activation software policy handles that, the
        # plain clocked hardware adapter setup is only validated for single
        # call chains — keep relays in software.
        if pipeline:
            software[1] = True
        activation = rng.choice((None, None, 200, 300))
        specs.append((index, kind, pipeline, words, start, software, activation))
        any_software = any_software or any(software)
    if not any_software:
        index, kind, pipeline, words, start, software, activation = specs[0]
        software = [True] + software[1:]
        specs[0] = (index, kind, pipeline, words, start, software, activation)

    clock_period = rng.choice((20, 60, 100))
    sw_activation_period = clock_period * rng.choice((1, 2))
    cosim_params = {"clock_period": clock_period,
                    "sw_activation_period": sw_activation_period}

    def builder():
        model = SystemModel(f"Generated{seed}")
        for index, kind, pipeline, words, start, software, activation in specs:
            factory, _ = CHANNEL_KINDS[kind]
            if pipeline:
                model.add_comm_unit(factory(
                    f"NetA{index}", put_name=f"PutA{index}",
                    get_name=f"GetA{index}", prefix=f"NA{index}"))
                model.add_comm_unit(factory(
                    f"NetB{index}", put_name=f"PutB{index}",
                    get_name=f"GetB{index}", prefix=f"NB{index}"))
                _add_module(model, f"Prod{index}",
                            _producer_fsm(f"PROD{index}", f"PutA{index}",
                                          words, start),
                            software[0], activation)
                _add_module(model, f"Relay{index}",
                            _relay_fsm(f"RELAY{index}", f"GetA{index}",
                                       f"PutB{index}", words),
                            software[1], activation)
                _add_module(model, f"Cons{index}",
                            _consumer_fsm(f"CONS{index}", f"GetB{index}", words),
                            software[2], activation)
                model.bind(f"Prod{index}", f"PutA{index}", f"NetA{index}")
                model.bind(f"Relay{index}", f"GetA{index}", f"NetA{index}")
                model.bind(f"Relay{index}", f"PutB{index}", f"NetB{index}")
                model.bind(f"Cons{index}", f"GetB{index}", f"NetB{index}")
            else:
                model.add_comm_unit(factory(
                    f"Net{index}", put_name=f"Put{index}",
                    get_name=f"Get{index}", prefix=f"NT{index}"))
                _add_module(model, f"Prod{index}",
                            _producer_fsm(f"PROD{index}", f"Put{index}",
                                          words, start),
                            software[0], activation)
                _add_module(model, f"Cons{index}",
                            _consumer_fsm(f"CONS{index}", f"Get{index}", words),
                            software[1], activation)
                model.bind(f"Prod{index}", f"Put{index}", f"Net{index}")
                model.bind(f"Cons{index}", f"Get{index}", f"Net{index}")
        return model

    expectations = {}
    summary_bits = []
    sw_only = []
    for index, kind, pipeline, words, start, software, _ in specs:
        if pipeline:
            sw_only.append(f"Relay{index}")
        _, lossless = CHANNEL_KINDS[kind]
        expected = None
        if lossless:
            expected = {"words": words,
                        "total": sum(range(start, start + words))}
        expectations[f"Cons{index}"] = expected
        shape = "pipeline" if pipeline else "pair"
        partition = "".join("S" if sw else "H" for sw in software)
        summary_bits.append(f"{kind}/{shape}/{partition}")
    return GeneratedSystem(seed, builder, expectations, cosim_params,
                           "+".join(summary_bits), sw_only=sw_only)


def generate_models(count, seed_base=0, networks=None):
    """Yield *count* :class:`GeneratedSystem` instances, oracle-free.

    This is the workload-source hook for consumers (``repro.dse``, ad-hoc
    experiments) that want the generator's systems without paying for the
    differential conformance oracles.  Exposed on the CLI as
    ``python -m repro.testkit --emit-models N``.
    """
    for offset in range(count):
        yield generate_system(seed_base + offset, networks=networks)
