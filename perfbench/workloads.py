"""The benchmark's three workloads: inputs, set-up, ops and output checks.

Every workload is a closed loop with one caller: the next op is submitted
only after the previous one has returned, through the program's public
API (``SweepService(workers=1)`` or ``CosimSession``).  A run executes a
fixed number of ops, ``seconds * rate``, where the rate is what the
reference host sustains.  A run of a given seed therefore always does the
same work, holds the same memory and meets the same failures, and lasts
about ``seconds`` on that host.

The workloads own their inputs: the job specs they draw from the
benchmark seed, and the 32-module datapath FSM below.  Nothing here
imports another benchmark suite, so edits to one cannot change what this
benchmark measures.  ``golden.json`` (written by ``record_golden.py``)
holds the expected output of every input a run can draw.
"""

import json
import os
import random
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: The seed runs use by default, and the seed held out for checking a
#: claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 2

#: Fewest ops in a run, so that p90 has at least 10 samples beyond it.
MIN_OPS = 120

#: Length of the digest prefixes kept in golden.json (48 bits).
DIGEST_CHARS = 12


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class OpFailed(Exception):
    """The program returned an error record or a functional problem."""


def submit(job, cache=None):
    """Run one job through a single-worker ``SweepService``; its record."""
    from repro.sweep import SweepService

    record = SweepService([job], workers=1, cache=cache).run().records[0]
    if record["error"]:
        raise OpFailed(record["error"])
    if record.get("functional_problems"):
        raise OpFailed("; ".join(record["functional_problems"]))
    return record


def cosim_job(seed):
    from repro.sweep import CosimJob

    return CosimJob(seed)


def cosyn_job(index):
    from repro.sweep import CosynJob

    return CosynJob(index, networks=3 + index % 4)


def dse_job(index):
    from repro.sweep import DseJob

    return DseJob(index, networks=2)


def record_digest(record):
    for key in ("fingerprint_digest", "artifact_digest", "report_digest"):
        if key in record:
            return record[key][:DIGEST_CHARS]
    raise KeyError("record carries no output digest")


def runnable(pool):
    """Pool indices whose golden entry is an output, not a recorded defect."""
    return [index for index in range(pool["pool"])
            if str(index) not in pool["defects"]]


class Workload:
    """One workload's op plan and behaviour; subclasses fill in the hooks."""

    name = None
    #: Ops per requested second, as the reference host sustains them.
    rate = None

    def __init__(self, seed, seconds, work_dir, golden):
        self.seed = seed
        self.work_dir = work_dir
        self.golden = golden[self.name]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.n_ops = max(MIN_OPS, round(seconds * self.rate))
        #: Output digests in op order; traced and untraced runs must agree.
        self.outputs = []
        self.plan = []

    def setup(self):
        """Import the program, build what the ops share, run a warm-up op."""
        raise NotImplementedError

    def op_name(self, op):
        raise NotImplementedError

    def run_op(self, op):
        """Execute one op and return its output; raises when the op fails."""
        raise NotImplementedError

    def check(self, op, output):
        """Compare one op's output with its expected value; problem or None."""
        raise NotImplementedError

    def probe(self):
        """Known-defect probe run after the timed loop: ``[(name, error)]``."""
        return []

    def close(self):
        """Remove what the run wrote."""


class ScenarioStream(Workload):
    """Single-scenario ``CosimJob`` s, each over a distinct generated system.

    An op generates, lints, compiles, builds, simulates to software
    completion, checks and fingerprints one system: the whole path a
    caller pays for, dominated by per-job set-up.  Systems are drawn
    without replacement from a pool of 2000 testkit seeds, so no op
    reuses a model, a compiled program or a lint verdict of another.
    """

    name = "scenario_stream"
    rate = 27.0

    def __init__(self, *args):
        super().__init__(*args)
        pool = runnable(self.golden)
        # One warm-up system for every seed, so set-up does the same work
        # in every run; the timed ops are drawn from the rest of the pool.
        self.warmup = pool[0]
        self.plan = self.rng.sample(pool[1:], self.n_ops)

    def setup(self):
        self.run_op(self.warmup)

    def op_name(self, seed):
        return f"cosim-{seed}"

    def run_op(self, seed):
        return record_digest(submit(cosim_job(seed)))

    def check(self, seed, digest):
        self.outputs.append(digest)
        expected = self.golden["digests"][str(seed)]
        if digest != expected:
            return (f"{self.op_name(seed)}: fingerprint {digest}, "
                    f"golden {expected}")
        return None

    def probe(self):
        # The pool seeds golden.json records as defects cannot run today
        # (no fusable FSM: the generated shadow step has no body).  They
        # stay out of the timed stream and are re-run here, so the defect
        # and its eventual fix stay visible in every run record.
        results = []
        for seed in sorted(int(seed) for seed in self.golden["defects"]):
            error = None
            try:
                self.run_op(seed)
            except Exception as exc:  # the record keeps the error text
                error = f"{type(exc).__name__}: {exc}"
            results.append((self.op_name(seed), error))
        return results


def _mix(dst, taps, modulus):
    """``dst = (weighted mix of taps) mod modulus`` as a deep BinOp tree."""
    from repro.ir import Assign, var
    from repro.ir.expr import BinOp

    acc = BinOp("mul", var(taps[0][0]), taps[0][1])
    for name, weight in taps[1:]:
        acc = BinOp("add", acc, BinOp("mul", var(name), weight))
    return Assign(dst, BinOp("mod", BinOp("add", acc, 13), modulus))


def datapath_fsm(name, inits):
    """A three-state FSM with a filter-style datapath in every state.

    Each state updates an eight-register pipeline (initial values
    *inits*) with multiply-accumulate trees, about 130 IR nodes per
    activation, and always fires a transition: one transition per clock
    edge, with truncating div/mod work in every step.
    """
    from repro.ir import INT, Assign, FsmBuilder, var
    from repro.ir.expr import BinOp

    build = FsmBuilder(name)
    regs = [f"R{index}" for index in range(8)]
    for reg, init in zip(regs, inits):
        build.variable(reg, INT, init)
    build.variable("ACC", INT, 0)

    def stage(state, rotation):
        rotated = regs[rotation:] + regs[:rotation]
        for position, reg in enumerate(rotated):
            taps = [(rotated[(position + offset) % len(rotated)],
                     3 + 2 * offset) for offset in range(3)]
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


class LongCosim(Workload):
    """Two large systems built once in set-up, then simulated in slices.

    One op advances both sessions by one fixed slice of simulated time:
    the 8-network testkit system 977 (kernel- and backplane-bound) and a
    32-module datapath system (fused-arithmetic-bound, div/mod-heavy).
    Both advance in every op, so op latency has a single mode.  Every
    ``EPISODE`` ops both sessions are fingerprinted, checked and restored
    to their post-build checkpoint, so every episode repeats the same
    simulated work.  The seed sets the datapath registers' initial
    values, which changes the data but not the amount of work.
    """

    name = "long_cosim"
    rate = 45.0
    MIXED_SEED = 977
    MIXED_NETWORKS = 8
    DATAPATH_MODULES = 32
    DATAPATH_CLOCK = 20
    #: Simulated ns per op for the mixed and the datapath system.
    MIXED_SLICE = 8_000
    DATAPATH_SLICE = 800
    EPISODE = 50

    def __init__(self, *args):
        super().__init__(*args)
        self.n_ops = -(-self.n_ops // self.EPISODE) * self.EPISODE
        self.plan = list(range(self.n_ops))
        self.inits = [[self.rng.randint(1, 250) for _ in range(8)]
                      for _ in range(self.DATAPATH_MODULES)]

    def setup(self):
        from repro.core import HardwareModule, SystemModel
        from repro.cosim import CosimSession
        from repro.testkit.models import generate_system

        system = generate_system(self.MIXED_SEED, networks=self.MIXED_NETWORKS)
        mixed = CosimSession(system.build_model(), trace_signals=False,
                             **system.cosim_params)
        model = SystemModel(f"Datapath{self.DATAPATH_MODULES}")
        for index, inits in enumerate(self.inits):
            model.add_hardware_module(HardwareModule(
                f"Dp{index}", [datapath_fsm(f"DP{index}", inits)]))
        datapath = CosimSession(model, clock_period=self.DATAPATH_CLOCK,
                                trace_signals=False)
        self.sessions = [(mixed, self.MIXED_SLICE),
                         (datapath, self.DATAPATH_SLICE)]
        # save() builds (and starts) each session: the checkpoint every
        # episode restarts from.
        self.checkpoints = [session.save() for session, _ in self.sessions]
        self.run_op(0)
        self._restore()

    def _restore(self):
        for (session, _), checkpoint in zip(self.sessions, self.checkpoints):
            session.restore(checkpoint)

    def op_name(self, index):
        return f"slice-{index}"

    def run_op(self, index):
        return [session.run(until=session.simulator.now + step)
                for session, step in self.sessions]

    def episode_fingerprint(self, results):
        """Digest of both sessions' fingerprints, kernel statistics included."""
        from repro.testkit.oracles import cosim_fingerprint
        from repro.utils.canonical import content_digest

        return content_digest([
            cosim_fingerprint(session, result)
            for (session, _), result in zip(self.sessions, results)
        ])[:DIGEST_CHARS]

    def check(self, index, results):
        if (index + 1) % self.EPISODE:
            return None
        digest = self.episode_fingerprint(results)
        self._restore()
        self.outputs.append(digest)
        # Seeds without a golden episode are checked for determinism:
        # every episode must repeat the run's first one.
        expected = self.golden["episodes"].get(str(self.seed),
                                               self.outputs[0])
        if digest != expected:
            return (f"episode ending at {self.op_name(index)}: fingerprint "
                    f"{digest}, expected {expected}")
        return None


class CodesignSweep(Workload):
    """Co-synthesis and DSE jobs on a fresh on-disk ``ArtifactCache``.

    Every block of 20 ops holds 14 new ``CosynJob`` s (3 to 6 networks),
    2 new ``DseJob`` s and 4 resubmissions of earlier specs, in a seeded
    order.  New specs miss the cache, execute and write; the
    resubmissions are served from it.  p50 falls inside the co-synthesis
    miss mode and p90 at the start of the DSE tail.  DSE explores
    2-network systems (about 30 to 130 ms here): 3-network explorations
    take 100 to 560 ms, and a tail that long made the mean latency of a
    run depend on which systems its seed drew by about 7%.
    """

    name = "codesign_sweep"
    rate = 60.0
    BLOCK = ("cosyn",) * 14 + ("dse",) * 2 + ("again",) * 4
    JOBS = {"cosyn": cosyn_job, "dse": dse_job}

    def __init__(self, *args):
        super().__init__(*args)
        blocks = -(-self.n_ops // len(self.BLOCK))
        self.n_ops = blocks * len(self.BLOCK)
        kinds = []
        for block_index in range(blocks):
            block = list(self.BLOCK)
            self.rng.shuffle(block)
            while block_index == 0 and block[0] == "again":
                block.append(block.pop(0))
            kinds += block
        pools = {kind: runnable(self.golden[kind]) for kind in self.JOBS}
        # The same warm-up specs for every seed, as in ScenarioStream.
        self.warmup = [(kind, pool[0], False) for kind, pool in pools.items()]
        fresh = {kind: self.rng.sample(pool[1:], kinds.count(kind))
                 for kind, pool in pools.items()}
        submitted = []
        for kind in kinds:
            if kind == "again":
                kind, index, _ = self.rng.choice(submitted)
                self.plan.append((kind, index, True))
            else:
                op = (kind, fresh[kind].pop(), False)
                submitted.append(op)
                self.plan.append(op)
        self.cache_dir = None
        self.fresh_records = {}

    def setup(self):
        from repro.sweep import ArtifactCache

        os.makedirs(self.work_dir, exist_ok=True)
        warm_dir = tempfile.mkdtemp(prefix="warmup-", dir=self.work_dir)
        try:
            for op in self.warmup:
                self._submit(op, ArtifactCache(warm_dir))
        finally:
            shutil.rmtree(warm_dir, ignore_errors=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        self.cache = ArtifactCache(self.cache_dir)

    def _submit(self, op, cache):
        kind, index, _ = op
        return submit(self.JOBS[kind](index), cache=cache)

    def op_name(self, op):
        kind, index, repeat = op
        return f"{kind}-{index}" + (" (resubmitted)" if repeat else "")

    def run_op(self, op):
        return self._submit(op, self.cache)

    def check(self, op, record):
        kind, index, repeat = op
        digest = record_digest(record)
        self.outputs.append(digest)
        name = self.op_name(op)
        if record["cached"] != repeat:
            return f"{name}: cached={record['cached']}, expected {repeat}"
        served = {key: value for key, value in record.items()
                  if key != "cached"}
        if repeat:
            if served != self.fresh_records[(kind, index)]:
                return f"{name}: cache-served record differs from the fresh one"
        else:
            self.fresh_records[(kind, index)] = served
        expected = self.golden[kind]["digests"][str(index)]
        if digest != expected:
            return f"{name}: artefact digest {digest}, golden {expected}"
        return None

    def close(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload
             for workload in (ScenarioStream, LongCosim, CodesignSweep)}
