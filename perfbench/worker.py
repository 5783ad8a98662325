"""One workload run in a fresh process; ``run.py`` spawns it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|run [--traced] [--probe]

``setup`` mode does the set-up only (imports, building, warm-up op) and
reports its time.  ``run`` mode then times the workload's ops one by one,
checks every output, times the host reference loop after each op, and
reports the raw measurements as one JSON line on standard output.
``--traced`` installs the spans of ``spans.py`` first; ``--probe`` re-runs
the workload's known defects after the timed loop.
"""

import time

#: Set-up is timed from here, before the program is imported.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

#: Longest a timed loop may run, as a multiple of the requested seconds.
CAP = 1.6
#: Reference loops run after set-up; their median is the set-up's host speed.
SETUP_REFERENCES = 15

#: Where runs write their records, spans and caches, inside the checkout.
OUT_DIR = os.path.join(os.path.dirname(workloads.HERE), ".perfbench_out")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, amount):
        self.value = (self.value + amount) % 65521
        return self.value


#: Source the reference loop compiles: a few small functions, as the
#: program's code generators emit them.
_REFERENCE_SOURCE = "\n".join(
    f"def step{index}(state, value):\n"
    f"    total = state * {index + 3} + value\n"
    f"    if total > {index * 7}:\n"
    f"        return [total % 251, value]\n"
    f"    return {{'next': total, 'hold': state}}\n"
    for index in range(6))


def reference_ms():
    """Time of a fixed piece of work: how fast the host runs just now.

    About 0.62 ms on an idle reference host.  It mixes what the program
    spends its time on: dict churn, method calls and attribute writes on
    a small object, string building, and compiling Python source (the
    interpreter's compiler, as the program's code generators use it).  A
    slow host phase slows this mix by close to the factor it slows the
    program; each part alone follows it less closely.  It is frozen: it
    never calls the program, so a change to the program cannot change it.
    """
    start = time.perf_counter()
    table = {}
    for index in range(1250):
        table[index * 7919 % 1259] = index
    cell = _Cell()
    for index in range(1250):
        cell.add(table.get(index, 1) * 3)
    "".join([str(index) for index in range(200)])
    compile(_REFERENCE_SOURCE, "<reference>", "exec")
    return 1000.0 * (time.perf_counter() - start)


def timed_loop(workload, tracer, seconds):
    """Execute the planned ops; returns the run's raw measurements.

    After each op and its check the host reference loop runs once,
    outside the op's timing and outside every span; ``wall_s`` excludes
    it.  The loop stops early, with fewer ops attempted, only if it runs
    past ``CAP`` times the requested seconds on a very slow host.
    """
    latencies = []  # per op, None where the op failed
    busy = []  # per op: the op and its check
    reference = []  # per op: the reference loop run right after it
    failures = []
    problems = []
    plan = workload.plan
    loop_start = time.perf_counter()
    stop = loop_start + CAP * seconds
    for position, op in enumerate(plan):
        start = time.perf_counter()
        if start > stop:
            plan = plan[:position]
            break
        try:
            if tracer is None:
                output = workload.run_op(op)
            else:
                output = tracer.root("bench.op", position, workload.run_op, op)
        except Exception as exc:  # a failed op is counted, never skipped
            failures.append([workload.op_name(op),
                             f"{type(exc).__name__}: {exc}"])
            latencies.append(None)
        else:
            latencies.append(1000.0 * (time.perf_counter() - start))
            if tracer is None:
                problem = workload.check(op, output)
            else:
                problem = tracer.root("bench.check", position,
                                      workload.check, op, output)
            if problem is not None:
                problems.append(problem)
        busy.append(1000.0 * (time.perf_counter() - start))
        reference.append(reference_ms())
    wall_s = time.perf_counter() - loop_start - sum(reference) / 1000.0
    return {
        "wall_s": wall_s,
        "attempted": len(plan),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "latencies_ms": latencies,
        "busy_ms": busy,
        "reference_ms": reference,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, OUT_DIR, workloads.load_golden())
    tracer = spans.install(spans.Tracer()) if args.traced else None
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
        # Set-up lasts well under the host's slow phases, so the reference
        # loop run right after it gives the host speed during it.
        setup_reference_ms = statistics.median(
            reference_ms() for _ in range(SETUP_REFERENCES))
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s,
                              "setup_reference_ms": setup_reference_ms}))
            return 0
        result = timed_loop(workload, tracer, args.seconds)
        result.update({
            "setup_s": setup_s,
            "setup_reference_ms": setup_reference_ms,
            "peak_rss_mb": peak_rss_mb(),
            "outputs": workload.outputs,
            "probe": workload.probe() if args.probe else [],
        })
        if tracer is not None:
            metrics, shares = spans.summarize(tracer, result["attempted"],
                                              result["wall_s"])
            result.update({"layers": metrics, "layer_shares_pct": shares})
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
