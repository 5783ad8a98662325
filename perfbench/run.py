"""End-to-end and per-layer benchmark of the co-simulation/co-synthesis stack.

    python3 perfbench/run.py --workload scenario_stream --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a source checkout.  Every measurement happens in a
fresh worker process (``worker.py``) with the program imported from
``src``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the
per-layer metrics of a traced run, next to an untraced run of the same
ops.  Op times in the end-to-end metrics are host-adjusted: each is
divided by how much slower than nominal a fixed reference loop, run
between the ops, ran around it (see ``host_factors``).  The last line
of standard output is one JSON object; a record of the run, with every
failed op and its error, goes to ``.perfbench_out/``.  The exit status
is non-zero, and no result is printed, when the program is missing or a
worker fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Whole-invocation budget (s); a worker still running at its end is killed.
BUDGET_S = 170
#: Set-up-only processes per untraced run, half before and half after the
#: measured run, so the set-up median spans the run's host phases.
SETUP_PROBES = 10
#: Time (ms) of the worker's reference loop on the idle reference host;
#: host-adjusted times are scaled to that host speed.
REFERENCE_NOMINAL_MS = 0.62
#: Ops on each side of an op whose reference times give its host factor.
WINDOW = 8

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A worker failed or the checkout cannot be benchmarked."""


def spawn(args, mode, deadline, traced=False, probe=False):
    """Run one worker process to completion; its parsed JSON result."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    if traced:
        command.append("--traced")
    if probe:
        command.append("--probe")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Fixed hash seed: set and dict layouts, and so the interpreter's
    # work, are the same in every run.
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time budget") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{mode} worker exited with {done.returncode}:\n"
                         + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_factors(reference):
    """Per op, how much slower than nominal the host ran around it.

    The median reference-loop time over the ``WINDOW`` ops on each side,
    over ``REFERENCE_NOMINAL_MS``: the median ignores the odd reference
    time that an interrupt or a collection lands in, and the window is
    short enough (well under a second) to follow the host's slow phases.
    """
    return [statistics.median(reference[max(0, index - WINDOW):
                                        index + WINDOW + 1])
            / REFERENCE_NOMINAL_MS
            for index in range(len(reference))]


def timing(run, factors):
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` of one run.

    Each op's time is divided by its host factor; factors of 1 give the
    raw wall-clock values.  Throughput counts successful ops over the
    time spent in all ops and their checks.
    """
    lat = [latency / factor
           for latency, factor in zip(run["latencies_ms"], factors)
           if latency is not None]
    busy_s = sum(busy / factor
                 for busy, factor in zip(run["busy_ms"], factors)) / 1000.0
    return {
        "ops_per_s": len(lat) / busy_s,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
    }


def raw(run):
    return timing(run, [1.0] * len(run["busy_ms"]))


def same_outputs(first, second):
    """Whether two runs agree on the outputs of the ops both of them ran.

    A loop cut short by the time cap has fewer outputs than the other.
    """
    common = min(len(first["outputs"]), len(second["outputs"]))
    return first["outputs"][:common] == second["outputs"][:common]


def check_run(run):
    """Output problems of one worker run, as text lines."""
    problems = list(run["problems"])
    succeeded = sum(1 for latency in run["latencies_ms"] if latency is not None)
    if succeeded < 100:
        problems.append(f"only {succeeded} successful ops: p90 needs 10 "
                        "samples beyond it")
    return problems


def measure_end_to_end(args, deadline):
    setups = [spawn(args, "setup", deadline)
              for _ in range(SETUP_PROBES // 2)]
    run = spawn(args, "run", deadline, probe=True)
    setups += [spawn(args, "setup", deadline)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(run)
    setup = [probe["setup_s"] * REFERENCE_NOMINAL_MS
             / probe["setup_reference_ms"] for probe in setups]
    factors = host_factors(run["reference_ms"])
    values = timing(run, factors)
    values.update({
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
    })
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    record = {"setup_samples_s": setup,
              "setup_wall_clock_s": [probe["setup_s"] for probe in setups],
              "ops_timed": sum(1 for latency in run["latencies_ms"]
                               if latency is not None),
              "wall_s": run["wall_s"], "wall_clock": raw(run),
              "host_factor_median": statistics.median(factors),
              "reference_ms_median": statistics.median(run["reference_ms"])}
    return run, metrics, record, check_run(run)


def measure_layers(args, deadline):
    plain = spawn(args, "run", deadline)
    traced = spawn(args, "run", deadline, traced=True, probe=True)
    problems = check_run(plain) + check_run(traced)
    if not same_outputs(plain, traced):
        problems.append("traced and untraced runs produced different outputs")
    values = dict(traced["layers"])
    if values["trace.attributed_pct"] < 95.0:
        problems.append("layer self times cover only "
                        f"{values['trace.attributed_pct']:.1f}% of the "
                        "traced wall time")
    plain_factors = host_factors(plain["reference_ms"])
    traced_factors = host_factors(traced["reference_ms"])
    wall = raw(plain)
    values.update({
        "error_rate": traced["failed"] / traced["attempted"],
        "probe.defect_failures": sum(1 for _, error in traced["probe"]
                                     if error is not None),
        # Host-adjusted, so that a slow host phase during one of the two
        # runs does not read as tracing overhead.
        "trace.overhead_pct": 100.0 * (
            timing(plain, plain_factors)["ops_per_s"]
            / timing(traced, traced_factors)["ops_per_s"] - 1.0),
        "host.ref_ms": statistics.median(plain["reference_ms"]),
        "host.factor": statistics.median(plain_factors),
        "wall.ops_per_s": wall["ops_per_s"],
        "wall.op_p50_ms": wall["op_p50_ms"],
        "wall.op_p90_ms": wall["op_p90_ms"],
    })
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in spans.LAYER_METRICS.items()}
    record = {"layer_shares_pct": traced["layer_shares_pct"],
              "untraced_wall_s": plain["wall_s"],
              "traced_wall_s": traced["wall_s"]}
    return traced, metrics, record, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source (src/repro) next to perfbench/",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        run, metrics, record, problems = measure(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": run["attempted"], "failed": run["failed"],
        "failures": run["failures"], "problems": problems,
        "defect_probe": run["probe"],
        "metrics": metrics,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for name, error in run["failures"]:
        print(f"failed op {name}: {error}", file=sys.stderr)
    for name, error in run["probe"]:
        print(f"defect probe {name}: {error or 'ok'}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
