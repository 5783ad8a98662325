"""Command-line entry point: ``python -m benchmarks.perf.cosim``.

The co-simulation counterpart of ``python -m benchmarks.perf``: times the
end-to-end backplane workloads of :mod:`benchmarks.perf.cosim_workloads`
and merges labelled runs into ``BENCH_cosim.json`` (same file format as
``BENCH_kernel.json``; the shared ``n_processes`` key holds the workload's
scale — modules or networks).  Typical sequence::

    python -m benchmarks.perf.cosim --label seed --tier interpreted
    python -m benchmarks.perf.cosim --label current     # fused tier
    python -m benchmarks.perf.cosim --quick --label quick-baseline
    python -m benchmarks.perf.cosim --quick --check     # CI gate

``seed`` is recorded on the interpreted tier (the pre-compile behaviour)
and ``current`` on the fused tier — controllers and hardware FSMs inside
the whole-system program of :mod:`repro.ir.syscompile` — so the file's
speedup table *is* the compilation win.  The acceptance criteria demand
:data:`ACCEPTANCE_POINTS` — the transition-rate workload's largest point
**and** the mixed-system workload's largest point — plus the batched
multi-scenario amortization of :data:`BATCH_THRESHOLD` x recorded in each
run's ``batch`` section.  ``--check`` re-times the quick tier and fails
when any point is more than ``--max-slowdown`` slower than the recorded
baseline label, when a fast path was silently lost, when the batch
speedup falls under its threshold, or when the file's recorded acceptance
verdict itself is failing — the CI regression gate.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from benchmarks.perf.cosim_workloads import COSIM_WORKLOADS
from benchmarks.perf.harness import update_bench_file
from repro.cosim import DEFAULT_TIER, TIERS

#: The gated (workload, scale, required speedup) acceptance points of
#: ``current`` (fused) over ``seed`` (interpreted).
ACCEPTANCE_POINTS = [
    ("transition_rate", 32, 5.0),
    ("mixed_system", 8, 5.0),
]

#: Batched multi-scenario execution: generator seed, scenario counts and
#: the required batched-over-sequential speedup.  A standalone job builds,
#: lints and compiles its model once, so the batch only saves the N-1
#: repeated generate/build/lint/codegen passes: 2.0-2.5x at 1000
#: scenarios on a shared 2-core host (it was 4.0x while every job paid
#: for that setup two to three times over).
BATCH_SEED = 9
BATCH_SCENARIOS = 1000
BATCH_QUICK_SCENARIOS = 40
BATCH_THRESHOLD = 1.5

#: Tolerated wall-clock ratio of a quick --check run vs. the recorded
#: baseline before the gate fails (absorbs runner-hardware variance).
DEFAULT_MAX_SLOWDOWN = 2.0

DEFAULT_BASELINE_LABEL = "quick-baseline"

DEFAULT_OUTPUT = Path(__file__).resolve().parents[2] / "BENCH_cosim.json"

SCHEMA = "bench-cosim/2"


def time_cosim_point(workload, size, tier=DEFAULT_TIER, quick=False,
                     repeats=1):
    """Time one (workload, scale) point; returns a result dict.

    The session is prepared — model built, signals registered, the
    whole-system program compiled — outside the timed region; only the
    simulation run is timed.  With *repeats* > 1 the minimum wall-clock is
    kept.  ``clock_fast_edges`` counts the clock edges the kernel fired
    on its arithmetic fast path (kept outside ``statistics``, which must
    not depend on the path taken).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = None
    statistics = None
    counters = None
    wired = None
    fast_edges = None
    for _ in range(repeats):
        session, run = workload.prepare(size, tier, quick=quick)
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            statistics = dict(session.simulator.statistics)
            counters = session.fsm_counters()
            wired = session.wired_tier
            fast_edges = session.simulator.clock_fast_edges
    return {
        "workload": workload.name,
        "n_processes": size,
        "tier": wired,
        "sim_ns": session.simulator.now,
        "wall_s": best,
        "statistics": statistics,
        "clock_fast_edges": fast_edges,
        "fsm": counters,
    }


def time_batch_point(quick=False, scenarios=None):
    """Batched vs. sequential execution of the same generated system.

    Runs :data:`BATCH_SEED`'s scenario *scenarios* times as independent
    ``CosimJob`` executions and once as a single ``CosimJob(batch=N)``,
    both on the project-default tier, and reports the amortization
    speedup.  ``identical`` asserts the batched per-scenario fingerprints
    are byte-identical to the sequential ones — the speedup is only
    meaningful while that holds.
    """
    from repro.sweep.jobs import CosimJob

    count = (scenarios if scenarios is not None
             else (BATCH_QUICK_SCENARIOS if quick else BATCH_SCENARIOS))
    # Warm the per-process caches (FSM programs, generator corpus) outside
    # the timed region: both variants then start from the same state a
    # long-running sweep worker would be in.
    CosimJob(BATCH_SEED).execute()
    start = time.perf_counter()
    sequential = [CosimJob(BATCH_SEED).execute()[0] for _ in range(count)]
    sequential_wall = time.perf_counter() - start
    start = time.perf_counter()
    record, _ = CosimJob(BATCH_SEED, batch=count).execute()
    batch_wall = time.perf_counter() - start
    identical = (
        [entry["fingerprint_digest"] for entry in record["scenarios"]]
        == [entry["fingerprint_digest"] for entry in sequential]
    )
    return {
        "seed": BATCH_SEED,
        "scenarios": count,
        "tier": record["tier"],
        "sequential_wall_s": sequential_wall,
        "batch_wall_s": batch_wall,
        "speedup": (round(sequential_wall / batch_wall, 2)
                    if batch_wall > 0 else float("inf")),
        "threshold": BATCH_THRESHOLD,
        "identical": identical,
    }


def run_cosim_suite(quick=False, tier=DEFAULT_TIER, repeats=1, workloads=None,
                    progress=None, include_batch=None):
    """Run every cosim workload over its scale sweep; returns a run dict.

    *include_batch* adds the batched-execution point (default: unless the
    interpreted tier is benchmarked — the batch path always runs the
    project default, so measuring it inside an interpreted seed run would
    be misleading).
    """
    results = []
    for workload in (workloads or COSIM_WORKLOADS):
        sizes = workload.quick_sizes if quick else workload.sizes
        for size in sizes:
            point = time_cosim_point(workload, size, tier, quick=quick,
                                     repeats=repeats)
            results.append(point)
            if progress is not None:
                progress(
                    f"{workload.name:<16} n={size:<4} "
                    f"tier={point['tier']:<11} "
                    f"wall={point['wall_s']:.4f}s "
                    f"fsm_steps={point['fsm']['steps']}"
                )
    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": bool(quick),
        "tier": tier,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
    }
    if include_batch is None:
        include_batch = tier != "interpreted"
    if include_batch:
        batch = time_batch_point(quick=quick)
        run["batch"] = batch
        if progress is not None:
            progress(
                f"batch            n={batch['scenarios']:<4} "
                f"seq={batch['sequential_wall_s']:.4f}s "
                f"batch={batch['batch_wall_s']:.4f}s "
                f"x{batch['speedup']:.2f} "
                f"{'identical' if batch['identical'] else 'DIVERGED'}"
            )
    return run


def check_against_baseline(baseline_run, run, max_slowdown=DEFAULT_MAX_SLOWDOWN):
    """Compare *run* to *baseline_run* point-by-point; returns (ok, lines).

    Shared (workload, scale) points whose wall-clock exceeds
    ``max_slowdown * baseline`` fail the gate.  Having **no** shared points
    also fails — a silently vacuous gate is worse than a missing one.
    """
    baseline = {(p["workload"], p["n_processes"]): p["wall_s"]
                for p in baseline_run.get("results", ())}
    lines = []
    ok = True
    shared = 0
    for point in run.get("results", ()):
        key = (point["workload"], point["n_processes"])
        if key not in baseline:
            continue
        shared += 1
        ratio = (point["wall_s"] / baseline[key]) if baseline[key] > 0 else 0.0
        verdict = "ok" if ratio <= max_slowdown else "REGRESSED"
        if ratio > max_slowdown:
            ok = False
        lines.append(f"{key[0]:<16} n={key[1]:<4} baseline={baseline[key]:.4f}s "
                     f"now={point['wall_s']:.4f}s x{ratio:.2f} {verdict}")
    if not shared:
        ok = False
        lines.append("no shared points between this run and the baseline")
    return ok, lines


def check_fast_paths(run):
    """Counter-based (hardware-independent) gate lines; returns (ok, lines).

    When the run requested the fused tier (the run's ``tier``), every
    point must have wired it (a point records the tier it wired, so a
    fallen-back point reads ``interpreted``), report no tier fallback,
    zero runtime delegation (``system_fallback``) and nonzero fused
    activity, and the kernel must have fired clock edges on its
    arithmetic fast path (``clock_fast_edges``; a point without the count
    fails too).  Runs of the interpreted tier are not gated.  A lost fast
    path fails the gate even when the wall-clock ratio happens to still
    look green.
    """
    ok = True
    lines = []
    if run.get("tier") != "fused":
        return ok, lines
    for point in run.get("results", ()):
        counters = point["fsm"]
        prefix = f"{point['workload']:<16} n={point['n_processes']:<4}"
        if (point.get("tier") != "fused"
                or counters["system_fallback"]
                or not counters["system_compile_hits"]
                or counters["fallback"]):
            ok = False
            lines.append(f"{prefix} lost the fused fast path: {counters}")
        if not point.get("clock_fast_edges"):
            ok = False
            lines.append(f"{prefix} lost the kernel clock fast path: "
                         f"clock_fast_edges={point.get('clock_fast_edges')}")
    return ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.cosim",
        description="Time end-to-end co-simulation workloads and merge the "
                    "results into BENCH_cosim.json.",
    )
    parser.add_argument("--label", default="current",
                        help="label to store this run under (default: "
                             "current; use 'seed' with --tier "
                             "interpreted to record the baseline)")
    parser.add_argument("--tier", default=DEFAULT_TIER, choices=TIERS,
                        help=f"execution tier to benchmark (default: "
                             f"{DEFAULT_TIER})")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="result JSON path (default: repo-root "
                             "BENCH_cosim.json)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small scales and short horizons")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed repetitions per point; best is kept")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without touching the JSON file")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: run the quick tier and fail "
                             "when any point is more than --max-slowdown "
                             "slower than the recorded baseline label, a "
                             "fast path was lost, the batch speedup is "
                             "under threshold, or the file's recorded "
                             "acceptance verdict is failing")
    parser.add_argument("--baseline-label", default=DEFAULT_BASELINE_LABEL,
                        help="label --check compares against (default: "
                             f"{DEFAULT_BASELINE_LABEL})")
    parser.add_argument("--max-slowdown", type=float,
                        default=DEFAULT_MAX_SLOWDOWN,
                        help="tolerated wall-clock ratio for --check "
                             f"(default: {DEFAULT_MAX_SLOWDOWN})")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    if args.check:
        path = Path(args.output)
        if not path.exists():
            print(f"error: no {path} to check against; record a "
                  f"'{args.baseline_label}' run first", file=sys.stderr)
            return 1
        document = json.loads(path.read_text())
        baseline_run = document.get("runs", {}).get(args.baseline_label)
        if baseline_run is None:
            print(f"error: {path} has no '{args.baseline_label}' run; "
                  f"record one with --quick --label {args.baseline_label}",
                  file=sys.stderr)
            return 1
        baseline_tier = baseline_run.get("tier")
        if baseline_tier != args.tier:
            # A baseline recorded on another tier is not wall-comparable:
            # it would make the gate trivially green (or red); refuse
            # rather than mislead.
            print(f"error: baseline '{args.baseline_label}' was recorded "
                  f"with tier={baseline_tier!r}, the check runs "
                  f"{args.tier!r}; re-record the baseline",
                  file=sys.stderr)
            return 1
        if not baseline_run.get("quick"):
            # A full-tier baseline does ~10x the quick tier's work per
            # point, which would make every ratio trivially green.
            print(f"error: baseline '{args.baseline_label}' was not "
                  "recorded with --quick; re-record it with "
                  f"--quick --label {args.baseline_label}", file=sys.stderr)
            return 1
        run = run_cosim_suite(quick=True, tier=args.tier,
                              repeats=max(args.repeats, 3), progress=print)
        ok, lines = check_against_baseline(baseline_run, run,
                                           max_slowdown=args.max_slowdown)
        # Hardware-independent part of the gate: the requested fast paths
        # must actually have been taken.
        paths_ok, path_lines = check_fast_paths(run)
        ok = ok and paths_ok
        lines.extend(path_lines)
        batch = run.get("batch")
        if batch is not None:
            # The quick-scale batch (40 scenarios) amortizes less than the
            # recorded full point, so the absolute BATCH_THRESHOLD belongs
            # to the full-run record (checked below); the re-timed quick
            # speedup is regression-gated against the baseline's recorded
            # quick batch, same philosophy as the wall-clock points.
            base_batch = baseline_run.get("batch")
            floor = (base_batch["speedup"] / args.max_slowdown
                     if base_batch else batch["threshold"])
            verdict = "ok"
            if not batch["identical"]:
                ok = False
                verdict = "DIVERGED"
            elif batch["speedup"] < floor:
                ok = False
                verdict = "REGRESSED"
            lines.append(
                f"batch            n={batch['scenarios']:<4} "
                f"x{batch['speedup']:.2f} (need {floor:.2f}x) "
                f"{verdict}"
            )
        recorded_batch = document.get("runs", {}).get("current", {}).get("batch")
        if recorded_batch is not None and (
                not recorded_batch["identical"]
                or recorded_batch["speedup"] < recorded_batch["threshold"]):
            ok = False
            lines.append(
                f"recorded full-run batch failing: "
                f"x{recorded_batch['speedup']:.2f} "
                f"(need {recorded_batch['threshold']}x, identical="
                f"{recorded_batch['identical']})"
            )
        acceptance = document.get("acceptance")
        if acceptance is not None and not acceptance.get("pass"):
            ok = False
            lines.append(f"recorded acceptance verdict failing: {acceptance}")
        print()
        print("\n".join(lines))
        print(f"cosim quick gate: {'PASS' if ok else 'FAIL'} "
              f"(max slowdown {args.max_slowdown}x vs "
              f"'{args.baseline_label}')")
        return 0 if ok else 1

    run = run_cosim_suite(quick=args.quick, tier=args.tier,
                          repeats=args.repeats, progress=print)
    if args.no_write:
        print(json.dumps(run, indent=2))
        return 0
    document = update_bench_file(args.output, args.label, run,
                                 schema=SCHEMA, points=ACCEPTANCE_POINTS)
    print(f"\nwrote label {args.label!r} to {args.output}")
    acceptance = document.get("acceptance")
    if acceptance is not None:
        for entry in acceptance["points"]:
            verdict = "PASS" if entry["pass"] else "FAIL"
            print(f"acceptance ({entry['point']['workload']} "
                  f"n={entry['point']['n_processes']}): "
                  f"speedup={entry['speedup']} "
                  f"threshold={entry['threshold']} -> {verdict}")
        print(f"acceptance overall: "
              f"{'PASS' if acceptance['pass'] else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
