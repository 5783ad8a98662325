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
the fused program of :mod:`repro.ir.syscompile` — so the file's
speedup table *is* the compilation win.  The acceptance criteria demand
:data:`ACCEPTANCE_POINTS` — the transition-rate workload's largest point
**and** the mixed-system workload's largest point.  ``--check`` re-times
the quick tier and fails when any point is more than ``--max-slowdown``
slower than the recorded baseline label, when a fast path was silently
lost, or when the file's recorded acceptance verdict itself is failing —
the CI regression gate.
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
    fused program compiled — outside the timed region; only the
    simulation run is timed.  With *repeats* > 1 the minimum wall-clock is
    kept.  ``clock_fast_edges`` counts the clock edges the kernel fired
    on its arithmetic fast path and ``clock_skipped_edges`` the part of
    them its steady-period skip accounted without firing (both kept
    outside ``statistics``, which must not depend on the path taken).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = None
    statistics = None
    counters = None
    wired = None
    fast_edges = skipped_edges = None
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
            skipped_edges = session.simulator.clock_skipped_edges
    return {
        "workload": workload.name,
        "n_processes": size,
        "tier": wired,
        "sim_ns": session.simulator.now,
        "wall_s": best,
        "statistics": statistics,
        "clock_fast_edges": fast_edges,
        "clock_skipped_edges": skipped_edges,
        "fsm": counters,
    }


def run_cosim_suite(quick=False, tier=DEFAULT_TIER, repeats=1, workloads=None,
                    progress=None):
    """Run every cosim workload over its scale sweep; returns a run dict."""
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
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": bool(quick),
        "tier": tier,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
    }


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
    fails too).  A ``mixed_system`` point, whose horizon ends in a quiet
    tail, must also have skipped steady periods (``clock_skipped_edges``).
    Runs of the interpreted tier are not gated.  A lost fast path fails
    the gate even when the wall-clock ratio happens to still look green.
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
        if (point["workload"] == "mixed_system"
                and not point.get("clock_skipped_edges")):
            ok = False
            lines.append(f"{prefix} lost the kernel steady-period skip: "
                         f"clock_skipped_edges="
                         f"{point.get('clock_skipped_edges')}")
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
                             "fast path was lost, or the file's recorded "
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
            # A full-tier baseline runs other horizons per point, so its
            # ratios would not measure a regression.
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
