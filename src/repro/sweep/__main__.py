"""Command-line entry of the scenario-sweep service.

Usage::

    python -m repro.sweep                        # default ≥100-job batch
    python -m repro.sweep --quick                # CI smoke batch
    python -m repro.sweep --kernel tiny=40 small=10 --cosim 20 --cosyn 8
    python -m repro.sweep --jobs jobs.json --workers 8 --out report.json
    python -m repro.sweep --from-dse dse_report.json --seed 0 --networks 9
    python -m repro.sweep --cache-dir .sweep-cache --cosyn 12
    python -m repro.sweep --selfcheck --quick    # parity + warm-cache check
    python -m repro.sweep --cosim 6 --coverage --fault-kinds stuck_handshake

``--coverage`` attaches a :class:`~repro.testkit.coverage.CoverageMap` to
every co-simulation job and records the per-job scoreboard (state/edge
coverage, fault survival) into the report; coverage jobs are cacheable,
so a ``--cache-dir`` sweep replays them from the artefact cache.
``--fault-kinds`` adds one faulted variant of every cosim seed per kind.

``--selfcheck`` runs the batch serially and on the pool, asserts the two
reports are byte-identical and that no ``SystemModel`` outlives the serial
run's jobs, then re-runs the cacheable jobs against the warm cache and
asserts zero re-synthesis.  Exit status is non-zero when a
job errors, a co-simulation misses its expected outcome, or a selfcheck
assertion fails.
"""

import argparse
import gc
import json
import sys
import tempfile
import time

from repro.core import SystemModel
from repro.cosim.faults import FAULT_KINDS
from repro.obs import TELEMETRY
from repro.sweep.cache import ArtifactCache
from repro.sweep.jobs import (
    CosimJob,
    CosynJob,
    KernelJob,
    job_from_dict,
    jobs_from_dse_report,
)
from repro.sweep.service import SweepService
from repro.testkit.generator import kernel_tier_entry

#: Default batch: a ≥100-scenario mix across all three job kinds.
DEFAULT_KERNEL_TIER = (("tiny", 60), ("small", 20))
DEFAULT_COSIM_JOBS = 24
DEFAULT_COSYN_JOBS = 8

#: Smoke batch (< 30 s on two workers; wired into CI and pytest).
QUICK_KERNEL_TIER = (("tiny", 6),)
QUICK_COSIM_JOBS = 3
QUICK_COSYN_JOBS = 3


def build_jobs(args, parser):
    """Translate the CLI source flags into the job list."""
    jobs = []
    explicit = (args.kernel is not None or args.cosim is not None
                or args.cosyn is not None or args.jobs is not None
                or args.from_dse is not None)

    if args.jobs is not None:
        with open(args.jobs) as handle:
            entries = json.load(handle)
        if not isinstance(entries, list):
            parser.error(f"{args.jobs}: expected a JSON list of job objects")
        jobs.extend(job_from_dict(entry) for entry in entries)
    if args.from_dse is not None:
        with open(args.from_dse) as handle:
            report = json.load(handle)
        dse_jobs = jobs_from_dse_report(report, args.seed_base,
                                        networks=args.networks)
        if not dse_jobs:
            parser.error(f"{args.from_dse}: report has no Pareto front entries")
        jobs.extend(dse_jobs)

    if explicit:
        kernel_tier = tuple(args.kernel or ())
        cosim_jobs = args.cosim or 0
        cosyn_jobs = args.cosyn or 0
    elif args.quick:
        kernel_tier = QUICK_KERNEL_TIER
        cosim_jobs = QUICK_COSIM_JOBS
        cosyn_jobs = QUICK_COSYN_JOBS
    else:
        kernel_tier = DEFAULT_KERNEL_TIER
        cosim_jobs = DEFAULT_COSIM_JOBS
        cosyn_jobs = DEFAULT_COSYN_JOBS

    for size, count in kernel_tier:
        for offset in range(count):
            jobs.append(KernelJob(size, args.seed_base + offset,
                                  kernel=args.sim_kernel))
    for offset in range(cosim_jobs):
        jobs.append(CosimJob(args.seed_base + offset, networks=args.networks,
                             kernel=args.sim_kernel, until=args.until,
                             checkpoint_at=args.checkpoint_at,
                             coverage=args.coverage, no_lint=args.no_lint))
        for kind in args.fault_kinds or ():
            jobs.append(CosimJob(args.seed_base + offset,
                                 networks=args.networks,
                                 kernel=args.sim_kernel,
                                 coverage=args.coverage,
                                 fault_kind=kind, no_lint=args.no_lint))
    for offset in range(cosyn_jobs):
        for platform in args.platforms:
            jobs.append(CosynJob(args.seed_base + offset,
                                 networks=args.networks, platform=platform,
                                 no_lint=args.no_lint))
    return jobs


def _live_models():
    """How many :class:`SystemModel` objects survive a full collection."""
    gc.collect()
    return sum(isinstance(obj, SystemModel) for obj in gc.get_objects())


def run_selfcheck(jobs, args):
    """Serial/parallel parity, warm-cache zero-resynthesis and no model
    outliving its job."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="sweep-selfcheck-") as scratch:
        serial_cache = f"{scratch}/serial"
        parallel_cache = f"{scratch}/parallel"
        models_before = _live_models()
        serial = SweepService(jobs, workers=1,
                              cache=ArtifactCache(serial_cache)).run()
        leaked = _live_models() - models_before
        if leaked:
            failures.append(f"{leaked} SystemModel(s) outlived their jobs")
        else:
            print("memory: no SystemModel outlived its job")
        parallel = SweepService(jobs, workers=max(2, args.workers),
                                cache=ArtifactCache(parallel_cache)).run()
        if serial.to_json() != parallel.to_json():
            failures.append("serial and parallel reports are NOT byte-identical")
        else:
            print(f"parity: serial == parallel over {len(jobs)} jobs "
                  f"({max(2, args.workers)} workers)")

        cacheable = [job for job in jobs if job.cacheable]
        if cacheable:
            warm = SweepService(jobs, workers=1,
                                cache=ArtifactCache(serial_cache)).run()
            if warm.cosyn_executed() != 0:
                failures.append(
                    f"warm-cache re-run performed "
                    f"{warm.cosyn_executed()} re-synthesis runs (expected 0)"
                )
            elif warm.cosyn_cached() != len(cacheable):
                failures.append(
                    f"warm-cache re-run served {warm.cosyn_cached()} of "
                    f"{len(cacheable)} cacheable jobs from cache"
                )
            else:
                print(f"warm cache: {warm.cosyn_cached()}/{len(cacheable)} "
                      "cacheable jobs served from cache, zero re-synthesis")
        if not serial.ok:
            failures.append("batch reported errors/functional problems "
                            "(see report)")
            print(serial.summary())
    for failure in failures:
        print(f"selfcheck: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="batched scenario-sweep service",
    )
    source = parser.add_argument_group("job sources")
    source.add_argument("--kernel", nargs="*", metavar="SIZE=COUNT",
                        type=kernel_tier_entry,
                        help="kernel scenario jobs per size band")
    source.add_argument("--cosim", type=int, metavar="N",
                        help="co-simulation jobs over generated systems")
    source.add_argument("--cosyn", type=int, metavar="N",
                        help="co-synthesis jobs over generated systems")
    source.add_argument("--jobs", metavar="FILE",
                        help="JSON file with a list of job spec objects")
    source.add_argument("--from-dse", metavar="FILE",
                        help="cosyn jobs from a DSE report's Pareto front "
                             "(combine with --seed-base/--networks of that "
                             "DSE run)")
    shape = parser.add_argument_group("job shaping")
    shape.add_argument("--seed-base", type=int, default=0,
                       help="shift every generated seed (default 0)")
    shape.add_argument("--networks", type=int, default=None,
                       help="networks per generated system (default: "
                            "random 1-3)")
    shape.add_argument("--sim-kernel", choices=("production", "reference"),
                       default="production",
                       help="kernel for simulation jobs (default production)")
    shape.add_argument("--platforms", nargs="+", metavar="NAME",
                       default=("pc_at_fpga",),
                       help="platforms for --cosyn jobs (default pc_at_fpga)")
    shape.add_argument("--until", type=int, default=None,
                       help="fixed horizon (ns) for cosim jobs "
                            "(default: run to software completion)")
    shape.add_argument("--checkpoint-at", type=int, default=None,
                       help="run cosim jobs through a save/restore "
                            "checkpoint at this time")
    shape.add_argument("--coverage", action="store_true",
                       help="collect FSM coverage on cosim jobs and record "
                            "the per-job scoreboard (makes them cacheable)")
    shape.add_argument("--fault-kinds", nargs="+", metavar="KIND",
                       choices=FAULT_KINDS, default=None,
                       help="additionally run each cosim seed under these "
                            f"fault kinds (choices: {', '.join(FAULT_KINDS)})")
    shape.add_argument("--no-lint", action="store_true",
                       help="skip the lint pre-flight on cosim/cosyn jobs "
                            "(error-level findings otherwise refuse the job)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes (default 4; 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed artefact cache directory")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON report to FILE")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke batch (< 30 s)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="assert serial/parallel parity and warm-cache "
                             "behaviour instead of a plain run")
    parser.add_argument("--obs-out", metavar="FILE",
                        help="enable telemetry for the batch and write the "
                             "artefact (inspect with python -m repro.obs)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per job")
    args = parser.parse_args(argv)

    try:
        jobs = build_jobs(args, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        parser.error("no jobs to run (check the source flags)")

    if args.selfcheck:
        return run_selfcheck(jobs, args)

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    progress = print if args.verbose else None
    if args.obs_out:
        TELEMETRY.enable()
    started = time.perf_counter()
    report = SweepService(jobs, workers=args.workers, cache=cache).run(
        progress=progress
    )
    elapsed = time.perf_counter() - started

    print(report.summary())
    print(f"({elapsed:.1f} s wall clock, {args.workers} worker(s))")
    if args.obs_out:
        TELEMETRY.write(args.obs_out)
        print(f"telemetry artefact written to {args.obs_out}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
