"""Record golden.json: the expected output of every input the workloads draw.

Run from the repository root, and only after a change that is meant to
alter the program's outputs:

    PYTHONPATH=src python3 perfbench/record_golden.py

It runs every pool entry once on two worker processes (a few minutes on
two cores) and rewrites perfbench/golden.json.  An entry that fails is
recorded as a defect with its error text; the workloads keep defects out
of their timed ops.
"""

import json
import multiprocessing
import os
import sys

import workloads

POOL_SIZES = {"scenario_stream": 2000, "cosyn": 2500, "dse": 500}
JOBS = {"scenario_stream": workloads.cosim_job,
        "cosyn": workloads.cosyn_job,
        "dse": workloads.dse_job}


def outcome(task):
    """``(index, digest, error)`` of one pool entry; runs in a worker."""
    kind, index = task
    try:
        record = workloads.submit(JOBS[kind](index))
    except Exception as exc:  # recorded as a defect of the pool
        return index, None, f"{type(exc).__name__}: {exc}"
    return index, workloads.record_digest(record), None


def record_pool(pool, kind):
    digests, defects = {}, {}
    tasks = [(kind, index) for index in range(POOL_SIZES[kind])]
    for index, digest, error in pool.imap(outcome, tasks, chunksize=20):
        if error is None:
            digests[str(index)] = digest
        else:
            defects[str(index)] = error
    print(f"{kind}: {len(digests)} outputs, {len(defects)} defects",
          file=sys.stderr)
    return {"pool": POOL_SIZES[kind], "digests": digests, "defects": defects}


def record_episode(seed):
    """Fingerprint of one ``long_cosim`` episode for *seed*."""
    workload = workloads.LongCosim(seed, 0, None,
                                   {"long_cosim": {"episodes": {}}})
    workload.setup()
    for index in range(workload.EPISODE):
        results = workload.run_op(index)
    return workload.episode_fingerprint(results)


def main():
    context = multiprocessing.get_context("spawn")
    # Workers are replaced every 100 entries: the program keeps compiled
    # code per system for the life of a process.
    with context.Pool(2, maxtasksperchild=100) as pool:
        golden = {
            "scenario_stream": record_pool(pool, "scenario_stream"),
            "codesign_sweep": {kind: record_pool(pool, kind)
                               for kind in ("cosyn", "dse")},
        }
    golden["long_cosim"] = {"episodes": {
        str(seed): record_episode(seed)
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)
    }}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(workloads.GOLDEN_PATH)}", file=sys.stderr)


if __name__ == "__main__":
    main()
