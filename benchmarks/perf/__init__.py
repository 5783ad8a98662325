"""Performance harnesses: the kernel suite and the co-simulation suite.

**Kernel suite** (``python -m benchmarks.perf`` -> ``BENCH_kernel.json``) —
measures the wall-clock cost of the :class:`repro.desim.Simulator` scheduling
core over workloads whose *population* (total process count) and *activity*
(processes actually running per delta cycle) are varied independently.  The
point of the split is the kernel's central performance claim: per-delta work
must be proportional to activity, not population.

**Cosim suite** (``python -m benchmarks.perf.cosim`` -> ``BENCH_cosim.json``)
— measures the end-to-end co-simulation backplane (FSM execution, adapters,
services) over module-count and transition-rate scaling; its seed label is
recorded on the interpreted tier and its current label on the fused
tier, so the speedup table tracks the compilation stack's win.  See
:mod:`benchmarks.perf.cosim_workloads` and ``docs/perf.md``.

* **idle-heavy** — one clock plus one active counter process, and N idle
  generator processes each blocked in ``wait on <private signal> for <1 s>``
  (a signal that never changes, a timeout that never matures).  A good
  kernel's cost is flat in N; a kernel that scans every suspended process per
  delta cycle degrades linearly.
* **active-heavy** — N sensitivity-list processes all triggered by every
  rising clock edge.  Cost is necessarily linear in N for any kernel; this
  workload guards against the idle-heavy optimisations taxing the case where
  everything really is runnable.

The harness is deliberately dependency-free (``time.perf_counter`` only, no
pytest-benchmark) so it can run in any environment the kernel runs in.

Command line (see :mod:`benchmarks.perf.__main__`)::

    python -m benchmarks.perf --label seed      # record baseline numbers
    python -m benchmarks.perf --label current   # record post-change numbers
    python -m benchmarks.perf --quick           # smoke mode for CI

Results merge into ``BENCH_kernel.json`` at the repo root, keyed by label;
once both ``seed`` and ``current`` runs are present the file also reports
per-workload speedups and the acceptance verdict (>= 5x on the 10k-process
idle-heavy workload).
"""

from benchmarks.perf.harness import (
    DEFAULT_OUTPUT,
    FULL_PROCESS_COUNTS,
    QUICK_PROCESS_COUNTS,
    compute_speedups,
    run_suite,
    update_bench_file,
)
# The cosim suite (benchmarks.perf.cosim / .cosim_workloads) is imported
# directly by its consumers, not re-exported here: pulling it in would make
# the kernel-only suite pay the whole repro.cosim + repro.testkit import.
from benchmarks.perf.workloads import WORKLOADS, Workload

__all__ = [
    "DEFAULT_OUTPUT",
    "FULL_PROCESS_COUNTS",
    "QUICK_PROCESS_COUNTS",
    "WORKLOADS",
    "Workload",
    "compute_speedups",
    "run_suite",
    "update_bench_file",
]
