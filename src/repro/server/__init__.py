"""The long-lived co-design job service.

Everything the repository can do in batch — kernel scenario runs,
co-simulations, co-synthesis flows, conformance replays, partition
explorations (DSE) — is expressible as a :mod:`repro.sweep` job spec.
This package serves those specs over HTTP from a persistent process:

* ``POST /jobs`` accepts one spec or a list of specs (exactly the JSON
  entries ``python -m repro.sweep --jobs`` reads) and queues them behind
  a bounded FIFO;
* jobs execute on the shared :class:`repro.utils.pool.WorkerPool` and
  move through ``queued → running → done | failed``;
* ``GET /jobs``, ``GET /jobs/<id>`` and ``GET /jobs/<id>/artifacts``
  expose per-job status, deterministic records and the content-addressed
  payloads in the :class:`repro.sweep.cache.ArtifactCache` — a warm
  resubmission of a cacheable job (co-synthesis, DSE, coverage cosim) is
  served from the cache without re-running HLS;
* ``GET /metrics`` reports queue depth, jobs by state, cache hit/miss
  and the aggregated ``interpreted``/``system_compile_hits``
  execution-tier counters.

The implementation is standard library only (``http.server`` +
``json``); see ``docs/server.md`` for the route and schema reference,
``python -m repro.server`` for the CLI and ``make server-smoke`` for the
end-to-end check.
"""

from repro.server.http import create_server
from repro.server.service import JobService, QueueFullError

__all__ = ["JobService", "QueueFullError", "create_server"]
