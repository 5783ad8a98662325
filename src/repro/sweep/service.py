"""The batch scenario-sweep service.

:class:`SweepService` takes a queue of jobs (testkit generators, DSE Pareto
candidates, JSON job files — see :mod:`repro.sweep.jobs`), executes them
across a :class:`~repro.utils.pool.WorkerPool` and merges the outcomes into
a :class:`SweepReport` that is **byte-identical to a serial run**:

* records are merged in submission order (``Pool.map`` preserves it),
* every record is a pure function of its job spec (kernel determinism,
  synthesis purity),
* cache traffic happens only in the parent process — lookups before
  dispatch, writes after collection — so worker count can never change
  what is or is not cached.

Cacheable jobs (co-synthesis) are served from the
:class:`~repro.sweep.cache.ArtifactCache` when their content key hits:
a warm-cache re-run performs **zero** HLS re-synthesis.

Failures stay data: a job raising a :class:`~repro.utils.errors.ReproError`
becomes an ``error`` record at its slot (deterministically), never an
aborted batch.

A sweep's jobs and the job server's (:mod:`repro.server.service`) take
one step: :func:`lookup` in the calling process, :func:`_execute_job` in
a worker, then :func:`settle` (store, count, trace) back in the caller.
"""

import json
import time

from repro.obs import TELEMETRY
from repro.sweep.cache import ArtifactCache
from repro.utils.errors import ReproError
from repro.utils.pool import WorkerPool
from repro.utils.text import format_table


def _execute_job(job):
    """Worker entry: ``((record, payload), start, end)`` of one job.

    A :class:`ReproError` becomes the job's error record.  A forked
    worker's telemetry dies with it; the ``perf_counter`` stamps survive,
    and :func:`settle` rebuilds the job's span and timings from them.
    """
    start = time.perf_counter()
    try:
        outcome = job.execute()
    except ReproError as exc:
        outcome = job.error_record(exc), None
    return outcome, start, time.perf_counter()


def lookup(job, cache):
    """``(key, served_record)`` of *job* in *cache*, in the calling process.

    *key* is None when the job is not cacheable or there is no cache, and
    the record is None on a miss.  The caller counts a hit it keeps.
    """
    if cache is None or not job.cacheable:
        return None, None
    key = ArtifactCache.key_for(job.spec())
    payload = cache.get(key)
    if payload is None:
        return key, None
    return key, job.record_from_payload(payload, cached=True)


def count_job(kind, outcome):
    """Count one job of *kind* by *outcome* (``ok``/``error``/``cached``)."""
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter(
            "repro_sweep_jobs_total",
            labels={"kind": kind, "outcome": outcome},
            help="Jobs by kind and outcome (ok/error/cached).",
        ).inc()


def settle(job, key, cache, stamped, handed_at):
    """Store, count and trace one executed job; returns its record.

    *stamped* is :func:`_execute_job`'s result.  The payload is put under
    *key*, if any.  With telemetry on, the ``sweep.job`` span comes from
    the worker's stamps and the queue wait runs from *handed_at* (a
    ``perf_counter`` stamp) to the worker's start.
    """
    (record, payload), start, end = stamped
    if TELEMETRY.enabled:
        outcome = "error" if record.get("error") else "ok"
        count_job(job.kind, outcome)
        TELEMETRY.tracer.record("sweep.job", start, end, cat="sweep",
                                job=job.name, kind=job.kind, outcome=outcome)
        TELEMETRY.metrics.histogram(
            "repro_sweep_job_seconds", labels={"kind": job.kind},
            help="Per-job run time (seconds, worker-side).",
        ).observe(end - start)
        TELEMETRY.metrics.histogram(
            "repro_sweep_queue_wait_seconds",
            help="Hand-over-to-start wait per executed job (seconds).",
        ).observe(max(0.0, start - handed_at))
    if key is not None and payload is not None:
        cache.put(key, payload)
    return record


class SweepReport:
    """Deterministic outcome of one sweep batch."""

    def __init__(self, records, cache_stats=None):
        self.records = list(records)
        self.cache_stats = dict(cache_stats) if cache_stats is not None else None

    # ------------------------------------------------------------------ query

    @property
    def errors(self):
        return [record for record in self.records if record.get("error")]

    @property
    def functional_problems(self):
        problems = []
        for record in self.records:
            for problem in record.get("functional_problems") or ():
                problems.append(f"{record['name']}: {problem}")
        return problems

    @property
    def ok(self):
        """No job raised and no co-simulation missed its expected outcome."""
        return not self.errors and not self.functional_problems

    def by_kind(self):
        counts = {}
        for record in self.records:
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        return counts

    def cosyn_executed(self):
        """Co-synthesis runs actually performed (cache misses + uncached)."""
        return sum(1 for record in self.records
                   if record["kind"] == "cosyn" and not record.get("cached")
                   and not record.get("error"))

    def cosyn_cached(self):
        return sum(1 for record in self.records if record.get("cached"))

    # ------------------------------------------------------------- rendering

    def as_dict(self):
        totals = {
            "jobs": len(self.records),
            "by_kind": self.by_kind(),
            "errors": len(self.errors),
            "functional_problems": len(self.functional_problems),
            "cosyn_executed": self.cosyn_executed(),
            "cosyn_cached": self.cosyn_cached(),
            "cache": self.cache_stats,
        }
        return {"format": 1, "jobs": self.records, "totals": totals}

    def to_json(self, indent=2):
        """Deterministic JSON rendering (byte-identical for equal batches)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self, limit=12):
        """Human-readable digest: totals plus the first *limit* records."""
        rows = []
        for record in self.records[:limit]:
            if record.get("error"):
                outcome = f"ERROR: {record['error']}"
            elif record["kind"] == "cosyn":
                outcome = ("ok" if record["ok"] else "constraints") \
                    + (" [cached]" if record.get("cached") else "")
            elif record["kind"] == "cosim":
                problems = record.get("functional_problems")
                outcome = "ok" if not problems else f"{len(problems)} problems"
                outcome += f" @{record['end_time']} ns"
            elif record["kind"] == "conformance":
                problems = record.get("functional_problems")
                outcome = "ok" if not problems else f"{len(problems)} problems"
            elif record["kind"] == "dse":
                outcome = (f"front {len(record['front'])}"
                           + (" [cached]" if record.get("cached") else ""))
            else:
                outcome = f"@{record['end_time']} ns"
            rows.append((record["name"], record["kind"], outcome))
        table = format_table(["job", "kind", "outcome"], rows)
        kinds = ", ".join(f"{kind}: {count}"
                          for kind, count in sorted(self.by_kind().items()))
        lines = [
            f"sweep: {len(self.records)} jobs ({kinds}) — "
            + ("PASS" if self.ok else
               f"FAIL ({len(self.errors)} errors, "
               f"{len(self.functional_problems)} functional problems)"),
        ]
        if self.cache_stats is not None:
            lines.append(
                f"cache: {self.cache_stats['hits']} hits, "
                f"{self.cache_stats['misses']} misses, "
                f"{self.cache_stats['writes']} writes, "
                f"{self.cache_stats['invalidated']} invalidated "
                f"({self.cosyn_executed()} synthesis runs, "
                f"{self.cosyn_cached()} served from cache)"
            )
        if len(self.records) > limit:
            lines.append(f"(first {limit} of {len(self.records)} jobs shown)")
        lines.append(table)
        lines.extend(f"  - {problem}" for problem in self.functional_problems)
        lines.extend(f"  - {record['name']}: {record['error']}"
                     for record in self.errors)
        return "\n".join(lines)


class SweepService:
    """Executes one batch of sweep jobs; optionally pooled and cached."""

    def __init__(self, jobs, workers=1, cache=None):
        self.jobs = list(jobs)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if isinstance(cache, str):
            cache = ArtifactCache(cache)
        self.cache = cache

    def run(self, progress=None):
        """Execute every job and return the :class:`SweepReport`."""
        with TELEMETRY.span("sweep.batch", cat="sweep",
                            jobs=len(self.jobs), workers=self.workers):
            return self._run(progress)

    def _run(self, progress):
        def note(message):
            if progress is not None:
                progress(message)

        records = [None] * len(self.jobs)
        pending = []  # (slot, job, cache_key_or_None)
        for slot, job in enumerate(self.jobs):
            key, served = lookup(job, self.cache)
            if served is not None:
                records[slot] = served
                count_job(job.kind, "cached")
                note(f"[cache ] {job.name}: hit")
            else:
                pending.append((slot, job, key))

        if pending:
            workers_used = min(self.workers, len(pending))
            note(f"[run   ] {len(pending)} jobs on {workers_used} worker(s)")
            dispatch_start = time.perf_counter()
            if self.workers > 1 and len(pending) > 1:
                with WorkerPool(self.workers) as pool:
                    stamped = pool.map(_execute_job,
                                       [job for _, job, _ in pending])
            else:
                stamped = [_execute_job(job) for _, job, _ in pending]
            batch_seconds = time.perf_counter() - dispatch_start
            busy_seconds = 0.0
            for (slot, job, key), outcome in zip(pending, stamped):
                record = settle(job, key, self.cache, outcome, dispatch_start)
                records[slot] = record
                busy_seconds += outcome[2] - outcome[1]
                note(f"[done  ] {job.name}: "
                     f"{'ERROR' if record.get('error') else 'ok'}")
            if TELEMETRY.enabled and batch_seconds > 0:
                TELEMETRY.metrics.gauge(
                    "repro_sweep_worker_utilization",
                    help="Busy fraction of the worker pool over the last "
                         "batch (total job run time / workers / wall time).",
                ).set(busy_seconds / (workers_used * batch_seconds))

        cache_stats = self.cache.stats if self.cache is not None else None
        return SweepReport(records, cache_stats=cache_stats)
