"""Job lifecycle behind the HTTP front: queue, states, pool, cache.

:class:`JobService` owns everything stateful: the bounded FIFO queue, the
job table, the shared :class:`~repro.utils.pool.WorkerPool` the executor
threads run jobs on, the :class:`~repro.sweep.cache.ArtifactCache` used
both to short-circuit warm resubmissions and to store fresh payloads.
The HTTP layer (:mod:`repro.server.http`) is a thin JSON shim over this
class, so the service is fully testable without a socket.

Design points:

* **Submission is cheap and synchronous.**  A spec is validated
  (``job_from_dict``) and, when the job is cacheable and its content key
  hits, answered ``done`` straight from the cache — a warm co-synthesis
  resubmission never touches the queue, let alone HLS.  Everything else
  is enqueued behind a hard ``queue_limit`` (raising
  :class:`QueueFullError` → HTTP 503 — back-pressure, not an unbounded
  buffer).
* **Execution goes through the sweep's step** (``lookup``,
  ``_execute_job`` and ``settle`` in :mod:`repro.sweep.service`).  Jobs
  run in worker *processes* (one ``pool.map`` of one item per job, several executor
  threads feeding the shared pool), so records stay pure functions of
  their specs and a crashing job cannot take the service down; cache
  writes happen in the service process only, after collection.
* **A dead worker fails one job, not the service.**  The pool surfaces a
  worker death as :class:`~repro.utils.pool.PoolError`; the executor
  marks its job ``failed`` and replaces the broken pool.  Jobs that were
  in flight on other workers of the same pool fail too (their processes
  were torn down with it) — they report the pool error and can simply be
  resubmitted.
"""

import collections
import itertools
import os
import threading
import time

from repro.comm import library_stats
from repro.obs import TELEMETRY, prometheus_line
from repro.sweep.cache import ArtifactCache
from repro.sweep.jobs import job_from_dict
from repro.sweep.service import _execute_job, count_job, lookup, settle
from repro.utils.errors import ReproError
from repro.utils.pool import PoolError, WorkerPool

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


class QueueFullError(ReproError):
    """The bounded submission queue is at capacity (HTTP 503)."""


def _execute_in_worker(job):
    """Worker entry: ``_execute_job``'s stamped outcome, the worker's pid
    and its unit-library counters (:func:`repro.comm.library_stats`)."""
    return _execute_job(job), os.getpid(), library_stats()


def _seconds(start, end):
    """``end - start`` of two ``perf_counter`` stamps, or None."""
    return None if start is None or end is None else end - start


class JobRecord:
    """One submitted job: spec, lifecycle state, outcome."""

    __slots__ = ("id", "job", "state", "cache_key", "cached",
                 "record", "error", "submitted_at", "started_at",
                 "finished_at", "submitted_mono", "started_mono",
                 "finished_mono")

    def __init__(self, job_id, job):
        self.id = job_id
        self.job = job
        self.state = "queued"
        self.cache_key = None
        self.cached = False
        self.record = None
        self.error = None
        # Wall-clock stamps are for display only; every *duration* is
        # computed from the perf_counter twins below — time.time() may
        # jump (NTP step, clock slew) and must never feed a latency metric.
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self.submitted_mono = time.perf_counter()
        self.started_mono = None
        self.finished_mono = None

    def summary(self):
        return {
            "id": self.id,
            "name": self.job.name,
            "kind": self.job.kind,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
        }

    def as_dict(self):
        data = self.summary()
        data.update({
            "spec": self.job.spec(),
            "cacheable": bool(self.job.cacheable),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_s": _seconds(self.submitted_mono, self.started_mono),
            "run_s": _seconds(self.started_mono, self.finished_mono),
            "record": self.record,
        })
        return data


class JobService:
    """Queue, execute and account for co-design jobs; see the module doc."""

    def __init__(self, workers=2, queue_limit=64, cache=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        if isinstance(cache, str):
            cache = ArtifactCache(cache)
        self.cache = cache

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._jobs = {}          # id -> JobRecord (insertion-ordered)
        self._queue = collections.deque()  # FIFO of job ids
        self._seq = itertools.count(1)
        self._threads = []
        self._pool = None
        self._stopping = False
        self._started_at = time.time()       # wall stamp, display only
        self._started_mono = time.perf_counter()  # uptime source
        self._pool_replacements = 0
        self._fsm_totals = {"steps": 0, "transitions_fired": 0,
                            "interpreted": 0, "system_compile_hits": 0}
        #: worker pid -> its latest unit-library counters; the counts of
        #: workers torn down with a broken pool are folded into
        #: ``_library_retired``.
        self._library = {}
        self._library_retired = {"hits": 0, "misses": 0}

    # ------------------------------------------------------------- lifecycle

    def start(self):
        """Create the worker pool and the executor threads."""
        with self._lock:
            if self._threads:
                raise RuntimeError("service already started")
            self._stopping = False
            self._pool = WorkerPool(self.workers)
            for index in range(self.workers):
                thread = threading.Thread(target=self._executor_loop,
                                          name=f"job-executor-{index}",
                                          daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self):
        """Stop the executors and tear the pool down (queued jobs stay)."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()

    # ------------------------------------------------------------ submission

    def submit_body(self, body):
        """Submit a decoded ``POST /jobs`` body: one spec or a list of specs.

        All-or-nothing: a malformed spec (``ValueError``), or more
        cache misses than the FIFO has room for (:class:`QueueFullError`),
        refuses the whole batch before any of it is kept.  Cache hits are
        answered ``done`` at once.  Returns the list of :class:`JobRecord`.
        Specs are parsed under the lock, because job constructors import
        lazily and concurrent first imports of one package can see each
        other's half-initialised modules.
        """
        specs = body if isinstance(body, list) else [body]
        if not specs:
            raise ValueError("empty job submission")
        with self._wake:
            jobs = [job_from_dict(spec) for spec in specs]
            looked_up = [(job, *lookup(job, self.cache)) for job in jobs]
            queued = sum(1 for _, _, served in looked_up if served is None)
            if len(self._queue) + queued > self.queue_limit:
                raise QueueFullError(
                    f"job queue is full ({len(self._queue)} of "
                    f"{self.queue_limit} queued, {queued} more submitted); "
                    "retry after the backlog drains")
            records = []
            for job, key, served in looked_up:
                record = JobRecord(f"job-{next(self._seq):06d}", job)
                record.cache_key = key
                self._jobs[record.id] = record
                if served is None:
                    self._queue.append(record.id)
                else:
                    record.record = served
                    record.cached = True
                    record.state = "done"
                    record.finished_at = time.time()
                    record.finished_mono = time.perf_counter()
                    count_job(job.kind, "cached")
                records.append(record)
            self._wake.notify(queued)
        return records

    # -------------------------------------------------------------- queries

    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self):
        with self._lock:
            return list(self._jobs.values())

    def artifact(self, job_id):
        """The cached payload of a finished cacheable job, or None."""
        record = self.get(job_id)
        if record is None or record.cache_key is None:
            return None
        with self._lock:
            return self.cache.get(record.cache_key)

    def metrics(self):
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            for record in self._jobs.values():
                by_state[record.state] += 1
            cache_stats = (dict(self.cache.stats)
                           if self.cache is not None else None)
            return {
                "format": 1,
                "queue": {
                    "depth": len(self._queue),
                    "limit": self.queue_limit,
                    "workers": self.workers,
                },
                "jobs": {
                    "submitted": len(self._jobs),
                    "by_state": by_state,
                    "cache_served": sum(
                        1 for record in self._jobs.values() if record.cached
                    ),
                },
                "cache": cache_stats,
                "fsm": dict(self._fsm_totals),
                "library": self._library_totals(),
                "pool_replacements": self._pool_replacements,
                "started_at": self._started_at,
                "uptime_s": round(time.perf_counter() - self._started_mono,
                                  3),
            }

    def _library_totals(self):
        """The workers' unit libraries: hits and misses since the service
        started, and the units the live workers hold."""
        totals = dict(self._library_retired, size=0)
        for stats in self._library.values():
            for key in totals:
                totals[key] += stats[key]
        return totals

    def prometheus_metrics(self):
        """The :meth:`metrics` counters in Prometheus text exposition.

        Service-level gauges/counters are rendered by hand (they live in
        plain attributes, not the telemetry registry); when telemetry is
        enabled the process-wide registry — kernel, cosim, sweep, pool and
        HTTP instruments — is appended, so one scrape sees everything.
        """
        snapshot = self.metrics()
        lines = [
            "# TYPE repro_server_uptime_seconds gauge",
            prometheus_line("repro_server_uptime_seconds", None,
                            snapshot["uptime_s"]),
            "# TYPE repro_server_queue_depth gauge",
            prometheus_line("repro_server_queue_depth", None,
                            snapshot["queue"]["depth"]),
            "# TYPE repro_server_queue_limit gauge",
            prometheus_line("repro_server_queue_limit", None,
                            snapshot["queue"]["limit"]),
            "# TYPE repro_server_workers gauge",
            prometheus_line("repro_server_workers", None,
                            snapshot["queue"]["workers"]),
            "# TYPE repro_server_jobs_submitted_total counter",
            prometheus_line("repro_server_jobs_submitted_total", None,
                            snapshot["jobs"]["submitted"]),
            "# TYPE repro_server_jobs_by_state gauge",
        ]
        lines.extend(
            prometheus_line("repro_server_jobs_by_state", {"state": state},
                            count)
            for state, count in sorted(snapshot["jobs"]["by_state"].items())
        )
        lines.append("# TYPE repro_server_cache_served_total counter")
        lines.append(prometheus_line("repro_server_cache_served_total", None,
                                     snapshot["jobs"]["cache_served"]))
        lines.append("# TYPE repro_server_fsm_counter_total counter")
        lines.extend(
            prometheus_line("repro_server_fsm_counter_total",
                            {"counter": counter}, value)
            for counter, value in sorted(snapshot["fsm"].items())
        )
        library = snapshot["library"]
        lines += [
            "# TYPE repro_server_library_hits_total counter",
            prometheus_line("repro_server_library_hits_total", None,
                            library["hits"]),
            "# TYPE repro_server_library_misses_total counter",
            prometheus_line("repro_server_library_misses_total", None,
                            library["misses"]),
            "# TYPE repro_server_library_size gauge",
            prometheus_line("repro_server_library_size", None,
                            library["size"]),
        ]
        lines.append("# TYPE repro_server_pool_replacements_total counter")
        lines.append(prometheus_line("repro_server_pool_replacements_total",
                                     None, snapshot["pool_replacements"]))
        if snapshot["cache"] is not None:
            lines.append("# TYPE repro_server_cache_events_total counter")
            lines.extend(
                prometheus_line("repro_server_cache_events_total",
                                {"event": event}, value)
                for event, value in sorted(snapshot["cache"].items())
            )
        text = "\n".join(lines) + "\n"
        if TELEMETRY.enabled:
            text += TELEMETRY.metrics.to_prometheus()
        return text

    # ------------------------------------------------------------- execution

    def _executor_loop(self):
        while True:
            with self._wake:
                while not self._queue and not self._stopping:
                    self._wake.wait(timeout=0.2)
                if self._stopping:
                    return
                record = self._jobs[self._queue.popleft()]
                record.state = "running"
                record.started_at = time.time()
                record.started_mono = time.perf_counter()
                pool = self._pool
            try:
                stamped, pid, library = pool.map(
                    _execute_in_worker, [record.job], chunksize=1)[0]
            except PoolError as exc:
                self._replace_pool(pool)
                self._finish(record, None, str(exc))
                continue
            except Exception as exc:  # job unpicklable, worker bug, ...
                self._finish(record, None, f"{type(exc).__name__}: {exc}")
                continue
            with self._lock:
                if pool is self._pool:
                    self._library[pid] = library
                outcome = settle(record.job, record.cache_key, self.cache,
                                 stamped, record.submitted_mono)
                self._finish(record, outcome, outcome.get("error"))

    def _finish(self, record, outcome, error):
        """Close *record*; *outcome* is None when no worker returned one."""
        with self._lock:
            if outcome is None:
                count_job(record.job.kind, "error")
            record.record = outcome
            record.error = error
            record.state = "failed" if error else "done"
            record.finished_at = time.time()
            record.finished_mono = time.perf_counter()
            fsm = (outcome or {}).get("fsm")
            if fsm:
                for key in self._fsm_totals:
                    self._fsm_totals[key] += fsm[key]

    def _replace_pool(self, broken):
        """Swap the shared pool after a worker death (once per breakage)."""
        with self._lock:
            if self._pool is broken and not self._stopping:
                broken.terminate()
                for stats in self._library.values():
                    self._library_retired["hits"] += stats["hits"]
                    self._library_retired["misses"] += stats["misses"]
                self._library.clear()
                self._pool = WorkerPool(self.workers)
                self._pool_replacements += 1

    def __repr__(self):
        with self._lock:
            return (f"JobService(workers={self.workers}, "
                    f"jobs={len(self._jobs)}, queued={len(self._queue)})")
