"""Job lifecycle behind the HTTP front: queue, states, pool, cache, ticks.

:class:`JobService` owns everything stateful: the bounded FIFO queue, the
job table, the shared :class:`~repro.utils.pool.WorkerPool` the executor
threads run jobs on, the :class:`~repro.sweep.cache.ArtifactCache` used
both to short-circuit warm resubmissions and to store fresh payloads, and
the tick-driven re-sweep schedules.  The HTTP layer
(:mod:`repro.server.http`) is a thin JSON shim over this class, so the
service is fully testable without a socket.

Design points:

* **Submission is cheap and synchronous.**  A spec is validated
  (``job_from_dict``) and, when the job is cacheable and its content key
  hits, answered ``done`` straight from the cache — a warm co-synthesis
  resubmission never touches the queue, let alone HLS.  Everything else
  is enqueued behind a hard ``queue_limit`` (raising
  :class:`QueueFullError` → HTTP 503 — back-pressure, not an unbounded
  buffer).
* **Execution preserves the sweep's purity rules.**  Jobs run in worker
  *processes* (one ``pool.map`` of one item per job, several executor
  threads feeding the shared pool), so records stay pure functions of
  their specs and a crashing job cannot take the service down.  Cache
  writes happen in the service process only, after collection — exactly
  like :class:`repro.sweep.service.SweepService`.
* **A dead worker fails one job, not the service.**  The pool surfaces a
  worker death as :class:`~repro.utils.pool.PoolError`; the executor
  marks its job ``failed`` and replaces the broken pool.  Jobs that were
  in flight on other workers of the same pool fail too (their processes
  were torn down with it) — they report the pool error and can simply be
  resubmitted.
"""

import collections
import itertools
import threading
import time

from repro.obs import TELEMETRY, prometheus_line
from repro.sweep.cache import ArtifactCache
from repro.sweep.jobs import job_from_dict
from repro.sweep.service import _execute_job
from repro.utils.errors import ReproError
from repro.utils.pool import PoolError, WorkerPool

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


class QueueFullError(ReproError):
    """The bounded submission queue is at capacity (HTTP 503)."""


class JobRecord:
    """One submitted job: spec, lifecycle state, outcome."""

    __slots__ = ("id", "job", "state", "source", "cache_key", "cached",
                 "record", "error", "submitted_at", "started_at",
                 "finished_at", "submitted_mono", "started_mono",
                 "finished_mono")

    def __init__(self, job_id, job, source):
        self.id = job_id
        self.job = job
        self.state = "queued"
        self.source = source
        self.cache_key = None
        self.cached = False
        self.record = None
        self.error = None
        # Wall-clock stamps are for display only; every *duration* is
        # computed from the monotonic twins below — time.time() may jump
        # (NTP step, clock slew) and must never feed a latency metric.
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self.submitted_mono = time.monotonic()
        self.started_mono = None
        self.finished_mono = None

    def queue_wait_s(self):
        """Seconds from submission to execution start (monotonic), or None."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.submitted_mono

    def run_s(self):
        """Seconds from execution start to finish (monotonic), or None."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

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
            "source": self.source,
            "cacheable": bool(self.job.cacheable),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_s": self.queue_wait_s(),
            "run_s": self.run_s(),
            "record": self.record,
        })
        return data


class JobService:
    """Queue, execute and account for co-design jobs; see the module doc."""

    def __init__(self, workers=2, queue_limit=64, cache=None,
                 schedules=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        if isinstance(cache, str):
            cache = ArtifactCache(cache)
        self.cache = cache
        #: ``[{"name", "every", "jobs": [spec, ...]}, ...]`` — each entry
        #: enqueues its specs on every ``every``-th tick (default 1).
        self.schedules = list(schedules or [])
        for schedule in self.schedules:
            self._check_schedule(schedule)

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._jobs = {}          # id -> JobRecord (insertion-ordered)
        self._queue = collections.deque()  # FIFO of job ids
        self._seq = itertools.count(1)
        self._threads = []
        self._pool = None
        self._stopping = False
        self._started_at = time.time()       # wall stamp, display only
        self._started_mono = time.monotonic()  # uptime source
        self._ticks = 0
        self._pool_replacements = 0
        self._fsm_totals = {"steps": 0, "transitions_fired": 0,
                            "interpreted": 0, "fallback": 0,
                            "system_compile_hits": 0, "system_fallback": 0}

    @staticmethod
    def _check_schedule(schedule):
        if (not isinstance(schedule, dict) or "jobs" not in schedule
                or not isinstance(schedule["jobs"], list)):
            raise ValueError(
                f"schedule must be an object with a 'jobs' list: {schedule!r}"
            )
        if int(schedule.get("every", 1)) < 1:
            raise ValueError(f"schedule 'every' must be >= 1: {schedule!r}")
        for spec in schedule["jobs"]:
            job_from_dict(spec)  # validate eagerly, at configuration time

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

    def submit_spec(self, spec, source="http"):
        """Validate and enqueue one job spec; returns its :class:`JobRecord`.

        Raises ``ValueError`` for a malformed spec and
        :class:`QueueFullError` when the FIFO is at ``queue_limit``.
        Cacheable jobs whose content key hits are answered ``done``
        immediately, without queueing.
        """
        job = job_from_dict(spec)
        cached_payload = None
        cache_key = None
        if self.cache is not None and job.cacheable:
            cache_key = ArtifactCache.key_for(job.spec())
            with self._lock:
                cached_payload = self.cache.get(cache_key)
        with self._wake:
            record = JobRecord(f"job-{next(self._seq):06d}", job, source)
            record.cache_key = cache_key
            if cached_payload is not None:
                record.record = job.record_from_payload(cached_payload,
                                                        cached=True)
                record.cached = True
                record.state = "done"
                record.finished_at = time.time()
                record.finished_mono = time.monotonic()
                self._jobs[record.id] = record
                return record
            if len(self._queue) >= self.queue_limit:
                raise QueueFullError(
                    f"job queue is full ({self.queue_limit} queued); "
                    "retry after the backlog drains"
                )
            self._jobs[record.id] = record
            self._queue.append(record.id)
            self._wake.notify()
        return record

    def submit_body(self, body, source="http"):
        """Submit a decoded ``POST /jobs`` body: one spec or a list of specs.

        All-or-nothing: the whole batch is validated first and submitted
        under the lock; on a mid-batch :class:`QueueFullError` everything
        already accepted is rolled back, so a 503 never leaves half a
        batch queued.  Returns the list of :class:`JobRecord`.
        """
        specs = body if isinstance(body, list) else [body]
        if not specs:
            raise ValueError("empty job submission")
        for spec in specs:
            job_from_dict(spec)  # malformed entries reject the whole batch
        with self._lock:  # re-entrant: executors cannot interleave with us
            records = []
            try:
                for spec in specs:
                    records.append(self.submit_spec(spec, source=source))
            except QueueFullError:
                for record in records:
                    self._jobs.pop(record.id, None)
                    if record.id in self._queue:
                        self._queue.remove(record.id)
                raise
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
                "ticks": self._ticks,
                "schedules": len(self.schedules),
                "pool_replacements": self._pool_replacements,
                "started_at": self._started_at,
                "uptime_s": round(time.monotonic() - self._started_mono, 3),
            }

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
        lines.append("# TYPE repro_server_ticks_total counter")
        lines.append(prometheus_line("repro_server_ticks_total", None,
                                     snapshot["ticks"]))
        lines.append("# TYPE repro_server_schedules gauge")
        lines.append(prometheus_line("repro_server_schedules", None,
                                     snapshot["schedules"]))
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

    # ----------------------------------------------------------------- ticks

    def tick(self):
        """Advance the scheduler clock by one tick; enqueue due schedules."""
        with self._lock:
            self._ticks += 1
            tick = self._ticks
        enqueued, rejected = [], []
        for schedule in self.schedules:
            if tick % int(schedule.get("every", 1)):
                continue
            name = schedule.get("name", "schedule")
            for spec in schedule["jobs"]:
                try:
                    record = self.submit_spec(spec, source=f"tick:{name}")
                    enqueued.append(record.id)
                except QueueFullError as exc:
                    rejected.append(f"{name}: {exc}")
        return {"tick": tick, "enqueued": enqueued, "rejected": rejected}

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
                record.started_mono = time.monotonic()
                pool = self._pool
            try:
                outcome, payload = pool.map(_execute_job, [record.job],
                                            chunksize=1)[0]
            except PoolError as exc:
                self._replace_pool(pool)
                self._finish(record, None, error=str(exc))
                continue
            except Exception as exc:  # job unpicklable, worker bug, ...
                self._finish(record, None,
                             error=f"{type(exc).__name__}: {exc}")
                continue
            if (payload is not None and record.cache_key is not None):
                with self._lock:
                    self.cache.put(record.cache_key, payload)
            self._finish(record, outcome, error=outcome.get("error"))

    def _finish(self, record, outcome, error=None):
        with self._lock:
            record.record = outcome
            record.error = error
            record.state = "failed" if error else "done"
            record.finished_at = time.time()
            record.finished_mono = time.monotonic()
            if TELEMETRY.enabled:
                TELEMETRY.metrics.counter(
                    "repro_server_jobs_total",
                    labels={"kind": record.job.kind, "state": record.state},
                    help="Jobs finished by the server, by kind and state.",
                ).inc()
                wait, run = record.queue_wait_s(), record.run_s()
                if wait is not None:
                    TELEMETRY.metrics.histogram(
                        "repro_server_job_queue_wait_seconds",
                        help="Submission-to-start wait per executed job.",
                    ).observe(wait)
                if run is not None:
                    TELEMETRY.metrics.histogram(
                        "repro_server_job_run_seconds",
                        help="Start-to-finish run time per executed job.",
                    ).observe(run)
            fsm = (outcome or {}).get("fsm")
            if fsm:
                for key in self._fsm_totals:
                    self._fsm_totals[key] += fsm.get(key, 0)

    def _replace_pool(self, broken):
        """Swap the shared pool after a worker death (once per breakage)."""
        with self._lock:
            if self._pool is broken and not self._stopping:
                broken.terminate()
                self._pool = WorkerPool(self.workers)
                self._pool_replacements += 1

    def __repr__(self):
        with self._lock:
            return (f"JobService(workers={self.workers}, "
                    f"jobs={len(self._jobs)}, queued={len(self._queue)})")
