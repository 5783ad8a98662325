"""Tests for the long-lived job service (repro.server).

Most tests drive :class:`JobService` directly — the HTTP layer is a thin
shim — with one end-to-end pass through a real ``ThreadingHTTPServer``
socket.  Queue-shape tests construct the service *without* ``start()``,
so submissions stay deterministically queued.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import TELEMETRY
from repro.obs.metrics import parse_prometheus
from repro.server import JobService, QueueFullError, create_server
from repro.server import service as server_service
from repro.server.service import JOB_STATES
from repro.sweep import ArtifactCache, SweepService
from repro.sweep.jobs import job_from_dict


def _wait_done(service, records, timeout=90):
    deadline = time.monotonic() + timeout
    while any(r.state not in ("done", "failed") for r in records):
        assert time.monotonic() < deadline, \
            f"jobs stuck: {[r.summary() for r in records]}"
        time.sleep(0.05)


#: ``JobService.metrics()`` scalar path -> its exposition sample.
_EXPORTED_SCALARS = {
    ("uptime_s",): "repro_server_uptime_seconds",
    ("queue", "depth"): "repro_server_queue_depth",
    ("queue", "limit"): "repro_server_queue_limit",
    ("queue", "workers"): "repro_server_workers",
    ("jobs", "submitted"): "repro_server_jobs_submitted_total",
    ("jobs", "cache_served"): "repro_server_cache_served_total",
    ("pool_replacements",): "repro_server_pool_replacements_total",
    ("library", "hits"): "repro_server_library_hits_total",
    ("library", "misses"): "repro_server_library_misses_total",
    ("library", "size"): "repro_server_library_size",
}

#: ``JobService.metrics()`` mapping path -> (its sample, the key's label).
_EXPORTED_FAMILIES = {
    ("jobs", "by_state"): ("repro_server_jobs_by_state", "state"),
    ("cache",): ("repro_server_cache_events_total", "event"),
    ("fsm",): ("repro_server_fsm_counter_total", "counter"),
}

#: Conformance scenario names refused when the job is built.
_MALFORMED_SCENARIOS = ("bogus-1", "kernel-huge-1", "system-x",
                        "fault-nope-3")

#: The snapshot's schema version and its display-only wall stamp.
_NOT_EXPORTED = {("format",), ("started_at",)}


def _numeric_fields(node, path=()):
    """``(path, value)`` of every number in a nested metrics snapshot."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_fields(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


@pytest.fixture(scope="module")
def running_service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("server-cache")
    service = JobService(workers=2, cache=str(cache_dir)).start()
    yield service
    service.stop()


class TestJobLifecycle:
    def test_kernel_job_runs_to_done(self, running_service):
        (record,) = running_service.submit_body(
            {"kind": "kernel", "size": "tiny", "seed": 11})
        assert record.state in ("queued", "running", "done")
        _wait_done(running_service, [record])
        assert record.state == "done"
        assert record.error is None
        assert record.record["fingerprint_digest"]
        assert record.started_at is not None
        assert record.finished_at >= record.started_at

    def test_batch_submission_mixes_kinds(self, running_service):
        records = running_service.submit_body([
            {"kind": "kernel", "size": "tiny", "seed": 12},
            {"kind": "cosim", "seed": 4, "networks": 1},
            {"kind": "conformance", "scenario": "kernel-tiny-2"},
        ])
        assert [r.job.kind for r in records] == \
            ["kernel", "cosim", "conformance"]
        _wait_done(running_service, records)
        assert all(r.state == "done" for r in records)
        cosim = records[1].record
        assert cosim["functional_problems"] == []
        assert cosim["tier"] == "fused" and "tier_reason" not in cosim
        assert cosim["fsm"]["interpreted"] > 0
        assert cosim["fsm"]["system_compile_hits"] > 0
        conformance = records[2].record
        assert conformance["ok"] is True

    def test_failed_job_reports_its_error(self, running_service):
        # An unknown platform raises inside the worker; the error degrades
        # to a failed record, not a dead service.
        (record,) = running_service.submit_body(
            {"kind": "cosyn", "seed": 0, "platform": "nope"})
        _wait_done(running_service, [record])
        assert record.state == "failed"
        assert "SynthesisError: unknown platform 'nope'" in record.error

    def test_warm_cacheable_resubmission_is_served_from_cache(
            self, running_service):
        spec = {"kind": "cosim", "seed": 5, "networks": 1, "coverage": True}
        (cold,) = running_service.submit_body(spec)
        _wait_done(running_service, [cold])
        assert cold.state == "done" and not cold.cached
        assert running_service.artifact(cold.id) is not None

        (warm,) = running_service.submit_body(spec)
        # Answered at submission time: done immediately, never queued.
        assert warm.state == "done"
        assert warm.cached is True
        assert warm.record["coverage_digest"] == \
            cold.record["coverage_digest"]
        assert running_service.cache.stats["hits"] >= 1

    def test_artifact_of_uncacheable_job_is_none(self, running_service):
        (record,) = running_service.submit_body(
            {"kind": "kernel", "size": "tiny", "seed": 13})
        _wait_done(running_service, [record])
        assert running_service.artifact(record.id) is None

    def test_durations_come_from_the_monotonic_clock(self, running_service):
        (record,) = running_service.submit_body(
            {"kind": "kernel", "size": "tiny", "seed": 14})
        _wait_done(running_service, [record])
        data = record.as_dict()
        # Wall stamps are kept for display; the duration fields are
        # perf_counter (monotonic) differences and so can never be
        # negative, even if the wall clock stepped backwards mid-job.
        assert data["queue_wait_s"] >= 0
        assert data["run_s"] >= 0
        assert record.finished_mono >= record.started_mono \
            >= record.submitted_mono
        assert running_service.metrics()["uptime_s"] >= 0

    def test_prometheus_exposition_parses_and_matches_json(
            self, running_service, monkeypatch):
        # Both renderings read one snapshot, so even the uptime matches.
        snapshot = running_service.metrics()
        monkeypatch.setattr(running_service, "metrics", lambda: snapshot)
        samples = parse_prometheus(running_service.prometheus_metrics())
        values = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert snapshot["cache"] and snapshot["fsm"]
        checked = 0
        for path, value in _numeric_fields(snapshot):
            if path in _NOT_EXPORTED:
                continue
            if path in _EXPORTED_SCALARS:
                key = (_EXPORTED_SCALARS[path], ())
            else:
                name, label = _EXPORTED_FAMILIES[path[:-1]]
                key = (name, ((label, path[-1]),))
            assert values[key] == value, path
            checked += 1
        # ... and the hand-rendered block holds nothing else.
        exported = set(_EXPORTED_SCALARS.values()) | {
            name for name, _ in _EXPORTED_FAMILIES.values()}
        assert checked == sum(1 for name, _ in values if name in exported)

    def test_metrics_schema_and_fsm_aggregation(self, running_service):
        metrics = running_service.metrics()
        assert metrics["format"] == 1
        assert set(metrics["jobs"]["by_state"]) == set(JOB_STATES)
        assert metrics["jobs"]["submitted"] == len(running_service.jobs())
        assert metrics["queue"]["limit"] == running_service.queue_limit
        assert metrics["cache"]["writes"] >= 1
        # The cosim jobs above ran fused and interpreted FSMs; their
        # per-job counters must have rolled up into the service totals.
        assert "compile_hits" not in metrics["fsm"]
        assert metrics["fsm"]["interpreted"] > 0
        assert metrics["fsm"]["system_compile_hits"] > 0
        assert metrics["fsm"]["steps"] > 0
        assert "fallback" not in metrics["fsm"]
        assert "system_fallback" not in metrics["fsm"]
        # ... and built library units in the workers, which report them.
        library = metrics["library"]
        assert set(library) == {"hits", "misses", "size"}
        assert library["misses"] >= 1
        assert 1 <= library["size"] <= library["misses"]


class TestQueueShape:
    """Deterministic queue behaviour: the service is never started."""

    def test_queue_full_raises_and_keeps_fifo_order(self):
        service = JobService(workers=1, queue_limit=2)
        (first,) = service.submit_body({"kind": "kernel", "size": "tiny",
                                        "seed": 0})
        (second,) = service.submit_body({"kind": "kernel", "size": "tiny",
                                         "seed": 1})
        with pytest.raises(QueueFullError):
            service.submit_body({"kind": "kernel", "size": "tiny",
                                 "seed": 2})
        assert [r.id for r in service.jobs()] == [first.id, second.id]
        assert service.metrics()["queue"]["depth"] == 2

    def test_batch_is_all_or_nothing(self):
        service = JobService(workers=1, queue_limit=2)
        service.submit_body({"kind": "kernel", "size": "tiny", "seed": 0})
        with pytest.raises(QueueFullError):
            service.submit_body([
                {"kind": "kernel", "size": "tiny", "seed": 1},
                {"kind": "kernel", "size": "tiny", "seed": 2},
            ])
        # The rejected batch left nothing behind — not even its first job.
        assert len(service.jobs()) == 1
        assert service.metrics()["queue"]["depth"] == 1

    def test_a_list_parses_each_spec_once(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return job_from_dict(spec)

        monkeypatch.setattr(server_service, "job_from_dict", counting)
        service = JobService(workers=1, queue_limit=8)
        specs = [{"kind": "kernel", "size": "tiny", "seed": seed}
                 for seed in range(5)]
        records = service.submit_body(specs)
        assert calls == specs
        assert [record.job.spec()["seed"] for record in records] \
            == list(range(5))
        calls.clear()
        with pytest.raises(ValueError, match="unknown job kind"):
            service.submit_body([*specs, {"kind": "bogus"}])
        assert len(calls) == 6
        assert len(service.jobs()) == 5

    def test_invalid_spec_rejects_whole_batch_before_queueing(self):
        service = JobService(workers=1)
        with pytest.raises(ValueError, match="unknown job kind"):
            service.submit_body([
                {"kind": "kernel", "size": "tiny", "seed": 0},
                {"kind": "bogus"},
            ])
        assert service.jobs() == []

    def test_unknown_tier_rejects_whole_batch_before_queueing(self):
        service = JobService(workers=1)
        with pytest.raises(ValueError, match="unknown tier 'bogus'"):
            service.submit_body([
                {"kind": "cosim", "seed": 0},
                {"kind": "cosim", "seed": 1, "tier": "bogus"},
            ])
        assert service.jobs() == []

    @pytest.mark.parametrize("scenario", _MALFORMED_SCENARIOS)
    def test_malformed_conformance_scenario_is_refused_when_built(
            self, scenario):
        spec = {"kind": "conformance", "scenario": scenario}
        with pytest.raises(ValueError, match=f"scenario.*'{scenario}'"):
            job_from_dict(spec)
        service = JobService(workers=1)
        with pytest.raises(ValueError):
            service.submit_body(spec)
        assert service.jobs() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            JobService(workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            JobService(queue_limit=0)


class TestHttpServer:
    """One end-to-end pass over a real socket."""

    @pytest.fixture()
    def endpoint(self, tmp_path):
        service = JobService(workers=1, queue_limit=4,
                             cache=str(tmp_path / "cache")).start()
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        service.stop()

    @staticmethod
    def _call(base, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(base + path, data=data,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_submit_poll_and_metrics_over_http(self, endpoint):
        status, reply = self._call(endpoint, "POST", "/jobs",
                                   {"kind": "kernel", "size": "tiny",
                                    "seed": 21})
        assert status == 202 and reply["accepted"] == 1
        job_id = reply["jobs"][0]["id"]

        deadline = time.monotonic() + 90
        while True:
            status, job = self._call(endpoint, "GET", f"/jobs/{job_id}")
            assert status == 200
            if job["state"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, f"job stuck: {job}"
            time.sleep(0.05)
        assert job["state"] == "done", job["error"]
        assert job["record"]["fingerprint_digest"]
        assert job["spec"] == {"kind": "kernel", "size": "tiny",
                               "seed": 21, "kernel": "production"}

        status, listing = self._call(endpoint, "GET", "/jobs")
        assert status == 200
        assert [item["id"] for item in listing["jobs"]] == [job_id]

        status, metrics = self._call(endpoint, "GET", "/metrics")
        assert status == 200
        assert metrics["jobs"]["by_state"]["done"] == 1

    def test_prometheus_routes_over_http(self, endpoint):
        for path in ("/metrics/prometheus", "/metrics?format=prometheus"):
            request = urllib.request.Request(endpoint + path)
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                samples = parse_prometheus(response.read().decode())
            assert any(name == "repro_server_uptime_seconds"
                       for name, _, _ in samples)

    def test_concurrent_metrics_reads_while_jobs_execute(self, endpoint):
        """Schema stability under load: /metrics (JSON and Prometheus)
        must stay well-formed while executors mutate the job table."""
        status, reply = self._call(endpoint, "POST", "/jobs", [
            {"kind": "kernel", "size": "tiny", "seed": 30 + offset}
            for offset in range(4)
        ])
        assert status == 202 and reply["accepted"] == 4

        errors = []
        expected_keys = {"format", "queue", "jobs", "cache", "fsm",
                         "library", "pool_replacements", "started_at",
                         "uptime_s"}

        def hammer():
            try:
                for _ in range(20):
                    status, metrics = self._call(endpoint, "GET", "/metrics")
                    assert status == 200
                    assert set(metrics) == expected_keys
                    assert sum(metrics["jobs"]["by_state"].values()) \
                        == metrics["jobs"]["submitted"]
                    request = urllib.request.Request(
                        endpoint + "/metrics/prometheus")
                    with urllib.request.urlopen(request,
                                                timeout=30) as response:
                        parse_prometheus(response.read().decode())
            except Exception as exc:  # surfaced below, with context
                errors.append(exc)

        readers = [threading.Thread(target=hammer) for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=120)
        assert not errors, errors

        deadline = time.monotonic() + 90
        while True:
            status, listing = self._call(endpoint, "GET", "/jobs")
            if all(job["state"] in ("done", "failed")
                   for job in listing["jobs"]):
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert all(job["state"] == "done" for job in listing["jobs"])

    def test_telemetry_enabled_exposition_includes_request_latency(
            self, endpoint):
        TELEMETRY.enable()
        try:
            self._call(endpoint, "GET", "/jobs")
            # The handler observes its latency after the response body is
            # written, so a scrape sent straight away can precede it.
            deadline = time.monotonic() + 30
            while True:
                request = urllib.request.Request(
                    endpoint + "/metrics/prometheus")
                with urllib.request.urlopen(request, timeout=30) as response:
                    samples = parse_prometheus(response.read().decode())
                routes = {labels.get("route") for name, labels, _ in samples
                          if name == "repro_server_request_seconds_count"}
                if "/jobs" in routes or time.monotonic() >= deadline:
                    break
                time.sleep(0.05)
            assert "/jobs" in routes
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

    def test_http_refuses_an_unknown_tier(self, endpoint):
        status, reply = self._call(endpoint, "POST", "/jobs",
                                   {"kind": "conformance",
                                    "scenario": "system-0",
                                    "tier": "per-fsm"})
        assert status == 400 and "unknown tier 'per-fsm'" in reply["error"]
        status, reply = self._call(endpoint, "GET", "/jobs")
        assert status == 200 and not reply["jobs"]

    def test_http_refuses_a_malformed_conformance_scenario(self, endpoint):
        for scenario in _MALFORMED_SCENARIOS:
            status, reply = self._call(endpoint, "POST", "/jobs",
                                       {"kind": "conformance",
                                        "scenario": scenario})
            assert status == 400 and scenario in reply["error"]
        status, reply = self._call(endpoint, "GET", "/jobs")
        assert status == 200 and not reply["jobs"]

    def test_http_list_with_one_bad_entry_is_refused_whole(self, endpoint):
        status, reply = self._call(endpoint, "POST", "/jobs", [
            {"kind": "kernel", "size": "tiny", "seed": 0},
            {"kind": "kernel", "size": "tiny", "seed": 1},
            {"kind": "bogus"},
        ])
        assert status == 400 and "unknown job kind" in reply["error"]
        status, reply = self._call(endpoint, "GET", "/jobs")
        assert status == 200 and not reply["jobs"]

    def test_http_refuses_the_retired_compiled_tier(self, endpoint):
        for spec in ({"kind": "cosim", "seed": 0, "tier": "compiled"},
                     {"kind": "conformance", "scenario": "system-0",
                      "tier": "compiled"}):
            status, reply = self._call(endpoint, "POST", "/jobs", spec)
            assert status == 400
            assert "unknown tier 'compiled'" in reply["error"]
        status, reply = self._call(endpoint, "GET", "/jobs")
        assert status == 200 and not reply["jobs"]

    @pytest.mark.parametrize("retired", [
        {"batch": 3},
        {"fault_kind": "stuck_handshake", "fault_at_offset": 500},
    ], ids=["batch", "fault_at_offset"])
    def test_http_refuses_retired_cosim_arguments(self, endpoint, retired):
        (argument,) = set(retired) - {"fault_kind"}
        status, reply = self._call(endpoint, "POST", "/jobs",
                                   {"kind": "cosim", "seed": 0, **retired})
        assert status == 400
        assert f"unexpected keyword argument '{argument}'" in reply["error"]
        status, reply = self._call(endpoint, "GET", "/jobs")
        assert status == 200 and not reply["jobs"]

    # The retired re-sweep scheduler route is unknown, not ignored, and a
    # read-only route refuses a POST.
    @pytest.mark.parametrize("method, path", [
        ("POST", "/tick"), ("GET", "/tick"), ("POST", "/metrics"),
    ])
    def test_http_unknown_route_is_404(self, endpoint, method, path):
        body = {} if method == "POST" else None
        status, reply = self._call(endpoint, method, path, body)
        assert status == 404
        assert reply["error"] == f"unknown route: {method} {path}"

    def test_negative_content_length_is_answered_400(self, endpoint):
        # read(-1) would read to EOF: no reply while the client waits.
        host, port = endpoint[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: -1\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_answered_413_unread(self, endpoint):
        # Only the headers are sent: a server that reads the declared
        # 2 MiB would wait for them past the socket timeout.
        host, port = endpoint[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: %d\r\n\r\n" % (2 << 20))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"413"
        assert "Content-Length 2097152" in json.loads(body)["error"]

    def test_http_error_statuses(self, endpoint):
        status, reply = self._call(endpoint, "POST", "/jobs",
                                   {"kind": "bogus"})
        assert status == 400 and "unknown job kind" in reply["error"]
        status, reply = self._call(endpoint, "POST", "/jobs", [])
        assert status == 400
        status, reply = self._call(endpoint, "GET", "/nope")
        assert status == 404
        status, reply = self._call(endpoint, "GET", "/jobs/job-000099")
        assert status == 404
        status, reply = self._call(endpoint, "GET",
                                   "/jobs/job-000099/artifacts")
        assert status == 404


class TestOneJobStep:
    """The server looks up, runs, stores and counts through the sweep's step."""

    SPEC = {"kind": "cosyn", "seed": 2, "networks": 1}

    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        TELEMETRY.disable()
        TELEMETRY.reset()
        yield
        TELEMETRY.disable()
        TELEMETRY.reset()

    @staticmethod
    def _outcomes():
        return {(labels["kind"], labels["outcome"]): value
                for name, labels, value
                in parse_prometheus(TELEMETRY.metrics.to_prometheus())
                if name == "repro_sweep_jobs_total"}

    def test_server_and_sweep_give_equal_records(self, tmp_path):
        cache = ArtifactCache(tmp_path / "sweep")
        swept = [SweepService([job_from_dict(self.SPEC)],
                              cache=cache).run().records[0]
                 for _ in range(2)]
        service = JobService(workers=1,
                             cache=str(tmp_path / "server")).start()
        try:
            (fresh,) = service.submit_body(self.SPEC)
            _wait_done(service, [fresh])
            (served,) = service.submit_body(self.SPEC)
        finally:
            service.stop()
        assert [swept[0]["cached"], swept[1]["cached"]] == [False, True]
        assert [fresh.record, served.record] == swept

    def test_server_jobs_count_in_the_sweep_family(self, tmp_path):
        TELEMETRY.enable()
        service = JobService(workers=1, cache=str(tmp_path)).start()
        try:
            (fresh,) = service.submit_body(self.SPEC)
            _wait_done(service, [fresh])
            (served,) = service.submit_body(self.SPEC)
            (failed,) = service.submit_body(
                {"kind": "cosyn", "seed": 0, "platform": "nope"})
            _wait_done(service, [failed])
        finally:
            service.stop()
        assert served.cached and failed.state == "failed"
        assert self._outcomes() == {("cosyn", "ok"): 1,
                                    ("cosyn", "cached"): 1,
                                    ("cosyn", "error"): 1}
        assert len(TELEMETRY.tracer.spans(name="sweep.job")) == 2
        samples = {name: value for name, _, value in parse_prometheus(
            service.prometheus_metrics())}
        assert samples["repro_sweep_queue_wait_seconds_count"] == 2
        assert not any(name.startswith("repro_server_jobs_total")
                       for name in samples)

    def test_a_refused_batch_counts_nothing(self, tmp_path):
        TELEMETRY.enable()
        cache = ArtifactCache(tmp_path)
        SweepService([job_from_dict(self.SPEC)], cache=cache).run()
        before = self._outcomes()
        service = JobService(workers=1, queue_limit=1, cache=cache)
        with pytest.raises(QueueFullError):
            service.submit_body([
                self.SPEC,  # a cache hit, dropped with the batch
                {"kind": "kernel", "size": "tiny", "seed": 0},
                {"kind": "kernel", "size": "tiny", "seed": 1},
            ])
        assert service.jobs() == []
        assert before == {("cosyn", "ok"): 1}
        assert self._outcomes() == before
