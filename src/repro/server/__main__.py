"""CLI for the job service: serve forever, or run the end-to-end selfcheck.

Serving::

    python -m repro.server --port 8080 --workers 2 \\
        --cache-dir /tmp/repro-cache

``--selfcheck`` boots the full stack — service, worker pool, HTTP server
on an ephemeral port — and exercises it with real ``urllib`` clients:
concurrent submissions of every job kind, polling to completion, the
artifact route, a warm cacheable resubmission (must be served from the
cache), the ``/metrics`` counters in JSON and Prometheus form (the workers'
communication-unit library among them) and the error statuses (400/404 paths via a
malformed spec, a negative ``Content-Length`` and an unknown route).
Exit code 0 means the service held up end to end; this is what
``make server-smoke`` runs.
"""

import argparse
import json
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

from repro.obs.metrics import parse_prometheus
from repro.server.http import create_server
from repro.server.service import JobService

#: Wall-clock budget for the selfcheck's completion polls.
_SELFCHECK_TIMEOUT = 120


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Long-lived co-design job service over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=2,
                        help="executor threads / worker processes")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="bounded FIFO capacity (full queue -> 503)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache root (omit to disable caching)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each HTTP request to stderr")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the end-to-end service check and exit")
    return parser


def serve(args):
    service = JobService(workers=args.workers, queue_limit=args.queue_limit,
                         cache=args.cache_dir)
    service.start()
    server = create_server(service, host=args.host, port=args.port,
                           verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro.server listening on http://{host}:{port} "
          f"({args.workers} workers, queue limit {args.queue_limit}, "
          f"cache {'on' if service.cache else 'off'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


# ------------------------------------------------------------------ selfcheck

class _Client:
    """Tiny urllib JSON client against one base URL."""

    def __init__(self, base):
        self.base = base

    def request(self, method, path, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get(self, path):
        return self.request("GET", path)

    def get_text(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return response.status, response.read().decode("utf-8")

    def post(self, path, body):
        return self.request("POST", path, body)


def _check(condition, message):
    if not condition:
        raise AssertionError(message)


def _wait_done(client, job_ids, timeout=_SELFCHECK_TIMEOUT):
    """Poll until every id is done; a failed job fails the check."""
    deadline = time.monotonic() + timeout
    pending = set(job_ids)
    while pending:
        _check(time.monotonic() < deadline,
               f"jobs {sorted(pending)} did not finish within {timeout}s")
        for job_id in sorted(pending):
            status, job = client.get(f"/jobs/{job_id}")
            _check(status == 200, f"GET /jobs/{job_id} -> {status}")
            if job["state"] == "failed":
                raise AssertionError(
                    f"{job_id} ({job['name']}) failed: {job['error']}")
            if job["state"] == "done":
                pending.discard(job_id)
        if pending:
            time.sleep(0.1)


def selfcheck(args):
    checks = 0

    def note(label):
        nonlocal checks
        checks += 1
        print(f"  [{checks:2d}] {label}")

    cosyn_spec = {"kind": "cosyn", "seed": 1, "networks": 1,
                  "platform": "pc_at_fpga"}
    with tempfile.TemporaryDirectory(prefix="repro-server-") as cache_dir:
        service = JobService(workers=args.workers,
                             queue_limit=args.queue_limit,
                             cache=cache_dir).start()
        server = create_server(service, port=0, verbose=args.verbose)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = _Client(f"http://{host}:{port}")
        print(f"selfcheck against http://{host}:{port} "
              f"({args.workers} workers)")
        try:
            # Concurrent clients: one submission per thread, mixing single
            # specs and a batch, covering every job kind.
            bodies = [
                {"kind": "kernel", "size": "small", "seed": 3},
                [{"kind": "cosim", "seed": 2, "networks": 1},
                 {"kind": "conformance", "scenario": "kernel-tiny-1"}],
                cosyn_spec,
                {"kind": "dse", "seed": 0, "networks": 1,
                 "mode": "exhaustive", "platforms": ["pc_at_fpga"]},
            ]
            responses = [None] * len(bodies)

            def submit(index):
                responses[index] = client.post("/jobs", bodies[index])

            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(len(bodies))]
            for item in threads:
                item.start()
            for item in threads:
                item.join()
            job_ids = []
            for status, reply in responses:
                _check(status == 202, f"POST /jobs -> {status}: {reply}")
                job_ids.extend(job["id"] for job in reply["jobs"])
            _check(len(job_ids) == 5, f"expected 5 jobs, got {job_ids}")
            note(f"{len(bodies)} concurrent clients accepted "
                 f"({len(job_ids)} jobs)")

            _wait_done(client, job_ids)
            note("all jobs reached done")

            status, listing = client.get("/jobs")
            _check(status == 200 and len(listing["jobs"]) == 5,
                   f"GET /jobs -> {status}, {listing}")
            note("GET /jobs lists every submission")

            # The cacheable co-synthesis artifact is servable...
            cosyn_id = next(
                job["id"] for job in listing["jobs"]
                if job["kind"] == "cosyn")
            status, artifact = client.get(f"/jobs/{cosyn_id}/artifacts")
            _check(status == 200 and artifact["payload"]["ok"] is True,
                   f"artifacts -> {status}: {artifact.get('error')}")
            note("GET /jobs/<id>/artifacts serves the cosyn payload")

            # ...and a warm resubmission is answered from the cache without
            # queueing (state done immediately, cached flag set).
            status, reply = client.post("/jobs", cosyn_spec)
            warm = reply["jobs"][0]
            _check(status == 202 and warm["cached"] and
                   warm["state"] == "done",
                   f"warm resubmit not cache-served: {reply}")
            note("warm cosyn resubmission served from cache (no re-run)")

            status, metrics = client.get("/metrics")
            _check(status == 200, f"GET /metrics -> {status}")
            for key in ("queue", "jobs", "cache", "fsm", "library",
                        "pool_replacements", "uptime_s"):
                _check(key in metrics, f"/metrics missing {key!r}")
            _check(metrics["jobs"]["by_state"]["done"] == 6,
                   f"expected 6 done jobs: {metrics['jobs']}")
            _check(metrics["jobs"]["cache_served"] == 1,
                   f"expected 1 cache-served job: {metrics['jobs']}")
            _check(metrics["cache"]["hits"] >= 1,
                   f"expected a cache hit: {metrics['cache']}")
            _check(metrics["fsm"]["interpreted"] > 0,
                   f"expected interpreted steps: {metrics['fsm']}")
            _check(metrics["fsm"]["system_compile_hits"] > 0,
                   f"expected fused-tier activity: {metrics['fsm']}")
            library = metrics["library"]
            _check(library["misses"] >= 1 and library["hits"] >= 0,
                   f"expected unit-library builds: {library}")
            _check(1 <= library["size"] <= library["misses"],
                   f"unit-library size out of range: {library}")
            note("GET /metrics reports queue/cache/fsm/library counters")

            status, text = client.get_text("/metrics/prometheus")
            _check(status == 200, f"GET /metrics/prometheus -> {status}")
            samples = {name: value
                       for name, labels, value in parse_prometheus(text)
                       if not labels}
            for key in ("hits", "misses", "size"):
                name = ("repro_server_library_size" if key == "size"
                        else f"repro_server_library_{key}_total")
                _check(samples.get(name) == library[key],
                       f"{name} = {samples.get(name)}, JSON {library}")
            note("GET /metrics/prometheus exports the library counters")

            status, reply = client.post("/jobs", {"kind": "nonsense"})
            _check(status == 400, f"bad spec should 400, got {status}")
            try:
                with socket.create_connection((host, port), timeout=10) as raw:
                    raw.sendall(b"POST /jobs HTTP/1.1\r\nHost: selfcheck\r\n"
                                b"Content-Length: -1\r\n\r\n")
                    head = raw.recv(64)
            except TimeoutError:
                head = b"no reply within 10 s"
            _check(head.startswith(b"HTTP/1.1 400 "),
                   f"negative Content-Length should 400: {head!r}")
            status, reply = client.get("/nope")
            _check(status == 404, f"unknown route should 404, got {status}")
            status, reply = client.get("/jobs/job-999999")
            _check(status == 404, f"unknown job should 404, got {status}")
            note("error statuses: 400 bad spec/length, 404 unknown route/job")
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
    print(f"selfcheck OK ({checks} checks)")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.selfcheck:
            return selfcheck(args)
        return serve(args)
    except AssertionError as error:
        print(f"selfcheck FAILED: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
