"""Thin JSON/HTTP shim over :class:`repro.server.service.JobService`.

Standard library only: ``http.server.ThreadingHTTPServer`` dispatches
each request on its own thread to a handler that translates routes into
``JobService`` calls and library errors into status codes:

====== ========================== ===========================================
Method Route                      Meaning
====== ========================== ===========================================
GET    ``/metrics``               service counters (queue, states, cache, fsm)
GET    ``/metrics/prometheus``    the same counters, Prometheus text format
                                  (also ``/metrics?format=prometheus``); when
                                  telemetry is on, the process registry too
GET    ``/jobs``                  summaries of every submitted job
GET    ``/jobs/<id>``             full record of one job (spec, state, record)
GET    ``/jobs/<id>/artifacts``   cached payload of a cacheable job
POST   ``/jobs``                  submit one spec or a list → 202 Accepted
====== ========================== ===========================================

Errors: malformed JSON or an invalid spec is 400, an unknown route or job
id is 404, a body longer than :data:`MAX_BODY_BYTES` is 413, a full queue
is 503 (back-pressure — retry after the backlog drains).  Every response
body is a JSON object.
"""

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import TELEMETRY
from repro.server.service import QueueFullError

#: Largest ``POST /jobs`` body read (a full 64-job batch is about 15 KB).
MAX_BODY_BYTES = 1 << 20


class BodyTooLargeError(ValueError):
    """The declared ``Content-Length`` exceeds :data:`MAX_BODY_BYTES`."""


def _route_template(method, path):
    """Collapse a request path to its route template for metric labels.

    Job ids must not explode the label space, so ``/jobs/job-000123``
    becomes ``/jobs/{id}``; anything unrecognised is pooled under
    ``other`` rather than minting a label per probe path.
    """
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path in ("/metrics", "/metrics/prometheus", "/jobs"):
        return path
    if path.startswith("/jobs/"):
        parts = path[len("/jobs/"):].split("/")
        if len(parts) == 1:
            return "/jobs/{id}"
        if len(parts) == 2 and parts[1] == "artifacts":
            return "/jobs/{id}/artifacts"
    return "other"


class JobRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP requests to the :class:`JobService` in ``server.service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-server/1"

    # ------------------------------------------------------------- responses

    def _send_body(self, status, body, content_type):
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_text(self, status, text):
        self._send_body(status, text.encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8")

    def _error(self, status, message):
        self._send_json(status, {"error": message})

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # read(-1) would read to EOF; the body has no known extent, so
            # answer and drop the connection.
            self.close_connection = True
            raise ValueError(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body would follow
            raise BodyTooLargeError(
                f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected JSON)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")

    # ----------------------------------------------------------------- routes

    def _observed(self, method, handler):
        """Run *handler*, timing it into the per-route request histogram."""
        if not TELEMETRY.enabled:
            handler()
            return
        self._status = 0
        start = time.perf_counter()
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - start
            TELEMETRY.metrics.histogram(
                "repro_server_request_seconds",
                labels={"route": _route_template(method, self.path),
                        "method": method},
                help="HTTP request handling latency by route.",
            ).observe(elapsed)
            TELEMETRY.metrics.counter(
                "repro_server_responses_total",
                labels={"status": str(self._status)},
                help="HTTP responses by status code.",
            ).inc()

    def do_GET(self):
        self._observed("GET", self._handle_get)

    def do_POST(self):
        self._observed("POST", self._handle_post)

    def _handle_get(self):
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            if ("format=prometheus" in (self.path.split("?", 1) + [""])[1]):
                self._send_text(200, service.prometheus_metrics())
            else:
                self._send_json(200, service.metrics())
            return
        if path == "/metrics/prometheus":
            self._send_text(200, service.prometheus_metrics())
            return
        if path == "/jobs":
            self._send_json(200, {
                "jobs": [record.summary() for record in service.jobs()],
            })
            return
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            record = service.get(parts[0])
            if record is None:
                self._error(404, f"no such job: {parts[0]}")
                return
            if len(parts) == 1:
                self._send_json(200, record.as_dict())
                return
            if len(parts) == 2 and parts[1] == "artifacts":
                payload = service.artifact(record.id)
                if payload is None:
                    self._error(404, f"no cached artifact for {record.id} "
                                     "(job not cacheable, or not finished)")
                    return
                self._send_json(200, {"id": record.id,
                                      "cache_key": record.cache_key,
                                      "payload": payload})
                return
        self._error(404, f"unknown route: GET {self.path}")

    def _handle_post(self):
        service = self.server.service
        path = self.path.rstrip("/")
        if path == "/jobs":
            try:
                body = self._read_body()
                records = service.submit_body(body)
            except BodyTooLargeError as exc:
                self._error(413, str(exc))
                return
            except ValueError as exc:
                self._error(400, str(exc))
                return
            except QueueFullError as exc:
                self._error(503, str(exc))
                return
            self._send_json(202, {
                "accepted": len(records),
                "jobs": [record.summary() for record in records],
            })
            return
        self._error(404, f"unknown route: POST {self.path}")

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)


def create_server(service, host="127.0.0.1", port=0, verbose=False):
    """Bind a :class:`ThreadingHTTPServer` serving *service*.

    ``port=0`` picks an ephemeral port; read it back from
    ``server.server_address[1]``.  The caller owns both lifecycles:
    ``service.start()`` before serving, ``server.shutdown()`` +
    ``service.stop()`` to wind down.
    """
    server = ThreadingHTTPServer((host, port), JobRequestHandler)
    server.daemon_threads = True
    server.service = service
    server.verbose = verbose
    return server
