"""The HTTP surface: scrape, health, and the live operations routes.

A :class:`TelemetryServer` wraps ``http.server.ThreadingHTTPServer``
on a daemon thread -- no third-party dependency, no event loop to
integrate with the engine's own threads.  Routes:

* ``/metrics`` -- Prometheus text exposition (the scrape target);
* ``/metrics.json`` -- JSON snapshot of every instrument;
* ``/traces`` -- the retained per-window phase traces as JSON;
* ``/healthz`` -- 200 with the probe report when every probe passes,
  503 otherwise (orchestrator-friendly);
* ``/export/<name>`` -- any exporter registered via
  :func:`repro.api.register_exporter`;
* ``POST /ingest`` and ``GET /api/...`` -- when an
  :class:`~repro.obs.service.OperationsService` is attached to the
  telemetry facade, the remote-write ingest endpoint and the
  analysis query API (windows, clusters, drift, RCA, scaling,
  events).

HTTP hygiene: every route answers HEAD (headers + Content-Length, no
body), every Content-Type carries ``charset=utf-8``, and a known
route hit with the wrong method answers 405 with an ``Allow`` header
rather than a misleading 404.

``port=0`` binds an ephemeral port (``server.port`` reports the real
one) -- tests and parallel CI jobs never fight over a number.  Scrape
and query handlers only read telemetry/view state; ingest mutates the
engine strictly through the service's lock.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qsl

from repro.obs.exposition import (
    JSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

#: Telemetry routes and the methods they allow (GET implies HEAD).
_BASE_ROUTES: dict[str, tuple[str, ...]] = {
    "/": ("GET",),
    "/metrics": ("GET",),
    "/metrics.json": ("GET",),
    "/traces": ("GET",),
    "/healthz": ("GET",),
}

#: Largest request body the handler will read (maps to HTTP 413).
_MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning server's telemetry."""

    server_version = "repro-telemetry/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    """Headers and body go out as separate writes; without
    TCP_NODELAY that pattern hits the Nagle/delayed-ACK stall
    (~40ms per request) on every keep-alive ingest connection."""

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging (scrapes are periodic)."""

    def _respond(self, status: int, content_type: str, body: str,
                 extra_headers: dict[str, str] | None = None) -> None:
        if "charset=" not in content_type:
            content_type = f"{content_type}; charset=utf-8"
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def _respond_json(self, status: int, payload: object,
                      extra_headers: dict[str, str] | None = None,
                      ) -> None:
        self._respond(status, JSON_CONTENT_TYPE,
                      json.dumps(payload, sort_keys=True),
                      extra_headers)

    def _allowed_methods(self, path: str,
                         service) -> tuple[str, ...] | None:
        """Methods a known route accepts, or None for an unknown path."""
        if path in _BASE_ROUTES:
            return _BASE_ROUTES[path]
        if path.startswith("/export/"):
            return ("GET",)
        if service is not None:
            from repro.obs.service import QUERY_ROUTES

            if path == "/ingest":
                return ("POST",)
            if path in QUERY_ROUTES:
                return ("GET",)
        return None

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        # One capture per request: attach_service(None) may run
        # concurrently, and routing + handling must see the same
        # service (or the same absence of one), never an
        # AttributeError halfway through.
        telemetry = self.server.telemetry  # type: ignore[attr-defined]
        service = telemetry.service
        try:
            allowed = self._allowed_methods(path, service)
            if allowed is None:
                self._not_found(path, service)
            elif method not in allowed:
                self._respond_json(
                    405, {"error": f"{method} not allowed on {path}",
                          "allow": list(allowed)},
                    {"Allow": ", ".join(allowed)},
                )
            elif method == "POST":
                self._handle_ingest(service)
            else:
                self._handle_get(path, service)
        except BrokenPipeError:  # client went away mid-response
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        # HEAD runs the GET handler; _respond suppresses the body but
        # keeps the Content-Length a GET would have carried.
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _not_found(self, path: str, service) -> None:
        routes = ["/metrics", "/metrics.json", "/traces", "/healthz",
                  "/export/<name>"]
        if service is not None:
            from repro.obs.service import QUERY_ROUTES

            routes.extend(["/ingest", *QUERY_ROUTES])
        self._respond_json(404, {"error": f"no route {path!r}",
                                 "routes": routes})

    def _handle_get(self, path: str, service) -> None:
        telemetry = self.server.telemetry  # type: ignore[attr-defined]
        if path in ("/", "/metrics"):
            self._respond(200, PROMETHEUS_CONTENT_TYPE,
                          render_prometheus(telemetry.registry))
        elif path == "/metrics.json":
            self._respond(200, JSON_CONTENT_TYPE, json.dumps(
                snapshot(telemetry.registry), sort_keys=True))
        elif path == "/traces":
            self._respond(200, JSON_CONTENT_TYPE, json.dumps(
                telemetry.tracer.as_dicts()))
        elif path == "/healthz":
            healthy, report = telemetry.health.check()
            self._respond_json(
                200 if healthy else 503,
                {"healthy": healthy, "probes": report},
            )
        elif path.startswith("/export/"):
            name = path[len("/export/"):]
            exporter = telemetry.exporter(name)
            if exporter is None:
                self._respond_json(
                    404, {"error": f"unknown exporter {name!r}"})
            else:
                self._respond(200, exporter.content_type,
                              exporter.render(telemetry))
        else:  # an /api/... query route
            query = self.path.split("?", 1)
            params = dict(parse_qsl(query[1])) if len(query) > 1 else {}
            status, payload = service.handle_query(path, params)
            self._respond_json(status, payload)

    def _handle_ingest(self, service) -> None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._respond_json(
                400, {"error": "invalid Content-Length header"})
            return
        if length > _MAX_BODY_BYTES:
            self._respond_json(
                413, {"error": f"body exceeds {_MAX_BODY_BYTES} bytes"})
            return
        body = self.rfile.read(length)
        if len(body) != length:
            self._respond_json(
                400, {"error": "truncated request body"})
            return
        status, payload, extra = service.handle_ingest(
            self.headers.get("Content-Type", ""),
            body,
            source=self.headers.get("X-Repro-Source", ""),
            seq_header=self.headers.get("X-Repro-Seq"),
            time_unit=self.headers.get("X-Repro-Time-Unit"),
        )
        self._respond_json(status, payload, extra)


class TelemetryServer:
    """Background HTTP exposition of one :class:`Telemetry` instance."""

    def __init__(self, telemetry: "Telemetry", port: int = 0,
                 host: str = "127.0.0.1"):
        self.telemetry = telemetry
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = telemetry  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral ``port=0`` request)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-telemetry-:{self.port}", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
