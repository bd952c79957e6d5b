"""The per-engine telemetry facade: registry + tracer + health + export.

One :class:`Telemetry` object travels with one engine (and its
journal and checkpoint policy).  It is deliberately *not* a process
singleton: tests and multi-engine processes get independent instrument
tables and span histories, and a disabled instance
(:meth:`Telemetry.disabled`) still carries a real
:class:`~repro.obs.spans.SpanTracer` so timing handles the analyzer
depends on keep working.

The facade owns no policy about *what* to measure -- call sites create
their instruments through ``telemetry.registry`` -- but it fixes the
cross-cutting decisions: enablement, span history depth, which
exporters are reachable, and the health model the server exposes.
Telemetry never reads or writes analysis state; every method here is
safe to call from a scrape thread while the engine runs.
"""

from __future__ import annotations

from repro.obs.exposition import (
    JsonExporter,
    PrometheusExporter,
    render_prometheus,
    snapshot,
)
from repro.obs.health import HealthModel
from repro.obs.metrics import TelemetryRegistry
from repro.obs.spans import SpanTracer


class Telemetry:
    """Everything one engine exposes about itself."""

    def __init__(self, enabled: bool = True, span_history: int = 64,
                 exporters: tuple[str, ...] = ()):
        self.enabled = enabled
        self.registry = TelemetryRegistry(enabled=enabled)
        self.health = HealthModel()
        observe = None
        if enabled:
            phase_hist = self.registry.histogram(
                "repro_window_phase_seconds",
                "Per-window engine time by phase",
                labelnames=("phase",),
            )

            def observe(phase: str, seconds: float,
                        _hist=phase_hist) -> None:
                _hist.observe(seconds, phase=phase)

        self.tracer = SpanTracer(history=span_history, enabled=enabled,
                                 observe=observe)
        self._exporters: dict[str, object] = {}
        self._requested_exporters = tuple(exporters)
        self._server = None
        self.service = None
        """The attached :class:`~repro.obs.service.OperationsService`,
        or None -- the server only routes ``/ingest`` and ``/api/...``
        while one is attached."""

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fresh no-op instance (instruments are nulls, tracer times
        but retains nothing)."""
        return cls(enabled=False)

    @classmethod
    def from_spec(cls, spec) -> "Telemetry":
        """Build from a :class:`repro.api.TelemetrySpec`-shaped object.

        Duck-typed (``enabled`` / ``port`` / ``span_history`` /
        ``exporters`` attributes) so this package never imports the
        API layer.  A spec that only sets ``port`` still enables
        collection -- serving dead metrics would be worse than either
        extreme.
        """
        enabled = bool(getattr(spec, "enabled", False)
                       or getattr(spec, "port", 0) > 0)
        if not enabled:
            return cls.disabled()
        return cls(enabled=True,
                   span_history=getattr(spec, "span_history", 64),
                   exporters=tuple(getattr(spec, "exporters", ())))

    # -- exporters -------------------------------------------------------

    def exporter(self, name: str):
        """Resolve an exporter by name (None when unknown).

        ``prometheus`` and ``json`` are built in; anything else is
        created on first use from the :data:`repro.api.EXPORTERS`
        registry, so third-party formats registered through
        :func:`repro.api.register_exporter` are served without this
        package depending on the API layer at import time.
        """
        exporter = self._exporters.get(name)
        if exporter is not None:
            return exporter
        if name == "prometheus":
            exporter = PrometheusExporter()
        elif name == "json":
            exporter = JsonExporter()
        else:
            try:
                from repro.api.registry import EXPORTERS
            except ImportError:  # pragma: no cover - api always ships
                return None
            if name not in EXPORTERS:
                return None
            exporter = EXPORTERS.create(name)
        self._exporters[name] = exporter
        return exporter

    def exporter_names(self) -> list[str]:
        """The formats this instance was asked to serve (builtins
        first, then the spec's extras in order)."""
        names = ["prometheus", "json"]
        for name in self._requested_exporters:
            if name not in names:
                names.append(name)
        return names

    # -- serving ---------------------------------------------------------

    def attach_service(self, service) -> None:
        """Expose an operations service on this facade's server.

        Attaching enables the ``/ingest`` and ``/api/...`` routes on
        the (current or future) :class:`TelemetryServer`; detaching
        (``attach_service(None)``) turns them back into 404s.
        """
        self.service = service

    def serve(self, port: int = 0, host: str = "127.0.0.1"):
        """Start (or return) the HTTP exposition server.

        Idempotent per instance; returns the running
        :class:`~repro.obs.server.TelemetryServer` whose ``port``
        resolves an ephemeral bind.
        """
        if self._server is None:
            from repro.obs.server import TelemetryServer

            self._server = TelemetryServer(self, port=port,
                                           host=host).start()
        return self._server

    @property
    def server(self):
        """The running server, or None when not serving."""
        return self._server

    def close(self) -> None:
        """Stop the exposition server, if any (idempotent)."""
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- snapshots -------------------------------------------------------

    def prometheus_text(self) -> str:
        return render_prometheus(self.registry)

    def metrics_snapshot(self) -> dict:
        return snapshot(self.registry)

    def summary(self) -> dict:
        """The block :meth:`StreamingSieve.summary` merges in when
        telemetry is enabled."""
        last = self.tracer.last_trace
        return {
            "enabled": self.enabled,
            "instruments": len(self.registry),
            "phase_seconds": self.tracer.phase_totals(),
            "last_window_trace": last.as_dict() if last else None,
        }

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
