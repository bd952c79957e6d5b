"""Self-telemetry of the streaming reproduction (the ``obs`` layer).

The paper argues that monitoring must be cheap enough to leave always
on; this package holds the reproduction to its own standard.  It is a
strict *observer* of the other layers -- instruments, per-window phase
spans, a Prometheus/JSON scrape surface and a health model -- and never
feeds back into analysis state, so every determinism and crash-restart
guarantee holds with telemetry on or off.

Entry points:

* :class:`Telemetry` -- the per-engine facade (registry, tracer,
  health, exporters, HTTP server);
* :class:`TelemetryRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` -- instrumentation primitives;
* :class:`SpanTracer` / :class:`WindowTrace` -- phase breakdowns;
* :class:`TelemetryServer` -- the stdlib HTTP scrape endpoint;
* :func:`render_prometheus` / :func:`snapshot` -- pure renderers;
* :class:`OperationsService` / :class:`AnalysisView` /
  :class:`EventLog` -- the live operations surface (``POST /ingest``
  remote-write + ``GET /api/...`` analysis queries) attached through
  :meth:`Telemetry.attach_service`.
"""

from repro.obs.exposition import (
    JsonExporter,
    PrometheusExporter,
    render_prometheus,
    snapshot,
)
from repro.obs.health import HealthModel, bus_probe, checkpoint_probe
from repro.obs.ingest import (
    IngestBatch,
    IngestError,
    IngestRequest,
    SourceGate,
    decode_payload,
)
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
)
from repro.obs.query import AnalysisView, EventLog, render_analysis
from repro.obs.server import TelemetryServer
from repro.obs.service import OperationsService
from repro.obs.spans import Span, SpanTracer, WindowTrace
from repro.obs.telemetry import Telemetry

__all__ = [
    "NULL_INSTRUMENT",
    "AnalysisView",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "HealthModel",
    "IngestBatch",
    "IngestError",
    "IngestRequest",
    "JsonExporter",
    "OperationsService",
    "PrometheusExporter",
    "SourceGate",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TelemetryRegistry",
    "TelemetryServer",
    "WindowTrace",
    "bus_probe",
    "checkpoint_probe",
    "decode_payload",
    "render_analysis",
    "render_prometheus",
    "snapshot",
]
