"""Metered time-series store with InfluxDB-style semantics.

The store accepts point writes tagged with (component, metric), answers
range queries, and meters its own resource consumption through
:mod:`repro.metrics.accounting` so the Table 3 experiment can compare
monitoring configurations.  Replaying a recorded
:class:`~repro.metrics.timeseries.MetricFrame` through a store simulates
"what monitoring would have cost" for an arbitrary metric subset --
exactly how the paper evaluates Sieve's reduction gains.

Where the samples actually live is delegated to a pluggable
:class:`~repro.persistence.backend.StorageBackend`: the default
:class:`~repro.persistence.backend.MemoryBackend` preserves the
original in-RAM behaviour, while
:class:`~repro.persistence.sqlite_backend.SqliteBackend` makes the
same metered store durable -- the metering itself is
backend-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.metrics.accounting import CostModel, ResourceUsage
from repro.metrics.timeseries import MetricFrame, MetricKey, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persistence.backend import StorageBackend


class MetricsStore:
    """Metered stand-in for InfluxDB over a pluggable backend."""

    def __init__(self, cost_model: CostModel | None = None,
                 backend: "StorageBackend | None" = None):
        self.cost_model = cost_model or CostModel()
        self.usage = ResourceUsage()
        if backend is None:
            # Resolved through the registry (deferred import: the
            # registry factory imports repro.persistence.backend,
            # which itself imports repro.metrics.timeseries, so a
            # module-level import here would close an import cycle).
            from repro.api.registry import BACKENDS

            backend = BACKENDS.create("memory")
        self.backend = backend

    # -- write path ---------------------------------------------------

    def write_point(self, component: str, metric: str,
                    time: float, value: float) -> None:
        """Ingest a single sample."""
        self.backend.write(component, metric, (time,), (value,))
        self.usage.charge_write(MetricKey(component, metric), 1,
                                self.cost_model)

    def write_series(self, ts: TimeSeries) -> None:
        """Ingest a whole series (one vectorized bulk write)."""
        self.backend.write(ts.key.component, ts.key.metric,
                           ts.times, ts.values)
        self.usage.charge_write(ts.key, len(ts), self.cost_model)

    def write_batch(self, component: str, metric: str,
                    times, values) -> None:
        """Ingest a batch of samples for one metric (streaming path)."""
        written = self.backend.write(component, metric, times, values)
        self.usage.charge_write(MetricKey(component, metric),
                                written, self.cost_model)

    def replay_frame(self, frame: MetricFrame,
                     keep: Iterable[MetricKey] | None = None) -> None:
        """Replay a recorded run, optionally restricted to ``keep`` keys.

        With ``keep=None`` every series is written (the "before Sieve"
        configuration); passing the representative-metric keys gives the
        "after Sieve" configuration of Table 3.
        """
        keep_set = None if keep is None else set(keep)
        for ts in frame:
            if keep_set is not None and ts.key not in keep_set:
                continue
            self.write_series(ts)

    # -- read path ----------------------------------------------------

    def query(self, component: str, metric: str,
              start: float = float("-inf"),
              end: float = float("inf")) -> TimeSeries:
        """Range query for one series; empty result for unknown keys."""
        result = self.backend.query(component, metric, start, end)
        self.usage.charge_query(len(result), 1, self.cost_model)
        return result

    def simulate_dashboard_reads(self) -> None:
        """Meter the periodic reads dashboards/rule engines would issue.

        Two egress components, mirroring a Grafana + Kapacitor setup:

        * dashboards render a *bounded* number of panels (if more series
          exist than panels, the extra series are simply never shown),
          each re-reading its recent window;
        * rule engines stream ``query_fraction`` of all stored samples.

        The bounded panel term is why cutting the stored series 10x
        saves less egress than ingress (paper Table 3: -51% vs -79%).
        """
        model = self.cost_model
        n_series = self.backend.series_count()
        panels = min(n_series, model.dashboard_panels)
        self.usage.charge_query(panels * model.panel_window_samples,
                                panels, model)
        streamed = int(self.backend.sample_count() * model.query_fraction)
        self.usage.charge_query(streamed, n_series, model)

    # -- introspection ------------------------------------------------

    @property
    def frame(self) -> MetricFrame:
        """The stored data as a frame.

        With the default :class:`MemoryBackend` this is the live frame
        (do not mutate); durable backends materialize a copy.
        """
        return self.backend.to_frame()

    def series_count(self) -> int:
        """Number of distinct series stored."""
        return self.backend.series_count()

    def sample_count(self) -> int:
        """Total samples stored."""
        return self.backend.sample_count()

    def flush(self) -> None:
        """Make writes durable (no-op for the memory backend)."""
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()
