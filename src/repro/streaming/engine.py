"""The streaming Sieve engine: ingest -> window -> analyze -> notify.

:class:`StreamingSieve` owns the ingestion bus, the bounded window
store, the windowed analyzer and the drift detector, and exposes a
pull-driven ``offer(now, call_graph)`` tick: whoever advances time (the
co-simulation driver, a replay loop, a real scrape thread) calls it
after every hop; the engine flushes the bus and, once a hop boundary
has passed and enough samples accumulated, analyzes the current window
and notifies subscribed consumers (live autoscalers, RCA snapshots).
"""

from __future__ import annotations

import time
from collections import deque

from repro.core.config import StreamingConfig
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import ShardExecutor
from repro.streaming.analyzer import (
    StreamingStats,
    WindowAnalysis,
    WindowAnalyzer,
)
from repro.streaming.bus import IngestionBus
from repro.streaming.drift import DriftDetector
from repro.streaming.window import WindowStore
from repro.tracing.callgraph import CallGraph


class StreamingSieve:
    """Continuously running Sieve over an ingestion stream."""

    def __init__(self, config: StreamingConfig | None = None,
                 seed: int = 0, bus: IngestionBus | None = None,
                 application: str = "", workload: str = "stream",
                 store_backend=None, journal=None,
                 executor: ShardExecutor | None = None,
                 telemetry: Telemetry | None = None):
        """``store_backend`` (a
        :class:`~repro.persistence.backend.StorageBackend`) makes the
        window store durable; ``journal`` (an
        :class:`~repro.persistence.journal.IngestJournal`) makes the
        ingest stream replayable after a crash.  ``executor``
        overrides the shard executor the config would build
        (``config.executor`` / ``config.executor_workers``); the
        engine owns it and shuts it down in :meth:`close`.
        ``telemetry`` (a :class:`repro.obs.Telemetry`) makes the engine
        observable -- strictly read-only over analysis state, so every
        determinism guarantee holds with it on or off; disabled (the
        default) it reduces to no-op instruments."""
        self.config = config or StreamingConfig()
        self.seed = seed
        self.application = application
        self.workload = workload
        self.telemetry = telemetry or Telemetry.disabled()
        self.bus = bus or IngestionBus(
            max_pending=self.config.bus_max_pending,
            overflow_policy=self.config.bus_overflow_policy,
        )
        if journal is not None:
            self.bus.attach_journal(journal)
        self.windows = WindowStore(
            retention=self.config.retention,
            max_points_per_series=self.config.max_points_per_series,
            backend=store_backend,
        )
        self.bus.subscribe(self.windows)
        self.sla_history: deque[tuple[float, float]] = deque(maxlen=65536)
        """Recent (time, end-to-end latency) observations (see
        :meth:`observe_latency`)."""
        from repro.api.registry import EXECUTORS

        self.executor = executor if executor is not None else \
            EXECUTORS.create(self.config.executor,
                             self.config.executor_workers or None)
        self.analyzer = WindowAnalyzer(
            config=self.config, seed=seed,
            executor=self.executor, telemetry=self.telemetry,
        )
        self.drift: DriftDetector = self.analyzer.drift
        self.history: deque[WindowAnalysis] = deque(
            maxlen=self.config.history
        )
        self.stats = StreamingStats()
        self.skipped_windows = 0
        self._consumers: list = []
        self._next_analysis: float | None = None
        self.last_offer: float | None = None
        """Timestamp of the most recent :meth:`offer` tick (checkpointed,
        so a resumed driver can realign its clock with the dead run)."""

        self.current_hop = float(self.config.hop)
        """The live analysis cadence.  Fixed at ``config.hop`` unless
        :attr:`~repro.core.config.StreamingConfig.adaptive_hop` is on,
        in which case drift pressure scales it between the configured
        bounds (checkpointed, so a resumed run keeps its cadence)."""

        self.view = None
        """An attached :class:`~repro.obs.query.AnalysisView` (or
        None): every analyzed window is published into it *after* all
        consumers ran, so queries see post-consumer state."""
        self.events = None
        """An attached :class:`~repro.obs.query.EventLog` (or None):
        drift escalations and re-clusters are appended per window."""
        self.last_analysis_walltime: float | None = None
        """Wall-clock stamp of the newest analysis (staleness gauge
        only -- never checkpointed, never read by analysis)."""

        if self.telemetry.enabled:
            self.bus.attach_telemetry(self.telemetry)
            self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Create the engine's instrument families and the scrape-time
        collector that samples the already-maintained stats structs
        (bus, store, executor, journal) -- the hot paths pay nothing.
        """
        registry = self.telemetry.registry
        bus_total = registry.counter(
            "repro_bus_total", "Lifetime ingestion-bus counts, by event",
            labelnames=("event",),
        )
        bus_pending = registry.gauge(
            "repro_bus_pending_points",
            "Points buffered on the bus, awaiting flush",
        )
        store_total = registry.counter(
            "repro_store_total", "Lifetime window-store counts, by event",
            labelnames=("event",),
        )
        store_retained = registry.gauge(
            "repro_store_points_retained",
            "Samples currently held across every ring",
        )
        store_series = registry.gauge(
            "repro_store_series", "Live (component, metric) rings",
        )
        windows_total = registry.counter(
            "repro_windows_total",
            "Window boundary outcomes (analyzed vs skipped for want "
            "of samples)",
            labelnames=("outcome",),
        )
        drift_total = registry.counter(
            "repro_drift_escalations_total",
            "Windows components were escalated to re-cluster by drift",
        )
        edges_total = registry.counter(
            "repro_edges_total",
            "Dependency-graph edge decisions (Granger retested vs "
            "merged from the previous window)",
            labelnames=("decision",),
        )
        hop_gauge = registry.gauge(
            "repro_engine_current_hop_seconds",
            "Live analysis cadence (config.hop unless adapted)",
        )
        executor_total = registry.counter(
            "repro_executor_tasks_total",
            "Shard payloads dispatched, by executor kind",
            labelnames=("executor",),
        )
        journal_total = registry.counter(
            "repro_journal_total",
            "Write-ahead ingest-journal counts, by event",
            labelnames=("event",),
        )
        last_window = registry.gauge(
            "repro_last_window_epoch",
            "Index of the newest analyzed window (-1 before the first)",
        )
        last_analysis = registry.gauge(
            "repro_last_analysis_timestamp_seconds",
            "Wall-clock Unix time of the newest analysis (0 before "
            "the first) -- alert when now() - this exceeds the hop",
        )

        def sample() -> None:
            bus_stats = self.bus.stats
            for event, value in bus_stats.as_dict().items():
                bus_total.set_total(value, event=event)
            bus_pending.set(self.bus.pending_points)
            store = self.windows
            store_total.set_total(store.points_ingested,
                                  event="points_ingested")
            store_total.set_total(store.batches_ingested,
                                  event="batches_ingested")
            store_total.set_total(store.total_evicted(),
                                  event="points_evicted")
            store_total.set_total(store.backend_reads,
                                  event="backend_reads")
            store_total.set_total(store.backend_writes,
                                  event="backend_writes")
            store_retained.set(store.total_points())
            store_series.set(store.series_count())
            windows_total.set_total(self.stats.windows,
                                    outcome="analyzed")
            windows_total.set_total(self.skipped_windows,
                                    outcome="skipped")
            drift_total.set_total(self.stats.drift_escalations)
            edges_total.set_total(self.stats.edges_retested,
                                  decision="retested")
            edges_total.set_total(self.stats.edges_reused,
                                  decision="reused")
            hop_gauge.set(self.current_hop)
            newest = self.history[-1] if self.history else None
            last_window.set(newest.index if newest is not None else -1)
            last_analysis.set(self.last_analysis_walltime or 0.0)
            executor_total.set_total(self.executor.tasks_dispatched,
                                     executor=self.executor.kind)
            journal = self.bus.journal
            if journal is not None:
                journal_total.set_total(journal.records_written,
                                        event="records_written")
                journal_total.set_total(journal.rotations,
                                        event="rotations")
                journal_total.set_total(journal.segments_retired,
                                        event="segments_retired")

        registry.add_collector(sample)

    # -- consumers -----------------------------------------------------

    def attach_view(self, view) -> None:
        """Publish every analyzed window into an
        :class:`~repro.obs.query.AnalysisView` (pass None to detach).
        Strictly an observer: the view renders to plain dicts and
        nothing flows back, so determinism holds either way."""
        self.view = view

    def attach_events(self, events) -> None:
        """Append drift/re-cluster events per window into an
        :class:`~repro.obs.query.EventLog` (pass None to detach)."""
        self.events = events

    def subscribe(self, consumer) -> None:
        """Register a consumer: callable or object with ``on_window``."""
        if callable(consumer):
            self._consumers.append(consumer)
        elif hasattr(consumer, "on_window"):
            self._consumers.append(consumer.on_window)
        else:
            raise TypeError(
                "consumer must be callable or expose .on_window()"
            )

    def resume_horizon(self) -> float | None:
        """The instant up to which this engine already holds history.

        For a crash-restored engine this is the fast-forward cutoff: a
        mid-hop crash leaves journaled samples *newer* than the last
        engine tick (the bus auto-flushes inside hops), so the horizon
        is the max of the last tick and the newest retained sample.
        None when the engine has seen nothing at all.
        """
        horizon = self.last_offer
        newest = self.windows.latest_time()
        if newest is not None:
            horizon = newest if horizon is None else max(horizon, newest)
        return horizon

    # -- SLA observations ----------------------------------------------

    def observe_latency(self, time: float, latency: float) -> None:
        """Record one end-to-end latency sample.

        The co-simulation driver forwards the session's SLA samples
        here so consumers (e.g. the auto-triggered
        :class:`~repro.streaming.consumers.WindowDiffRCA`) can judge a
        window against an SLA condition.
        """
        self.sla_history.append((float(time), float(latency)))

    def latencies_between(self, start: float, end: float) -> list[float]:
        """Observed latencies with ``start <= t <= end``."""
        return [v for t, v in self.sla_history if start <= t <= end]

    # -- the tick ------------------------------------------------------

    def offer(self, now: float,
              call_graph: CallGraph) -> WindowAnalysis | None:
        """Flush ingestion and analyze if a window boundary passed.

        Returns the fresh :class:`WindowAnalysis` when one was run,
        else None.  ``call_graph`` is the caller's current view of the
        communication topology (from the tracer in co-simulation, or a
        static deployment map).
        """
        cfg = self.config
        self.last_offer = now
        self.bus.flush()

        if self._next_analysis is None:
            if self.windows.first_time is None:
                return None
            # First analysis once a full window of data exists.
            self._next_analysis = self.windows.first_time + cfg.window
        if now < self._next_analysis:
            return None

        # The post-window schedule (and the adapted cadence) must be
        # in place *before* consumers see the analysis: a checkpoint
        # taken in a consumer callback has to describe the state a
        # resume should continue from, not the pre-window one.
        analysis = self._analyze_window(
            now - cfg.window, now, call_graph,
            pre_notify=lambda a: self._schedule_after(a, now),
        )
        if analysis is None:
            self._schedule_after(None, now)
        return analysis

    def _schedule_after(self, analysis: WindowAnalysis | None,
                        now: float) -> None:
        """Advance the hop schedule past the window just analyzed."""
        self._adapt_hop(analysis)
        self._next_analysis += self.current_hop
        if self._next_analysis <= now:
            # The caller hopped further than one cadence; realign.
            self._next_analysis = now + self.current_hop

    def tick_interval(self) -> float:
        """How far a driver should advance between :meth:`offer` ticks
        (the live hop -- equal to ``config.hop`` unless the adaptive
        cadence moved it)."""
        return self.current_hop

    def _adapt_hop(self, analysis: WindowAnalysis | None) -> None:
        """Scale the cadence with drift pressure (adaptive hop).

        A window whose re-clusters include a drift escalation halves
        the live hop (a drifting system deserves closer watching); a
        fully reused window stretches it by 25% (a quiet system can be
        analyzed less often).  Windows with only structural re-clusters
        (metric-set changes, refreshes) or too little data hold the
        cadence steady.
        """
        if not self.config.adaptive_hop or analysis is None:
            return
        lo, hi = self.config.hop_bounds()
        reasons = analysis.recluster_reasons.values()
        if "drift" in reasons:
            self.current_hop = max(lo, self.current_hop * 0.5)
        elif not analysis.reclustered:
            self.current_hop = min(hi, self.current_hop * 1.25)

    def force_analysis(self, now: float, call_graph: CallGraph,
                       start: float | None = None,
                       ) -> WindowAnalysis | None:
        """Analyze immediately, ignoring the hop schedule.

        With ``start=None`` the *entire retained history* is analyzed
        rather than one window -- the final full-retention pass a
        stream shutdown (or a streaming-vs-batch comparison) wants.
        Scrape jitter can stamp the newest sample slightly past ``now``,
        so the full-history pass extends to the newest retained sample.
        """
        self.bus.flush()
        if start is None:
            first = self.windows.first_time
            newest = self.windows.latest_time()
            start = float("-inf") if first is None else first
            end = now if newest is None else max(now, newest)
            return self._analyze_window(start, end, call_graph)
        return self._analyze_window(start, now, call_graph)

    def _analyze_window(self, start: float, end: float,
                        call_graph: CallGraph,
                        pre_notify=None) -> WindowAnalysis | None:
        """``pre_notify`` runs after the engine state is updated but
        before subscribed consumers fire (scheduling bookkeeping that
        checkpoints taken by consumers must already reflect)."""
        tracer = self.telemetry.tracer
        with tracer.span("snapshot"):
            frame = self.windows.snapshot(start, end)
        if frame.total_samples() < self.config.min_window_samples:
            self.skipped_windows += 1
            # Pending phases (ingest, this snapshot) stay accumulated:
            # the next produced window's trace accounts for them.
            return None
        analysis = self.analyzer.analyze(
            frame, call_graph, start, end,
            index=self.stats.windows,
        )
        analysis.application = self.application
        analysis.workload = self.workload
        self.history.append(analysis)
        self.stats.record(analysis)
        # Consumers may themselves record spans (the checkpoint policy
        # cuts "writer_flush"/"checkpoint"); subtract those so the
        # trace's phases stay disjoint.
        nested_phases = ("writer_flush", "checkpoint")
        nested_before = tracer.pending_seconds(nested_phases)
        loop_span = tracer.span("consumers")
        if pre_notify is not None:
            pre_notify(analysis)
        for consumer in self._consumers:
            consumer(analysis)
        loop_elapsed = loop_span.discard()
        nested = tracer.pending_seconds(nested_phases) - nested_before
        tracer.add("consumers", max(loop_elapsed - nested, 0.0))
        tracer.finish_window(analysis.index, start, end)
        if self.events is not None:
            drifted = sorted(
                component
                for component, reason in
                analysis.recluster_reasons.items()
                if reason == "drift"
            )
            if drifted:
                self.events.append("drift-escalation", end, {
                    "window": analysis.index, "components": drifted,
                })
            if analysis.reclustered:
                self.events.append("recluster", end, {
                    "window": analysis.index,
                    "components": sorted(analysis.reclustered),
                    "reasons": dict(analysis.recluster_reasons),
                })
        if self.view is not None:
            # After consumers + events: queries see post-consumer state.
            self.view.publish(analysis)
        # Telemetry staleness gauge only -- never feeds analysis
        # state, so the wall-clock read is deliberate here.
        self.last_analysis_walltime = time.time()  # repro-lint: disable=RL010
        return analysis

    # -- consumer-facing views ------------------------------------------

    def latest(self) -> WindowAnalysis | None:
        """Most recent window analysis, or None before the first."""
        return self.history[-1] if self.history else None

    def window_pair(self, first: int = 0,
                    second: int = -1) -> tuple[WindowAnalysis,
                                               WindowAnalysis]:
        """Two retained analyses by history index (RCA diffs)."""
        if len(self.history) < 2:
            raise ValueError("need at least two analyzed windows")
        retained = list(self.history)
        return retained[first], retained[second]

    def summary(self) -> dict:
        """Engine-level counters for logs and benchmarks.

        With telemetry enabled, a ``telemetry`` block (phase-second
        totals and the last window's trace) is merged in; the disabled
        summary is byte-for-byte what it always was.
        """
        out = {
            "application": self.application,
            **self.stats.as_dict(),
            "current_hop": round(self.current_hop, 3),
            "skipped_windows": self.skipped_windows,
            "points_retained": self.windows.total_points(),
            "points_evicted": self.windows.total_evicted(),
            "backend_reads": self.windows.backend_reads,
            "series": self.windows.series_count(),
            **self.executor.describe(),
            **self.bus.stats.as_dict(),
        }
        if self.telemetry.enabled:
            out["telemetry"] = self.telemetry.summary()
        return out

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the shard executor's pooled workers (idempotent).

        The window store's backend is *not* closed here -- its
        lifecycle belongs to whoever opened it (the CLI, a test, a
        collector process).
        """
        self.executor.close()
