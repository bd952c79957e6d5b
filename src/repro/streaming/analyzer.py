"""Windowed Sieve analysis with incremental reuse and drift escalation.

The one analysis path of the package: streamed windows run through it,
and so does the batch :class:`~repro.core.sieve.Sieve`, as a single
window holding the whole recorded run.  Per window the analyzer
decides, component by component, whether the previous clustering
still stands:

* no previous analysis (or a scheduled full refresh) -> re-cluster;
* the exported metric set changed (deploy footprint) -> re-cluster;
* the drift detector flags behavioural drift -> re-cluster;
* otherwise the previous clustering (and every dependency-graph
  relation between untouched components) is reused.

Granger re-testing is restricted to call-graph edges touching a
re-clustered component, via the helpers of
:mod:`repro.core.incremental`, so the per-window cost scales with how
much actually moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.causality.depgraph import DependencyGraph
from repro.causality.pairwise import extract_dependencies
from repro.clustering.reduction import (
    ComponentClustering,
    reduce_component_task,
    reduce_payload,
)
from repro.core.config import StreamingConfig
from repro.core.incremental import (
    changed_metric_components,
    merge_dependency_graphs,
    restricted_call_graph,
)
from repro.core.results import SieveResult
from repro.metrics.store import MetricsStore
from repro.metrics.timeseries import MetricFrame
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import ShardExecutor
from repro.simulator.app import LoadedRun
from repro.streaming.drift import DriftDetector, DriftReading
from repro.tracing.callgraph import CallGraph
from repro.tracing.sysdig import SysdigTracer


@dataclass
class WindowAnalysis:
    """Everything one window's analysis produced."""

    index: int
    start: float
    end: float
    frame: MetricFrame = field(repr=False)
    call_graph: CallGraph = field(repr=False)
    clusterings: dict[str, ComponentClustering] = field(repr=False)
    dependency_graph: DependencyGraph = field(repr=False)
    reclustered: list[str]
    reused: list[str]
    recluster_reasons: dict[str, str]
    """component -> why it was re-clustered ("initial", "metric-set",
    "drift", or "refresh")."""

    drift_readings: dict[str, list[DriftReading]] = field(repr=False)
    edges_retested: int = 0
    edges_reused: int = 0
    analysis_seconds: float = 0.0
    application: str = ""
    workload: str = "stream"
    seed: int = 0

    # -- the SieveResult-compatible surface -----------------------------

    def total_metrics(self) -> int:
        return len(self.frame)

    def total_representatives(self) -> int:
        return sum(c.n_clusters for c in self.clusterings.values())

    def representatives_of(self, component: str) -> list[str]:
        return self.clusterings[component].representatives

    def guiding_metric(self, component: str | None = None):
        """The most-connected metric of this window's graph."""
        return self.dependency_graph.most_connected_metric(component)

    def reclustered_by_reason(self) -> dict[str, list[str]]:
        """reason -> components, for observability and tests."""
        by_reason: dict[str, list[str]] = {}
        for component, reason in self.recluster_reasons.items():
            by_reason.setdefault(reason, []).append(component)
        return {reason: sorted(names)
                for reason, names in by_reason.items()}

    def to_sieve_result(self) -> SieveResult:
        """Package this window as a :class:`SieveResult` snapshot.

        The run wraps the window's frame, so every downstream consumer
        (RCA diffs, snapshot serialization, reporting) works on a
        window exactly as it would on an offline load.
        """
        run = LoadedRun(
            application=self.application,
            workload=self.workload,
            seed=self.seed,
            duration=self.end - self.start,
            frame=self.frame,
            call_graph=self.call_graph,
            store=MetricsStore(),
            tracer=SysdigTracer(),
        )
        return SieveResult(run=run, clusterings=dict(self.clusterings),
                           dependency_graph=self.dependency_graph)

    def summary(self) -> dict:
        """One per-window log line worth of numbers."""
        return {
            "window": self.index,
            "span": (round(self.start, 1), round(self.end, 1)),
            "metrics": self.total_metrics(),
            "representatives": self.total_representatives(),
            "relations": len(self.dependency_graph),
            "reclustered": len(self.reclustered),
            "reused": len(self.reused),
            "reasons": self.reclustered_by_reason(),
            "edges_retested": self.edges_retested,
            "edges_reused": self.edges_reused,
            "analysis_ms": round(self.analysis_seconds * 1000.0, 1),
        }


@dataclass
class StreamingStats:
    """Aggregated counters over an engine's lifetime."""

    windows: int = 0
    components_reclustered: int = 0
    components_reused: int = 0
    edges_retested: int = 0
    edges_reused: int = 0
    drift_escalations: int = 0
    analysis_seconds: float = 0.0

    def record(self, analysis: WindowAnalysis) -> None:
        self.windows += 1
        self.components_reclustered += len(analysis.reclustered)
        self.components_reused += len(analysis.reused)
        self.edges_retested += analysis.edges_retested
        self.edges_reused += analysis.edges_reused
        self.drift_escalations += sum(
            1 for reason in analysis.recluster_reasons.values()
            if reason == "drift"
        )
        self.analysis_seconds += analysis.analysis_seconds

    def reuse_fraction(self) -> float:
        """Share of component analyses served from cache."""
        total = self.components_reclustered + self.components_reused
        return self.components_reused / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "windows": self.windows,
            "components_reclustered": self.components_reclustered,
            "components_reused": self.components_reused,
            "reuse_fraction": round(self.reuse_fraction(), 3),
            "edges_retested": self.edges_retested,
            "edges_reused": self.edges_reused,
            "drift_escalations": self.drift_escalations,
            "analysis_seconds": round(self.analysis_seconds, 3),
        }


class WindowAnalyzer:
    """Runs reduce + identify over successive windows with reuse."""

    def __init__(self, config: StreamingConfig | None = None,
                 seed: int = 0,
                 executor: ShardExecutor | None = None,
                 telemetry: Telemetry | None = None):
        """``executor`` decides where per-component shards (reduce +
        re-cluster, drift shape checks) run -- inline by default; see
        :data:`repro.api.registry.EXECUTORS`.  Results are
        merged in component order, so every strategy produces the same
        analysis.  ``telemetry`` supplies the span tracer the per-window
        timing runs through (a private disabled instance otherwise --
        the clock always ticks, retention is what enablement buys)."""
        self.config = config or StreamingConfig()
        self.drift = DriftDetector(
            threshold=self.config.drift_threshold,
            shape_threshold=self.config.drift_shape_threshold,
        )
        self.seed = seed
        if executor is None:
            from repro.api.registry import EXECUTORS

            executor = EXECUTORS.create("serial")
        self.executor = executor
        self.telemetry = telemetry or Telemetry.disabled()
        self.tracer = self.telemetry.tracer
        registry = self.telemetry.registry
        self._analysis_seconds = registry.histogram(
            "repro_window_analysis_seconds",
            "End-to-end wall time of one window analysis",
        )
        self._recluster_seconds = registry.histogram(
            "repro_recluster_seconds",
            "Wall time of the per-window re-cluster fan-out, "
            "by shard-executor kind",
            labelnames=("executor",),
        )
        self._reclustered_total = registry.counter(
            "repro_components_reclustered_total",
            "Components re-clustered, by trigger reason",
            labelnames=("reason",),
        )
        self._reused_total = registry.counter(
            "repro_components_reused_total",
            "Component analyses served from the previous window",
        )
        self.previous: WindowAnalysis | None = None
        self._windows_since_refresh = 0

    def restore(self, previous: WindowAnalysis | None,
                windows_since_refresh: int = 0) -> None:
        """Install checkpointed incremental state.

        ``analyze`` only reads the previous window's clusterings and
        dependency graph, so a restored ``previous`` may carry an empty
        frame/call graph (checkpoints do not persist raw samples --
        those are replayed from the ingest journal instead).
        """
        self.previous = previous
        self._windows_since_refresh = int(windows_since_refresh)

    @property
    def windows_since_refresh(self) -> int:
        """Windows analyzed since the last scheduled full refresh."""
        return self._windows_since_refresh

    def _decide_reclusters(
        self, frame: MetricFrame,
    ) -> tuple[dict[str, str], dict[str, list[DriftReading]]]:
        """component -> recluster reason, for the current window."""
        cfg = self.config
        if self.previous is None:
            return {c: "initial" for c in frame.components}, {}
        if cfg.full_refresh_windows \
                and self._windows_since_refresh >= cfg.full_refresh_windows:
            self._windows_since_refresh = 0
            return {c: "refresh" for c in frame.components}, {}

        reasons: dict[str, str] = {}
        for component in changed_metric_components(
                self.previous.clusterings, frame):
            reasons[component] = (
                "metric-set" if component in self.previous.clusterings
                else "initial"
            )
        drifted, readings = self.drift.drifted_components(
            frame, executor=self.executor)
        for component in drifted:
            reasons.setdefault(component, "drift")
        return reasons, readings

    def analyze(self, frame: MetricFrame, call_graph: CallGraph,
                start: float, end: float,
                index: int = 0) -> WindowAnalysis:
        """Analyze one window, reusing whatever did not move."""
        cfg = self.config.sieve
        # The total is a discarded span -- pure stopwatch -- so the
        # trace's phase breakdown (drift/recluster/depgraph below) is
        # not double-counted; its elapsed time still feeds the
        # compatibility field and its own histogram.
        total = self.tracer.span("analyze")
        with self.tracer.span("drift"):
            reasons, drift_readings = self._decide_reclusters(frame)
        changed = set(reasons)
        # Components that went silent since the previous window: their
        # clusterings are dropped above (we only keep frame components),
        # and their stale dependency relations must not be carried
        # forward either, so they count as changed for the graph merge.
        previous = self.previous
        if previous is not None:
            vanished = set(previous.clusterings) \
                - set(frame.components)
            changed |= vanished
            for component in vanished:
                self.drift.forget(component)

        # Fan the re-clustered components out to the shard executor.
        # Each payload is a pure seeded task; merging in component
        # order keeps the analysis identical across strategies.
        with self.tracer.span("recluster") as recluster_span:
            views = {
                component: frame.component_view(component)
                for component in frame.components
                if component in changed
            }
            produced = dict(self.executor.map(reduce_component_task, [
                reduce_payload(
                    component, views[component],
                    interval=cfg.grid_interval,
                    variance_threshold=cfg.variance_threshold,
                    max_k=cfg.max_clusters,
                    seed=self.seed,
                )
                for component in frame.components
                if component in changed
            ]))

            clusterings: dict[str, ComponentClustering] = {}
            reclustered: list[str] = []
            reused: list[str] = []
            for component in frame.components:
                if component in changed:
                    clusterings[component] = produced[component]
                    self.drift.rebase(component, produced[component],
                                      views[component])
                    reclustered.append(component)
                else:
                    # Unreached when previous is None: every component
                    # is then in ``changed`` with reason "initial".
                    assert previous is not None
                    clusterings[component] = \
                        previous.clusterings[component]
                    reused.append(component)
        self._recluster_seconds.observe(recluster_span.elapsed,
                                        executor=self.executor.kind)

        with self.tracer.span("depgraph"):
            touched = restricted_call_graph(call_graph, changed)
            fresh = extract_dependencies(
                frame, touched, clusterings,
                alpha=cfg.granger_alpha, lags=cfg.granger_lags,
                interval=cfg.grid_interval,
                filter_bidirectional=cfg.filter_bidirectional,
            )
            if previous is None:
                graph, edges_reused = fresh, 0
            else:
                graph, edges_reused = merge_dependency_graphs(
                    previous.dependency_graph, fresh, changed,
                    clusterings.keys(),
                )

        for reason in sorted(set(reasons.values())):
            self._reclustered_total.inc(
                sum(1 for r in reasons.values() if r == reason),
                reason=reason,
            )
        self._reused_total.inc(len(reused))

        analysis = WindowAnalysis(
            index=index, start=start, end=end,
            frame=frame, call_graph=call_graph,
            clusterings=clusterings, dependency_graph=graph,
            reclustered=sorted(reclustered), reused=sorted(reused),
            recluster_reasons=reasons, drift_readings=drift_readings,
            edges_retested=len(fresh), edges_reused=edges_reused,
            analysis_seconds=total.discard(),
            seed=self.seed,
        )
        self._analysis_seconds.observe(analysis.analysis_seconds)
        self.previous = analysis
        self._windows_since_refresh += 1
        return analysis
