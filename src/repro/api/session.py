"""The pipeline façade: turn a :class:`RunSpec` into a running session.

``build_pipeline(spec)`` resolves every policy named by the spec
through the plugin registries -- application, workload, storage
backend, executor, consumers -- wires them
together exactly once, and hands back a :class:`Session` whose
``run()`` executes the declared mode:

* ``pipeline`` -- the offline Load -> Reduce -> Identify batch run;
* ``stream``   -- the windowed streaming engine against a live
  co-simulation (crash-safe with journal + checkpoint, resumable);
* ``serve``    -- the same engine fed over HTTP (``POST /ingest`` +
  ``GET /api/...`` on the telemetry server), no simulator driver;
* ``record``   -- capture a live run into a durable backend;
* ``replay``   -- re-analyze a recorded backend and meter the replay;
* ``rca`` / ``trace-overhead`` / ``catalog`` -- the paper's case-study
  utilities.

Sessions are context managers; ``close()`` releases executors and
closes backends.  Construction itself
acquires resources (truncates fresh journals, clears stale
checkpoints, overwrites record targets) -- build a session only when
you mean to run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.api.registry import (
    APPLICATIONS,
    BACKENDS,
    CONSUMERS,
    EXECUTORS,
    WORKLOADS,
)
from repro.api.spec import (
    ConsumerSpec,
    RunSpec,
    ServiceSpec,
    TelemetrySpec,
    WorkloadSpec,
)

#: Checkpoint keys revalidated against the current spec on resume.
_RESUME_KEYS = ("app", "seed")


class Session:
    """Base façade: a built pipeline ready to :meth:`run` once."""

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self.backend: Any = None
        self.telemetry: Any = None
        """Self-telemetry handle (:class:`repro.obs.Telemetry`) for
        session kinds that instrument themselves; None otherwise."""
        self.executor: Any = None
        """The spec's shard executor, for the modes that analyze a run
        once (``pipeline``, ``replay``, ``rca``); None otherwise."""

        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def run(self) -> Any:
        raise NotImplementedError  # pragma: no cover - abstract

    def close(self) -> None:
        """Release resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._close_impl()

    def _close_impl(self) -> None:
        if self.backend is not None:
            self.backend.close()
        if self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- maintenance ----------------------------------------------------

    def compact(self, retention: float | None = None) -> dict:
        """Compact this session's durable storage backend.

        ``retention`` overrides the spec's
        :attr:`~repro.api.spec.StorageSpec.retention` horizon (None
        keeps it; 0 drops nothing).  A
        :attr:`~repro.api.spec.StorageSpec.schedule` travels with the
        backend itself, so this call also drives tiered-retention
        migration: points crossing a tier horizon are rolled up to
        that tier's resolution.  Returns the backend's compaction
        stats (empty for backends with nothing to compact, e.g.
        memory).
        """
        if self.backend is None:
            return {}
        horizon = self.spec.storage.retention \
            if retention is None else retention
        return self.backend.compact(retention=horizon or None)


def _build_workload(spec: RunSpec) -> Any:
    w: WorkloadSpec = spec.workload
    return WORKLOADS.create(w.kind, duration=spec.duration,
                            seed=spec.seed, rate=w.rate, **w.options)


def _open_executor(spec: RunSpec) -> Any:
    """The shard executor the spec declares (``streaming.executor``)."""
    config = spec.streaming
    return EXECUTORS.create(config.executor,
                            config.executor_workers or None)


def _clear_backend_path(path: Path) -> None:
    """Clear a backend target so a new recording starts fresh.

    Appending a second run's timeline to an existing backend would be
    rejected as out-of-order.
    """
    path.unlink(missing_ok=True)
    for sidecar in (Path(str(path) + "-wal"), Path(str(path) + "-shm")):
        sidecar.unlink(missing_ok=True)


def _open_storage(spec: RunSpec, fresh: bool) -> Any:
    """Resolve the spec's durable backend (None when storage is off)."""
    storage = spec.storage
    if not storage.enabled:
        return None
    # Every backend stores one file (plus sqlite's WAL sidecars), so a
    # directory is never a store: refuse it, and leave it untouched.
    if Path(storage.path).is_dir():
        raise ValueError(
            f"storage path {storage.path!r} is a directory; "
            "give the path of a store file"
        )
    if fresh:
        _clear_backend_path(Path(storage.path))
    options = dict(storage.options)
    if storage.schedule:
        options["schedule"] = storage.schedule
    return BACKENDS.create(storage.kind, storage.path, **options)


# -- batch pipeline --------------------------------------------------------


class BatchSession(Session):
    """Mode ``pipeline``: the offline three-step batch run."""

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        from repro.core.sieve import Sieve

        self.application = APPLICATIONS.create(spec.app)
        self.workload = _build_workload(spec)
        self.executor = _open_executor(spec)
        self.sieve = Sieve(self.application, config=spec.sieve,
                           executor=self.executor)

    def run(self) -> Any:
        """Execute the batch pipeline; returns the
        :class:`~repro.core.results.SieveResult` (and writes the
        snapshot when the spec names one)."""
        result = self.sieve.run(
            self.workload, duration=self.spec.duration,
            seed=self.spec.seed, workload_name=self.spec.workload.kind,
        )
        if self.spec.snapshot:
            from repro.core.serialize import save_snapshot

            save_snapshot(result, self.spec.snapshot)
        return result


# -- streaming -------------------------------------------------------------


@dataclass
class StreamOutcome:
    """Everything one streaming run produced."""

    analyses: list = field(repr=False)
    summary: dict
    final: Any = field(default=None, repr=False)
    """Full-retention final analysis (``compare`` runs only)."""

    batch: Any = field(default=None, repr=False)
    """The exact batch result for the same trace (``compare`` only)."""

    edge_jaccard: float | None = None
    """Streaming-vs-batch dependency-edge agreement (``compare``)."""


class _EngineSession(Session):
    """Shared wiring of every session that runs a streaming engine.

    Resolves telemetry, durable storage, the write-ahead journal, the
    engine itself (fresh or checkpoint-restored), the checkpoint
    policy, the spec's consumers and the health probes -- in exactly
    the order :class:`StreamSession` always used, so subscription
    order (policy first, then consumers) and therefore determinism
    are identical whether the engine is driven by a co-simulation
    (``stream``) or by HTTP ingest (``serve``).
    """

    def _init_engine(self, spec: RunSpec,
                     telemetry: Any = None) -> None:
        """Build ``self._engine`` and everything it depends on.
        ``telemetry`` overrides the spec-derived facade (serve mode
        always observes itself)."""
        from repro.obs.telemetry import Telemetry
        from repro.persistence import (
            CheckpointPolicy,
            IngestJournal,
            load_checkpoint,
            restore_engine,
        )
        from repro.streaming import StreamingSieve

        config = spec.streaming
        self.resumed = False
        self.service: Any = None
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry.from_spec(spec.telemetry)

        state = None
        if spec.resume:
            if not Path(spec.checkpoint).exists():
                raise FileNotFoundError(
                    f"resume needs an existing checkpoint file "
                    f"({spec.checkpoint!r} not found)"
                )
            state = load_checkpoint(spec.checkpoint)
            self._validate_resume(state)

        self.backend = _open_storage(spec, fresh=not spec.resume)
        # A fresh (non-resume) run starts its journal over; appending
        # a second run's timeline onto an old journal would make any
        # later replay reject the restart of time as out-of-order.
        self.journal = IngestJournal(spec.journal,
                                     truncate=not spec.resume) \
            if spec.journal else None
        if not spec.resume and spec.checkpoint \
                and Path(spec.checkpoint).exists():
            # A stale checkpoint from a previous session must not
            # survive a fresh start: if this run crashed before its
            # first window, a later resume would otherwise restore the
            # *old* session's state over the new journal.
            Path(spec.checkpoint).unlink()

        if spec.resume:
            self._engine = restore_engine(state, config,
                                          journal_path=spec.journal,
                                          journal=self.journal,
                                          store_backend=self.backend,
                                          telemetry=self.telemetry)
            self.resumed = True
        else:
            self._engine = StreamingSieve(
                config=config, seed=spec.seed, journal=self.journal,
                application=spec.app, workload=spec.workload.kind,
                store_backend=self.backend,
                telemetry=self.telemetry,
            )

        self.policy = None
        if spec.checkpoint:
            # Cadence comes from streaming.checkpoint_every_windows
            # (0 = manual checkpoints only -- the CLI's documented
            # --checkpoint-every 0; PipelineBuilder.checkpoint()
            # defaults it to every window when left unset).
            # Under a tiered-retention schedule, journal retirement
            # anchors on the *full-resolution* horizon: replay must
            # re-create every raw sample the durable store keeps raw,
            # and rollups cannot stand in for them.
            retire_horizon = None
            if spec.storage.enabled and spec.storage.schedule:
                retire_horizon = max(
                    config.retention,
                    spec.storage.parsed_schedule.full_horizon,
                )
            self.policy = CheckpointPolicy(
                self._engine, spec.checkpoint,
                spec=spec.to_dict(),
                retire_horizon=retire_horizon,
            )
            self._engine.subscribe(self.policy)
        self.consumers: dict[str, Any] = {}
        for consumer_spec in spec.consumers:
            consumer = CONSUMERS.create(consumer_spec.kind,
                                        self._engine,
                                        **consumer_spec.options)
            self._engine.subscribe(consumer)
            self.consumers[consumer_spec.kind] = consumer
        if self.telemetry.enabled:
            self._register_health_probes()

    def _attach_service(self, spec: RunSpec,
                        ingest_enabled: bool) -> None:
        """Stand up the operations surface when the spec asks for it:
        view + event log on the engine, event hooks on the RCA
        consumer and the checkpoint policy, and the service itself on
        the telemetry facade (the server routes ``/ingest`` and
        ``/api/...`` only while one is attached)."""
        if not spec.service.active:
            return
        from repro.obs.query import AnalysisView, EventLog
        from repro.obs.service import OperationsService

        view = AnalysisView(history=spec.service.view_history)
        events = EventLog(history=spec.service.event_history)
        self._engine.attach_view(view)
        self._engine.attach_events(events)
        self.service = OperationsService(
            self._engine,
            clock=spec.service.clock,
            call_graph=spec.service.build_call_graph(),
            view=view, events=events,
            ingest_enabled=ingest_enabled,
            consumers=self.consumers,
        )
        rca = self.consumers.get("rca")
        if rca is not None and hasattr(rca, "on_report"):
            chained = rca.on_report

            def _on_rca(triggered: Any, _chained: Any = chained) -> None:
                latest = self._engine.latest()
                events.append("rca",
                              latest.end if latest is not None else 0.0,
                              {
                                  "faulty_window":
                                      triggered.faulty_index,
                                  "baseline_window":
                                      triggered.baseline_index,
                                  "top": [
                                      candidate.component
                                      for candidate in
                                      triggered.report.final_ranking[:3]
                                  ],
                              })
                if _chained is not None:
                    _chained(triggered)

            rca.on_report = _on_rca
        if self.policy is not None:

            def _on_checkpoint(analysis: Any, policy: Any) -> None:
                events.append("checkpoint", analysis.end, {
                    "window": analysis.index,
                    "checkpoints_written": policy.checkpoints_written,
                })

            self.policy.on_checkpoint = _on_checkpoint
        self.telemetry.attach_service(self.service)

    def _register_health_probes(self) -> None:
        """Wire the standard liveness probes into ``/healthz``.

        Backpressure shedding on the bus and a checkpoint falling
        behind its cadence each flip the surface to 503.
        """
        from repro.obs.health import bus_probe, checkpoint_probe

        health = self.telemetry.health
        health.add_probe("bus", bus_probe(self._engine.bus))
        if self.policy is not None:
            health.add_probe("checkpoint",
                             checkpoint_probe(self.policy))

    @property
    def engine(self) -> Any:
        return self._engine

    def _validate_resume(self, state: dict) -> None:
        """The resumed co-simulation must be the *same* trace the dead
        run was on; a mismatched spec would silently continue a
        different simulation on top of the old rings."""
        spec = self.spec
        embedded = state.get("spec") or {}
        recorded = {
            "app": embedded.get("app", state.get("application")),
            "seed": embedded.get("seed", state.get("seed")),
        }
        given = {"app": spec.app, "seed": spec.seed}
        mismatched = [
            (name, recorded[name], given[name])
            for name in _RESUME_KEYS
            if recorded[name] != given[name]
        ]
        workload = embedded.get("workload")
        if workload is None:
            if state.get("workload") != spec.workload.kind:
                mismatched.append(("workload", state.get("workload"),
                                   spec.workload.kind))
        else:
            for field_name in ("kind", "rate", "options"):
                recorded_value = workload.get(field_name)
                given_value = getattr(spec.workload, field_name)
                if recorded_value != given_value:
                    mismatched.append((f"workload.{field_name}",
                                       recorded_value, given_value))
        if mismatched:
            details = "; ".join(
                f"{name}: checkpoint has {rec!r}, given {cur!r}"
                for name, rec, cur in mismatched
            )
            raise ValueError(f"resume spec mismatch -- {details}")

    def _serve_telemetry(self) -> Any:
        """Bind the HTTP server on ``telemetry.host:port`` when that
        port is set, else on the service's (the two share a listener).
        A bind failure releases everything the constructor opened."""
        spec = self.spec
        bind: TelemetrySpec | ServiceSpec = spec.telemetry \
            if spec.telemetry.port > 0 else spec.service
        try:
            return self.telemetry.serve(bind.port, host=bind.host)
        except OSError as exc:
            self.close()
            raise OSError(exc.errno, f"cannot serve on {bind.host}:"
                          f"{bind.port}: {exc.strerror}") from exc

    def _close_impl(self) -> None:
        self._engine.close()
        if self.backend is not None:
            self.backend.close()
        # Stop the server before the journal: no request can reach
        # the bus (and append) once it is down.
        self.telemetry.close()
        if self.journal is not None:
            # close() commits: the tail reaches the OS for a later
            # resume even when run() never returned (signals, tests).
            self.journal.close()


class StreamSession(_EngineSession):
    """Mode ``stream``: windowed analysis of a live co-simulation."""

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        from repro.streaming import SimulationStreamDriver

        self.application = APPLICATIONS.create(spec.app)
        self.workload = _build_workload(spec)
        self._init_engine(spec)
        self.driver = SimulationStreamDriver(
            self.application, self.workload, config=spec.streaming,
            seed=spec.seed, workload_name=spec.workload.kind,
            record_frame=spec.compare, engine=self._engine,
        )
        # The co-simulation driver owns the bus, so an attached
        # service exposes the query surface only (ingest answers 409).
        self._attach_service(spec, ingest_enabled=False)
        if spec.telemetry.port > 0 or self.service is not None:
            self._serve_telemetry()

    def remaining(self) -> float:
        """Simulated seconds :meth:`run` will actually stream.

        For a resumed session the dead run's progress (its resume
        horizon relative to the fresh session's post-warmup clock) is
        subtracted from the spec duration.
        """
        spec = self.spec
        if self.resumed:
            target = self.engine.resume_horizon()
            elapsed_dead = 0.0 if target is None \
                else max(target - self.driver.session.now, 0.0)
            return max(spec.duration - elapsed_dead, 0.0)
        return max(spec.duration - self.driver.session.elapsed, 0.0)

    def run(self, on_window: Callable | None = None) -> StreamOutcome:
        """Stream the spec's duration; returns the outcome.

        ``on_window`` is invoked for every produced analysis, in
        addition to the spec's subscribed consumers.
        """
        remaining = self.remaining()
        analyses: list = []
        if remaining > 0:
            runner = self.driver.resume_run if self.resumed \
                else self.driver.run
            analyses = runner(remaining, on_window=on_window)
        if self.journal is not None:
            self.journal.commit()
        outcome = StreamOutcome(
            analyses=analyses,
            summary=self.engine.summary(),
        )
        if self.spec.compare:
            final = self.driver.final_analysis()
            batch = self.driver.batch_result()
            outcome.final = final
            outcome.batch = batch
            if final is not None:
                from repro.causality.depgraph import edge_jaccard

                outcome.edge_jaccard = edge_jaccard(
                    final.dependency_graph, batch.dependency_graph,
                )
        return outcome


# -- serve -----------------------------------------------------------------


@dataclass
class ServeOutcome:
    """What one HTTP-fed service run produced."""

    analyses: list = field(repr=False)
    summary: dict
    service: dict
    url: str = ""


class ServeSession(_EngineSession):
    """Mode ``serve``: an HTTP-fed engine with no simulator driver.

    Samples arrive over ``POST /ingest`` on the telemetry server;
    analysis hops are scheduled off ingest watermarks
    (``service.clock="ingest"``, deterministic) or off the wall clock
    (``"wall"``, a poller thread).  Journal, checkpoints, resume,
    consumers and telemetry all work exactly as in ``stream`` mode --
    the engine wiring is shared -- so a killed service resumes to
    bit-identical windows from its journal.

    :meth:`run` blocks until ``spec.duration`` *wall-clock* seconds
    pass or :meth:`stop` is called (e.g. from a signal handler).
    """

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        import threading

        from repro.obs.telemetry import Telemetry

        # A service is inherently observed: even when the spec leaves
        # telemetry off, the engine collects so /metrics, /healthz and
        # the staleness gauges mean something.
        telemetry = Telemetry.from_spec(spec.telemetry) \
            if spec.telemetry.active else Telemetry(enabled=True)
        self._init_engine(spec, telemetry=telemetry)
        self._attach_service(spec, ingest_enabled=True)
        self._stop = threading.Event()
        self._poller: Any = None
        self.server = self._serve_telemetry()

    @property
    def url(self) -> str:
        return self.server.url

    def poll_interval(self) -> float:
        """Wall seconds between analysis offers (``clock="wall"``)."""
        return self.spec.service.poll_interval \
            or float(self.spec.streaming.hop)

    def stop(self) -> None:
        """Ask a blocked :meth:`run` to return (thread-safe)."""
        self._stop.set()

    def run(self, on_window: Callable | None = None) -> ServeOutcome:
        """Serve for ``spec.duration`` wall seconds (or until
        :meth:`stop`); returns the outcome.

        ``on_window`` subscribes like a consumer, so it fires on the
        HTTP thread that triggered the analysis (``clock="ingest"``)
        or on the poller thread (``clock="wall"``).
        """
        import threading
        import time as _time

        if on_window is not None:
            self._engine.subscribe(on_window)
        analyzed_before = self._engine.stats.windows
        deadline = _time.monotonic() + self.spec.duration
        if self.service.clock == "wall":
            interval = self.poll_interval()

            def _poll() -> None:
                while not self._stop.wait(interval):
                    self.service.offer_watermark()

            self._poller = threading.Thread(
                target=_poll, name="repro-serve-poller", daemon=True)
            self._poller.start()
        while not self._stop.is_set():
            left = deadline - _time.monotonic()
            if left <= 0:
                break
            self._stop.wait(min(0.25, left))
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=5.0)
            self._poller = None
        if self.journal is not None:
            self.journal.commit()
        produced = self._engine.stats.windows - analyzed_before
        retained = list(self._engine.history)
        return ServeOutcome(
            analyses=retained[max(len(retained) - produced, 0):]
            if produced else [],
            summary=self._engine.summary(),
            service=self.service.summary(),
            url=self.url,
        )

    def _close_impl(self) -> None:
        self._stop.set()
        super()._close_impl()


# -- record ----------------------------------------------------------------


@dataclass
class RecordOutcome:
    """What one recording run captured."""

    backend: str
    path: str
    samples: int
    series: int


class RecordSession(Session):
    """Mode ``record``: capture a live run into a durable backend.

    Recording needs only the scrape stream and the final call graph,
    so the session publishes straight to the backend -- no windowed
    analysis runs (clustering and Granger belong to ``replay``).
    """

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        from repro.streaming import IngestionBus

        self.application = APPLICATIONS.create(spec.app)
        self.workload = _build_workload(spec)
        # Recording overwrites: appending a second run's timeline to
        # an existing backend would be rejected as out-of-order.
        self.backend = _open_storage(spec, fresh=True)
        self.bus = IngestionBus()
        self.bus.subscribe(self.backend)
        sieve_cfg = spec.sieve
        self.session = self.application.open_session(
            self.workload,
            seed=spec.seed,
            dt=sieve_cfg.simulation_dt,
            scrape_interval=sieve_cfg.grid_interval,
            workload_name=spec.workload.kind,
            warmup=sieve_cfg.warmup,
            bus=self.bus,
            record_frame=False,
        )

    def run(self) -> RecordOutcome:
        spec = self.spec
        self.session.advance(spec.duration)
        self.bus.flush()
        call_graph = self.session.call_graph(
            spec.sieve.callgraph_min_connections
        )
        self.backend.set_metadata({
            "application": spec.app,
            "workload": spec.workload.kind,
            "seed": spec.seed,
            "duration": spec.duration,
            "call_graph": call_graph.edges(),
            "spec": spec.to_dict(),
        })
        return RecordOutcome(
            backend=spec.storage.kind,
            path=spec.storage.path,
            samples=self.backend.sample_count(),
            series=self.backend.series_count(),
        )


# -- replay ----------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """A replayed analysis plus the Table 3 monitoring-cost rows."""

    result: Any = field(repr=False)
    application: str = ""
    workload: str = ""
    source: str = ""
    costs: list = field(default_factory=list)
    """(resource, all-metrics cost, representatives cost, saving %)."""


class ReplaySession(Session):
    """Mode ``replay``: re-analyze a recorded backend from disk."""

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        self.backend = _open_storage(spec, fresh=False)
        self.executor = _open_executor(spec)

    def run(self) -> ReplayOutcome:
        from repro.core.sieve import Sieve
        from repro.metrics.accounting import reduction_percent
        from repro.metrics.store import MetricsStore
        from repro.simulator.app import LoadedRun
        from repro.tracing.callgraph import CallGraph
        from repro.tracing.sysdig import SysdigTracer

        spec = self.spec
        meta = self.backend.metadata()
        frame = self.backend.to_frame()
        if not len(frame):
            raise ValueError(
                f"no series found in "
                f"{spec.storage.kind}:{spec.storage.path}"
            )
        call_graph = CallGraph()
        for caller, callee, count in meta.get("call_graph", []):
            call_graph.record_call(caller, callee, int(count))
        run = LoadedRun(
            application=meta.get("application", "recorded"),
            workload=meta.get("workload", "recorded"),
            seed=int(meta.get("seed", spec.seed)),
            duration=float(meta.get("duration", 0.0)),
            frame=frame,
            call_graph=call_graph,
            store=MetricsStore(),
            tracer=SysdigTracer(),
        )
        application_name = meta.get("application")
        if application_name in APPLICATIONS:
            application = APPLICATIONS.create(application_name)
        else:
            application = APPLICATIONS.create("sharelatex")
        result = Sieve(application, config=spec.sieve,
                       executor=self.executor).analyze(run, seed=run.seed)

        # Table 3 from disk: replay everything vs representatives.
        keep = result.representative_keys()
        before, after = MetricsStore(), MetricsStore()
        before.replay_frame(frame)
        before.simulate_dashboard_reads()
        after.replay_frame(frame, keep=keep)
        after.simulate_dashboard_reads()
        b, a = before.usage.summary(), after.usage.summary()
        costs = [
            (key, b[key], a[key], reduction_percent(b[key], a[key]))
            for key in ("cpu_seconds", "db_bytes",
                        "network_in_bytes", "network_out_bytes")
        ]
        return ReplayOutcome(
            result=result,
            application=run.application,
            workload=run.workload,
            source=f"{spec.storage.kind}:{spec.storage.path}",
            costs=costs,
        )


# -- case-study utilities --------------------------------------------------


class RCASession(Session):
    """Mode ``rca``: the OpenStack correct-vs-faulty comparison."""

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        from repro.core.sieve import Sieve

        self.application = APPLICATIONS.create(spec.app)
        self.executor = _open_executor(spec)
        self.sieve = Sieve(self.application, config=spec.sieve,
                           executor=self.executor)
        self.iterations = int(spec.extra.get("iterations", 15))
        self.threshold = float(spec.extra.get("threshold", 0.5))

    def run(self) -> Any:
        from repro.apps import openstack_fault_plan
        from repro.rca import RCAEngine
        from repro.workload import RallyRunner

        spec = self.spec
        rally = RallyRunner(times=self.iterations, concurrency=5,
                            seed=spec.seed)
        duration = min(rally.duration, spec.duration)
        correct = self.sieve.run(rally, duration=duration,
                                 seed=spec.seed,
                                 workload_name="rally-correct")
        faulty = self.sieve.run(rally, duration=duration,
                                seed=spec.seed,
                                fault_plan=openstack_fault_plan(),
                                workload_name="rally-faulty")
        return RCAEngine().compare(correct, faulty,
                                   threshold=self.threshold)


class TraceOverheadSession(Session):
    """Mode ``trace-overhead``: the Figure 5 technique comparison."""

    def __init__(self, spec: RunSpec) -> None:
        super().__init__(spec)
        self.requests = int(spec.extra.get("requests", 10_000))

    def run(self) -> dict:
        from repro.apps import run_ab_benchmark

        return {
            name: run_ab_benchmark(name, n_requests=self.requests,
                                   seed=self.spec.seed)
            for name in ("native", "tcpdump", "sysdig", "ptrace")
        }


class CatalogSession(Session):
    """Mode ``catalog``: instantiate an application model to inspect."""

    def run(self) -> Any:
        return APPLICATIONS.create(self.spec.app)


# -- the entry point -------------------------------------------------------

_SESSIONS: dict[str, type[Session]] = {
    "pipeline": BatchSession,
    "stream": StreamSession,
    "serve": ServeSession,
    "record": RecordSession,
    "replay": ReplaySession,
    "rca": RCASession,
    "trace-overhead": TraceOverheadSession,
    "catalog": CatalogSession,
}


def build_pipeline(spec: RunSpec) -> Session:
    """Resolve a spec into a ready-to-run :class:`Session`."""
    try:
        session_cls = _SESSIONS[spec.mode]
    except KeyError:
        raise ValueError(
            f"unknown mode {spec.mode!r} "
            f"(expected one of {sorted(_SESSIONS)})"
        ) from None
    return session_cls(spec)


def run_spec(spec: RunSpec, **kwargs: Any) -> Any:
    """One-shot convenience: build, run and close in one call."""
    with build_pipeline(spec) as session:
        return session.run(**kwargs)


class PipelineBuilder:
    """Fluent construction of a :class:`RunSpec` (and its session).

    >>> from repro.api import PipelineBuilder
    >>> spec = (PipelineBuilder("sharelatex").mode("stream")
    ...         .workload("constant", rate=30.0)
    ...         .duration(60).seed(3).spec())
    >>> spec.workload.kind
    'constant'
    """

    def __init__(self, app: str = "sharelatex",
                 mode: str = "pipeline") -> None:
        self._fields: dict[str, Any] = {"app": app, "mode": mode}
        self._streaming: dict[str, Any] = {}
        self._sieve: dict[str, Any] = {}
        self._consumers: list[ConsumerSpec] = []

    def mode(self, mode: str) -> "PipelineBuilder":
        self._fields["mode"] = mode
        return self

    def app(self, app: str) -> "PipelineBuilder":
        self._fields["app"] = app
        return self

    def seed(self, seed: int) -> "PipelineBuilder":
        self._fields["seed"] = int(seed)
        return self

    def duration(self, seconds: float) -> "PipelineBuilder":
        self._fields["duration"] = float(seconds)
        return self

    def workload(self, kind: str, rate: float | None = None,
                 **options: Any) -> "PipelineBuilder":
        kwargs: dict[str, Any] = {"kind": kind, "options": options}
        if rate is not None:
            kwargs["rate"] = float(rate)
        self._fields["workload"] = WorkloadSpec(**kwargs)
        return self

    def streaming(self, **fields: Any) -> "PipelineBuilder":
        """Override :class:`StreamingConfig` fields (e.g. window=30)."""
        self._streaming.update(fields)
        return self

    def sieve(self, **fields: Any) -> "PipelineBuilder":
        """Override nested :class:`SieveConfig` fields."""
        self._sieve.update(fields)
        return self

    def executor(self, kind: str,
                 workers: int = 0) -> "PipelineBuilder":
        return self.streaming(executor=kind, executor_workers=workers)

    def storage(self, kind: str, path: str = "",
                retention: float = 0.0,
                schedule: str = "",
                writer: str = "sync",
                **options: Any) -> "PipelineBuilder":
        from repro.api.spec import StorageSpec

        # ``writer`` survives only because the e2e benchmark passes
        # writer="sync"; drop it with that call site.
        if writer != "sync":
            raise ValueError(
                f"the async writer was removed: the store backend is "
                f"always written inline (writer={writer!r})")
        self._fields["storage"] = StorageSpec(
            kind=kind, path=str(path), retention=retention,
            schedule=schedule, options=options,
        )
        return self

    def journal(self, path: str) -> "PipelineBuilder":
        self._fields["journal"] = str(path)
        return self

    def checkpoint(self, path: str,
                   every: int | None = None) -> "PipelineBuilder":
        """Checkpoint to ``path`` every ``every`` analyzed windows.

        ``every=None`` keeps any cadence already set and otherwise
        defaults to every window -- a declared checkpoint path means
        crash safety is wanted, and the config default of 0 ("manual
        only") would silently never write the file.  Pass ``every=0``
        for explicit manual-only checkpointing.
        """
        self._fields["checkpoint"] = str(path)
        if every is not None:
            self.streaming(checkpoint_every_windows=every)
        elif "checkpoint_every_windows" not in self._streaming:
            self.streaming(checkpoint_every_windows=1)
        return self

    def resume(self, flag: bool = True) -> "PipelineBuilder":
        self._fields["resume"] = bool(flag)
        return self

    def consumer(self, kind: str, **options: Any) -> "PipelineBuilder":
        self._consumers.append(ConsumerSpec(kind=kind, options=options))
        return self

    def compare(self, flag: bool = True) -> "PipelineBuilder":
        self._fields["compare"] = bool(flag)
        return self

    def telemetry(self, enabled: bool = True, port: int = 0,
                  **fields: Any) -> "PipelineBuilder":
        """Turn self-telemetry on (and optionally serve it on ``port``).

        Extra ``fields`` map onto :class:`~repro.api.spec.TelemetrySpec`
        (``host``, ``span_history``, ``exporters``, ``options``).
        """
        self._fields["telemetry"] = TelemetrySpec(
            enabled=bool(enabled), port=int(port), **fields,
        )
        return self

    def service(self, port: int = 0, enabled: bool = True,
                **fields: Any) -> "PipelineBuilder":
        """Turn the live operations surface on (``/ingest`` +
        ``/api/...``).

        Extra ``fields`` map onto :class:`~repro.api.spec.ServiceSpec`
        (``host``, ``clock``, ``poll_interval``, ``event_history``,
        ``view_history``, ``topology``, ``options``).
        """
        self._fields["service"] = ServiceSpec(
            enabled=bool(enabled), port=int(port), **fields,
        )
        return self

    def snapshot(self, path: str) -> "PipelineBuilder":
        self._fields["snapshot"] = str(path)
        return self

    def extra(self, **knobs: Any) -> "PipelineBuilder":
        self._fields.setdefault("extra", {}).update(knobs)
        return self

    def spec(self) -> RunSpec:
        """Materialize the accumulated fields as a :class:`RunSpec`."""
        import dataclasses

        from repro.core.config import StreamingConfig

        fields = dict(self._fields)
        if self._streaming or self._sieve:
            streaming = fields.get("streaming") or StreamingConfig()
            if self._sieve:
                sieve = dataclasses.replace(streaming.sieve,
                                            **self._sieve)
                streaming = dataclasses.replace(streaming, sieve=sieve)
            if self._streaming:
                streaming = dataclasses.replace(streaming,
                                                **self._streaming)
            fields["streaming"] = streaming
        if self._consumers:
            fields["consumers"] = tuple(self._consumers)
        return RunSpec(**fields)

    def build(self) -> Session:
        """Resolve the spec into a ready-to-run session."""
        return build_pipeline(self.spec())
