"""Tests for the self-telemetry subsystem (:mod:`repro.obs`).

Covers the observability acceptance surface:

* instrument primitives (counter/gauge/histogram, labels, the
  disabled-registry null path);
* span tracing (per-window phase cuts, pending accumulation, discard);
* Prometheus text exposition and the JSON snapshot;
* the health model and the two standard probes (bus shedding flips
  ``/healthz`` to 503 and recovers);
* the HTTP scrape server routes;
* telemetry-on vs telemetry-off determinism (identical windows, edge
  Jaccard 1.0) and a live scrape returning every instrument family.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import (
    APPLICATIONS,
    PipelineBuilder,
    register_application,
    register_exporter,
)
from repro.api.registry import EXPORTERS
from repro.core import StreamingConfig
from repro.obs import (
    NULL_INSTRUMENT,
    HealthModel,
    JsonExporter,
    PrometheusExporter,
    SpanTracer,
    Telemetry,
    TelemetryRegistry,
    TelemetryServer,
    bus_probe,
    checkpoint_probe,
    render_prometheus,
    snapshot,
)
from repro.causality.depgraph import edge_jaccard
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import SimulationStreamDriver, StreamingSieve
from repro.workload import constant_rate


def _chain_app():
    spec = dict(kind="generic",
                endpoints=(EndpointSpec("op", service_time=0.02),),
                concurrency=16)
    return Application("demo", [
        ComponentSpec(name="front", calls=(CallSpec("back", delay=0.4),),
                      **spec),
        ComponentSpec(name="back", **spec),
    ])


# Registered once: specs (and the CLI) can then name the tiny app.
if "demo-chain" not in APPLICATIONS:
    register_application("demo-chain", lambda: _chain_app())


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


# ---------------------------------------------------------------------------
# Instrument primitives


class TestInstruments:
    def test_counter(self):
        registry = TelemetryRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_labels(self):
        registry = TelemetryRegistry()
        counter = registry.counter("c_total", "help",
                                   labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 3
        with pytest.raises(ValueError):
            counter.inc(flavor="a")  # undeclared label name

    def test_counter_set_total_clamps_regressions(self):
        registry = TelemetryRegistry()
        counter = registry.counter("c_total", "help")
        counter.set_total(10)
        counter.set_total(7)  # collector re-sync must stay monotone
        assert counter.value() == 10
        counter.set_total(12)
        assert counter.value() == 12

    def test_gauge(self):
        registry = TelemetryRegistry()
        gauge = registry.gauge("g", "help")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value() == 3.0

    def test_histogram(self):
        registry = TelemetryRegistry()
        hist = registry.histogram("h_seconds", "help",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)
        ((labels, buckets, total, count),) = hist.distributions()
        assert labels == {}
        assert buckets == [1.0, 2.0, 3.0]  # cumulative, +Inf last
        assert count == 3

    def test_get_or_make_is_idempotent_and_typed(self):
        registry = TelemetryRegistry()
        counter = registry.counter("c_total", "help")
        assert registry.counter("c_total", "help") is counter
        with pytest.raises(ValueError):
            registry.gauge("c_total", "help")

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = TelemetryRegistry(enabled=False)
        counter = registry.counter("c_total", "help")
        assert counter is NULL_INSTRUMENT
        counter.inc()
        counter.observe(1.0)
        counter.set(2.0)
        assert counter.samples() == []
        assert registry.collect() == []

    def test_collector_runs_on_collect(self):
        registry = TelemetryRegistry()
        gauge = registry.gauge("g", "help")
        registry.add_collector(lambda: gauge.set(42.0))
        registry.collect()
        assert gauge.value() == 42.0


# ---------------------------------------------------------------------------
# Span tracing


class TestSpanTracer:
    def test_phases_cut_into_window_traces(self):
        tracer = SpanTracer()
        with tracer.span("ingest"):
            pass
        with tracer.span("recluster"):
            pass
        trace = tracer.finish_window(0, 0.0, 20.0)
        assert trace.index == 0
        assert set(trace.phases) == {"ingest", "recluster"}
        assert trace.total_seconds == pytest.approx(
            sum(trace.phases.values()))
        # The cut emptied the pending accumulator.
        assert tracer.finish_window(1, 10.0, 30.0).phases == {}

    def test_pending_accumulates_across_skipped_windows(self):
        tracer = SpanTracer()
        tracer.add("ingest", 0.25)
        tracer.add("ingest", 0.5)
        assert tracer.pending_seconds(("ingest",)) == pytest.approx(0.75)
        trace = tracer.finish_window(3, 0.0, 10.0)
        assert trace.phases["ingest"] == pytest.approx(0.75)

    def test_discard_stops_without_recording(self):
        tracer = SpanTracer()
        span = tracer.span("drift")
        elapsed = span.discard()
        assert elapsed >= 0.0
        assert tracer.pending_seconds(("drift",)) == 0.0

    def test_disabled_tracer_still_times(self):
        tracer = SpanTracer(enabled=False)
        span = tracer.span("ingest")
        assert span.end() >= 0.0  # the stopwatch must keep working
        assert tracer.finish_window(0, 0.0, 10.0) is None
        assert tracer.traces == []

    def test_history_is_bounded(self):
        tracer = SpanTracer(history=2)
        for index in range(5):
            tracer.add("ingest", 0.1)
            tracer.finish_window(index, 0.0, 10.0)
        assert [t.index for t in tracer.traces] == [3, 4]
        assert tracer.last_trace.index == 4

    def test_observe_callback_feeds_instruments(self):
        seen = []
        tracer = SpanTracer(observe=lambda name, s: seen.append(name))
        with tracer.span("snapshot"):
            pass
        assert seen == ["snapshot"]


# ---------------------------------------------------------------------------
# Exposition


class TestExposition:
    def _registry(self):
        registry = TelemetryRegistry()
        counter = registry.counter("repro_events_total", "Events seen",
                                   labelnames=("kind",))
        counter.inc(2, kind="a b\\n")
        registry.gauge("repro_depth", "Queue depth").set(3)
        registry.histogram("repro_lat_seconds", "Latency",
                           buckets=(0.1,)).observe(0.05)
        return registry

    def test_prometheus_text_format(self):
        text = render_prometheus(self._registry())
        assert "# HELP repro_events_total Events seen" in text
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{kind="a b\\\\n"} 2' in text
        assert "repro_depth 3" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_sum 0.05" in text
        assert "repro_lat_seconds_count 1" in text

    def test_json_snapshot(self):
        snap = snapshot(self._registry())
        assert snap["repro_depth"]["kind"] == "gauge"
        assert snap["repro_depth"]["values"] == {"": 3.0}
        series = snap["repro_lat_seconds"]["series"]
        assert series[""]["count"] == 1
        assert series[""]["buckets"]["0.1"] == 1

    def test_exporters(self):
        telemetry = Telemetry()
        telemetry.registry.counter("repro_x_total", "x").inc()
        prom = PrometheusExporter()
        assert "repro_x_total 1" in prom.render(telemetry)
        assert prom.content_type.startswith("text/plain")
        rendered = json.loads(JsonExporter().render(telemetry))
        assert set(rendered) == {"metrics", "traces", "health"}

    def test_exporter_registry_resolution(self):
        telemetry = Telemetry()
        assert isinstance(telemetry.exporter("prometheus"),
                          PrometheusExporter)
        assert telemetry.exporter("bogus") is None
        try:
            register_exporter(
                "test-null",
                lambda **kw: PrometheusExporter())
            assert isinstance(telemetry.exporter("test-null"),
                              PrometheusExporter)
        finally:
            EXPORTERS.unregister("test-null")


# ---------------------------------------------------------------------------
# Health


class TestHealth:
    def test_empty_model_is_healthy(self):
        healthy, report = HealthModel().check()
        assert healthy and report == {}

    def test_failing_and_raising_probes(self):
        model = HealthModel()
        model.add_probe("ok", lambda: (True, "fine"))
        model.add_probe("bad", lambda: (False, "broken"))
        model.add_probe("boom", lambda: 1 / 0)
        healthy, report = model.check()
        assert not healthy
        assert report["ok"]["ok"]
        assert not report["bad"]["ok"]
        assert "raised" in report["boom"]["detail"]
        model.remove_probe("bad")
        model.remove_probe("boom")
        assert model.check()[0]

    def test_bus_probe_fails_only_on_new_shedding(self):
        from types import SimpleNamespace

        bus = SimpleNamespace(
            stats=SimpleNamespace(overflow_dropped=0,
                                  overflow_downsampled=0),
            pending_points=0,
        )
        probe = bus_probe(bus)
        assert probe()[0]
        bus.stats.overflow_dropped = 5
        assert not probe()[0]
        assert probe()[0]  # no *new* drops since the last check

    def test_checkpoint_probe_fails_on_lag(self):
        from types import SimpleNamespace

        policy = SimpleNamespace(every=1, windows_since_checkpoint=1,
                                 checkpoints_written=3)
        probe = checkpoint_probe(policy)
        assert probe()[0]
        policy.windows_since_checkpoint = 3  # > 2 * every
        ok, detail = probe()
        assert not ok and "lag" in detail
        assert checkpoint_probe(policy, max_lag_windows=5)()[0]


# ---------------------------------------------------------------------------
# The scrape server


class TestServer:
    @pytest.fixture()
    def telemetry(self):
        telemetry = Telemetry()
        telemetry.registry.counter("repro_hits_total", "Hits").inc(7)
        with telemetry.tracer.span("ingest"):
            pass
        telemetry.tracer.finish_window(0, 0.0, 20.0)
        yield telemetry
        telemetry.close()

    def test_routes(self, telemetry):
        server = telemetry.serve(port=0)
        assert isinstance(server, TelemetryServer)
        assert telemetry.serve(port=0) is server  # idempotent
        status, text = _get(server.url + "/metrics")
        assert status == 200 and "repro_hits_total 7" in text
        status, text = _get(server.url + "/metrics.json")
        assert json.loads(text)["repro_hits_total"]["values"]
        status, text = _get(server.url + "/traces")
        traces = json.loads(text)
        assert traces[0]["index"] == 0 and "ingest" in traces[0]["phases"]
        status, text = _get(server.url + "/export/json")
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/export/bogus")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404

    def test_healthz_flips_with_probes(self, telemetry):
        server = telemetry.serve(port=0)
        status, text = _get(server.url + "/healthz")
        assert status == 200 and json.loads(text)["healthy"]

        from types import SimpleNamespace

        bus = SimpleNamespace(
            stats=SimpleNamespace(overflow_dropped=0,
                                  overflow_downsampled=0),
            pending_points=0,
        )
        telemetry.health.add_probe("bus", bus_probe(bus))
        try:
            bus.stats.overflow_dropped = 5  # the bus is shedding load
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/healthz")
            assert err.value.code == 503
            report = json.loads(err.value.read().decode())
            assert not report["healthy"]
            assert not report["probes"]["bus"]["ok"]
            # No new drops since that scrape: healthy again.
            status, text = _get(server.url + "/healthz")
            assert status == 200 and json.loads(text)["healthy"]
        finally:
            telemetry.health.remove_probe("bus")

    def test_healthz_flips_on_checkpoint_lag(self, telemetry):
        from types import SimpleNamespace

        server = telemetry.serve(port=0)
        policy = SimpleNamespace(every=1, windows_since_checkpoint=0,
                                 checkpoints_written=0)
        telemetry.health.add_probe("checkpoint", checkpoint_probe(policy))
        try:
            status, _ = _get(server.url + "/healthz")
            assert status == 200
            policy.windows_since_checkpoint = 3  # two missed epochs
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/healthz")
            assert err.value.code == 503
            report = json.loads(err.value.read().decode())
            assert "lag 3" in report["probes"]["checkpoint"]["detail"]
            # A checkpoint lands: healthy again on the next scrape.
            policy.windows_since_checkpoint = 0
            policy.checkpoints_written = 1
            status, text = _get(server.url + "/healthz")
            assert status == 200 and json.loads(text)["healthy"]
        finally:
            telemetry.health.remove_probe("checkpoint")


# ---------------------------------------------------------------------------
# Engine integration: determinism, coverage, the full session wiring


def _fingerprint(analysis):
    return {
        component: sorted(
            (cluster.representative, tuple(sorted(cluster.metrics)))
            for cluster in clustering.clusters
        )
        for component, clustering in analysis.clusterings.items()
    }


def _run_engine(telemetry=None):
    config = StreamingConfig(window=10.0, hop=5.0, retention=60.0)
    engine = StreamingSieve(config=config, seed=3,
                            telemetry=telemetry)
    driver = SimulationStreamDriver(
        _chain_app(), constant_rate(12.0), config=config, seed=3,
        engine=engine,
    )
    analyses = driver.run(30.0)
    return engine, analyses


class TestEngineTelemetry:
    def test_telemetry_on_is_bit_identical_to_off(self):
        engine_off, plain = _run_engine()
        engine_on, instrumented = _run_engine(Telemetry())
        assert len(plain) == len(instrumented) >= 2
        for left, right in zip(plain, instrumented):
            assert left.index == right.index
            assert left.reclustered == right.reclustered
            assert left.reused == right.reused
            assert _fingerprint(left) == _fingerprint(right)
        assert edge_jaccard(plain[-1].dependency_graph,
                            instrumented[-1].dependency_graph) == 1.0
        # ... and, wall-clock aside, the telemetry block is the *only*
        # summary delta.
        on, off = engine_on.summary(), engine_off.summary()
        assert "telemetry" not in off
        on.pop("telemetry")
        on.pop("analysis_seconds"), off.pop("analysis_seconds")
        assert on == off

    def test_summary_and_traces(self):
        engine, analyses = _run_engine(Telemetry())
        block = engine.summary()["telemetry"]
        assert block["enabled"]
        assert block["last_window_trace"]["index"] \
            == analyses[-1].index
        phases = block["phase_seconds"]
        for phase in ("ingest", "snapshot", "drift", "recluster",
                      "depgraph", "consumers"):
            assert phases.get(phase, 0.0) >= 0.0
        assert {"recluster", "depgraph"} <= set(phases)
        # analysis_seconds kept its historical meaning (satellite 1).
        assert analyses[-1].analysis_seconds > 0.0

    def test_disabled_run_records_nothing(self):
        engine, _ = _run_engine()
        assert not engine.telemetry.enabled
        assert engine.telemetry.registry.collect() == []
        assert engine.telemetry.tracer.traces == []


#: Instrument families every fully-wired session scrape must expose
#: (the acceptance criterion's counters + gauges + histograms list).
EXPECTED_FAMILIES = {
    "repro_bus_total", "repro_bus_pending_points",
    "repro_bus_flush_seconds",
    "repro_store_total", "repro_store_points_retained",
    "repro_store_series",
    "repro_windows_total", "repro_drift_escalations_total",
    "repro_edges_total", "repro_engine_current_hop_seconds",
    "repro_executor_tasks_total", "repro_journal_total",
    "repro_window_analysis_seconds", "repro_window_phase_seconds",
    "repro_recluster_seconds", "repro_components_reclustered_total",
    "repro_components_reused_total",
    "repro_checkpoint_save_seconds",
}


class TestSessionWiring:
    def test_full_session_scrape_covers_every_family(self, tmp_path):
        session = (PipelineBuilder("demo-chain").mode("stream")
                   .workload("constant", rate=12.0)
                   .streaming(window=10.0, hop=5.0, retention=60.0)
                   .storage("sqlite", str(tmp_path / "run.db"))
                   .journal(str(tmp_path / "j.log"))
                   .checkpoint(str(tmp_path / "c.json"))
                   .duration(25).seed(3)
                   .telemetry(port=0).build())
        try:
            server = session.telemetry.serve()
            session.run()
            _, text = _get(server.url + "/metrics")
            families = {line.split()[2]
                        for line in text.splitlines()
                        if line.startswith("# TYPE")}
            missing = EXPECTED_FAMILIES - families
            assert not missing, f"missing families: {sorted(missing)}"
            # The standard probes were wired and all pass post-run.
            assert session.telemetry.health.names() \
                == ["bus", "checkpoint"]
            assert not any(family.startswith("repro_writer_")
                           for family in families)
            status, text = _get(server.url + "/healthz")
            assert status == 200 and json.loads(text)["healthy"]
        finally:
            session.close()
        assert session.telemetry.server is None  # close() stopped it

    def test_disabled_session_has_inert_telemetry(self):
        session = (PipelineBuilder("demo-chain").mode("stream")
                   .workload("constant", rate=12.0)
                   .streaming(window=10.0, hop=5.0, retention=60.0)
                   .duration(12).seed(3).build())
        try:
            assert not session.telemetry.enabled
            outcome = session.run()
            assert "telemetry" not in outcome.summary
        finally:
            session.close()
