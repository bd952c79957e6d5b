"""Tests for the public pipeline API: registries, specs, sessions.

Covers the PR-5 acceptance surface:

* spec round-trips (spec -> dict -> spec identity, JSON and TOML);
* the same seed through legacy wiring and ``repro.api`` yields
  identical clusterings (edge Jaccard 1.0);
* CLI-vs-API equivalence smokes for stream/record/replay, and the CLI
  flag table (including the executor flags each mode keeps);
* ``repro spec``-emitted specs reproduce the run when re-fed;
* plugin registries (builtins + third-party registration);
* backend compaction (sqlite trim) and ``Session.compact``;
* the adaptive analysis cadence and its checkpoint round-trip.
"""

import contextlib
import dataclasses
import gc
import json
import operator
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import (
    APPLICATIONS,
    BACKENDS,
    CONSUMERS,
    EXECUTORS,
    REGISTRIES,
    WORKLOADS,
    PipelineBuilder,
    RunSpec,
    build_pipeline,
    load_spec,
    loads_spec,
    register_application,
    register_backend,
    save_spec,
    spec_to_toml,
)
from repro.api.spec import (
    ConsumerSpec,
    StorageSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.causality.depgraph import edge_jaccard
from repro.core import Sieve, SieveConfig, StreamingConfig
from repro.core.serialize import (
    sieve_config_from_dict,
    sieve_config_to_dict,
    streaming_config_from_dict,
    streaming_config_to_dict,
)
from repro.parallel.executor import ShardExecutor
from repro.persistence import (
    MemoryBackend,
    SqliteBackend,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import SimulationStreamDriver, StreamingSieve
from repro.workload import constant_rate


def _spec(name, shift=False, **kwargs):
    custom = ()
    if shift:
        custom = (("mode_gauge",
                   lambda comp, now: 500.0 if now > 45.0
                   else comp.total_request_rate() * 1.2),)
    defaults = dict(
        kind="generic",
        endpoints=(EndpointSpec("op", service_time=0.02),),
        concurrency=16,
        custom_metrics=custom,
    )
    defaults.update(kwargs)
    return ComponentSpec(name=name, **defaults)


def _chain_app(shift_backend=False):
    return Application("demo", [
        _spec("front", calls=(CallSpec("mid", delay=0.4),)),
        _spec("mid", calls=(CallSpec("back", delay=0.4),)),
        _spec("back", shift=shift_backend),
    ])


# Registered once: specs (and the CLI) can then name the tiny app.
if "demo-chain" not in APPLICATIONS:
    register_application("demo-chain", lambda: _chain_app())
if "demo-chain-shift" not in APPLICATIONS:
    register_application("demo-chain-shift",
                         lambda: _chain_app(shift_backend=True))


def _clustering_fingerprint(clusterings):
    return {
        component: sorted(
            (cluster.representative, tuple(sorted(cluster.metrics)))
            for cluster in clustering.clusters
        )
        for component, clustering in clusterings.items()
    }


def _assert_same_analysis(left, right):
    assert left.reclustered == right.reclustered
    assert left.reused == right.reused
    assert _clustering_fingerprint(left.clusterings) \
        == _clustering_fingerprint(right.clusterings)
    assert edge_jaccard(left.dependency_graph, right.dependency_graph,
                        level="metric") == 1.0


# ---------------------------------------------------------------------------
# Registries


class TestRegistries:
    def test_builtins_registered(self):
        assert BACKENDS.names() == ["memory", "sqlite"]
        assert {"serial", "process"} <= set(EXECUTORS.names())
        assert not {"thread", "shm"} & set(EXECUTORS.names())
        assert {"random", "constant", "ramp"} <= set(WORKLOADS.names())
        assert "drift_detector" not in REGISTRIES
        assert {"rca", "scaling"} <= set(CONSUMERS.names())
        assert {"sharelatex", "openstack"} <= set(APPLICATIONS.names())

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            BACKENDS.create("redis", None)
        with pytest.raises(ValueError, match="registered:"):
            EXECUTORS.get("gpu")

    def test_register_and_duplicate_guard(self):
        registrations = BACKENDS.names()
        try:
            register_backend("test-null", lambda path, **kw:
                             MemoryBackend())
            assert "test-null" in BACKENDS
            with pytest.raises(ValueError, match="already registered"):
                register_backend("test-null", lambda path: None)
            register_backend("test-null", lambda path, **kw:
                             MemoryBackend(), replace=True)
            assert isinstance(BACKENDS.create("test-null", None),
                              MemoryBackend)
        finally:
            BACKENDS.unregister("test-null")
        assert BACKENDS.names() == registrations

    def test_decorator_registration(self):
        try:
            @register_backend("test-decorated")
            def _factory(path, **kw):
                return MemoryBackend()

            assert isinstance(BACKENDS.create("test-decorated", ""),
                              MemoryBackend)
        finally:
            BACKENDS.unregister("test-decorated")

    def test_executor_registry_resolves_registered_strategy(self):
        try:
            EXECUTORS.register("test-inline",
                               lambda workers=None: ShardExecutor())
            executor = EXECUTORS.create("test-inline")
            assert executor.kind == "serial"
            # ... and the config validation accepts it too.
            StreamingConfig(executor="test-inline")
        finally:
            EXECUTORS.unregister("test-inline")
        with pytest.raises(ValueError, match="unknown executor"):
            StreamingConfig(executor="test-inline")

    def test_spec_fields_validate_against_registries(self):
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadSpec(kind="sinusoid")
        with pytest.raises(ValueError, match="unknown storage backend"):
            StorageSpec(kind="redis")
        with pytest.raises(ValueError, match="unknown consumer"):
            ConsumerSpec(kind="pager")
        with pytest.raises(ValueError, match="unknown application"):
            RunSpec(app="netflix")
        with pytest.raises(TypeError, match="drift_detector"):
            StreamingConfig(drift_detector="standard")

    def test_engine_drift_detector_follows_config_thresholds(self):
        config = StreamingConfig(window=20.0, hop=10.0,
                                 drift_threshold=4.5,
                                 drift_shape_threshold=0.4)
        engine = StreamingSieve(config=config, seed=1)
        # One detector, owned by the analyzer and built from the config.
        assert engine.drift is engine.analyzer.drift
        assert engine.drift.threshold == 4.5
        assert engine.drift.shape_threshold == 0.4


# ---------------------------------------------------------------------------
# Spec round-trips


class TestSpecRoundTrip:
    def _custom_spec(self, tmp_path=None):
        path = str(tmp_path / "run.db") if tmp_path else "/tmp/x.db"
        return RunSpec(
            mode="stream",
            app="demo-chain",
            seed=7,
            duration=55.0,
            workload=WorkloadSpec(kind="constant", rate=40.0),
            streaming=StreamingConfig(
                window=25.0, hop=5.0, retention=200.0,
                adaptive_hop=True, hop_min=2.5, hop_max=20.0,
                executor="process", executor_workers=3,
                checkpoint_every_windows=1,
                sieve=SieveConfig(max_clusters=5,
                                  granger_lags=(1, 2, 3)),
            ),
            storage=StorageSpec(kind="sqlite", path=path,
                                retention=60.0,
                                options={"commit_every": 64}),
            journal="j.log",
            checkpoint="c.json",
            consumers=(
                ConsumerSpec("rca", {"latency_threshold": 2.0}),
                ConsumerSpec("scaling", {"component": "back",
                                         "scale_up": 0.8,
                                         "scale_down": 0.2}),
            ),
            telemetry=TelemetrySpec(enabled=True, port=9464,
                                    host="0.0.0.0", span_history=32,
                                    exporters=("json",),
                                    options={"indent": 2}),
            compare=True,
            extra={"note": "custom"},
        )

    def test_default_spec_dict_identity(self):
        spec = RunSpec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_custom_spec_dict_identity(self):
        spec = self._custom_spec()
        restored = RunSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.streaming.sieve.granger_lags == (1, 2, 3)

    def test_json_round_trip(self):
        spec = self._custom_spec()
        text = json.dumps(spec.to_dict())
        assert RunSpec.from_dict(json.loads(text)) == spec

    def test_toml_round_trip(self):
        tomllib = pytest.importorskip("tomllib")
        spec = self._custom_spec()
        text = spec_to_toml(spec)
        assert RunSpec.from_dict(tomllib.loads(text)) == spec
        assert loads_spec(text, "toml") == spec

    def test_spec_file_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        spec = self._custom_spec()
        for name in ("run.toml", "run.json"):
            path = tmp_path / name
            save_spec(spec, path)
            assert load_spec(path) == spec

    def test_partial_dict_keeps_defaults(self):
        spec = RunSpec.from_dict({
            "mode": "stream",
            "workload": {"kind": "constant"},
            "streaming": {"window": 30.0, "retention": 150.0},
        })
        assert spec.app == "sharelatex"
        assert spec.workload.rate == 25.0
        assert spec.streaming.window == 30.0
        assert spec.streaming.hop == 10.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec field"):
            RunSpec.from_dict({"mode": "stream", "turbo": True})
        with pytest.raises(ValueError,
                           match="unknown StreamingConfig field"):
            RunSpec.from_dict({"streaming": {"windw": 10.0}})
        with pytest.raises(ValueError,
                           match="unknown WorkloadSpec field"):
            RunSpec.from_dict({"workload": {"kid": "random"}})
        with pytest.raises(ValueError,
                           match="unknown TelemetrySpec field"):
            RunSpec.from_dict({"telemetry": {"prt": 9464}})
        with pytest.raises(ValueError,
                           match="unknown SieveConfig field"):
            sieve_config_from_dict({"max_k": 7})

    @pytest.mark.parametrize("field", ["writer", "writer_queue_batches",
                                       "drift_detector"])
    def test_removed_writer_fields_rejected(self, field):
        with pytest.raises(ValueError,
                           match=f"unknown StreamingConfig field.*{field}"):
            RunSpec.from_dict({"streaming": {field: "sync"}})

    def test_version_check(self):
        with pytest.raises(ValueError, match="unsupported spec version"):
            RunSpec.from_dict({"version": 99})

    def test_config_codecs_round_trip(self):
        sieve = SieveConfig(granger_lags=(2, 4), max_clusters=3)
        assert sieve_config_from_dict(sieve_config_to_dict(sieve)) \
            == sieve
        streaming = StreamingConfig(window=30.0, hop=15.0,
                                    retention=240.0, sieve=sieve)
        restored = streaming_config_from_dict(
            streaming_config_to_dict(streaming))
        assert restored == streaming
        assert restored.sieve.granger_lags == (2, 4)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown mode"):
            RunSpec(mode="warp")
        with pytest.raises(ValueError, match="needs a storage path"):
            RunSpec(mode="record")
        with pytest.raises(ValueError, match="needs a journal"):
            RunSpec(mode="stream", resume=True, checkpoint="c.json")
        with pytest.raises(ValueError, match="needs a checkpoint"):
            RunSpec(mode="stream", resume=True, journal="j.log")

    def test_telemetry_spec_validation(self):
        with pytest.raises(ValueError, match="port"):
            TelemetrySpec(port=-1)
        with pytest.raises(ValueError, match="port"):
            TelemetrySpec(port=70_000)
        with pytest.raises(ValueError, match="span_history"):
            TelemetrySpec(span_history=0)
        with pytest.raises(ValueError, match="unknown exporter"):
            TelemetrySpec(exporters=("statsd",))

    def test_telemetry_spec_active(self):
        assert not TelemetrySpec().active
        assert TelemetrySpec(enabled=True).active
        # A scrape port implies collection: serving dead metrics
        # helps no one.
        assert TelemetrySpec(port=9464).active

    def test_telemetry_spec_round_trip(self):
        spec = RunSpec(telemetry=TelemetrySpec(
            enabled=True, span_history=16,
            exporters=["prometheus", "json"],
        ))
        restored = RunSpec.from_dict(json.loads(
            json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.telemetry.exporters == ("prometheus", "json")

    def test_builder_produces_equivalent_spec(self, tmp_path):
        spec = (PipelineBuilder("demo-chain").mode("stream")
                .workload("constant", rate=40.0)
                .streaming(window=25.0, hop=5.0, retention=200.0,
                           adaptive_hop=True, hop_min=2.5,
                           hop_max=20.0)
                .sieve(max_clusters=5, granger_lags=(1, 2, 3))
                .executor("process", workers=3)
                .storage("sqlite", str(tmp_path / "run.db"),
                         retention=60.0, commit_every=64)
                .journal("j.log").checkpoint("c.json")
                .consumer("rca", latency_threshold=2.0)
                .consumer("scaling", component="back",
                          scale_up=0.8, scale_down=0.2)
                .telemetry(port=9464, host="0.0.0.0",
                           span_history=32, exporters=("json",),
                           options={"indent": 2})
                .compare().duration(55.0).seed(7)
                .extra(note="custom").spec())
        assert spec == self._custom_spec(tmp_path)

    def test_builder_storage_accepts_only_the_sync_writer(self, tmp_path):
        with pytest.raises(ValueError, match="async writer was removed"):
            PipelineBuilder("demo-chain").storage(
                "sqlite", str(tmp_path / "a.db"), writer="async")
        spec = (PipelineBuilder("demo-chain").mode("stream")
                .storage("sqlite", str(tmp_path / "s.db"), writer="sync")
                .spec())
        assert spec.storage == StorageSpec("sqlite", str(tmp_path / "s.db"))
        assert spec.streaming == StreamingConfig()


# ---------------------------------------------------------------------------
# Legacy wiring vs repro.api: identical analyses


class TestLegacyVsApi:
    def test_batch_pipeline_matches_legacy_sieve(self):
        legacy = Sieve(_chain_app()).run(
            constant_rate(40.0), duration=60.0, seed=2,
            workload_name="constant",
        )
        spec = RunSpec(mode="pipeline", app="demo-chain", seed=2,
                       duration=60.0,
                       workload=WorkloadSpec("constant", rate=40.0))
        with build_pipeline(spec) as session:
            api_result = session.run()
        assert _clustering_fingerprint(legacy.clusterings) \
            == _clustering_fingerprint(api_result.clusterings)
        assert edge_jaccard(legacy.dependency_graph,
                            api_result.dependency_graph,
                            level="metric") == 1.0

    def test_stream_matches_legacy_wiring(self):
        config = StreamingConfig(window=20.0, hop=10.0, retention=120.0)
        engine = StreamingSieve(config=config, seed=3,
                                application="demo", workload="constant")
        legacy_driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            workload_name="constant", record_frame=False,
            engine=engine,
        )
        try:
            legacy_windows = legacy_driver.run(60.0)
        finally:
            legacy_driver.close()

        spec = RunSpec(mode="stream", app="demo-chain", seed=3,
                       duration=60.0,
                       workload=WorkloadSpec("constant", rate=40.0),
                       streaming=config)
        with build_pipeline(spec) as session:
            outcome = session.run()
        assert len(outcome.analyses) == len(legacy_windows)
        for left, right in zip(outcome.analyses, legacy_windows):
            assert (left.index, left.start, left.end) \
                == (right.index, right.start, right.end)
            _assert_same_analysis(left, right)


class TestAnalyzeOnceExecutor:
    """``pipeline``, ``replay`` and ``rca`` sessions run their analysis
    on the executor the spec declares and shut it down on close."""

    def test_pipeline_process_matches_serial(self):
        def run(kind):
            spec = (PipelineBuilder("demo-chain").mode("pipeline")
                    .seed(2).duration(60.0).workload("constant", rate=40.0)
                    .executor(kind, workers=2).spec())
            with build_pipeline(spec) as session:
                assert session.sieve.executor is session.executor
                assert session.executor.kind == kind
                result = session.run()
            return session.executor, result

        _serial, inline = run("serial")
        executor, pooled = run("process")
        assert executor.tasks_dispatched == 3  # one per component
        assert executor._pool is None  # shut down by close()
        assert _clustering_fingerprint(inline.clusterings) \
            == _clustering_fingerprint(pooled.clusterings)
        assert edge_jaccard(inline.dependency_graph,
                            pooled.dependency_graph,
                            level="metric") == 1.0

    @pytest.mark.parametrize("mode", ["pipeline", "replay", "rca"])
    def test_session_owns_the_declared_executor(self, mode, tmp_path):
        builder = PipelineBuilder("demo-chain").mode(mode) \
            .executor("process", workers=2)
        if mode == "replay":
            builder.storage("sqlite", str(tmp_path / "run.db"))
        session = builder.build()
        executor = session.executor
        assert executor.kind == "process" and executor.workers == 2
        if mode != "replay":
            assert session.sieve.executor is executor
        assert executor.map(abs, [-1, -2]) == [1, 2]
        assert executor._pool is not None
        session.close()
        assert executor._pool is None


# ---------------------------------------------------------------------------
# Spec-emitted reproducibility + CLI-vs-API equivalence


def _stream_spec(seed=3, **overrides):
    base = dict(mode="stream", app="demo-chain", seed=seed,
                duration=60.0,
                workload=WorkloadSpec("constant", rate=40.0),
                streaming=StreamingConfig(window=20.0, hop=10.0,
                                          retention=120.0))
    base.update(overrides)
    return RunSpec(**base)


class TestSpecReproducibility:
    def test_saved_spec_reproduces_run(self, tmp_path):
        spec = _stream_spec()
        with build_pipeline(spec) as session:
            first = session.run()
        path = tmp_path / "run.json"
        save_spec(spec, path)
        with build_pipeline(load_spec(path)) as session:
            second = session.run()
        assert len(first.analyses) == len(second.analyses)
        for left, right in zip(first.analyses, second.analyses):
            _assert_same_analysis(left, right)

    def test_cli_spec_emission_matches_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        assert main(["spec", "stream", "--app", "demo-chain",
                     "--workload", "constant", "--rate", "40",
                     "--duration", "60", "--seed", "3",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        emitted = load_spec(out)
        # The CLI pins its own defaults: the per-window checkpoint
        # cadence and the backend kind --store would use.
        expected = _stream_spec(
            streaming=StreamingConfig(
                window=20.0, hop=10.0, retention=120.0,
                checkpoint_every_windows=1,
            ),
            storage=StorageSpec("sqlite", ""),
        )
        assert emitted == expected

    def test_cli_refeeds_emitted_spec(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        args = ["--app", "demo-chain", "--workload", "constant",
                "--rate", "40", "--duration", "50", "--seed", "3"]
        assert main(["spec", "stream", *args, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["stream", *args]) == 0
        flags_out = capsys.readouterr().out
        assert main(["stream", "--spec", str(out)]) == 0
        spec_out = capsys.readouterr().out

        def window_lines(text):
            # Strip the timing column: wall-clock is not reproducible.
            return [line.split("analysis=")[0].strip()
                    for line in text.splitlines()
                    if line.startswith("window")]

        assert window_lines(flags_out) == window_lines(spec_out)
        assert window_lines(flags_out)

    def test_builder_checkpoint_defaults_to_every_window(self):
        spec = (PipelineBuilder("demo-chain").mode("stream")
                .checkpoint("c.json").journal("j.log").spec())
        assert spec.streaming.checkpoint_every_windows == 1
        manual = (PipelineBuilder("demo-chain").mode("stream")
                  .checkpoint("c.json", every=0).journal("j.log")
                  .spec())
        assert manual.streaming.checkpoint_every_windows == 0
        pinned = (PipelineBuilder("demo-chain").mode("stream")
                  .streaming(checkpoint_every_windows=3)
                  .checkpoint("c.json").journal("j.log").spec())
        assert pinned.streaming.checkpoint_every_windows == 3

    def test_cli_spec_errors_exit_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        # Every subcommand maps spec/user errors to stderr + exit 2,
        # not a traceback -- including the non-stream ones.
        assert main(["pipeline", "--spec",
                     str(tmp_path / "missing.toml")]) == 2
        assert "missing.toml" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "stream", "turbo": true}')
        assert main(["pipeline", "--spec", str(bad)]) == 2
        assert "turbo" in capsys.readouterr().err

    def test_cli_spec_uppercase_toml_suffix(self, tmp_path, capsys):
        pytest.importorskip("tomllib")
        from repro.cli import main

        out = tmp_path / "run.TOML"
        assert main(["spec", "stream", "--workload", "constant",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        # Emitted as TOML (not JSON), so the re-feed path -- which
        # dispatches on the lower-cased suffix -- parses it.
        assert load_spec(out).workload.kind == "constant"

    def test_cli_flags_override_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        save_spec(_stream_spec(), out)
        assert main(["spec", "stream", "--spec", str(out),
                     "--seed", "9", "--window", "30"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["seed"] == 9
        assert emitted["streaming"]["window"] == 30.0
        # Everything not overridden comes from the file.
        assert emitted["workload"]["kind"] == "constant"
        assert emitted["duration"] == 60.0


@contextlib.contextmanager
def _no_resource_warnings():
    """Fail if the block (or garbage it leaves) leaks a file/socket.

    Finalizer warnings cannot raise, so they are recorded instead.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert not leaks, leaks


def _cli_spec(argv):
    """The RunSpec a ``repro <argv>`` invocation resolves to."""
    from repro.cli import _spec_from_args, build_parser

    args = build_parser().parse_args(argv)
    return _spec_from_args(args, args.command)


# Every flag of every run-mode subcommand, in --help order: a dropped,
# added or reordered flag must fail here.
_PARENT_FLAGS = {
    "pipeline": "--app --snapshot --seed --duration --spec",
    "stream": "--app --window --hop --retention --adaptive-hop "
              "--hop-min --hop-max --workload --rate --compare "
              "--journal --checkpoint --checkpoint-every --resume "
              "--store --store-backend --store-retention "
              "--store-schedule --telemetry --telemetry-port "
              "--telemetry-host --progress --executor --workers --seed "
              "--duration --spec --compact",
    "serve": "--app --port --host --clock --poll-interval "
             "--event-history --topology --window --hop --retention "
             "--adaptive-hop --hop-min --hop-max --journal --checkpoint "
             "--checkpoint-every --resume --store --store-backend "
             "--store-retention --store-schedule --telemetry "
             "--telemetry-port --telemetry-host --executor --workers "
             "--seed --duration --spec",
    "record": "--app --backend --out --workload --rate "
              "--store-retention --store-schedule --seed --duration "
              "--spec --compact",
    "replay": "--backend --path --seed --executor --workers --spec",
    "rca": "--iterations --threshold --seed --duration",
    "trace-overhead": "--requests --seed",
    "catalog": "--app",
}


class TestFlagTable:
    @pytest.mark.parametrize("argv, expected", [
        (["pipeline"], {"streaming": StreamingConfig(),
                        "app": "sharelatex"}),
        (["stream"], {"streaming.checkpoint_every_windows": 1,
                      "storage.kind": "sqlite",
                      "storage.enabled": False}),
        (["serve"], {"app": "http", "service.enabled": True,
                     "streaming.checkpoint_every_windows": 1,
                     "storage.kind": "sqlite"}),
        (["record", "--out", "x.db"], {
            "storage": StorageSpec("sqlite", "x.db"),
            "streaming.checkpoint_every_windows": 0}),
        (["replay", "--path", "x.db"], {
            "storage": StorageSpec("sqlite", "x.db")}),
        (["rca"], {"app": "openstack",
                   "extra": {"iterations": 15, "threshold": 0.5}}),
        (["trace-overhead"], {"extra": {"requests": 10_000}}),
        (["catalog"], {"app": "sharelatex", "extra": {}}),
        (["stream", "--window", "200", "--retention", "50"],
         {"streaming.window": 200.0, "streaming.retention": 200.0}),
        (["serve", "--topology", "a:b", "--topology", "b:c:7"],
         {"service.topology": (("a", "b", 1), ("b", "c", 7))}),
        (["stream", "--adaptive-hop", "--workers", "3", "--telemetry"],
         {"streaming.adaptive_hop": True,
          "streaming.executor_workers": 3,
          "telemetry.enabled": True, "compare": False}),
    ])
    def test_resolved_spec(self, argv, expected):
        spec = _cli_spec(argv)
        assert spec.mode == argv[0]
        for path, value in expected.items():
            assert operator.attrgetter(path)(spec) == value, path

    def test_spec_file_survives_except_typed_flags(self, tmp_path):
        # A base that differs from every CLI/spec default the stream
        # flags can reach.
        base = _stream_spec(
            seed=9, duration=77.0, compare=True,
            workload=WorkloadSpec("ramp", rate=7.0),
            streaming=StreamingConfig(
                window=30.0, hop=5.0, retention=300.0,
                adaptive_hop=True, hop_min=2.0, hop_max=40.0,
                checkpoint_every_windows=3, executor="process",
                executor_workers=3),
            storage=StorageSpec("memory", "s.db", retention=500.0,
                                schedule="1000s:full,inf:1m"),
            journal="j.log", checkpoint="c.json",
            telemetry=TelemetrySpec(enabled=True, port=9464,
                                    host="0.0.0.0"),
        )
        path = tmp_path / "base.json"
        save_spec(base, path)
        assert _cli_spec(["stream", "--spec", str(path)]) == base
        typed = _cli_spec(["stream", "--spec", str(path),
                           "--seed", "2", "--executor", "serial",
                           "--store-backend", "sqlite"])
        assert typed == dataclasses.replace(
            base, seed=2,
            streaming=dataclasses.replace(base.streaming,
                                          executor="serial"),
            storage=dataclasses.replace(base.storage, kind="sqlite"),
        )

    def test_spec_file_of_another_mode_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "stream.json"
        save_spec(_stream_spec(), path)
        assert main(["spec", "serve", "--spec", str(path)]) == 2
        assert "declares mode 'stream'" in capsys.readouterr().err

    def test_table_integrity(self):
        from repro.api.spec import RUN_MODES
        from repro.cli import _FLAGS, _MODE_FLAGS, _at

        defaults = RunSpec().to_dict()
        for flag, row in _FLAGS.items():
            assert row[0] == flag and flag.startswith("--")
            path = row[1]
            if path is not None and not path.startswith("extra."):
                _at(defaults, path)  # KeyError: no such spec field
        assert set(_MODE_FLAGS) == set(RUN_MODES)
        for mode, flags in _MODE_FLAGS.items():
            assert set(flags) <= set(_FLAGS), mode
            paths = [_FLAGS[flag][1] for flag in flags
                     if _FLAGS[flag][1] is not None]
            assert len(paths) == len(set(paths)), \
                f"{mode}: two flags share a destination"
        # Every row is reachable from at least one mode.
        assert {f for flags in _MODE_FLAGS.values() for f in flags} \
            == set(_FLAGS)

    @pytest.mark.parametrize("mode", sorted(_PARENT_FLAGS))
    def test_flag_sets_match_parent(self, mode):
        from repro.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices

        def flags(parser):
            return [action.option_strings[0]
                    for action in parser._actions
                    if action.option_strings[0] != "-h"]

        assert flags(commands[mode]) == _PARENT_FLAGS[mode].split()
        # `repro spec <mode>` takes the same run flags (no --compact:
        # it steers the command, not the spec) plus its output flags.
        expected = [flag for flag in _PARENT_FLAGS[mode].split()
                    if flag not in ("--spec", "--compact")]
        assert flags(commands["spec"]._subparsers._group_actions[0]
                     .choices[mode]) \
            == expected + ["--spec", "-o", "--format"]

    @pytest.mark.parametrize("mode", sorted(_PARENT_FLAGS))
    def test_spec_emits_only_surviving_parallel_fields(self, mode,
                                                       capsys):
        from repro.cli import main

        required = {"record": ["--out", "x.db"],
                    "replay": ["--path", "x.db"]}
        assert main(["spec", mode, *required.get(mode, [])]) == 0
        streaming = json.loads(capsys.readouterr().out)["streaming"]
        assert streaming["executor"] == "serial"
        assert not {"writer", "writer_queue_batches"} & set(streaming)

    @pytest.mark.parametrize("argv", [
        ["stream"], ["serve"], ["replay", "--path", "x.db"]])
    def test_process_executor_flags_reach_the_spec(self, argv):
        spec = _cli_spec([*argv, "--executor", "process",
                          "--workers", "2"])
        assert spec.streaming.executor == "process"
        assert spec.streaming.executor_workers == 2

    @pytest.mark.parametrize("argv", [
        ["record", "--out", "x.db", "--executor", "process"],
        ["record", "--out", "x.db", "--workers", "2"],
        ["record", "--out", "x.db", "--writer", "sync"],
        ["stream", "--writer", "sync"],
        ["serve", "--writer", "sync"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _cli_spec(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCLIvsAPI:
    def test_record_equivalence(self, tmp_path, capsys):
        from repro.cli import main

        cli_db = tmp_path / "cli.db"
        api_db = tmp_path / "api.db"
        assert main(["record", "--app", "demo-chain",
                     "--backend", "sqlite", "--out", str(cli_db),
                     "--duration", "20", "--workload", "constant",
                     "--rate", "40", "--seed", "3"]) == 0
        capsys.readouterr()
        spec = RunSpec(mode="record", app="demo-chain", seed=3,
                       duration=20.0,
                       workload=WorkloadSpec("constant", rate=40.0),
                       storage=StorageSpec("sqlite", str(api_db)))
        with build_pipeline(spec) as session:
            outcome = session.run()
        cli_backend = SqliteBackend(cli_db)
        api_backend = SqliteBackend(api_db)
        try:
            assert outcome.samples == cli_backend.sample_count()
            assert outcome.series == cli_backend.series_count()
            assert cli_backend.keys() == api_backend.keys()
            for key in cli_backend.keys():
                left = cli_backend.query(key.component, key.metric)
                right = api_backend.query(key.component, key.metric)
                assert np.array_equal(left.times, right.times)
                assert np.array_equal(left.values, right.values)
            cli_meta = cli_backend.metadata()
            assert cli_meta["spec"]["mode"] == "record"
            assert cli_meta["seed"] == api_backend.metadata()["seed"]
        finally:
            cli_backend.close()
            api_backend.close()

    def test_replay_equivalence(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "run.db"
        spec = RunSpec(mode="record", app="demo-chain", seed=3,
                       duration=20.0,
                       workload=WorkloadSpec("constant", rate=40.0),
                       storage=StorageSpec("sqlite", str(db)))
        with build_pipeline(spec) as session:
            session.run()
        replay_spec = RunSpec(mode="replay",
                              storage=StorageSpec("sqlite", str(db)))
        with build_pipeline(replay_spec) as session:
            outcome = session.run()
        assert main(["replay", "--backend", "sqlite",
                     "--path", str(db)]) == 0
        out = capsys.readouterr().out
        summary = outcome.result.summary()
        assert f"reduction_factor: {summary['reduction_factor']}" in out
        assert "network_out_bytes" in out
        assert len(outcome.costs) == 4
        assert all(before >= after
                   for _, before, after, _ in outcome.costs)

    def test_stream_equivalence(self, capsys):
        from repro.cli import main

        assert main(["stream", "--app", "demo-chain",
                     "--workload", "constant", "--rate", "40",
                     "--duration", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        with build_pipeline(_stream_spec()) as session:
            outcome = session.run()
        cli_windows = [line for line in out.splitlines()
                       if line.startswith("window")]
        assert len(cli_windows) == len(outcome.analyses)
        assert f"windows: {outcome.summary['windows']}" in out
        assert (f"points_published: "
                f"{outcome.summary['points_published']}") in out


# ---------------------------------------------------------------------------
# Sessions: consumers, checkpoint spec embedding, resume revalidation


class TestSessions:
    def test_stream_session_wires_consumers(self):
        spec = _stream_spec(consumers=(
            ConsumerSpec("rca", {"latency_threshold": 5.0}),
        ))
        with build_pipeline(spec) as session:
            session.run()
            rca = session.consumers["rca"]
            assert rca.windows_seen > 0

    def test_checkpoint_embeds_spec_and_resume_revalidates(
            self, tmp_path):
        spec = _stream_spec(
            journal=str(tmp_path / "j.log"),
            checkpoint=str(tmp_path / "c.json"),
            duration=50.0,
            streaming=StreamingConfig(window=20.0, hop=10.0,
                                      retention=120.0,
                                      checkpoint_every_windows=1),
        )
        with build_pipeline(spec) as session:
            session.run()
        state = load_checkpoint(spec.checkpoint)
        assert state["spec"] == spec.to_dict()

        # Same declared run -> resume builds fine.
        resumed = dataclasses.replace(spec, resume=True, duration=60.0)
        session = build_pipeline(resumed)
        assert session.resumed
        session.close()

        # A different workload rate is a different trace: refused.
        mismatched = dataclasses.replace(
            resumed,
            workload=WorkloadSpec("constant", rate=80.0),
        )
        with pytest.raises(ValueError, match="mismatch"):
            build_pipeline(mismatched)

    def test_checkpoint_with_removed_drift_detector_key_resumes(
            self, tmp_path):
        # Checkpoints written while StreamingConfig still had a
        # ``drift_detector`` field embed it in their spec; resume reads
        # that spec only by key, so the stale field is ignored.
        spec = _stream_spec(
            journal=str(tmp_path / "j.log"),
            checkpoint=str(tmp_path / "c.json"),
            duration=50.0,
            streaming=StreamingConfig(window=20.0, hop=10.0,
                                      retention=120.0,
                                      checkpoint_every_windows=1),
        )
        with build_pipeline(spec) as session:
            session.run()
            windows = session.engine.stats.windows
        state = load_checkpoint(spec.checkpoint)
        state["spec"]["streaming"]["drift_detector"] = "standard"
        with open(spec.checkpoint, "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True)
        resumed = dataclasses.replace(spec, resume=True, duration=70.0)
        with build_pipeline(resumed) as session:
            assert session.resumed
            session.run()
            assert session.engine.stats.windows > windows

    @pytest.mark.parametrize("mode", ["stream", "serve"])
    def test_close_closes_the_journal(self, tmp_path, mode):
        builder = (PipelineBuilder("demo-chain").mode(mode)
                   .journal(tmp_path / "j.log"))
        if mode == "serve":
            builder.service()
        with _no_resource_warnings():
            session = builder.build()
            session.close()
            assert session.journal._fh.closed
            session.close()  # idempotent
            del session

    def test_busy_port_is_a_clean_exit(self, tmp_path, capsys):
        import socket

        from repro.cli import main

        with socket.socket() as taken, _no_resource_warnings():
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            for argv in (["serve", "--port", str(port)],
                         ["stream", "--app", "demo-chain",
                          "--telemetry-port", str(port)]):
                code = main([*argv, "--journal",
                             str(tmp_path / "j.log"),
                             "--store", str(tmp_path / "s.db")])
                assert code == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1
                assert f"127.0.0.1:{port}" in err

    def test_run_spec_convenience(self):
        from repro.api import run_spec

        result = run_spec(RunSpec(mode="catalog", app="demo-chain"))
        assert result.name == "demo"

    def test_record_embeds_spec_in_metadata(self, tmp_path):
        spec = RunSpec(mode="record", app="demo-chain", seed=1,
                       duration=10.0,
                       workload=WorkloadSpec("constant", rate=30.0),
                       storage=StorageSpec("sqlite",
                                           str(tmp_path / "r.db")))
        with build_pipeline(spec) as session:
            session.run()
        backend = SqliteBackend(tmp_path / "r.db")
        try:
            assert RunSpec.from_dict(backend.metadata()["spec"]) == spec
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Compaction


class TestSqliteTrim:
    def test_trim_drops_past_retention_per_series(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.db")
        backend.write("busy", "cpu",
                      [float(i) for i in range(100)],
                      [0.0] * 100)
        backend.write("quiet", "cpu",
                      [float(i) for i in range(10)], [0.0] * 10)
        stats = backend.trim(retention=10.0)
        # busy: newest 99 -> drops t < 89 (89 points); quiet keeps all.
        assert stats["points_deleted"] == 89
        assert backend.sample_count() == 21
        assert len(backend.query("quiet", "cpu")) == 10
        busy = backend.query("busy", "cpu")
        assert busy.times[0] == 89.0
        # Appends after a trim still pass the ordering guard.
        backend.write("busy", "cpu", [100.0], [1.0])
        backend.close()

    def test_trim_without_retention_only_vacuums(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.db")
        backend.write("web", "cpu", [0.0, 1.0], [0.0, 1.0])
        assert backend.trim() == {"points_deleted": 0,
                                  "points_rolled": 0,
                                  "rollup_buckets_written": 0}
        assert backend.sample_count() == 2
        backend.close()

    def test_sqlite_compact_trims_past_retention(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.db")
        backend.write("web", "cpu", [float(i) for i in range(50)],
                      [0.0] * 50)
        stats = backend.compact(retention=9.0)
        assert stats["points_deleted"] == 40
        assert backend.sample_count() == 10
        backend.close()

    def test_schedule_anchors_per_series(self, tmp_path):
        # Tier cutoffs follow each series' own newest sample: a quiet
        # series keeps its raw history while another runs far ahead.
        backend = SqliteBackend(tmp_path / "x.db",
                                schedule="10s:full,inf:5s")
        backend.write("quiet", "cpu", [float(i) for i in range(8)],
                      [0.0] * 8)
        backend.write("busy", "cpu",
                      [1000.0 + i for i in range(100)], [0.0] * 100)
        stats = backend.trim()
        assert stats["points_rolled"] > 0
        quiet = backend.query_rollup("quiet", "cpu")
        assert quiet.times.tolist() == [float(i) for i in range(8)]
        assert np.all(quiet.counts == 1)
        busy = backend.query_rollup("busy", "cpu")
        assert np.any(busy.counts > 1)
        assert busy.total_samples() == 100
        backend.close()

    def test_retention_drops_rollup_buckets_too(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.db",
                                schedule="10s:full,inf:5s")
        backend.write("web", "cpu", [float(i) for i in range(100)],
                      [1.0] * 100)
        backend.trim()
        stats = backend.trim(retention=30.0)
        # newest 99 -> rows (raw or bucket) before t=69 go.
        rolled = backend.query_rollup("web", "cpu")
        assert rolled.times[0] >= 69.0
        assert stats["points_deleted"] > 0
        assert rolled.total_samples() == 100 - 70
        backend.close()

    def test_trim_stats_account_for_stored_rows(self, tmp_path):
        backend = SqliteBackend(tmp_path / "x.db",
                                schedule="20s:full,60s:5s,120s:10s")
        for comp in ("web", "db"):
            backend.write(comp, "cpu", np.arange(0.0, 300.0, 0.5),
                          np.arange(600.0))
        before = backend.sample_count()
        stats = backend.trim()
        # Every rolled point leaves as one row, every bucket arrives as
        # one; rows past the final horizon are dropped outright.
        assert stats["points_rolled"] > 0 and stats["points_deleted"] > 0
        assert backend.sample_count() == (
            before - stats["points_rolled"] - stats["points_deleted"]
            + stats["rollup_buckets_written"])
        backend.close()

    def test_memory_backend_compact_is_noop(self):
        backend = MemoryBackend()
        backend.write("web", "cpu", [0.0], [1.0])
        assert backend.compact(retention=0.0) == {}
        assert backend.sample_count() == 1


class TestSessionCompact:
    def test_directory_storage_path_is_refused(self, tmp_path):
        target = tmp_path / "keep"
        target.mkdir()
        (target / "notes.txt").write_text("precious")
        spec = _stream_spec(duration=20.0,
                            storage=StorageSpec("sqlite", str(target)))
        with pytest.raises(ValueError, match="is a directory"):
            build_pipeline(spec)
        assert [p.name for p in target.iterdir()] == ["notes.txt"]
        assert (target / "notes.txt").read_text() == "precious"

    @pytest.mark.parametrize("option", ["hot_points",
                                        "compact_min_points"])
    def test_removed_spill_options_fail_at_build(self, tmp_path, option):
        # The spill store's tuning options have no sqlite meaning: a
        # spec still carrying one fails before any store is created.
        store = tmp_path / "s.db"
        spec = _stream_spec(duration=20.0,
                            storage=StorageSpec("sqlite", str(store),
                                                options={option: 8}))
        with pytest.raises(TypeError, match=option):
            build_pipeline(spec)
        assert not store.exists()

    def test_stream_session_compact_trims_store(self, tmp_path):
        spec = _stream_spec(
            duration=50.0,
            storage=StorageSpec("sqlite", str(tmp_path / "s.db"),
                                retention=10.0),
        )
        with build_pipeline(spec) as session:
            session.run()
            before = session.backend.sample_count()
            stats = session.compact()
            assert stats["points_deleted"] > 0
            assert session.backend.sample_count() \
                == before - stats["points_deleted"]

    def test_session_writes_the_opened_backend_directly(self, tmp_path):
        spec = _stream_spec(
            duration=30.0,
            storage=StorageSpec("sqlite", str(tmp_path / "s.db")),
        )
        with build_pipeline(spec) as session:
            assert type(session.backend) is SqliteBackend
            assert session.engine.windows.backend is session.backend
            session.run()
            # No queue to drain: every published point is stored.
            assert session.backend.sample_count() \
                == session.engine.bus.stats.points_flushed

    def test_compact_without_backend_is_noop(self):
        with build_pipeline(_stream_spec(duration=30.0)) as session:
            session.run()
            assert session.compact() == {}


# ---------------------------------------------------------------------------
# Adaptive analysis cadence


class TestAdaptiveHop:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="hop_min <= hop"):
            StreamingConfig(adaptive_hop=True, hop=10.0, hop_min=15.0,
                            hop_max=20.0)
        config = StreamingConfig(adaptive_hop=True, hop=10.0)
        assert config.hop_bounds() == (10.0, 40.0)

    def test_off_by_default_and_fixed(self):
        config = StreamingConfig(window=20.0, hop=10.0)
        engine = StreamingSieve(config=config, seed=1)
        assert not config.adaptive_hop
        quiet = SimpleNamespace(recluster_reasons={}, reclustered=[])
        engine._adapt_hop(quiet)
        assert engine.current_hop == 10.0
        engine.close()

    def test_pressure_scales_hop(self):
        config = StreamingConfig(window=20.0, hop=10.0,
                                 adaptive_hop=True, hop_min=2.5,
                                 hop_max=40.0)
        engine = StreamingSieve(config=config, seed=1)
        quiet = SimpleNamespace(recluster_reasons={}, reclustered=[])
        drifted = SimpleNamespace(
            recluster_reasons={"back": "drift"}, reclustered=["back"])
        structural = SimpleNamespace(
            recluster_reasons={"back": "metric-set"},
            reclustered=["back"])
        for _ in range(10):
            engine._adapt_hop(quiet)
        assert engine.current_hop == 40.0  # capped at hop_max
        engine._adapt_hop(structural)
        assert engine.current_hop == 40.0  # structural change: hold
        for _ in range(10):
            engine._adapt_hop(drifted)
        assert engine.current_hop == 2.5  # floored at hop_min
        engine._adapt_hop(None)  # skipped window: hold
        assert engine.current_hop == 2.5
        engine.close()

    def test_quiet_system_analyzes_less_often(self):
        def run(adaptive):
            streaming = StreamingConfig(
                window=20.0, hop=10.0, retention=120.0,
                adaptive_hop=adaptive, hop_max=40.0,
            )
            driver = SimulationStreamDriver(
                _chain_app(), constant_rate(40.0), config=streaming,
                seed=3, record_frame=False,
            )
            try:
                windows = driver.run(120.0)
            finally:
                driver.close()
            return windows, driver.engine.current_hop

        fixed_windows, fixed_hop = run(adaptive=False)
        adaptive_windows, adaptive_hop = run(adaptive=True)
        assert fixed_hop == 10.0
        assert adaptive_hop > 10.0  # the cadence stretched
        assert len(adaptive_windows) < len(fixed_windows)

    def test_current_hop_survives_checkpoint(self, tmp_path):
        config = StreamingConfig(window=20.0, hop=10.0,
                                 adaptive_hop=True, hop_max=40.0)
        engine = StreamingSieve(config=config, seed=1,
                                application="demo",
                                workload="constant")
        engine.current_hop = 17.5
        path = tmp_path / "c.json"
        save_checkpoint(engine, path)
        restored = restore_engine(path, config)
        assert restored.current_hop == 17.5
        engine.close()
        restored.close()

    def test_summary_reports_current_hop(self):
        engine = StreamingSieve(
            config=StreamingConfig(window=20.0, hop=10.0), seed=1)
        assert engine.summary()["current_hop"] == 10.0
        engine.close()
