"""Tests for the parallel subsystem: shard executors (serial == process
determinism, pool-size-1 fallback, recovery from a dead worker, pool
lifecycle in the engine), the inline store write path and crash safety
of a durable store behind the journal, and write-ahead journal rotation
at checkpoint epochs."""

import os
import signal

import numpy as np
import pytest

from repro.api.registry import EXECUTORS
from repro.causality.depgraph import edge_jaccard
from repro.core import StreamingConfig
from repro.metrics.timeseries import MetricFrame, MetricKey, TimeSeries
from repro.parallel import (
    EXECUTOR_KINDS,
    ProcessShardExecutor,
    ShardExecutor,
    default_workers,
)
from repro.persistence import (
    CheckpointPolicy,
    IngestJournal,
    SqliteBackend,
    journal_record_count,
    journal_segments,
    replay_journal,
    restore_engine,
)
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import (
    IngestionBus,
    SimulationStreamDriver,
    StreamingSieve,
    WindowAnalyzer,
)
from repro.streaming.window import WindowStore
from repro.tracing.callgraph import CallGraph
from repro.workload import constant_rate


def _double(x):
    """Module-level so process pools can pickle it."""
    return 2 * x


def _die(_payload):
    """Module-level crash task: a worker killed mid-window."""
    os.kill(os.getpid(), signal.SIGKILL)


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


def _synthetic_frame(components=4, metrics=5, points=120, seed=7,
                     shift_component=None):
    """Multi-component frame of noisy, load-shaped series."""
    rng = np.random.default_rng(seed)
    frame = MetricFrame()
    t = 0.5 * np.arange(points)
    for c in range(components):
        name = f"comp{c}"
        for m in range(metrics):
            base = (1.0 + m) * np.sin(t / (2.5 + c + 0.7 * m))
            values = base + rng.normal(0.0, 0.25, points)
            if name == shift_component:
                values = values + 50.0
            frame.add(TimeSeries(MetricKey(name, f"metric_{m}"),
                                 t, values))
    return frame


def _chain_graph(components=4):
    graph = CallGraph()
    for c in range(components - 1):
        graph.record_call(f"comp{c}", f"comp{c + 1}", 5)
    return graph


def _clustering_fingerprint(clusterings):
    return {
        component: (clustering.labels(),
                    clustering.representatives,
                    round(clustering.silhouette, 12))
        for component, clustering in clusterings.items()
    }


def _assert_same_analysis(left, right):
    assert left.reclustered == right.reclustered
    assert left.reused == right.reused
    assert left.recluster_reasons == right.recluster_reasons
    assert _clustering_fingerprint(left.clusterings) \
        == _clustering_fingerprint(right.clusterings)
    assert edge_jaccard(left.dependency_graph, right.dependency_graph,
                        level="metric") == 1.0


# ---------------------------------------------------------------------------
# Executor strategies


class TestExecutorRegistry:
    def test_kinds_and_defaults(self):
        serial = EXECUTORS.create("serial")
        assert serial.kind == "serial" and serial.workers == 1
        process = EXECUTORS.create("process", 2)
        assert process.kind == "process" and process.workers == 2
        process.close()
        assert default_workers() >= 1

    def test_registered_kinds_and_factory(self):
        assert EXECUTOR_KINDS == ("serial", "process")
        executor = EXECUTORS.create("process", 2)
        assert type(executor) is ProcessShardExecutor
        executor.close()

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_describe_reports_strategy(self, kind):
        with EXECUTORS.create(kind, 2) as executor:
            executor.map(_double, [1, 2, 3])
            assert executor.describe() == {
                "executor": kind,
                "executor_workers": executor.workers,
                "tasks_dispatched": 3,
            }

    def test_pool_size_one_falls_back_to_serial(self):
        # One worker cannot overlap anything; a pool would only add
        # dispatch overhead, so the factory degrades gracefully.
        executor = EXECUTORS.create("process", 1)
        assert type(executor) is ShardExecutor
        assert executor.kind == "serial"

    def test_rejects_unknown_kind_and_bad_workers(self):
        with pytest.raises(ValueError, match="unknown executor"):
            EXECUTORS.create("gpu")
        with pytest.raises(ValueError, match="workers"):
            EXECUTORS.create("process", -2)

    @pytest.mark.parametrize("kind", ["thread", "shm"])
    def test_config_rejects_removed_executors(self, kind):
        with pytest.raises(ValueError,
                           match=r"registered: process, serial\)"):
            StreamingConfig(executor=kind)

    def test_map_preserves_payload_order(self):
        payloads = list(range(17))
        expected = [_double(p) for p in payloads]
        for kind in ("serial", "process"):
            with EXECUTORS.create(kind, 2) as executor:
                assert executor.map(_double, payloads) == expected
                assert executor.tasks_dispatched == len(payloads)

    def test_single_payload_runs_inline(self):
        with EXECUTORS.create("process", 2) as executor:
            assert executor.map(_double, [21]) == [42]
            assert executor._pool is None  # never spun up

    def test_close_is_idempotent(self):
        executor = EXECUTORS.create("process", 2)
        executor.map(_double, [1, 2, 3])
        executor.close()
        executor.close()

    def test_map_after_close_starts_a_fresh_pool(self):
        executor = EXECUTORS.create("process", 2)
        executor.map(_double, [1, 2])
        executor.close()
        assert executor._pool is None
        assert executor.map(_double, [5, 6]) == [10, 12]
        assert executor._pool is not None
        executor.close()

    def test_broken_pool_recovers_on_next_map(self):
        executor = EXECUTORS.create("process", 2)
        with pytest.raises(Exception, match="process pool"):
            executor.map(_die, [0, 1])
        # A later map after the crash builds a fresh pool and works.
        assert executor.map(_double, [3, 4]) == [6, 8]
        executor.close()


# ---------------------------------------------------------------------------
# Determinism: serial == process


class TestExecutorDeterminism:
    @pytest.fixture(scope="class")
    def frames(self):
        first = _synthetic_frame()
        second = _synthetic_frame(shift_component="comp1")
        return first, second

    def _analyze_two_windows(self, executor, frames):
        first, second = frames
        analyzer = WindowAnalyzer(config=StreamingConfig(), seed=5,
                                  executor=executor)
        graph = _chain_graph()
        initial = analyzer.analyze(first, graph, 0.0, 60.0, index=0)
        drifted = analyzer.analyze(second, graph, 60.0, 120.0, index=1)
        return initial, drifted

    def test_process_matches_serial(self, frames):
        serial = self._analyze_two_windows(ShardExecutor(), frames)
        with EXECUTORS.create("process", 2) as executor:
            parallel = self._analyze_two_windows(executor, frames)
        for left, right in zip(parallel, serial):
            _assert_same_analysis(left, right)
        # The shifted component escalated through the drift path on
        # both strategies (exercises parallel shape checks).
        assert serial[1].recluster_reasons.get("comp1") == "drift"

    def test_streamed_windows_match_serial(self):
        def run(executor_kind):
            config = StreamingConfig(
                window=20.0, hop=10.0, retention=120.0,
                executor=executor_kind, executor_workers=2,
            )
            driver = SimulationStreamDriver(
                _chain_app(), constant_rate(40.0), config=config,
                seed=3, record_frame=False,
            )
            try:
                return driver.run(50.0)
            finally:
                driver.close()

        reference = run("serial")
        assert reference
        produced = run("process")
        assert len(produced) == len(reference)
        for left, right in zip(produced, reference):
            assert (left.index, left.start, left.end) \
                == (right.index, right.start, right.end)
            _assert_same_analysis(left, right)

    def test_engine_builds_executor_from_config(self):
        config = StreamingConfig(executor="process", executor_workers=1)
        engine = StreamingSieve(config=config, seed=1)
        # pool-size-1 fallback reaches the engine wiring too.
        assert engine.executor.kind == "serial"
        engine.close()
        config = StreamingConfig(executor="process", executor_workers=3)
        engine = StreamingSieve(config=config, seed=1)
        assert engine.executor.kind == "process"
        assert engine.analyzer.executor is engine.executor
        assert engine.summary()["executor"] == "process"
        engine.close()

    def test_analysis_after_a_worker_crash_matches_serial(self, frames):
        serial = self._analyze_two_windows(ShardExecutor(), frames)
        with EXECUTORS.create("process", 2) as executor:
            with pytest.raises(Exception, match="process pool"):
                executor.map(_die, [0, 1])
            recovered = self._analyze_two_windows(executor, frames)
        for left, right in zip(recovered, serial):
            _assert_same_analysis(left, right)


# ---------------------------------------------------------------------------
# Process pool lifecycle inside the engine


def _process_config():
    return StreamingConfig(window=20.0, hop=10.0, retention=120.0,
                           executor="process", executor_workers=2)


class TestProcessLifecycle:
    def test_engine_close_shuts_the_pool_down(self):
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=_process_config(),
            seed=3, record_frame=False,
        )
        driver.run(30.0)
        executor = driver.engine.executor
        assert executor._pool is not None  # the run used the pool
        driver.close()
        assert executor._pool is None
        driver.close()  # idempotent

    def test_pool_across_checkpoint_resume(self, tmp_path):
        config = _process_config()
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config,
            seed=3, record_frame=False,
        )
        policy = CheckpointPolicy(driver.engine,
                                  tmp_path / "state.ckpt", every=1)
        driver.engine.subscribe(policy)
        early = driver.run(30.0)
        driver.close()
        assert driver.engine.executor._pool is None

        restored = restore_engine(tmp_path / "state.ckpt", config)
        assert restored.executor.kind == "process"
        resumed = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config,
            seed=3, record_frame=False, engine=restored,
        )
        late = resumed.resume_run(30.0)
        assert early and late  # both runs analyzed windows
        assert restored.executor._pool is not None
        resumed.close()
        assert restored.executor._pool is None


# ---------------------------------------------------------------------------
# A durable store behind the journal


class _DyingBackend(SqliteBackend):
    """Sqlite that stops receiving flushes once ``dead`` is set: the
    process died between journal append and durable delivery."""

    dead = False

    def write(self, component, metric, times, values):
        if self.dead:
            return 0
        return super().write(component, metric, times, values)


def _hard_kill(backend):
    """Drop a backend's sqlite locks as a dead process would:
    uncommitted work rolls back, nothing is flushed or closed."""
    backend._conn.rollback()
    backend._conn.close()


class _ExplodingBackend(SqliteBackend):
    def write(self, component, metric, times, values):
        raise OSError("disk on fire")


class TestInlineWritePath:
    """The store backend is written inline by the window store, on the
    bus's flush: no queue sits between a flush and a query."""

    def test_read_your_writes(self, tmp_path):
        backend = SqliteBackend(tmp_path / "w.db")
        store = WindowStore(backend=backend)
        store.ingest("web", "cpu", [1.0, 2.0], [0.5, 0.6])
        store.ingest("web", "cpu", [3.0], [0.7])
        assert backend.query("web", "cpu").values.tolist() \
            == [0.5, 0.6, 0.7]
        assert backend.sample_count() == 3
        assert backend.newest_time("web", "cpu") == 3.0
        assert backend.keys() == [MetricKey("web", "cpu")]
        assert store.backend_writes == 2
        backend.close()

    def test_engine_bus_flush_reaches_the_backend(self, tmp_path):
        backend = SqliteBackend(tmp_path / "w.db")
        engine = StreamingSieve(seed=1, store_backend=backend)
        engine.bus.publish("api", 1.0, {"rps": 10.0})
        engine.bus.publish("api", 2.0, {"rps": 12.0})
        engine.bus.flush()
        assert backend.query("api", "rps").times.tolist() == [1.0, 2.0]
        engine.close()
        backend.close()

    def test_backend_errors_reach_the_publisher(self, tmp_path):
        journal = IngestJournal(tmp_path / "ingest.journal")
        engine = StreamingSieve(
            seed=1, journal=journal,
            store_backend=_ExplodingBackend(tmp_path / "w.db"))
        engine.bus.publish("web", 1.0, {"cpu": 1.0})
        with pytest.raises(OSError, match="disk on fire"):
            engine.bus.flush()
        # The ring did not take a batch the store refused, and the
        # journal holds it for a later restore.
        assert engine.windows.total_points() == 0
        assert journal_record_count(tmp_path / "ingest.journal") == 1
        engine.close()
        journal.close()


class TestBackendCrashSafety:
    def test_journal_repairs_backend_after_crash(self, tmp_path):
        """Kill mid-run: the store misses a tail, journal replay heals."""
        journal = IngestJournal(tmp_path / "ingest.journal")
        backend = _DyingBackend(tmp_path / "points.db")
        bus = IngestionBus()
        bus.attach_journal(journal)
        bus.subscribe(backend)
        for i in range(150):
            bus.publish("web", float(i), {"cpu": float(i)})
            if i % 10 == 9:
                bus.flush()  # journaled ahead of store delivery
            if i == 69:
                backend.dead = True
        bus.flush()
        journal.close()
        journaled = sum(len(t) for _c, _m, t, _v
                        in replay_journal(tmp_path / "ingest.journal"))
        assert journaled == 150
        # Crash between journal append and durable delivery.
        _hard_kill(backend)
        del bus

        crashed = SqliteBackend(tmp_path / "points.db")
        lost = 150 - crashed.sample_count()
        assert lost > 0  # the crash genuinely lost store writes

        # Restore: journal replay rebuilds the rings and heals the
        # backend's missing tail through newest_time suffix writes.
        config = StreamingConfig(window=20.0, hop=10.0, retention=1e6)
        engine = restore_engine(
            _empty_state(config), config,
            journal_path=tmp_path / "ingest.journal",
            store_backend=crashed,
        )
        assert engine.windows.total_points() == 150
        assert crashed.sample_count() == 150
        assert crashed.query("web", "cpu").times.tolist() \
            == [float(i) for i in range(150)]
        crashed.close()

    def test_crash_restart_determinism_with_sqlite_store(
            self, tmp_path):
        """The crash-restart acceptance scenario with a sqlite store
        and checkpoint-epoch journal rotation in the loop."""
        config = StreamingConfig(window=20.0, hop=10.0, retention=60.0)

        reference = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            record_frame=False,
        )
        reference_windows = reference.run(90.0)

        journal = IngestJournal(tmp_path / "ingest.journal")
        store = SqliteBackend(tmp_path / "points.db")
        engine = StreamingSieve(config=config, seed=3, journal=journal,
                                application="demo", workload="stream",
                                store_backend=store)
        doomed = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            record_frame=False, engine=engine,
        )
        policy = CheckpointPolicy(engine, tmp_path / "state.ckpt",
                                  every=1)
        engine.subscribe(policy)
        early = doomed.run(50.0)
        journal.close()
        _hard_kill(store)
        assert journal.rotations >= 1  # epochs sealed the journal
        del doomed

        resumed_backend = SqliteBackend(tmp_path / "points.db")
        restored = restore_engine(
            tmp_path / "state.ckpt", config,
            journal_path=tmp_path / "ingest.journal",
            store_backend=resumed_backend,
        )
        resurrected = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            record_frame=False, engine=restored,
        )
        late = resurrected.resume_run(40.0)
        produced = early + late
        assert len(produced) == len(reference_windows)
        for left, right in zip(produced, reference_windows):
            assert (left.index, left.start, left.end) \
                == (right.index, right.start, right.end)
            _assert_same_analysis(left, right)
        resumed_backend.close()


def _empty_state(config):
    """Checkpoint state of a fresh engine (restore plumbing helper)."""
    from repro.persistence import checkpoint_state

    return checkpoint_state(StreamingSieve(config=config, seed=1))


# ---------------------------------------------------------------------------
# Journal rotation


class TestJournalRotation:
    def _journal_with_epochs(self, path, epochs=3, points=10):
        journal = IngestJournal(path)
        for epoch in range(epochs):
            t0 = epoch * 10.0
            times = [t0 + i for i in range(points)]
            journal.append_batch("web", "cpu", times, times)
            if epoch < epochs - 1:
                journal.rotate()
        journal.commit()
        return journal

    def test_rotate_seals_segments_and_replay_spans_them(
            self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = self._journal_with_epochs(path)
        assert journal.rotations == 2
        assert len(journal_segments(path)) == 2
        assert journal_record_count(path) == 3
        times = [t for _c, _m, t, _v in replay_journal(path)]
        flattened = np.concatenate(times)
        assert np.all(np.diff(flattened) >= 0)  # global write order
        assert flattened[0] == 0.0 and flattened[-1] == 29.0
        journal.close()

    def test_rotate_without_records_creates_no_segment(self, tmp_path):
        journal = IngestJournal(tmp_path / "ingest.journal")
        assert journal.rotate() is None
        journal.append_batch("web", "cpu", [1.0], [1.0])
        assert journal.rotate() is not None
        assert journal.rotate() is None  # nothing new since the seal
        journal.close()

    def test_retire_drops_only_fully_stale_segments(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = self._journal_with_epochs(path)
        # Segment 1 covers t<=9, segment 2 covers t<=19.  Retirement
        # is strict: a sample exactly at the cutoff is still retained
        # by ring eviction, so its segment must survive.
        assert journal.retire(9.0) == 0
        assert journal.retire(9.5) == 1
        assert len(journal_segments(path)) == 1
        assert journal.retire(9.5) == 0
        assert journal_record_count(path) == 2
        assert journal.retire(25.0) == 1
        assert journal_record_count(path) == 1  # active file survives
        journal.close()

    def test_retire_scans_segments_of_a_dead_run(self, tmp_path):
        path = tmp_path / "ingest.journal"
        self._journal_with_epochs(path).close()
        # A resumed journal has no in-memory newest-time cache; retire
        # must recover per-segment horizons from the files themselves.
        resumed = IngestJournal(path)
        assert resumed.retire(19.5) == 2
        assert journal_segments(path) == []
        resumed.close()

    def test_truncate_removes_stale_segments(self, tmp_path):
        path = tmp_path / "ingest.journal"
        self._journal_with_epochs(path).close()
        fresh = IngestJournal(path, truncate=True)
        assert journal_segments(path) == []
        assert journal_record_count(path) == 0
        fresh.append_batch("web", "cpu", [1.0], [1.0])
        fresh.rotate()
        # Sequence numbering restarts cleanly after a truncate.
        assert [s.name for s in journal_segments(path)] \
            == ["ingest.journal.000001"]
        fresh.close()

    def test_sequence_continues_across_reopen(self, tmp_path):
        path = tmp_path / "ingest.journal"
        self._journal_with_epochs(path).close()
        resumed = IngestJournal(path)
        resumed.append_batch("web", "cpu", [40.0], [1.0])
        resumed.rotate()
        assert [s.name for s in journal_segments(path)][-1] \
            == "ingest.journal.000003"
        resumed.close()

    def test_torn_tail_is_forgiven_only_on_the_active_file(
            self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = self._journal_with_epochs(path)
        journal.append_batch("web", "cpu", [99.0], [1.0])
        journal.close()
        os.truncate(path, path.stat().st_size - 5)
        assert journal_record_count(path) == 3  # torn tail skipped
        segment = journal_segments(path)[0]
        os.truncate(segment, segment.stat().st_size - 5)
        with pytest.raises(ValueError, match="torn journal frame"):
            list(replay_journal(path))

    def test_checkpoint_policy_rotates_and_retires(self, tmp_path):
        config = StreamingConfig(window=20.0, hop=10.0, retention=30.0,
                                 checkpoint_every_windows=1)
        journal = IngestJournal(tmp_path / "ingest.journal")
        engine = StreamingSieve(config=config, seed=3, journal=journal,
                                application="demo", workload="stream")
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            record_frame=False, engine=engine,
        )
        policy = CheckpointPolicy(engine, tmp_path / "state.ckpt")
        engine.subscribe(policy)
        windows = driver.run(80.0)
        assert policy.checkpoints_written == len(windows)
        assert journal.rotations == len(windows)
        # Short retention: early segments became redundant and were
        # retired, so the journal footprint is bounded.
        assert journal.segments_retired > 0
        remaining = journal_segments(tmp_path / "ingest.journal")
        assert len(remaining) < journal.rotations
        driver.close()
        journal.close()

    def test_checkpoint_retire_respects_stale_series(self, tmp_path):
        """A quiet series' ring keeps old samples (eviction is
        relative to its *own* newest sample), so retirement anchors at
        the stalest series -- the global clock must not retire
        segments replay still needs."""
        config = StreamingConfig(window=20.0, hop=10.0, retention=30.0)
        journal = IngestJournal(tmp_path / "ingest.journal")
        engine = StreamingSieve(config=config, seed=1, journal=journal)
        policy = CheckpointPolicy(engine, tmp_path / "state.ckpt",
                                  every=1)
        # Epoch 1: a sparse series that then goes quiet at t=25.
        engine.bus.publish_points("quiet", "gauge", [20.0, 25.0],
                                  [1.0, 2.0])
        engine.bus.flush()
        journal.rotate()
        # Epoch 2: a busy series pushes the global clock far past the
        # naive cutoff (200 - 30 = 170 >> 25).
        times = [float(t) for t in range(100, 201)]
        engine.bus.publish_points("busy", "cpu", times, times)
        engine.bus.flush()
        engine.last_offer = 200.0
        policy.on_window(None)
        assert policy.checkpoints_written == 1
        # The quiet epoch survives: its ring still retains t=[20, 25].
        assert journal.segments_retired == 0
        replayed = {(c, m): t.tolist() for c, m, t, _v
                    in replay_journal(tmp_path / "ingest.journal")}
        assert replayed[("quiet", "gauge")] == [20.0, 25.0]
        engine.close()
        journal.close()

    def test_rotation_can_be_disabled(self, tmp_path):
        config = StreamingConfig(window=20.0, hop=10.0,
                                 retention=300.0,
                                 journal_rotate_on_checkpoint=False)
        journal = IngestJournal(tmp_path / "ingest.journal")
        engine = StreamingSieve(config=config, seed=3, journal=journal,
                                application="demo", workload="stream")
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
            record_frame=False, engine=engine,
        )
        policy = CheckpointPolicy(engine, tmp_path / "state.ckpt",
                                  every=1)
        engine.subscribe(policy)
        driver.run(40.0)
        assert journal.rotations == 0
        assert journal_segments(tmp_path / "ingest.journal") == []
        driver.close()
        journal.close()
