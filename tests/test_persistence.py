"""Tests for the persistence subsystem: storage backends, the
write-ahead ingest journal, checkpoint/restore, backpressure, the
drift+SLA RCA trigger, and crash-restart determinism."""

import dataclasses
import errno
import json
import os
import signal
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.autoscaling.sla import SLACondition
from repro.causality.depgraph import edge_jaccard
from repro.core import Sieve, StreamingConfig
from repro.metrics.store import MetricsStore
from repro.metrics.timeseries import MetricKey
from repro.persistence import (
    CheckpointPolicy,
    IngestJournal,
    MemoryBackend,
    SqliteBackend,
    checkpoint_state,
    journal_record_count,
    journal_segments,
    load_checkpoint,
    replay_journal,
    restore_engine,
    save_checkpoint,
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
    WindowDiffRCA,
    WindowStore,
)
from repro.workload import constant_rate


def _frame(component, metric, times, values) -> bytes:
    """One journal frame, built from the documented layout alone."""
    t = [float(x) for x in times]
    v = [float(x) for x in values]
    c = component.encode("utf-8", "surrogatepass")
    m = metric.encode("utf-8", "surrogatepass")
    payload = (struct.pack("<HHI", len(c), len(m), len(t)) + c + m
               + struct.pack(f"<{len(t)}d", *t)
               + struct.pack(f"<{len(v)}d", *v))
    return struct.pack("<II", len(payload), zlib.crc32(payload)) \
        + payload


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


def _backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite-autocommit":
        # Every write crosses the group-commit boundary, so reads see
        # committed rows rather than the writer's open transaction.
        return SqliteBackend(tmp_path / "points.db", commit_every=1)
    return SqliteBackend(tmp_path / "points.db")


BACKENDS = ("memory", "sqlite", "sqlite-autocommit")


# ---------------------------------------------------------------------------
# The backend contract


@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendContract:
    def test_write_query_roundtrip(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        backend.write("web", "cpu", [1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        backend.write("web", "cpu", [4.0], [40.0])
        ts = backend.query("web", "cpu")
        assert ts.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ts.values.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_range_query_is_inclusive(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        backend.write("web", "cpu", np.arange(10.0), np.arange(10.0))
        ts = backend.query("web", "cpu", 3.0, 6.0)
        assert ts.times.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_unknown_key_is_empty(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        assert len(backend.query("nope", "nothing")) == 0

    def test_counts_and_keys(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        backend.write("a", "m1", [1.0], [1.0])
        backend.write("a", "m2", [1.0, 2.0], [1.0, 2.0])
        backend.write("b", "m1", [1.0], [1.0])
        assert backend.series_count() == 3
        assert backend.sample_count() == 4
        assert backend.keys() == [MetricKey("a", "m1"),
                                  MetricKey("a", "m2"),
                                  MetricKey("b", "m1")]

    def test_to_frame_keep_filter(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        backend.write("a", "m1", [1.0], [1.0])
        backend.write("a", "m2", [1.0], [2.0])
        frame = backend.to_frame(keep=[MetricKey("a", "m2")])
        assert len(frame) == 1
        assert frame.get(MetricKey("a", "m2")).values.tolist() == [2.0]

    def test_metadata_roundtrip(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        backend.set_metadata({"application": "demo", "seed": 3})
        assert backend.metadata() == {"application": "demo", "seed": 3}

    def test_bus_subscriber_protocol(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        bus = IngestionBus()
        bus.subscribe(backend)
        bus.publish("web", 1.0, {"cpu": 5.0})
        bus.flush()
        assert backend.sample_count() == 1

    def test_newest_time(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        assert backend.newest_time("web", "cpu") is None
        backend.write("web", "cpu", [1.0, 4.5], [1.0, 2.0])
        assert backend.newest_time("web", "cpu") == 4.5


class TestDurability:
    def test_sqlite_reopen_keeps_out_of_order_guard(self, tmp_path):
        path = tmp_path / "points.db"
        backend = SqliteBackend(path)
        backend.write("web", "cpu", [10.0, 11.0], [1.0, 2.0])
        backend.close()
        reopened = SqliteBackend(path)
        # Appending an older timeline would corrupt the point log and
        # only surface at read time; it must fail at the write.
        with pytest.raises(ValueError, match="out-of-order"):
            reopened.write("web", "cpu", [5.0], [1.0])
        reopened.write("web", "cpu", [12.0], [3.0])
        assert reopened.query("web", "cpu").times.tolist() \
            == [10.0, 11.0, 12.0]

    def test_sqlite_survives_reopen(self, tmp_path):
        path = tmp_path / "points.db"
        backend = SqliteBackend(path)
        backend.write("web", "cpu", [1.0, 2.0], [1.0, 2.0])
        backend.set_metadata({"seed": 7})
        backend.close()
        reopened = SqliteBackend(path)
        assert reopened.sample_count() == 2
        assert reopened.metadata()["seed"] == 7
        assert reopened.query("web", "cpu").values.tolist() == [1.0, 2.0]

    def test_sqlite_rejects_out_of_order(self, tmp_path):
        backend = SqliteBackend(tmp_path / "points.db")
        backend.write("web", "cpu", [5.0, 6.0], [1.0, 2.0])
        # The guard covers rows still pending in the open transaction.
        with pytest.raises(ValueError, match="out-of-order"):
            backend.write("web", "cpu", [4.0], [1.0])
        # Another series keeps its own tail.
        backend.write("db", "cpu", [1.0], [1.0])
        backend.write("web", "cpu", [6.0, 7.0], [3.0, 4.0])
        assert backend.query("web", "cpu").times.tolist() \
            == [5.0, 6.0, 6.0, 7.0]
        backend.close()

    def test_sqlite_trimmed_store_reopens(self, tmp_path):
        path = tmp_path / "points.db"
        schedule = "10s:full,inf:5s"
        backend = SqliteBackend(path, schedule=schedule)
        t = np.arange(0.0, 60.0, 0.5)
        backend.write("web", "cpu", t, np.sin(t))
        assert backend.trim()["points_rolled"] > 0
        reference = backend.query_rollup("web", "cpu")
        backend.close()
        reopened = SqliteBackend(path, schedule=schedule)
        restored = reopened.query_rollup("web", "cpu")
        assert np.array_equal(restored.times, reference.times)
        assert np.array_equal(restored.means, reference.means)
        assert np.array_equal(restored.counts, reference.counts)
        assert restored.total_samples() == t.size
        # The ordering guard survives the migration and the reopen.
        with pytest.raises(ValueError, match="out-of-order"):
            reopened.write("web", "cpu", [0.0], [0.0])
        reopened.write("web", "cpu", [60.0], [1.0])
        assert reopened.newest_time("web", "cpu") == 60.0
        reopened.close()

    def test_backend_registry_dispatch(self, tmp_path):
        create = registry.BACKENDS.create
        assert registry.BACKENDS.names() == ["memory", "sqlite"]
        assert isinstance(create("memory", None), MemoryBackend)
        assert isinstance(create("sqlite", tmp_path / "x.db"),
                          SqliteBackend)
        with pytest.raises(ValueError):
            create("spill", tmp_path / "d")


# ---------------------------------------------------------------------------
# The acceptance invariant: replay through any backend reproduces the
# in-memory batch analysis exactly.


@pytest.fixture(scope="module")
def batch_result():
    sieve = Sieve(_chain_app())
    return sieve.run(constant_rate(40.0), duration=45.0, seed=7,
                     workload_name="replay-check")


@pytest.mark.parametrize("kind", BACKENDS)
class TestReplayReproducesBatchAnalysis:
    def test_replay_is_exact(self, kind, tmp_path, batch_result):
        backend = _backend(kind, tmp_path)
        for ts in batch_result.run.frame:
            backend.write(ts.key.component, ts.key.metric,
                          ts.times, ts.values)
        backend.flush()
        replayed_frame = backend.to_frame()
        replayed_run = dataclasses.replace(batch_result.run,
                                           frame=replayed_frame)
        replayed = Sieve(_chain_app()).analyze(replayed_run, seed=7)
        for component in batch_result.clusterings:
            assert replayed.clusterings[component].labels() \
                == batch_result.clusterings[component].labels()
            assert replayed.clusterings[component].representatives \
                == batch_result.clusterings[component].representatives
        assert edge_jaccard(replayed.dependency_graph,
                            batch_result.dependency_graph,
                            level="metric") == 1.0


# ---------------------------------------------------------------------------
# The write-ahead ingest journal


class TestIngestJournal:
    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        t = np.array([1.0, 1.5 + 1e-13, 2.0])
        v = np.array([0.1, np.pi, -3.7e-9])
        journal.append_batch("web", "cpu", t, v)
        journal.append_batch("db", "mem", [3.0], [4.0])
        journal.close()
        records = list(replay_journal(path))
        assert len(records) == 2
        component, metric, rt, rv = records[0]
        assert (component, metric) == ("web", "cpu")
        assert rt.tolist() == t.tolist()  # bit-identical floats
        assert rv.tolist() == v.tolist()
        assert journal_record_count(path) == 2

    def test_record_bytes_are_pinned(self, tmp_path):
        # The on-disk frame layout is the resume contract: a 12-byte
        # header, then per batch u32 length + u32 crc32 + payload of
        # u16/u16/u32 counts, UTF-8 names and little-endian float64s
        # (ints, float32s and tuples widened exactly as float(x)).
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        t = np.array([1.0, 1.5 + 1e-13, 2.0, 1e22, 5e-324])
        v = np.array([0.1, np.pi, -3.7e-9, np.inf, -0.0])
        batches = [
            ("web", "cpu", t, v),
            ("db", 'io{dev="sda"}', [3, 4], (4, 5.5)),
            ("db", "mem", np.float32([0.1]), np.arange(1)),
        ]
        for batch in batches:
            journal.append_batch(*batch)
        journal.close()
        expected = b"SIEVEJNL" + struct.pack("<I", 1) + b"".join(
            _frame(*batch) for batch in batches)
        assert path.read_bytes() == expected
        # Spot-check the widened values and the labelled name.
        assert struct.pack("<4d", 3.0, 4.0, 4.0, 5.5) in expected
        assert struct.pack("<d", float(np.float32(0.1))) in expected
        assert b'io{dev="sda"}' in expected

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        journal.append_batch("web", "cpu", [1.0], [1.0])
        journal.close()
        with open(path, "ab") as handle:
            handle.write(_frame("web", "cpu", [2.0], [2.0])[:-3])  # torn
        assert journal_record_count(path) == 1

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        journal.append_batch("web", "cpu", [1.0], [1.0])
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x13\xfe garbage \xff" * 3)
            handle.write(_frame("web", "cpu", [2.0], [2.0]))
        with pytest.raises(ValueError, match="corrupt journal frame"):
            list(replay_journal(path))
        # Opening it for appending refuses too, and repairs nothing.
        before = path.read_bytes()
        with pytest.raises(ValueError, match="corrupt journal frame"):
            IngestJournal(path)
        assert path.read_bytes() == before

    def test_missing_journal_is_empty(self, tmp_path):
        assert list(replay_journal(tmp_path / "absent.journal")) == []

    def test_legacy_json_lines_journal_is_refused(self, tmp_path, capsys):
        from repro.api import build_pipeline, load_spec
        from repro.cli import main

        path = tmp_path / "ingest.journal"
        checkpoint = tmp_path / "engine.ckpt"
        argv = ["serve", "--port", "0", "--journal", str(path),
                "--checkpoint", str(checkpoint)]
        # A checkpoint the resumed invocation accepts: written by a
        # session of exactly the spec that invocation resolves.
        assert main(["spec", *argv, "-o", str(tmp_path / "run.json")]) \
            == 0
        session = build_pipeline(load_spec(tmp_path / "run.json"))
        save_checkpoint(session.engine, checkpoint,
                        spec=session.spec.to_dict())
        session.close()
        legacy = (b'{"c":"web","m":"cpu","t":[1.0],"v":[1.0]}\n'
                  b'{"c":"web","m":"cpu","t":[2.0],"v":[2.0]}\n')
        path.write_bytes(legacy)
        with pytest.raises(ValueError, match="JSON-lines"):
            IngestJournal(path)
        with pytest.raises(ValueError, match="JSON-lines"):
            list(replay_journal(path))
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert "JSON-lines" in capsys.readouterr().err
        assert path.read_bytes() == legacy

    def test_mismatched_lengths_write_nothing(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        journal.append_batch("web", "cpu", [1.0], [1.0])
        size = path.stat().st_size
        with pytest.raises(ValueError, match="equal length"):
            journal.append_batch("web", "cpu", [2.0, 3.0], [2.0])
        with pytest.raises(ValueError, match="byte limit"):
            journal.append_batch("web", "m" * 70_000, [2.0], [2.0])
        assert path.stat().st_size == size
        assert journal.records_written == 1
        journal.close()
        # What was journaled still restores.
        store = WindowStore()
        for record in replay_journal(path):
            store.ingest(*record)
        assert store.total_points() == 1

    def test_half_written_frame_is_cut_back(self, tmp_path):
        # Disk full after half of a flush's single write landed: the
        # journal truncates to its last complete frame before the error
        # reaches the bus, which requeues the whole flush; the next
        # flush journals every batch of it exactly once.
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        real = journal._fh

        class HalfWrite:
            writes = 0

            def write(self, data):
                HalfWrite.writes += 1
                if HalfWrite.writes == 1:
                    real.write(bytes(data[:len(data) // 2]))
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real.write(data)

            def __getattr__(self, name):
                return getattr(real, name)

        bus = IngestionBus()
        bus.attach_journal(journal)
        delivered = []
        bus.subscribe(lambda c, m, t, v: delivered.append(
            (c, m, t.tolist(), v.tolist())))
        bus.publish_points("web", "cpu", [1.0, 2.0], [1.0, 2.0])
        bus.flush()
        size = path.stat().st_size
        bus.publish_points("web", "cpu", [3.0], [3.0])
        bus.publish_points("db", "mem", [1.0, 2.0], [5.0, 6.0])
        bus.publish_points("db", "io", [1.0], [7.0])
        journal._fh = HalfWrite()
        with pytest.raises(OSError):
            bus.flush()
        assert path.stat().st_size == size  # the whole flush cut back
        assert len(delivered) == 1  # none of the flush delivered
        assert bus.pending_points == 4  # all of it requeued
        assert bus.flush() == 4
        assert HalfWrite.writes == 2  # one write per flush
        journal.close()
        replayed = [(c, m, t.tolist(), v.tolist())
                    for c, m, t, v in replay_journal(path)]
        assert replayed == delivered
        assert sum(len(t) for _c, _m, t, _v in replayed) == 6

    def test_over_long_name_mid_flush_writes_nothing(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        bus = IngestionBus()
        bus.attach_journal(journal)
        delivered = []
        bus.subscribe(lambda c, m, t, v: delivered.append((c, m)))
        bus.publish_points("web", "cpu", [1.0, 2.0], [1.0, 2.0])
        bus.publish_points("web", "m" * 70_000, [1.0], [1.0])
        bus.publish_points("db", "mem", [1.0], [1.0])
        size = path.stat().st_size
        with pytest.raises(ValueError, match="byte limit"):
            bus.flush()
        assert path.stat().st_size == size
        assert journal.records_written == 0
        assert bus.stats.journaled_batches == 0
        assert delivered == []
        assert bus.pending_points == 4
        journal.close()
        assert journal_record_count(path) == 0

    def test_crash_between_journal_and_delivery_restores_once(
            self, tmp_path):
        # The whole flush is journaled, then the first subscriber raises
        # on every batch and the engine is dropped before anything
        # reached the rings: a restore rebuilds every key exactly once.
        from repro.streaming import StreamingSieve

        path = tmp_path / "ingest.journal"
        config = StreamingConfig(window=20.0, hop=10.0, retention=1e6)

        def explode(component, metric, times, values):
            raise RuntimeError("crash before delivery")

        bus = IngestionBus()
        bus.subscribe(explode)
        engine = StreamingSieve(config=config, seed=1, bus=bus,
                                journal=IngestJournal(path))
        sent = {("web", "cpu"): [1.0, 2.0, 3.0], ("web", "mem"): [1.0],
                ("db", "io"): [0.5, 1.5]}
        for (component, metric), times in sent.items():
            bus.publish_points(component, metric, times, times)
        with pytest.raises(RuntimeError, match="crash before delivery"):
            bus.flush()
        assert engine.windows.total_points() == 0
        state = checkpoint_state(engine)
        engine.bus.journal.close()
        del engine, bus

        restored = restore_engine(state, config, journal_path=path)
        for (component, metric), times in sent.items():
            ring = restored.windows.series(component, metric)
            assert ring.times.tolist() == times
            assert ring.values.tolist() == times
        assert restored.windows.total_points() == 6
        restored.close()

    def test_reopen_repairs_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        journal.append_batch("web", "cpu", [1.0], [1.0])
        journal.close()
        with open(path, "ab") as handle:
            handle.write(_frame("web", "cpu", [2.0], [2.0])[:-3])  # torn
        # A resumed run re-opens the same journal: the torn tail must
        # be truncated, or the next record merges into garbage.
        resumed = IngestJournal(path)
        resumed.append_batch("web", "cpu", [3.0], [3.0])
        resumed.close()
        records = list(replay_journal(path))
        assert [(c, m, t.tolist()) for c, m, t, _v in records] \
            == [("web", "cpu", [1.0]), ("web", "cpu", [3.0])]

    def test_truncate_starts_fresh(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        journal.append_batch("web", "cpu", [50.0], [1.0])
        journal.close()
        fresh = IngestJournal(path, truncate=True)
        fresh.append_batch("web", "cpu", [1.0], [1.0])
        fresh.close()
        records = list(replay_journal(path))
        assert len(records) == 1
        assert records[0][2].tolist() == [1.0]

    def test_bus_journals_ahead_of_delivery(self, tmp_path):
        path = tmp_path / "ingest.journal"
        journal = IngestJournal(path)
        bus = IngestionBus()
        bus.attach_journal(journal)
        delivered = []
        bus.subscribe(lambda c, m, t, v: delivered.append((c, m)))
        bus.publish("web", 1.0, {"cpu": 1.0, "mem": 2.0})
        bus.publish("web", 1.5, {"cpu": 2.0, "mem": 3.0})
        bus.flush()
        journal.close()
        records = list(replay_journal(path))
        assert {(c, m) for c, m, _t, _v in records} == set(delivered)
        assert bus.stats.journaled_batches == 2
        # Replaying through a window store rebuilds the exact state.
        store = WindowStore()
        for component, metric, t, v in records:
            store.ingest(component, metric, t, v)
        assert store.total_points() == 4

    def test_failing_journal_write_requeues_everything(self, tmp_path):
        class BrokenJournal:
            def append_batches(self, _batches):
                raise OSError("disk full")

            def commit(self):
                pass

        delivered = []
        bus = IngestionBus()
        bus.attach_journal(BrokenJournal())
        bus.subscribe(lambda c, m, t, v: delivered.append((c, m)))
        bus.publish_points("web", "cpu", [1.0], [1.0])
        bus.publish_points("db", "mem", [1.0], [1.0])
        with pytest.raises(OSError):
            bus.flush()
        # Nothing was journaled or delivered -- nothing may be lost.
        assert delivered == []
        assert bus.pending_points == 2

    def test_failing_sink_still_journals_its_batch(self, tmp_path):
        path = tmp_path / "ingest.journal"
        bus = IngestionBus()
        bus.attach_journal(IngestJournal(path))

        def explode(component, metric, times, values):
            raise RuntimeError("sink down")

        bus.subscribe(explode)
        bus.publish_points("web", "cpu", [1.0], [1.0])
        with pytest.raises(RuntimeError):
            bus.flush()
        # The write-ahead contract: the batch hit the journal first.
        assert journal_record_count(path) == 1
        bus.journal.close()


_floats = st.floats(allow_nan=True, allow_infinity=True,
                    allow_subnormal=True)
_records = st.lists(
    st.tuples(
        st.text(st.characters(exclude_categories=()), max_size=6),
        st.text(max_size=12),
        st.lists(st.tuples(_floats, _floats), max_size=4),
    ).map(lambda r: (r[0], r[1], [p[0] for p in r[2]],
                     [p[1] for p in r[2]])),
    min_size=1, max_size=5,
)


def _bits(records) -> list:
    """Records with their samples as raw float64 bytes (NaN-safe)."""
    return [(c, m, np.asarray(t, dtype=float).tobytes(),
             np.asarray(v, dtype=float).tobytes())
            for c, m, t, v in records]


def _write_journal(path, records, rotate=False) -> int:
    """Journal ``records`` (then seal them into a segment and journal
    one more batch, with ``rotate``); returns where the final frame of
    ``records`` starts."""
    journal = IngestJournal(path)
    for record in records[:-1]:
        journal.append_batch(*record)
    final_start = path.stat().st_size
    journal.append_batch(*records[-1])
    if rotate:
        journal.rotate()
        journal.append_batch("web", "cpu", [1.0], [1.0])
    journal.close()
    return final_start


class TestJournalFormatProperties:
    """Torn versus corrupt, over generated records and every offset."""

    @given(_records)
    @settings(max_examples=25, deadline=None)
    def test_torn_final_frame_is_forgiven_and_repaired(self, records):
        extra = ("web", "cpu", [1.0, 2.0], [-0.0, 5e-324])
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ingest.journal"
            final_start = _write_journal(path, records)
            data = path.read_bytes()
            assert data[final_start:] == _frame(*records[-1])
            assert _bits(replay_journal(path)) == _bits(records)
            for cut in range(final_start, len(data)):
                path.write_bytes(data[:cut])
                assert _bits(replay_journal(path)) \
                    == _bits(records[:-1])
                resumed = IngestJournal(path)
                assert path.stat().st_size == final_start
                resumed.append_batch(*extra)
                resumed.close()
                assert _bits(replay_journal(path)) \
                    == _bits([*records[:-1], extra])

    @given(_records, st.data())
    @settings(max_examples=50, deadline=None)
    def test_flipped_byte_before_final_frame_raises(self, records, data):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ingest.journal"
            final_start = _write_journal(path, records)
            raw = bytearray(path.read_bytes())
            offset = data.draw(st.integers(0, final_start - 1))
            raw[offset] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError):
                list(replay_journal(path))
            with pytest.raises(ValueError):
                IngestJournal(path)
            assert path.read_bytes() == bytes(raw)

    @given(_records, st.data())
    @settings(max_examples=25, deadline=None)
    def test_torn_rotated_segment_raises(self, records, data):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ingest.journal"
            final_start = _write_journal(path, records, rotate=True)
            (segment,) = journal_segments(path)
            raw = segment.read_bytes()
            segment.write_bytes(
                raw[:data.draw(st.integers(final_start + 1,
                                           len(raw) - 1))])
            with pytest.raises(ValueError, match="torn"):
                list(replay_journal(path))


# ---------------------------------------------------------------------------
# Backpressure


class TestBackpressure:
    def test_drop_oldest_keeps_newest_points(self):
        bus = IngestionBus(flush_threshold=10_000, max_pending=10,
                           overflow_policy="drop_oldest")
        bus.publish_points("web", "cpu", np.arange(8.0), np.zeros(8))
        bus.publish_points("db", "mem", 8.0 + np.arange(8.0),
                           np.zeros(8))
        assert bus.pending_points == 10
        assert bus.stats.overflow_dropped == 6
        received = {}
        bus.subscribe(lambda c, m, t, v: received.update({(c, m): t}))
        bus.flush()
        # The six oldest points (cpu t=0..5) were shed.
        assert received[("web", "cpu")].tolist() == [6.0, 7.0]
        assert len(received[("db", "mem")]) == 8

    def test_downsample_halves_and_keeps_newest(self):
        bus = IngestionBus(flush_threshold=10_000, max_pending=10,
                           overflow_policy="downsample")
        bus.publish_points("web", "cpu", np.arange(16.0), np.arange(16.0))
        assert bus.pending_points <= 10
        assert bus.stats.overflow_downsampled >= 6
        received = {}
        bus.subscribe(lambda c, m, t, v: received.update({(c, m): t}))
        bus.flush()
        kept = received[("web", "cpu")]
        assert kept[-1] == 15.0  # newest sample survives thinning
        assert len(kept) <= 10

    def test_flush_drains_before_shedding(self):
        # A healthy subscriber must see every point: crossing the
        # flush threshold delivers the buffers, so backpressure never
        # sheds data a flush could have drained.
        received = []
        bus = IngestionBus(flush_threshold=4096, max_pending=8192)
        bus.subscribe(lambda c, m, t, v: received.append(t.size))
        bus.publish_points("web", "cpu", np.arange(20_000.0),
                           np.zeros(20_000))
        assert sum(received) == 20_000
        assert bus.stats.overflow_dropped == 0
        assert bus.pending_points == 0

    def test_drop_oldest_keeps_buffer_memory_bounded(self):
        # The stalled-consumer case backpressure exists for: pending
        # is capped below the flush threshold, so shedding (not
        # flushing) is the only drain -- the underlying lists must not
        # keep every published point alive.
        bus = IngestionBus(flush_threshold=100_000, max_pending=64,
                           overflow_policy="drop_oldest")
        for step in range(5_000):
            bus.publish("web", float(step), {"cpu": 0.0})
        assert bus.pending_points <= 64
        buffer = bus._buffers[("web", "cpu")]
        assert len(buffer.times) <= 2 * 64 + 1
        # The ordering guard survives compaction.
        bus.publish("web", 1.0, {"cpu": 0.0})  # far in the past
        assert bus.stats.rejected_points == 1

    def test_unbounded_bus_never_sheds(self):
        bus = IngestionBus(flush_threshold=10_000)
        bus.publish_points("web", "cpu", np.arange(100.0), np.zeros(100))
        assert bus.pending_points == 100
        assert bus.stats.overflow_dropped == 0
        assert bus.stats.overflow_downsampled == 0

    def test_stats_surface_in_engine_summary(self):
        config = StreamingConfig(bus_max_pending=64,
                                 bus_overflow_policy="downsample")
        from repro.streaming import StreamingSieve

        engine = StreamingSieve(config=config, seed=1)
        assert engine.bus.max_pending == 64
        assert engine.bus.overflow_policy == "downsample"
        summary = engine.summary()
        assert "overflow_dropped" in summary
        assert "overflow_downsampled" in summary

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            StreamingConfig(bus_overflow_policy="explode")
        with pytest.raises(ValueError):
            IngestionBus(max_pending=-1)


# ---------------------------------------------------------------------------
# WindowStore with a durable backend


class TestWindowStoreBackend:
    def test_snapshot_reaches_past_retention(self, tmp_path):
        backend = SqliteBackend(tmp_path / "points.db")
        store = WindowStore(retention=10.0, max_points_per_series=32,
                            backend=backend)
        for step in range(100):
            store.ingest("web", "cpu", [float(step)], [float(step)])
        assert store.total_evicted() > 0
        # A recent window comes from the ring...
        recent = store.snapshot(95.0, 99.0)
        assert store.backend_reads == 0
        assert len(recent.get(MetricKey("web", "cpu"))) == 5
        # ...but an old window transparently falls back to the backend.
        old = store.snapshot(10.0, 20.0)
        assert store.backend_reads == 1
        ts = old.get(MetricKey("web", "cpu"))
        assert ts.times.tolist() == [float(i) for i in range(10, 21)]

    def test_full_history_snapshot_from_backend(self, tmp_path):
        backend = SqliteBackend(tmp_path / "points.db")
        store = WindowStore(retention=10.0, max_points_per_series=32,
                            backend=backend)
        for step in range(50):
            store.ingest("web", "cpu", [float(step)], [0.0])
        frame = store.snapshot()
        assert frame.get(MetricKey("web", "cpu")).times[0] == 0.0
        assert len(frame.get(MetricKey("web", "cpu"))) == 50

    def test_without_backend_old_windows_stay_truncated(self):
        store = WindowStore(retention=10.0, max_points_per_series=32)
        for step in range(100):
            store.ingest("web", "cpu", [float(step)], [0.0])
        old = store.snapshot(10.0, 20.0)
        assert len(old) == 0  # evicted, nothing to serve

    def test_resume_clip_drops_republished_duplicates(self):
        bus = IngestionBus()
        received = []
        bus.subscribe(
            lambda c, m, t, v: received.append((c, m, t.tolist())))
        bus.arm_resume_clip({("web", "cpu"): 2.0})
        bus.publish("web", 1.5, {"cpu": 1.0, "mem": 1.0})  # cpu clipped
        bus.publish("web", 2.0, {"cpu": 2.0})  # at bound -> clipped
        bus.publish("web", 2.5, {"cpu": 3.0})  # past bound -> disarms
        bus.publish("web", 1.0, {"cpu": 0.0})  # genuinely late
        bus.flush()
        assert bus.stats.resume_clipped == 2
        assert bus.stats.rejected_points == 1
        by_key = {(c, m): t for c, m, t in received}
        assert by_key[("web", "cpu")] == [2.5]
        assert by_key[("web", "mem")] == [1.5]

    def test_resume_clip_on_prebatched_points(self):
        bus = IngestionBus()
        bus.arm_resume_clip({("db", "mem"): 3.0})
        bus.publish_points("db", "mem", [1.0, 2.0, 3.0, 4.0],
                           [1.0, 2.0, 3.0, 4.0])
        assert bus.stats.resume_clipped == 3
        assert bus.pending_points == 1


# ---------------------------------------------------------------------------
# Metered MetricsStore over every backend


class TestMetricsStoreBackends:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_metering_is_backend_agnostic(self, kind, tmp_path):
        reference = MetricsStore()
        store = MetricsStore(backend=_backend(kind, tmp_path))
        for target in (reference, store):
            target.write_batch("web", "cpu", [1.0, 2.0], [1.0, 2.0])
            target.write_point("web", "mem", 1.0, 5.0)
            target.query("web", "cpu", 1.5, 2.0)
            target.simulate_dashboard_reads()
        assert store.usage.summary() == reference.usage.summary()
        assert store.series_count() == 2
        assert store.sample_count() == 3

    def test_replay_frame_keep_subset(self, tmp_path):
        backend = SqliteBackend(tmp_path / "points.db")
        source = MetricsStore()
        source.write_batch("c", "m1", [1.0, 2.0], [1.0, 2.0])
        source.write_batch("c", "m2", [1.0, 2.0], [3.0, 4.0])
        durable = MetricsStore(backend=backend)
        durable.replay_frame(source.frame, keep=[MetricKey("c", "m2")])
        assert durable.sample_count() == 2
        assert backend.query("c", "m2").values.tolist() == [3.0, 4.0]


# ---------------------------------------------------------------------------
# Checkpoint / restore


def _streaming_driver(seed=3, config=None, engine=None, shift=False):
    config = config or StreamingConfig(window=20.0, hop=10.0,
                                       retention=300.0)
    return SimulationStreamDriver(
        _chain_app(shift_backend=shift), constant_rate(40.0),
        config=config, seed=seed, record_frame=False, engine=engine,
    )


class TestCheckpointRestore:
    @pytest.fixture(scope="class")
    def checkpointed(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("checkpoint")
        journal = IngestJournal(tmp / "ingest.journal")
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)
        from repro.streaming import StreamingSieve

        engine = StreamingSieve(config=config, seed=3, journal=journal,
                                application="demo", workload="stream")
        driver = _streaming_driver(config=config, engine=engine)
        driver.run(60.0)
        save_checkpoint(driver.engine, tmp / "state.ckpt")
        journal.close()
        return tmp, config, driver

    def test_checkpoint_file_is_json(self, checkpointed):
        tmp, _config, driver = checkpointed
        state = load_checkpoint(tmp / "state.ckpt")
        assert state["version"] == 1
        assert state["stats"]["windows"] == driver.engine.stats.windows
        assert state["previous"] is not None

    def test_checkpoint_bytes_are_sorted_json_dumps(self, checkpointed):
        tmp, _config, driver = checkpointed
        spec = {"mode": "stream", "seed": 3}
        save_checkpoint(driver.engine, tmp / "pinned.ckpt", spec=spec)
        expected = json.dumps(checkpoint_state(driver.engine, spec=spec),
                              sort_keys=True)
        assert (tmp / "pinned.ckpt").read_bytes() \
            == expected.encode("utf-8")

    def test_restore_rebuilds_rings_and_state(self, checkpointed):
        tmp, config, driver = checkpointed
        restored = restore_engine(tmp / "state.ckpt", config,
                                  journal_path=tmp / "ingest.journal")
        original = driver.engine
        assert restored.windows.total_points() \
            == original.windows.total_points()
        assert restored.windows.first_time == original.windows.first_time
        assert restored._next_analysis == original._next_analysis
        assert restored.last_offer == original.last_offer
        assert restored.stats.as_dict() == original.stats.as_dict()
        prev_r, prev_o = restored.analyzer.previous, \
            original.analyzer.previous
        assert prev_r.index == prev_o.index
        for component in prev_o.clusterings:
            assert prev_r.clusterings[component].labels() \
                == prev_o.clusterings[component].labels()
        assert edge_jaccard(prev_r.dependency_graph,
                            prev_o.dependency_graph,
                            level="metric") == 1.0
        # Drift baselines restored exactly.
        frozen_r = {c: (b.metrics, b.coherence)
                    for c, b in restored.drift.baseline_items()}
        frozen_o = {c: (b.metrics, b.coherence)
                    for c, b in original.drift.baseline_items()}
        assert frozen_r == frozen_o

    def test_restore_rejects_config_mismatch(self, checkpointed):
        tmp, _config, _driver = checkpointed
        other = StreamingConfig(window=30.0, hop=10.0, retention=300.0)
        with pytest.raises(ValueError, match="mismatch"):
            restore_engine(tmp / "state.ckpt", other)

    def test_restore_heals_backend_missing_journal_tail(self, tmp_path):
        from repro.persistence import checkpoint_state
        from repro.streaming import StreamingSieve

        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)
        # The dead run journaled two batches but crashed between the
        # journal append and sink delivery of the second -- the durable
        # backend is short of the journal's tail.
        backend = SqliteBackend(tmp_path / "points.db")
        backend.write("web", "cpu", [1.0, 2.0], [1.0, 2.0])
        journal = IngestJournal(tmp_path / "ingest.journal")
        journal.append_batch("web", "cpu", [1.0, 2.0], [1.0, 2.0])
        journal.append_batch("web", "cpu", [3.0, 4.0], [3.0, 4.0])
        journal.close()
        state = checkpoint_state(StreamingSieve(config=config, seed=1))

        restored = restore_engine(state, config,
                                  journal_path=tmp_path
                                  / "ingest.journal",
                                  store_backend=backend)
        assert restored.windows.total_points() == 4
        # The backend hole was healed without duplicating the prefix.
        assert backend.sample_count() == 4
        assert backend.query("web", "cpu").times.tolist() \
            == [1.0, 2.0, 3.0, 4.0]

    def test_checkpoint_policy_cadence(self, tmp_path):
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0,
                                 checkpoint_every_windows=2)
        driver = _streaming_driver(config=config)
        policy = CheckpointPolicy(driver.engine,
                                  tmp_path / "auto.ckpt")
        assert policy.every == 2
        driver.engine.subscribe(policy)
        analyses = driver.run(70.0)
        assert policy.checkpoints_written == len(analyses) // 2
        assert (tmp_path / "auto.ckpt").exists()


# ---------------------------------------------------------------------------
# Crash-restart determinism (the acceptance scenario)


class TestCrashRestartDeterminism:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("crash")
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)

        # The uninterrupted reference run.
        uninterrupted = _streaming_driver(config=config)
        reference_windows = uninterrupted.run(90.0)

        # The doomed run: journal + checkpoint-every-window, killed
        # after 50 simulated seconds by simply dropping the driver.
        from repro.streaming import StreamingSieve

        journal = IngestJournal(tmp / "ingest.journal")
        engine = StreamingSieve(
            config=config, seed=3, journal=journal,
            application="demo", workload="stream",
        )
        doomed = _streaming_driver(config=config, engine=engine)
        policy = CheckpointPolicy(engine, tmp / "state.ckpt", every=1)
        engine.subscribe(policy)
        early_windows = doomed.run(50.0)
        # The "crash": everything appended already reached the OS, so
        # closing the file changes nothing a restore reads.
        journal.close()
        del doomed

        # The resurrected run: restore state, fast-forward the seeded
        # simulation to the dead engine's last tick, keep streaming.
        restored = restore_engine(tmp / "state.ckpt", config,
                                  journal_path=tmp / "ingest.journal")
        resumed = _streaming_driver(config=config, engine=restored)
        late_windows = resumed.resume_run(90.0 - 50.0)
        return (uninterrupted, reference_windows,
                early_windows, resumed, late_windows)

    def test_window_schedule_is_identical(self, runs):
        _u, reference, early, _r, late = runs
        combined = early + late
        assert [(a.index, a.start, a.end) for a in combined] \
            == [(a.index, a.start, a.end) for a in reference]

    def test_recluster_decisions_are_identical(self, runs):
        _u, reference, early, _r, late = runs
        combined = early + late
        assert [a.recluster_reasons for a in combined] \
            == [a.recluster_reasons for a in reference]

    def test_final_clusterings_identical(self, runs):
        _u, reference, _early, _resumed, late = runs
        assert late, "restart produced no windows"
        final_ref = reference[-1]
        final_res = late[-1]
        assert set(final_res.clusterings) == set(final_ref.clusterings)
        for component in final_ref.clusterings:
            assert final_res.clusterings[component].labels() \
                == final_ref.clusterings[component].labels()

    def test_final_edges_jaccard_one(self, runs):
        _u, reference, _early, _resumed, late = runs
        assert edge_jaccard(late[-1].dependency_graph,
                            reference[-1].dependency_graph,
                            level="metric") == 1.0

    def test_mid_hop_crash_resume_stays_on_hop_grid(self, tmp_path):
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)
        from repro.streaming import StreamingSieve

        journal = IngestJournal(tmp_path / "ingest.journal")
        # Small flush threshold: the bus auto-flushes (and journals)
        # several times inside every hop, like a big deployment.
        bus = IngestionBus(flush_threshold=128)
        engine = StreamingSieve(config=config, seed=3, bus=bus,
                                journal=journal,
                                application="demo", workload="stream")
        doomed = _streaming_driver(config=config, engine=engine)
        engine.subscribe(CheckpointPolicy(engine,
                                          tmp_path / "state.ckpt",
                                          every=1))
        doomed.run(40.0)
        windows_before = engine.stats.windows
        last_offer = engine.last_offer
        # Crash 3.7s into the next hop, after mid-hop auto-flushes
        # journaled samples newer than the last engine tick.
        doomed.session.advance(3.7)
        journal.close()
        del doomed

        restored = restore_engine(tmp_path / "state.ckpt", config,
                                  journal_path=tmp_path
                                  / "ingest.journal")
        assert restored.windows.latest_time() > last_offer
        resumed = _streaming_driver(config=config, engine=restored)
        produced = resumed.resume_run(20.0)
        # resume_run realigned the ticks with the dead run's hop grid:
        # the same window spans an uninterrupted run would analyze.
        # (A trailing off-grid window can follow when the requested
        # duration is not a hop multiple -- plain run() semantics.)
        assert [round(a.end) for a in produced[:2]] == [55, 65]
        assert all(a.end - a.start == pytest.approx(20.0)
                   for a in produced)
        assert restored.stats.windows == windows_before + len(produced)

    def test_mid_cycle_partial_flush_resume_is_lossless(self, tmp_path):
        # The sharpest crash window: an auto-flush lands in the middle
        # of a scrape cycle, so the journal holds only part of that
        # cycle's exporters when the process dies.  resume_run rewinds
        # to the cycle start and re-publishes it (the overlap clip
        # drops the journaled half), so the resumed run still matches
        # an uninterrupted one exactly.
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)
        from repro.streaming import StreamingSieve

        reference = _streaming_driver(config=config)
        reference_windows = reference.run(60.0)

        journal = IngestJournal(tmp_path / "ingest.journal")
        bus = IngestionBus(flush_threshold=64)  # flushes mid-cycle
        engine = StreamingSieve(config=config, seed=3, bus=bus,
                                journal=journal,
                                application="demo", workload="stream")
        doomed = _streaming_driver(config=config, engine=engine)
        engine.subscribe(CheckpointPolicy(engine,
                                          tmp_path / "state.ckpt",
                                          every=1))
        doomed.run(40.0)
        doomed.session.advance(1.3)  # partial scrape cycles, no offer
        journal.close()
        del doomed

        resumed_journal = IngestJournal(tmp_path / "ingest.journal")
        restored = restore_engine(tmp_path / "state.ckpt", config,
                                  journal_path=tmp_path
                                  / "ingest.journal",
                                  journal=resumed_journal)
        resumed = _streaming_driver(config=config, engine=restored)
        late = resumed.resume_run(20.0)
        resumed_journal.close()
        assert restored.bus.stats.resume_clipped > 0
        # The crash-advance streamed ~1.3s the reference never saw, so
        # the resumed run may append one extra trailing window; the
        # window sharing the reference's index must match it exactly.
        final_ref = reference_windows[-1]
        final_res = next(a for a in late
                         if a.index == final_ref.index)
        assert (final_res.start, final_res.end) \
            == (final_ref.start, final_ref.end)
        for component in final_ref.clusterings:
            assert final_res.clusterings[component].labels() \
                == final_ref.clusterings[component].labels()
        assert edge_jaccard(final_res.dependency_graph,
                            final_ref.dependency_graph,
                            level="metric") == 1.0
        # A second restore from the now-grown journal must not replay
        # duplicates: the first resume's re-published overlap cycle
        # was kept out of the journal by the bus clip.
        second = restore_engine(tmp_path / "state.ckpt", config,
                                journal_path=tmp_path
                                / "ingest.journal")
        for component in second.windows.components:
            for metric in second.windows.metrics_of(component):
                ring = second.windows.series(component, metric)
                assert np.all(np.diff(ring.times) > 0), \
                    f"duplicated samples in {component}/{metric}"

    def test_full_retention_analysis_matches(self, runs):
        uninterrupted, _ref, _early, resumed, _late = runs
        final_u = uninterrupted.final_analysis()
        final_r = resumed.final_analysis()
        assert final_u is not None and final_r is not None
        for component in final_u.clusterings:
            assert final_r.clusterings[component].labels() \
                == final_u.clusterings[component].labels()
        assert edge_jaccard(final_r.dependency_graph,
                            final_u.dependency_graph,
                            level="metric") == 1.0


# ---------------------------------------------------------------------------
# Drift + SLA coincidence fires the RCA consumer


class TestAutoTriggeredRCA:
    @pytest.fixture(scope="class")
    def fired(self):
        config = StreamingConfig(window=20.0, hop=10.0, retention=120.0)
        driver = _streaming_driver(config=config, shift=True)
        seen = []
        rca = WindowDiffRCA(
            driver.engine,
            sla=SLACondition(percentile=90.0, threshold=1e-9),
            on_report=seen.append,
        )
        driver.engine.subscribe(rca)
        analyses = driver.run(90.0)
        return driver, rca, seen, analyses

    def test_fires_on_drift_plus_violation(self, fired):
        _driver, rca, seen, analyses = fired
        assert rca.windows_seen == len(analyses)
        assert rca.reports, "drift + SLA violation never fired RCA"
        assert seen == rca.reports

    def test_report_diffs_healthy_against_drifted(self, fired):
        _driver, rca, _seen, analyses = fired
        triggered = rca.reports[0]
        drifted = next(a for a in analyses
                       if "drift" in a.recluster_reasons.values())
        assert triggered.faulty_index == drifted.index
        assert triggered.baseline_index < triggered.faulty_index
        report = triggered.report
        assert set(report.diffs) == {"front", "mid", "back"}
        report.cluster_novelty_histogram()

    def test_quiet_without_sla_condition(self):
        config = StreamingConfig(window=20.0, hop=10.0, retention=120.0)
        driver = _streaming_driver(config=config, shift=True)
        rca = WindowDiffRCA(driver.engine)  # no SLA -> manual only
        driver.engine.subscribe(rca)
        driver.run(60.0)
        assert rca.reports == []

    def test_engine_records_latency_observations(self, fired):
        driver, _rca, _seen, _analyses = fired
        assert len(driver.engine.sla_history) > 0
        start, end = driver.engine.sla_history[0][0], \
            driver.engine.sla_history[-1][0]
        assert driver.engine.latencies_between(start, end)


# ---------------------------------------------------------------------------
# CLI record / replay / resume plumbing


class TestCLIPersistence:
    def test_parser_accepts_new_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "stream", "--journal", "j.log", "--checkpoint", "c.json",
            "--checkpoint-every", "3", "--resume",
        ])
        assert args.func.__name__ == "cmd_stream"
        assert args.checkpoint_every == 3
        args = parser.parse_args(
            ["record", "--backend", "sqlite", "--out", "d.db"])
        assert args.func.__name__ == "cmd_record"
        args = parser.parse_args(
            ["replay", "--backend", "sqlite", "--path", "x.db"])
        assert args.func.__name__ == "cmd_replay"

    def test_record_then_replay_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "run.db"
        assert main(["record", "--app", "sharelatex",
                     "--backend", "sqlite", "--out", str(db),
                     "--duration", "15", "--workload", "constant"]) == 0
        assert db.exists()
        assert main(["replay", "--backend", "sqlite",
                     "--path", str(db)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert "reduction_factor" in out
        assert "network_out_bytes" in out

    def test_replay_empty_backend_fails(self, tmp_path, capsys):
        from repro.cli import main

        empty = SqliteBackend(tmp_path / "empty.db")
        empty.close()
        assert main(["replay", "--backend", "sqlite",
                     "--path", str(tmp_path / "empty.db")]) == 2

    def test_resume_without_checkpoint_fails(self, tmp_path):
        from repro.cli import main

        assert main(["stream", "--duration", "10", "--resume",
                     "--journal", str(tmp_path / "j.log"),
                     "--checkpoint",
                     str(tmp_path / "missing.ckpt")]) == 2

    def test_resume_without_journal_fails(self, tmp_path):
        from repro.cli import main

        ckpt = tmp_path / "state.ckpt"
        ckpt.write_text("{}")
        assert main(["stream", "--duration", "10", "--resume",
                     "--checkpoint", str(ckpt)]) == 2

    def test_resume_rejects_mismatched_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.streaming import StreamingSieve

        # Checkpoint a sharelatex/constant run at the CLI's default
        # window geometry, then resume with a different seed/workload:
        # that would continue a *different* simulation on the old
        # rings, so it must be refused.
        engine = StreamingSieve(
            config=StreamingConfig(checkpoint_every_windows=1),
            seed=1, application="sharelatex", workload="constant",
        )
        ckpt = tmp_path / "state.ckpt"
        save_checkpoint(engine, ckpt)
        base = ["stream", "--resume", "--duration", "10",
                "--journal", str(tmp_path / "j.log"),
                "--checkpoint", str(ckpt)]
        assert main(base + ["--workload", "constant",
                            "--seed", "2"]) == 2
        assert main(base + ["--seed", "1"]) == 2  # workload: random
        assert "mismatch" in capsys.readouterr().err

    def test_fresh_run_clears_stale_checkpoint(self, tmp_path):
        from repro.cli import main

        stale = tmp_path / "state.ckpt"
        stale.write_text('{"version": 1}')
        # Too short for any window: no new checkpoint gets written, so
        # the stale one must be gone (a crash here followed by --resume
        # would otherwise restore the previous session's state).
        assert main(["stream", "--duration", "5", "--window", "10",
                     "--workload", "constant",
                     "--journal", str(tmp_path / "j.log"),
                     "--checkpoint", str(stale)]) == 0
        assert not stale.exists()

    def test_record_overwrites_existing_backend(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "run.db"
        args = ["record", "--backend", "sqlite", "--out", str(db),
                "--duration", "8", "--workload", "constant"]
        assert main(args) == 0
        first = SqliteBackend(db).sample_count()
        # A second recording must start fresh, not append a second
        # (out-of-order) timeline onto the first.
        assert main(args) == 0
        assert SqliteBackend(db).sample_count() == first

    def test_directory_store_target_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        # No backend stores data in a directory: a directory given as
        # the store path is refused (exit 2), never cleared or opened.
        target = tmp_path / "keep"
        target.mkdir()
        (target / "notes.txt").write_text("precious")
        assert main(["record", "--out", str(target), "--duration", "8",
                     "--workload", "constant"]) == 2
        assert main(["stream", "--store", str(target), "--duration",
                     "5", "--window", "10", "--workload",
                     "constant"]) == 2
        assert main(["replay", "--path", str(target)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in target.iterdir()] == ["notes.txt"]
        assert (target / "notes.txt").read_text() == "precious"

    def test_resume_refuses_directory_store(self, tmp_path, capsys):
        from repro.cli import main

        base = ["stream", "--duration", "25", "--window", "10",
                "--workload", "constant",
                "--journal", str(tmp_path / "j.log"),
                "--checkpoint", str(tmp_path / "c.json")]
        assert main(base + ["--store", str(tmp_path / "s.db")]) == 0
        capsys.readouterr()
        # A resume that names a directory as its store stops at the
        # open; the journal and checkpoint it would resume from stay.
        target = tmp_path / "keep"
        target.mkdir()
        (target / "notes.txt").write_text("precious")
        assert main(base + ["--resume", "--store", str(target)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in target.iterdir()] == ["notes.txt"]
        assert (tmp_path / "c.json").exists()

    def test_fresh_record_clears_stale_wal_sidecars(self, tmp_path):
        from repro.cli import main

        db = tmp_path / "run.db"
        args = ["record", "--out", str(db), "--duration", "8",
                "--workload", "constant"]
        assert main(args) == 0
        clean = SqliteBackend(db).sample_count()
        # Sidecars left by a killed writer belong to the old database;
        # a fresh recording must not inherit (or replay) them.
        for suffix in ("-wal", "-shm"):
            Path(str(db) + suffix).write_bytes(b"stale" * 64)
        assert main(args) == 0
        for suffix in ("-wal", "-shm"):
            sidecar = Path(str(db) + suffix)
            assert not sidecar.exists() \
                or not sidecar.read_bytes().startswith(b"stale")
        assert SqliteBackend(db).sample_count() == clean

    @pytest.mark.parametrize("argv", [
        ["stream", "--store", "s.db", "--store-backend", "spill"],
        ["record", "--out", "r.db", "--backend", "spill"],
    ])
    def test_spill_backend_choice_is_gone(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "invalid choice: 'spill'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Kill matrix: tiered-retention compaction crashes


_TIER_SCHEDULE = "100s:full,400s:10s,inf:40s"
_TIER_SERIES = (("web", "cpu"), ("db", "mem"))


def _tiered_fill(path, schedule=_TIER_SCHEDULE):
    """Two committed series, old enough for both rollup tiers."""
    backend = SqliteBackend(path, schedule=schedule)
    t = np.arange(0.0, 2000.0, 0.5)
    raw = {}
    for i, key in enumerate(_TIER_SERIES):
        v = np.cumsum(np.random.default_rng(11 + i).standard_normal(
            t.size))
        for lo in range(0, t.size, 500):
            backend.write(*key, t[lo:lo + 500], v[lo:lo + 500])
        raw[key] = v
    backend.close()  # commit: every sample is durable
    return t, raw


class TestTieredCompactionCrash:
    def test_sigkill_mid_rollup_preserves_precompact_view(self,
                                                          tmp_path):
        """A real SIGKILL inside ``trim`` -- after the first series'
        rollup DELETE/INSERT ran, before the transaction committed --
        must leave the pre-compaction view intact, and a retried trim
        must finish the migration without double-rolling or losing
        buckets."""
        import subprocess
        import sys

        store = tmp_path / "store.db"
        t, raw = _tiered_fill(store)
        src = str(Path(__file__).resolve().parents[1] / "src")
        # The first series has two rollup regions (one call each), so
        # the third call is the second series: the first is migrated.
        script = (
            "import os, signal\n"
            "import repro.persistence.sqlite_backend as sb\n"
            "orig = sb.rollup_arrays\n"
            "calls = []\n"
            "def killer(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return orig(*args, **kwargs)\n"
            "sb.rollup_arrays = killer\n"
            f"backend = sb.SqliteBackend({str(store)!r},\n"
            f"                           schedule={_TIER_SCHEDULE!r})\n"
            "backend.trim()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        # The migration is one transaction: the reopened database
        # still serves the raw, pre-compact view bit for bit.
        reopened = SqliteBackend(store, schedule=_TIER_SCHEDULE)
        for key, v in raw.items():
            got = reopened.query(*key, float("-inf"), float("inf"))
            assert np.array_equal(got.times, t)
            assert np.array_equal(got.values, v)

        # The retried migration completes and conserves every sample.
        stats = reopened.trim()
        assert stats["points_rolled"] > 0
        for key in raw:
            rolled = reopened.query_rollup(*key, float("-inf"),
                                           float("inf"))
            assert rolled.total_samples() == t.size
            assert np.all(np.diff(rolled.times) > 0)
        assert reopened.trim()["points_rolled"] == 0
        reopened.close()


    def test_sigkill_before_vacuum_keeps_committed_migration(self,
                                                              tmp_path):
        """A SIGKILL after the migration committed but before ``VACUUM``
        ran leaves the migrated view: reopened, the store equals a
        cleanly trimmed copy and a retried trim rolls nothing."""
        import subprocess
        import sys

        store = tmp_path / "store.db"
        clean = tmp_path / "clean.db"
        t, raw = _tiered_fill(store)
        _tiered_fill(clean)
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import os, signal\n"
            "import repro.persistence.sqlite_backend as sb\n"
            "class Conn:\n"
            "    def __init__(self, conn):\n"
            "        self._conn = conn\n"
            "    def __getattr__(self, name):\n"
            "        return getattr(self._conn, name)\n"
            "    def execute(self, sql, *args):\n"
            "        if sql == 'VACUUM':\n"
            "            os.kill(os.getpid(), signal.SIGKILL)\n"
            "        return self._conn.execute(sql, *args)\n"
            f"backend = sb.SqliteBackend({str(store)!r},\n"
            f"                           schedule={_TIER_SCHEDULE!r})\n"
            "backend._conn = Conn(backend._conn)\n"
            "backend.trim()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        reference = SqliteBackend(clean, schedule=_TIER_SCHEDULE)
        assert reference.trim()["points_rolled"] > 0
        reopened = SqliteBackend(store, schedule=_TIER_SCHEDULE)
        for key in raw:
            want = reference.query_rollup(*key)
            got = reopened.query_rollup(*key)
            assert got.total_samples() == t.size
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.counts, want.counts)
        assert reopened.trim()["points_rolled"] == 0
        reopened.close()
        reference.close()


class TestResumeAcrossRollupBoundary:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rollup-crash")
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0)
        schedule = "30s:full,120s:10s,inf:30s"
        from repro.streaming import StreamingSieve

        # Uninterrupted reference run with an *unscheduled* store:
        # the ground truth for both windows and raw sample counts.
        reference_store = SqliteBackend(tmp / "ref.db")
        reference_engine = StreamingSieve(
            config=config, seed=3, store_backend=reference_store,
            application="demo", workload="stream",
        )
        uninterrupted = _streaming_driver(config=config,
                                          engine=reference_engine)
        reference_windows = uninterrupted.run(90.0)
        reference_store.flush()

        # Doomed run with a tiered store; a trim crosses a rollup
        # boundary mid-run.  The small flush threshold makes the bus
        # journal and store samples inside a hop, between checkpoints.
        journal = IngestJournal(tmp / "ingest.journal")
        store = SqliteBackend(tmp / "store.db", schedule=schedule)
        engine = StreamingSieve(
            config=config, seed=3, journal=journal, store_backend=store,
            bus=IngestionBus(flush_threshold=128),
            application="demo", workload="stream",
        )
        doomed = _streaming_driver(config=config, engine=engine)
        policy = CheckpointPolicy(engine, tmp / "state.ckpt", every=1)
        engine.subscribe(policy)
        mid_stats = {}

        def trim_once(analysis):
            if not mid_stats and analysis.end >= 40.0:
                mid_stats.update(store.trim())

        early_windows = doomed.run(50.0, on_window=trim_once)
        doomed.session.advance(3.7)
        # The crash, 3.7s into the next hop: the open transaction --
        # every row stored since the last checkpoint committed -- is
        # lost, while the journal's frames already reached the OS.
        # SqliteBackend.close() would commit, so the raw connection is
        # rolled back and closed instead (a doomed connection left to
        # the GC would hold the write lock).
        assert store._uncommitted > 0
        store._conn.rollback()
        store._conn.close()
        journal.close()
        del doomed

        # Resume against the reopened (already partially rolled-up)
        # store; the journal heals the lost tail.
        healed = SqliteBackend(tmp / "store.db", schedule=schedule)
        restored = restore_engine(tmp / "state.ckpt", config,
                                  journal_path=tmp / "ingest.journal",
                                  store_backend=healed)
        resumed = _streaming_driver(config=config, engine=restored)
        # The journal ends at the last 0.5 s scrape before the crash
        # (t=58.5); 36.5 s more ends on the reference's last hop.
        late_windows = resumed.resume_run(36.5)
        healed.flush()
        yield (reference_store, reference_windows, early_windows,
               late_windows, healed, mid_stats)
        healed.close()
        reference_store.close()

    def test_compaction_crossed_a_rollup_boundary(self, runs):
        *_rest, mid_stats = runs
        assert mid_stats["points_rolled"] > 0

    def test_windows_bit_identical_to_uninterrupted_run(self, runs):
        _s, reference, early, late, *_rest = runs
        combined = early + late
        assert [(a.index, a.start, a.end) for a in combined] \
            == [(a.index, a.start, a.end) for a in reference]
        assert [a.recluster_reasons for a in combined] \
            == [a.recluster_reasons for a in reference]
        for component in reference[-1].clusterings:
            assert late[-1].clusterings[component].labels() \
                == reference[-1].clusterings[component].labels()
        assert edge_jaccard(late[-1].dependency_graph,
                            reference[-1].dependency_graph,
                            level="metric") == 1.0

    def test_no_lost_or_double_rolled_buckets(self, runs):
        reference_store, _w, _e, _l, healed, _m = runs
        stats = healed.trim()  # migrate the resumed tail too
        assert healed.trim()["points_rolled"] == 0
        assert set(healed.keys()) == set(reference_store.keys())
        for key in reference_store.keys():
            want = reference_store.query(key.component, key.metric,
                                         float("-inf"), float("inf"))
            rolled = healed.query_rollup(key.component, key.metric,
                                         float("-inf"), float("inf"))
            assert rolled.total_samples() == len(want)
            assert np.all(np.diff(rolled.times) > 0)
        assert stats is not None
