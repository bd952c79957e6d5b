"""Tests for the streaming analysis engine (ingestion, windows, drift,
streaming-vs-batch convergence, live consumers)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.depgraph import edge_jaccard
from repro.core import StreamingConfig
from repro.metrics.timeseries import MetricKey
from repro.persistence import IngestJournal
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import (
    DriftDetector,
    IngestionBus,
    LiveScalingPolicy,
    RingSeries,
    SimulationStreamDriver,
    WindowDiffRCA,
    WindowStore,
)
from repro.autoscaling import ScalingRule
from repro.workload import constant_rate

KEY = MetricKey("comp", "metric")

_ring_times = st.one_of(st.floats(-60.0, 60.0), st.sampled_from(
    [float("inf"), float("-inf"), 0.0, -0.0]))


class _ReferenceRing:
    """:meth:`RingSeries.extend`'s contract on plain lists, searching
    for stale samples on every write (the test oracle)."""

    def __init__(self, retention, max_points):
        self.retention = retention
        self.max_points = max_points
        self.times: list = []
        self.values: list = []
        self.evicted = 0

    def extend(self, times, values):
        t = np.asarray(times, dtype=float).reshape(-1)
        v = np.asarray(values, dtype=float).reshape(-1)
        if t.size != v.size:
            raise ValueError("times and values must have equal length")
        if t.size == 0:
            return
        with np.errstate(invalid="ignore"):  # inf - inf
            unordered = np.any(np.diff(t) < 0)
        if unordered:
            raise ValueError("ring writes require non-decreasing times")
        if self.times and t[0] < self.times[-1]:
            raise ValueError(
                f"out-of-order ring write at t={t[0]} "
                f"(last t={np.float64(self.times[-1])})"
            )
        if t.size > self.max_points:
            self.evicted += t.size - self.max_points
            t, v = t[-self.max_points:], v[-self.max_points:]
        cutoff = t[-1] - self.retention
        old = int(np.searchsorted(np.asarray(self.times, dtype=float),
                                  cutoff, side="left"))
        stale = int(np.searchsorted(t, cutoff, side="left"))
        overflow = max(len(self.times) - old + t.size - stale
                       - self.max_points, 0)
        self.evicted += old + stale + overflow
        del self.times[:old + overflow], self.values[:old + overflow]
        self.times += t[stale:].tolist()
        self.values += v[stale:].tolist()


def _spec(name, shift=False, **kwargs):
    custom = ()
    if shift:
        # Behaviour shift with an unchanged metric set: load-coupled
        # before t=45, a large constant afterwards.
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


# ---------------------------------------------------------------------------
# Ring buffers and the window store


class TestRingSeries:
    def test_extend_and_read_back(self):
        ring = RingSeries(KEY, retention=100.0, max_points=64)
        ring.extend([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        ring.append(4.0, 40.0)
        assert len(ring) == 4
        assert ring.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ring.values.tolist() == [10.0, 20.0, 30.0, 40.0]
        assert ring.span() == (1.0, 4.0)

    def test_rejects_out_of_order(self):
        ring = RingSeries(KEY, retention=100.0, max_points=64)
        ring.extend([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ring.extend([1.5], [1.0])
        with pytest.raises(ValueError):
            ring.extend([3.0, 2.5], [1.0, 2.0])

    def test_count_bound_evicts_oldest(self):
        ring = RingSeries(KEY, retention=1e9, max_points=10)
        for i in range(25):
            ring.append(float(i), float(i))
        assert len(ring) == 10
        assert ring.times.tolist() == [float(i) for i in range(15, 25)]
        assert ring.evicted == 15

    def test_retention_bound_evicts_old_samples(self):
        ring = RingSeries(KEY, retention=5.0, max_points=1000)
        ring.extend(np.arange(0.0, 20.0), np.zeros(20))
        # Newest sample is t=19; retention keeps t >= 14.
        assert ring.times.min() >= 14.0
        assert ring.evicted > 0

    def test_oversized_batch_keeps_tail(self):
        ring = RingSeries(KEY, retention=1e9, max_points=8)
        ring.extend(np.arange(100.0), np.arange(100.0))
        assert len(ring) == 8
        assert ring.times.tolist() == [float(i) for i in range(92, 100)]

    def test_window_query(self):
        ring = RingSeries(KEY, retention=1e9, max_points=100)
        ring.extend(np.arange(10.0), np.arange(10.0) * 2)
        ts = ring.window(3.0, 6.0)
        assert ts.times.tolist() == [3.0, 4.0, 5.0, 6.0]
        assert ts.values.tolist() == [6.0, 8.0, 10.0, 12.0]

    def test_bounded_memory_under_sustained_load(self):
        ring = RingSeries(KEY, retention=50.0, max_points=128)
        t = 0.0
        for _ in range(200):
            ring.extend(t + np.arange(10.0) * 0.1, np.random.rand(10))
            t += 1.0
        assert len(ring) <= 128
        assert ring._times.size <= 2 * 128  # buffer itself stays bounded

    @given(st.floats(0.5, 40.0), st.integers(8, 24), st.lists(
        st.tuples(
            # Mostly runs continuing from the previous write (a jump
            # back, then non-negative gaps), sometimes raw times.
            st.one_of(
                st.tuples(st.floats(-3.0, 12.0),
                          st.lists(st.floats(0.0, 4.0), max_size=12)),
                st.lists(_ring_times, max_size=4),
            ),
            st.sampled_from([0, 0, 0, 0, -1, 1]),
        ), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_extend_matches_the_reference(self, retention, max_points,
                                          writes):
        # Every write -- accepted, trimmed or refused -- leaves the ring
        # exactly where the always-searching reference leaves it.
        ring = RingSeries(KEY, retention=retention, max_points=max_points)
        reference = _ReferenceRing(retention, max_points)
        last = 0.0
        for index, (shape, skew) in enumerate(writes):
            if isinstance(shape, tuple):
                jump, gaps = shape
                times = (last + jump + np.cumsum(gaps)).tolist()
            else:
                times = shape
            last = times[-1] if times and np.isfinite(times[-1]) else last
            values = [index + 0.5 * k for k in range(len(times) + skew)]
            outcomes = []
            for target in (ring, reference):
                try:
                    target.extend(times, values)
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert ring.times.tobytes() \
                == np.asarray(reference.times, dtype=float).tobytes()
            assert ring.values.tolist() == reference.values
            assert ring.evicted == reference.evicted


class TestWindowStore:
    def test_ingest_shards_and_snapshots(self):
        store = WindowStore(retention=100.0, max_points_per_series=100)
        store.ingest("a", "m1", [1.0, 2.0], [1.0, 2.0])
        store.ingest("a", "m2", [1.0, 2.0], [3.0, 4.0])
        store.ingest("b", "m1", [1.5], [5.0])
        assert store.components == ["a", "b"]
        assert store.metrics_of("a") == ["m1", "m2"]
        assert store.series_count() == 3
        assert store.total_points() == 5
        assert store.first_time == 1.0

        frame = store.snapshot(1.5, 2.0)
        assert len(frame) == 3
        assert frame.get(MetricKey("a", "m1")).times.tolist() == [2.0]
        assert frame.get(MetricKey("b", "m1")).values.tolist() == [5.0]

    def test_snapshot_skips_empty_windows(self):
        store = WindowStore()
        store.ingest("a", "m1", [1.0], [1.0])
        frame = store.snapshot(5.0, 9.0)
        assert len(frame) == 0

    def test_eviction_keeps_totals_bounded(self):
        store = WindowStore(retention=10.0, max_points_per_series=32)
        for step in range(100):
            t = float(step)
            store.ingest("a", "m", [t], [0.0])
            store.ingest("b", "m", [t], [0.0])
        assert store.total_points() <= 2 * 32
        assert store.total_evicted() > 0


class TestIngestionBus:
    def test_publish_buffers_until_flush(self):
        bus = IngestionBus()
        received = []
        bus.subscribe(lambda c, m, t, v: received.append((c, m, t, v)))
        bus.publish("web", 1.0, {"cpu": 10.0, "mem": 20.0})
        bus.publish("web", 1.5, {"cpu": 11.0, "mem": 21.0})
        assert received == []
        assert bus.pending_points == 4
        delivered = bus.flush()
        assert delivered == 4
        assert bus.pending_points == 0
        by_key = {(c, m): (t.tolist(), v.tolist())
                  for c, m, t, v in received}
        assert by_key[("web", "cpu")] == ([1.0, 1.5], [10.0, 11.0])
        assert by_key[("web", "mem")] == ([1.0, 1.5], [20.0, 21.0])

    def test_subscribe_object_with_ingest(self):
        bus = IngestionBus()
        store = WindowStore()
        bus.subscribe(store)
        bus.publish_points("web", "cpu", [1.0, 2.0], [5.0, 6.0])
        bus.flush()
        assert store.total_points() == 2

    def test_out_of_order_points_rejected(self):
        bus = IngestionBus()
        bus.publish("web", 2.0, {"cpu": 1.0})
        bus.publish("web", 1.0, {"cpu": 2.0})  # behind: dropped
        assert bus.stats.rejected_points == 1
        assert bus.pending_points == 1

    def test_auto_flush_at_threshold(self):
        bus = IngestionBus(flush_threshold=4)
        store = WindowStore()
        bus.subscribe(store)
        for i in range(4):
            bus.publish("web", float(i), {"cpu": 0.0})
        assert bus.pending_points == 0  # threshold flushed automatically
        assert store.total_points() == 4

    def test_unordered_bulk_batch_rejected(self):
        bus = IngestionBus()
        bus.publish_points("web", "cpu", [2.0, 1.5], [1.0, 2.0])
        assert bus.stats.rejected_points == 2
        assert bus.pending_points == 0

    def test_ordered_run_behind_the_guard_loses_only_its_late_head(self):
        # Point by point, 1.0 and 1.5 would be rejected and the rest
        # taken (equal timestamps are in order); a run is no different.
        bus = IngestionBus()
        store = WindowStore()
        bus.subscribe(store)
        bus.publish_points("web", "cpu", [1.0, 2.0], [0.0, 0.0])
        bus.publish_points("web", "cpu", [1.0, 1.5, 2.0, 2.5],
                           [1.0, 2.0, 3.0, 4.0])
        assert bus.stats.rejected_points == 2
        assert bus.stats.points_published == 4
        bus.publish_points("web", "cpu", [0.5, 1.0], [9.0, 9.0])
        assert bus.stats.rejected_points == 4  # nothing in order left
        assert bus.stats.batches_published == 2
        bus.flush()
        ring = store.series("web", "cpu")
        assert ring.times.tolist() == [1.0, 2.0, 2.0, 2.5]
        assert ring.values.tolist() == [0.0, 0.0, 3.0, 4.0]

    def test_failing_subscriber_does_not_drop_other_buffers(self):
        bus = IngestionBus()
        delivered = []

        def explode(component, metric, times, values):
            if metric == "bad":
                raise RuntimeError("sink failure")
            delivered.append((component, metric, times.tolist()))

        bus.subscribe(explode)
        bus.publish_points("web", "bad", [1.0], [1.0])
        bus.publish_points("web", "cpu", [1.0], [1.0])
        bus.publish_points("db", "mem", [1.0], [1.0])
        with pytest.raises(RuntimeError, match="sink failure"):
            bus.flush()
        # Every other batch is delivered at once; none is requeued, and
        # the failing one is not retried.
        assert delivered == [("web", "cpu", [1.0]), ("db", "mem", [1.0])]
        assert bus.pending_points == 0
        assert bus.stats.points_flushed == 2
        assert bus.flush() == 0

    def test_first_sink_error_is_raised_after_every_batch(self):
        bus = IngestionBus()
        seen = []

        def explode(component, metric, times, values):
            seen.append(metric)
            raise RuntimeError(metric)

        bus.subscribe(explode)
        for metric in ("a", "b", "c"):
            bus.publish_points("web", metric, [1.0], [1.0])
        with pytest.raises(RuntimeError, match="^a$"):
            bus.flush()
        assert seen == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_time_is_rejected_in_process(self, bad):
        # In-process publishers skip the HTTP decoders' 400: a
        # non-finite time must neither empty the ring nor disable the
        # key's ordering guard.
        bus = IngestionBus()
        store = WindowStore()
        bus.subscribe(store)
        bus.publish_points("web", "cpu", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        bus.flush()
        bus.publish("web", bad, {"cpu": 9.0, "mem": 9.0})
        bus.publish_points("web", "cpu", [4.0, bad], [1.0, 2.0])
        assert bus.stats.rejected_points == 4
        assert bus.pending_points == 0
        bus.publish_points("web", "cpu", [0.5], [7.0])  # behind the guard
        assert bus.stats.rejected_points == 5
        bus.publish("web", 4.0, {"cpu": 4.0})
        bus.flush()
        ring = store.series("web", "cpu")
        assert ring.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ring.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ring.evicted == 0
        assert store.series("web", "mem") is None

    def test_finite_times_whose_sum_overflows_are_accepted(self):
        bus = IngestionBus()
        bus.publish_points("web", "cpu", [1e308, 1e308], [1.0, 2.0])
        assert bus.stats.rejected_points == 0
        assert bus.pending_points == 2


_BUS_KEYS = [("web", "cpu"), ("web", "mem"), ("db", "io")]
_bus_times = st.one_of(
    st.integers(-2, 12).map(lambda n: n * 0.5),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, 1e308]),
)
_bus_values = st.floats(allow_nan=True, allow_infinity=True,
                        allow_subnormal=True)


#: Input forms that are not decoder output, so take the array path.
_FORMS = {
    "array": np.array,
    "tuple": tuple,
    "scalars": lambda x: [np.float64(item) for item in x],
    "column": lambda x: np.array(x, dtype=float).reshape(-1, 1),
}


@st.composite
def _published_run(draw):
    """``(key, the run as float lists, the same run in another form)``:
    integer lists or tuples, or floats as arrays, tuples, numpy scalars
    or a column."""
    key = draw(st.sampled_from(_BUS_KEYS))
    size = draw(st.integers(0, 6))
    if draw(st.integers(0, 3)) == 0:
        times = draw(st.lists(st.integers(-1, 6), min_size=size,
                              max_size=size))
        values = draw(st.lists(st.integers(-2**53, 2**53), min_size=size,
                               max_size=size))
        form = draw(st.sampled_from([list, tuple]))
    else:
        times = draw(st.lists(_bus_times, min_size=size, max_size=size))
        values = draw(st.lists(_bus_values, min_size=size, max_size=size))
        form = _FORMS[draw(st.sampled_from(sorted(_FORMS)))]
    if draw(st.booleans()):
        times.sort()
    return (key, [float(t) for t in times], [float(v) for v in values],
            (form(times), form(values)))


class _BusStack:
    """A bus with a journal and a recording subscriber."""

    def __init__(self, path, clip):
        self.bus = IngestionBus()
        self.journal = IngestJournal(path)
        self.bus.attach_journal(self.journal)
        self.delivered = []
        self.bus.subscribe(lambda c, m, t, v: self.delivered.append(
            (c, m, t.tobytes(), v.tobytes())))
        if clip:
            self.bus.arm_resume_clip(clip)

    def state(self) -> str:
        """Buffers, stats, guards, clip and deliveries; the repr keeps
        NaN equal to itself and ``-0.0`` apart from ``0.0``."""
        bus = self.bus
        return repr((
            {key: (b.times[b.start:], b.values[b.start:], b.last_time)
             for key, b in bus._buffers.items()},
            bus.stats.as_dict(), bus._high_water, bus._resume_clip,
            bus.pending_points, self.delivered,
        ))


class TestPublishPathEquivalence:
    @given(st.lists(st.tuples(_published_run(), st.booleans()),
                    max_size=12),
           st.dictionaries(st.sampled_from(_BUS_KEYS),
                           st.integers(-1, 8).map(lambda n: n * 0.5),
                           max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_float_lists_equal_every_other_input_form(self, runs, clip):
        # The list-native path (decoder output) and the array path
        # (everything else) buffer, count, deliver and journal the
        # same floats, bit for bit.
        with tempfile.TemporaryDirectory() as scratch:
            lists = _BusStack(Path(scratch) / "lists.journal", clip)
            others = _BusStack(Path(scratch) / "others.journal", clip)
            for (key, times, values, other), flush in runs:
                lists.bus.publish_points(*key, times, values)
                others.bus.publish_points(*key, *other)
                if flush:
                    assert lists.bus.flush() == others.bus.flush()
                assert lists.state() == others.state()
            lists.bus.flush()
            others.bus.flush()
            assert lists.state() == others.state()
            lists.journal.close()
            others.journal.close()
            assert lists.journal.path.read_bytes() \
                == others.journal.path.read_bytes()


# ---------------------------------------------------------------------------
# Drift detection (unit level)


class TestDriftDetectorUnit:
    def _baselined(self, values, metric="m"):
        from repro.clustering.reduction import reduce_component
        from repro.metrics.timeseries import TimeSeries

        times = np.arange(len(values)) * 0.5
        view = {metric: TimeSeries(MetricKey("c", metric), times, values)}
        clustering = reduce_component("c", view, seed=1)
        detector = DriftDetector(threshold=6.0)
        detector.rebase("c", clustering, view)
        return detector

    def _view(self, values, metric="m"):
        from repro.metrics.timeseries import TimeSeries

        times = np.arange(len(values)) * 0.5
        return {metric: TimeSeries(MetricKey("c", metric), times, values)}

    def test_quiet_on_same_distribution(self):
        rng = np.random.default_rng(1)
        detector = self._baselined(50.0 + rng.normal(0, 2.0, 60))
        readings = detector.score_component(
            "c", self._view(50.0 + rng.normal(0, 2.0, 60)))
        assert readings and not detector.is_drifted(readings)

    def test_fires_on_level_shift(self):
        rng = np.random.default_rng(1)
        detector = self._baselined(50.0 + rng.normal(0, 2.0, 60))
        readings = detector.score_component(
            "c", self._view(90.0 + rng.normal(0, 2.0, 60)))
        assert detector.is_drifted(readings)

    def test_counter_scored_on_rate_not_level(self):
        # A cumulative counter under steady rate: later windows sit at
        # much higher absolute levels but identical increments.
        increments = np.full(60, 10.0)
        detector = self._baselined(np.cumsum(increments))
        later = 6000.0 + np.cumsum(increments)
        readings = detector.score_component("c", self._view(later))
        assert readings and not detector.is_drifted(readings)
        # Rate doubling on the same counter is drift.
        doubled = 6000.0 + np.cumsum(np.full(60, 20.0))
        readings = detector.score_component("c", self._view(doubled))
        assert detector.is_drifted(readings)

    def test_variance_filtered_metric_still_watched(self):
        # Constant baseline -> filtered from clustering, but a later
        # jump must still register as drift.
        detector = self._baselined(np.full(60, 5.0))
        readings = detector.score_component("c", self._view(
            np.full(60, 205.0)))
        assert detector.is_drifted(readings)


# ---------------------------------------------------------------------------
# The engine end-to-end (co-simulation driver)


@pytest.fixture(scope="module")
def stationary_run():
    config = StreamingConfig(window=20.0, hop=10.0, retention=120.0)
    driver = SimulationStreamDriver(
        _chain_app(), constant_rate(40.0), config=config, seed=3,
    )
    analyses = driver.run(90.0)
    return driver, analyses


@pytest.fixture(scope="module")
def shifted_run():
    config = StreamingConfig(window=20.0, hop=10.0, retention=120.0)
    driver = SimulationStreamDriver(
        _chain_app(shift_backend=True), constant_rate(40.0),
        config=config, seed=3,
    )
    analyses = driver.run(90.0)
    return driver, analyses


class TestStreamingEngine:
    def test_windows_produced_on_schedule(self, stationary_run):
        _driver, analyses = stationary_run
        assert len(analyses) >= 5
        spans = [(a.start, a.end) for a in analyses]
        hops = np.diff([end for _start, end in spans])
        assert np.allclose(hops, 10.0)
        assert all(end - start == pytest.approx(20.0)
                   for start, end in spans)

    def test_first_window_clusters_everything(self, stationary_run):
        _driver, analyses = stationary_run
        first = analyses[0]
        assert set(first.recluster_reasons.values()) == {"initial"}
        assert first.reused == []

    def test_stationary_load_reuses_clusterings(self, stationary_run):
        driver, analyses = stationary_run
        stats = driver.engine.stats
        assert stats.drift_escalations == 0
        assert stats.reuse_fraction() > 0.5
        # After the initial window, later windows mostly reuse.
        assert all(len(a.reused) >= 2 for a in analyses[1:])

    def test_incremental_windows_cheaper_than_full(self, stationary_run):
        _driver, analyses = stationary_run
        full = analyses[0]
        reusing = [a for a in analyses[1:] if not a.reclustered]
        assert reusing, "expected fully-reused windows on stationary load"
        mean_reusing = np.mean([a.analysis_seconds for a in reusing])
        assert mean_reusing < full.analysis_seconds

    def test_summaries_are_printable(self, stationary_run):
        driver, analyses = stationary_run
        for analysis in analyses:
            summary = analysis.summary()
            assert {"window", "span", "metrics", "representatives",
                    "relations", "analysis_ms"} <= set(summary)
        engine_summary = driver.engine.summary()
        assert engine_summary["windows"] == len(analyses)
        assert engine_summary["rejected_points"] == 0

    def test_bounded_ingestion_memory(self, stationary_run):
        driver, _analyses = stationary_run
        store = driver.engine.windows
        # 90 s of load at 0.5 s scrapes with 120 s retention: bounded
        # by retention (and never by more than max_points).
        per_series = [len(store.series(c, m))
                      for c in store.components
                      for m in store.metrics_of(c)]
        assert max(per_series) <= driver.config.max_points_per_series

    def test_record_frame_false_keeps_session_bounded(self):
        config = StreamingConfig(window=10.0, hop=10.0, retention=30.0)
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=4,
            record_frame=False,
        )
        driver.run(30.0)
        # Neither the cumulative frame nor the metered store grow in
        # streaming-only mode; retention lives in the window store.
        assert len(driver.session.collector.frame) == 0
        assert driver.session.store.sample_count() == 0
        assert driver.engine.windows.total_points() > 0
        with pytest.raises(ValueError):
            driver.batch_result()

    def test_vanished_component_relations_dropped(self, stationary_run):
        import dataclasses

        from repro.causality.depgraph import (
            DependencyGraph,
            MetricRelation,
        )
        from repro.core import StreamingConfig as SC
        from repro.streaming.analyzer import WindowAnalyzer

        driver, analyses = stationary_run
        base = analyses[-1]
        graph = DependencyGraph(
            components=base.dependency_graph.components)
        for relation in base.dependency_graph.relations:
            graph.add_relation(relation)
        graph.add_relation(MetricRelation(
            source_component="ghost", source_metric="m",
            target_component="front", target_metric="cpu_usage",
            lag=1, p_value=0.01,
        ))
        analyzer = WindowAnalyzer(config=SC(window=20.0, hop=10.0),
                                  seed=3)
        analyzer.previous = dataclasses.replace(
            base, dependency_graph=graph)
        # Re-analyze the same window but with 'back' silenced.
        frame = driver.engine.windows.snapshot(base.start, base.end)
        from repro.metrics.timeseries import MetricFrame
        partial = MetricFrame()
        for ts in frame:
            if ts.key.component != "back":
                partial.add(ts)
        analysis = analyzer.analyze(partial, base.call_graph,
                                    base.start, base.end, index=99)
        touched = {"back", "ghost"}
        assert not any(
            r.source_component in touched or r.target_component in touched
            for r in analysis.dependency_graph.relations
        )
        assert "back" not in analysis.clusterings


class TestDriftEscalation:
    def test_shift_reclusters_only_drifted_component(self, shifted_run):
        driver, analyses = shifted_run
        drift_windows = [a for a in analyses
                         if "drift" in a.recluster_reasons.values()]
        assert drift_windows, "injected shift never escalated"
        trigger = drift_windows[0]
        # Only the shifted backend is re-clustered; the untouched
        # components keep their clusterings (reused by identity).
        assert trigger.recluster_reasons == {"back": "drift"}
        assert trigger.reclustered == ["back"]
        assert set(trigger.reused) == {"front", "mid"}
        assert driver.engine.stats.drift_escalations >= 1

    def test_drift_evidence_names_shifted_metric(self, shifted_run):
        _driver, analyses = shifted_run
        trigger = next(a for a in analyses
                       if "drift" in a.recluster_reasons.values())
        scores = {r.metric: r.stat_score
                  for r in trigger.drift_readings["back"]}
        assert scores["mode_gauge"] > 6.0

    def test_quiet_again_after_rebase(self, shifted_run):
        driver, analyses = shifted_run
        trigger = next(i for i, a in enumerate(analyses)
                       if "drift" in a.recluster_reasons.values())
        for analysis in analyses[trigger + 2:]:
            assert "drift" not in analysis.recluster_reasons.values()


# ---------------------------------------------------------------------------
# Streaming vs batch convergence


class TestStreamingVsBatch:
    @pytest.fixture(scope="class")
    def converged(self):
        # Full-refresh windows + retention covering the whole trace:
        # the final full-retention analysis sees exactly the frame a
        # batch load records (shared LiveRunSession code path).
        config = StreamingConfig(window=20.0, hop=10.0, retention=300.0,
                                 full_refresh_windows=1)
        driver = SimulationStreamDriver(
            _chain_app(), constant_rate(40.0), config=config, seed=3,
        )
        windows = driver.run(60.0)
        final = driver.final_analysis()
        batch = driver.batch_result()
        return windows, final, batch

    def test_streams_multiple_windows(self, converged):
        windows, _final, _batch = converged
        assert len(windows) >= 3

    def test_representative_count_matches_batch(self, converged):
        _windows, final, batch = converged
        stream_reps = final.total_representatives()
        batch_reps = batch.total_representatives()
        # Acceptance bound is +-10%; the shared code path makes the
        # final full-retention analysis exactly equal.
        assert abs(stream_reps - batch_reps) <= 0.1 * batch_reps
        assert stream_reps == batch_reps

    def test_dependency_edges_match_batch(self, converged):
        _windows, final, batch = converged
        jac_component = edge_jaccard(final.dependency_graph,
                                     batch.dependency_graph)
        jac_metric = edge_jaccard(final.dependency_graph,
                                  batch.dependency_graph, level="metric")
        assert jac_component >= 0.8
        assert jac_metric >= 0.8
        assert jac_metric == 1.0

    def test_clusterings_identical_to_batch(self, converged):
        _windows, final, batch = converged
        for component in batch.run.frame.components:
            assert final.clusterings[component].labels() \
                == batch.clusterings[component].labels()

    def test_window_analysis_converts_to_sieve_result(self, converged):
        _windows, final, _batch = converged
        result = final.to_sieve_result()
        assert result.total_representatives() \
            == final.total_representatives()
        result.summary()


# ---------------------------------------------------------------------------
# Live consumers


class TestLiveScalingPolicy:
    def test_rebinds_to_streaming_guide(self, stationary_run):
        _driver, analyses = stationary_run
        rule = ScalingRule(component="mid", metric_component="mid",
                           metric="bootstrap", scale_up_threshold=80.0,
                           scale_down_threshold=10.0)
        policy = LiveScalingPolicy(rule)
        for analysis in analyses:
            policy.on_window(analysis)
        assert policy.windows_seen == len(analyses)
        assert policy.rebinds, "guide never elected"
        assert policy.guiding_metric \
            == analyses[-1].guiding_metric() \
            or policy.guiding_metric \
            == (policy.rebinds[-1].metric_component,
                policy.rebinds[-1].metric)
        assert policy.guiding_metric != ("mid", "bootstrap")

    def test_decide_uses_current_rule(self, stationary_run):
        _driver, analyses = stationary_run
        rule = ScalingRule(component="mid", metric_component="mid",
                           metric="bootstrap", scale_up_threshold=10.0,
                           scale_down_threshold=1.0)
        policy = LiveScalingPolicy(rule)
        policy.on_window(analyses[0])
        assert policy.decide(100.0, [50.0, 60.0], 1) == 1
        assert policy.decide(100.0, [50.0, 60.0], 1) == 0  # cooldown


class TestWindowDiffRCA:
    def test_diff_between_windows_produces_full_report(
            self, shifted_run):
        driver, _analyses = shifted_run
        assert len(driver.engine.history) >= 2
        report = WindowDiffRCA(driver.engine).compare(0, -1)
        # All five RCA steps ran over the two window snapshots.
        assert set(report.diffs) == {"front", "mid", "back"}
        assert set(report.cluster_novelty) == {"front", "mid", "back"}
        assert set(report.edge_classifications) == {0.0, 0.5, 0.6, 0.7}
        report.cluster_novelty_histogram()
        report.implicated_state()

    def test_window_pair_selection(self, stationary_run):
        driver, _analyses = stationary_run
        first, last = driver.engine.window_pair()
        assert first.index < last.index


class TestCLIStream:
    def test_parser_accepts_stream(self):
        from repro.cli import _spec_from_args, build_parser
        args = build_parser().parse_args(
            ["stream", "--app", "sharelatex", "--duration", "60"])
        assert _spec_from_args(args, "stream").streaming.window == 20.0
        assert args.func.__name__ == "cmd_stream"
