"""Tiered-retention test battery.

Covers the policy half (schedule parsing, rollup aggregation) with
hypothesis property tests, the mechanism half (sqlite tier
migration) with a backend battery, the spec/CLI seams,
and the headline acceptance claim: the canonical schedule shrinks the
on-disk footprint >= 5x while every window inside the full-resolution
horizon stays bit-identical to an unscheduled run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_pipeline
from repro.api.spec import (
    RunSpec,
    StorageSpec,
    WorkloadSpec,
    load_spec,
    loads_spec,
    spec_to_toml,
)
from repro.core import StreamingConfig
from repro.metrics.timeseries import MetricKey
from repro.persistence import (
    MemoryBackend,
    RetentionSchedule,
    Tier,
    format_duration,
    parse_duration,
    rollup_arrays,
)
from repro.persistence.retention import FULL
from repro.api.registry import (
    APPLICATIONS,
    BACKENDS,
    register_application,
)
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)

CANONICAL = "1000s:full,4000s:1m,inf:10m"


def _component(name, **kwargs):
    defaults = dict(
        kind="generic",
        endpoints=(EndpointSpec("op", service_time=0.02),),
        concurrency=16,
    )
    defaults.update(kwargs)
    return ComponentSpec(name=name, **defaults)


def _chain_app():
    return Application("demo", [
        _component("front", calls=(CallSpec("mid", delay=0.4),)),
        _component("mid", calls=(CallSpec("back", delay=0.4),)),
        _component("back"),
    ])


# Same tiny app the api/persistence suites register: specs (and the
# CLI) can then name it.
if "demo-chain" not in APPLICATIONS:
    register_application("demo-chain", lambda: _chain_app())


# ---------------------------------------------------------------------------
# Durations


class TestDurations:
    @pytest.mark.parametrize("text,seconds", [
        ("90s", 90.0),
        ("1m", 60.0),
        ("2h", 7200.0),
        ("1d", 86400.0),
        ("1000", 1000.0),
        ("0.5s", 0.5),
        ("inf", float("inf")),
    ])
    def test_parse(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "abc", "5x", "-5s", "0s", "nan"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)

    @pytest.mark.parametrize("seconds,text", [
        (90.0, "90s"),
        (600.0, "10m"),
        (7200.0, "2h"),
        (86400.0, "1d"),
        (float("inf"), "inf"),
        (0.5, "0.5s"),
    ])
    def test_format(self, seconds, text):
        assert format_duration(seconds) == text

    @given(st.integers(min_value=1, max_value=10 * 86400))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seconds):
        assert parse_duration(format_duration(float(seconds))) \
            == float(seconds)


# ---------------------------------------------------------------------------
# Schedule parsing


@st.composite
def _valid_schedules(draw):
    """Valid tier ladders built constructively: strictly increasing
    horizons, strictly increasing nesting resolutions, spans covering
    at least one bucket."""
    n_tiers = draw(st.integers(min_value=1, max_value=4))
    horizon = float(draw(st.integers(min_value=1, max_value=5000)))
    tiers = [Tier(horizon)]
    res = float(draw(st.sampled_from([1, 5, 30, 60])))
    for _ in range(1, n_tiers):
        span = draw(st.integers(min_value=1, max_value=40)) * res
        horizon += span
        tiers.append(Tier(horizon, res))
        res *= draw(st.integers(min_value=2, max_value=6))
    if n_tiers > 1 and draw(st.booleans()):
        tiers[-1] = Tier(float("inf"), tiers[-1].resolution)
    return RetentionSchedule(tuple(tiers))


class TestScheduleParsing:
    def test_canonical(self):
        sched = RetentionSchedule.parse(CANONICAL)
        assert sched.tiers == (
            Tier(1000.0, FULL), Tier(4000.0, 60.0),
            Tier(float("inf"), 600.0),
        )
        assert sched.format() == "1000s:full,4000s:1m,inf:10m"
        assert sched.full_horizon == 1000.0
        assert math.isinf(sched.final_horizon)

    @given(_valid_schedules())
    @settings(max_examples=80, deadline=None)
    def test_parse_format_round_trip(self, sched):
        assert RetentionSchedule.parse(sched.format()) == sched

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty tier"),
        ("1000s", "must be 'horizon:resolution'"),
        ("1000s:full,,inf:1m", "empty tier"),
        ("1000s:1m", "first tier must be full resolution"),
        ("1000s:full,500s:1m", "strictly increasing"),
        ("inf:full,2000s:1m", "'inf' is only valid as the last"),
        ("1000s:full,4000s:1m,8000s:90s", "integer multiple"),
        ("1000s:full,4000s:1m,8000s:30s", "strictly increasing"),
        ("1000s:full,1030s:1m", "spans less than one"),
        ("0s:full", "positive"),
        ("1000s:full,inf:inf", "finite"),
        ("1000s:full,4000s:full", "only the first tier"),
        ("1000s:full,4000s:banana", "duration"),
        ("-5s:full", "positive"),
    ])
    def test_invalid_rejected_with_clear_error(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            RetentionSchedule.parse(text)

    @given(_valid_schedules(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shuffled_tiers_rejected(self, sched, data):
        """Swapping any two coarse tiers breaks horizon or resolution
        monotonicity and must be rejected."""
        if len(sched.tiers) < 3:
            return
        i = data.draw(st.integers(1, len(sched.tiers) - 2))
        tiers = list(sched.tiers)
        tiers[i], tiers[i + 1] = tiers[i + 1], tiers[i]
        with pytest.raises(ValueError, match="strictly increasing|'inf'"):
            RetentionSchedule(tuple(tiers))

    def test_cutoffs_are_aligned_and_monotone(self):
        sched = RetentionSchedule.parse(CANONICAL)
        cuts = sched.cutoffs(10_000.0)
        assert cuts == [(9000.0, 60.0), (6000.0, 600.0)]
        assert sched.drop_cutoff(10_000.0) is None
        for cutoff, res in cuts:
            assert cutoff % res == 0

    def test_finite_drop_cutoff_never_exceeds_coarsest(self):
        sched = RetentionSchedule.parse("100s:full,400s:10s,800s:40s")
        for newest in (803.0, 1000.0, 2000.0, 12_345.6):
            drop = sched.drop_cutoff(newest)
            cuts = sched.cutoffs(newest)
            assert drop is not None and drop % 40.0 == 0
            assert drop <= cuts[-1][0] <= cuts[0][0]


# ---------------------------------------------------------------------------
# Rollup aggregation


def _reference_rollup(t, v, resolution):
    """Loop-based recomputation rollup_arrays must match."""
    buckets = {}
    for ti, vi in zip(t, v):
        b = math.floor(ti / resolution) * resolution
        buckets.setdefault(b, []).append(vi)
    times = sorted(buckets)
    return (
        np.array(times),
        np.array([np.mean(buckets[b]) for b in times]),
        np.array([np.min(buckets[b]) for b in times]),
        np.array([np.max(buckets[b]) for b in times]),
        np.array([len(buckets[b]) for b in times], dtype=float),
    )


def _rows(values):
    return st.lists(
        st.tuples(st.integers(0, 100_000), values),
        min_size=1, max_size=200,
    ).map(lambda rows: sorted(rows))


_series = _rows(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
# A subnormal mean has too few significant bits for a relative bound:
# the 60 s mean of (0, 5e-324) is not representable, so re-rolling it
# can land one ulp from the direct mean.  Nesting is checked against a
# relative bound on normal floats and an absolute ulp on subnormals.
_normal_series = _rows(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
              allow_subnormal=False))
_subnormal_series = _rows(st.floats(-1e-310, 1e-310))


class TestRollupArrays:
    @given(_series, st.sampled_from([1.0, 7.0, 60.0, 600.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_recompute(self, rows, resolution):
        t = np.array([r[0] for r in rows], dtype=float) / 4.0
        v = np.array([r[1] for r in rows], dtype=float)
        bt, bm, blo, bhi, bn = rollup_arrays(t, v, resolution=resolution)
        rt, rm, rlo, rhi, rn = _reference_rollup(t, v, resolution)
        assert np.array_equal(bt, rt)
        assert np.array_equal(blo, rlo)
        assert np.array_equal(bhi, rhi)
        assert np.array_equal(bn, rn)
        np.testing.assert_allclose(bm, rm, rtol=1e-12, atol=1e-9)
        # Bucket timestamps are aligned starts.
        assert np.all(np.floor(bt / resolution) * resolution == bt)
        assert np.all(np.diff(bt) > 0)

    def test_bucket_boundary_starts_new_bucket(self):
        t = np.array([59.0, 60.0, 119.9, 120.0])
        v = np.array([1.0, 2.0, 3.0, 4.0])
        bt, bm, blo, bhi, bn = rollup_arrays(t, v, resolution=60.0)
        assert np.array_equal(bt, [0.0, 60.0, 120.0])
        assert np.array_equal(bn, [1.0, 2.0, 1.0])
        assert np.array_equal(bm, [1.0, 2.5, 4.0])

    def test_single_point_buckets_keep_values_verbatim(self):
        t = np.array([3.0, 61.0, 125.0])
        v = np.array([0.1 + 0.2, 1.0 / 3.0, -7.7])
        bt, bm, blo, bhi, bn = rollup_arrays(t, v, resolution=60.0)
        assert np.array_equal(bm, v)
        assert np.array_equal(blo, v)
        assert np.array_equal(bhi, v)
        assert np.array_equal(bn, [1.0, 1.0, 1.0])

    def test_identity_on_already_aligned_rows_is_bit_exact(self):
        t = np.arange(0.0, 600.0, 60.0)
        v = np.sin(t) * 3.7
        n = np.full(t.size, 5.0)
        out = rollup_arrays(t, v, v - 1.0, v + 1.0, n, resolution=60.0)
        assert np.array_equal(out[0], t)
        assert np.array_equal(out[1], v)
        assert np.array_equal(out[2], v - 1.0)
        assert np.array_equal(out[3], v + 1.0)
        assert np.array_equal(out[4], n)

    @staticmethod
    def _re_roll_and_direct(rows):
        t = np.array([r[0] for r in rows], dtype=float) / 4.0
        v = np.array([r[1] for r in rows], dtype=float)
        fine = rollup_arrays(t, v, resolution=60.0)
        re_rolled = rollup_arrays(*fine, resolution=600.0)
        direct = rollup_arrays(t, v, resolution=600.0)
        assert np.array_equal(re_rolled[0], direct[0])
        assert np.array_equal(re_rolled[2], direct[2])
        assert np.array_equal(re_rolled[3], direct[3])
        assert np.array_equal(re_rolled[4], direct[4])
        return re_rolled[1], direct[1]

    @given(_normal_series)
    @settings(max_examples=60, deadline=None)
    def test_re_roll_equals_direct_rollup(self, rows):
        """Rolling at 60 s then re-rolling those buckets at 600 s must
        reproduce a direct 600 s rollup (nesting resolutions)."""
        re_rolled, direct = self._re_roll_and_direct(rows)
        np.testing.assert_allclose(re_rolled, direct, rtol=1e-9)

    @given(_subnormal_series)
    @settings(max_examples=60, deadline=None)
    def test_re_roll_of_subnormals_is_within_one_ulp(self, rows):
        """Subnormal sums and integer-weighted products are exact, so
        only the two mean roundings differ: at most one ulp apart."""
        re_rolled, direct = self._re_roll_and_direct(rows)
        assert np.all(np.abs(re_rolled - direct) <= 5e-324)

    def test_re_roll_of_unrepresentable_subnormal_mean(self):
        # The fine 60 s mean of (0, 5e-324) rounds to 0, so the re-roll
        # is one ulp below the direct 600 s mean.
        re_rolled, direct = self._re_roll_and_direct(
            [(2400, 0.0), (2400, 5e-324), (2640, 5e-324)])
        assert np.array_equal(direct, [5e-324])
        assert np.array_equal(re_rolled, [0.0])

    def test_empty_input(self):
        out = rollup_arrays(np.empty(0), np.empty(0), resolution=60.0)
        assert all(a.size == 0 for a in out)

    def test_rejects_bad_resolution_and_ragged_arrays(self):
        with pytest.raises(ValueError, match="positive"):
            rollup_arrays(np.ones(3), np.ones(3), resolution=0.0)
        with pytest.raises(ValueError, match="equal length"):
            rollup_arrays(np.ones(3), np.ones(2), resolution=60.0)


# ---------------------------------------------------------------------------
# Backend tier migration (the mechanism half)


def _make_backend(kind, tmp_path, schedule=None, name="store"):
    return BACKENDS.create(kind, tmp_path / f"{name}.db",
                           schedule=schedule)


def _fill(backend, *, series=("web", "db"), cadence=0.5, span=10_000.0,
          batch=2000):
    """Deterministic long stream; returns {(comp, metric): (t, v)}."""
    raw = {}
    t = np.arange(0.0, span, cadence)
    for i, comp in enumerate(series):
        rng = np.random.default_rng(100 + i)
        v = np.cumsum(rng.standard_normal(t.size)) + 50.0 * i
        for lo in range(0, t.size, batch):
            backend.write(comp, "cpu", t[lo:lo + batch], v[lo:lo + batch])
        raw[(comp, "cpu")] = (t, v)
    backend.flush()
    return raw


@pytest.mark.parametrize("kind", ["sqlite"])
class TestBackendTieredRetention:
    def test_hot_horizon_reads_bit_identical(self, kind, tmp_path):
        plain = _make_backend(kind, tmp_path, name="plain")
        tiered = _make_backend(kind, tmp_path, CANONICAL, name="tiered")
        _fill(plain)
        raw = _fill(tiered)
        assert tiered.compact()["points_rolled"]
        newest = max(t[-1] for t, _ in raw.values())
        for comp, _ in raw:
            want = plain.query(comp, "cpu", newest - 1000.0, newest)
            got = tiered.query(comp, "cpu", newest - 1000.0, newest)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.values, want.values)
        plain.close()
        tiered.close()

    def test_rollup_regions_match_direct_recompute(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path, CANONICAL)
        raw = _fill(backend)
        backend.compact()
        sched = RetentionSchedule.parse(CANONICAL)
        for (comp, metric), (t, v) in raw.items():
            newest = t[-1]
            (c1, r1), (c2, r2) = sched.cutoffs(newest)
            rolled = backend.query_rollup(comp, metric,
                                          float("-inf"), float("inf"))
            # Mid tier [c2, c1): 1 m buckets of the raw samples.
            mid = (rolled.times >= c2) & (rolled.times < c1)
            src = (t >= c2) & (t < c1)
            bt, bm, blo, bhi, bn = rollup_arrays(t[src], v[src],
                                                 resolution=r1)
            assert np.array_equal(rolled.times[mid], bt)
            assert np.array_equal(rolled.counts[mid], bn)
            assert np.array_equal(rolled.mins[mid], blo)
            assert np.array_equal(rolled.maxs[mid], bhi)
            np.testing.assert_allclose(rolled.means[mid], bm, rtol=1e-12)
            # Cold tier (< c2): 10 m buckets.
            cold = rolled.times < c2
            ct, cm, clo, chi, cn = rollup_arrays(t[t < c2], v[t < c2],
                                                 resolution=r2)
            assert np.array_equal(rolled.times[cold], ct)
            assert np.array_equal(rolled.counts[cold], cn)
            np.testing.assert_allclose(rolled.means[cold], cm, rtol=1e-12)
            # Hot tier (>= c1): raw samples, count 1.
            hot = rolled.times >= c1
            assert np.array_equal(rolled.times[hot], t[t >= c1])
            assert np.array_equal(rolled.means[hot], v[t >= c1])
            assert np.all(rolled.counts[hot] == 1)
        backend.close()

    def test_no_lost_or_double_counted_samples(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path, CANONICAL)
        raw = _fill(backend)
        backend.compact()
        for (comp, metric), (t, _) in raw.items():
            rolled = backend.query_rollup(comp, metric,
                                          float("-inf"), float("inf"))
            assert rolled.total_samples() == t.size
            assert np.all(np.diff(rolled.times) > 0)
        backend.close()

    def test_second_compact_is_idempotent(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path, CANONICAL)
        raw = _fill(backend)
        backend.compact()
        before = {key: backend.query(key[0], key[1],
                                     float("-inf"), float("inf"))
                  for key in raw}
        assert backend.compact()["points_rolled"] == 0
        for key, want in before.items():
            got = backend.query(key[0], key[1],
                                float("-inf"), float("inf"))
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.values, want.values)
        backend.close()

    def test_reopen_serves_identical_data(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path, CANONICAL)
        raw = _fill(backend)
        backend.compact()
        before = {key: backend.query_rollup(key[0], key[1],
                                            float("-inf"), float("inf"))
                  for key in raw}
        backend.close()
        reopened = _make_backend(kind, tmp_path, CANONICAL)
        for key, want in before.items():
            got = reopened.query_rollup(key[0], key[1],
                                        float("-inf"), float("inf"))
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.counts, want.counts)
        reopened.close()

    def test_finite_final_horizon_drops_whole_buckets(self, kind,
                                                      tmp_path):
        sched = "100s:full,400s:10s,800s:40s"
        backend = _make_backend(kind, tmp_path, sched)
        raw = _fill(backend, series=("web",), span=2000.0)
        backend.compact()
        (t, _), = raw.values()
        newest = t[-1]
        drop = RetentionSchedule.parse(sched).drop_cutoff(newest)
        rolled = backend.query_rollup("web", "cpu",
                                      float("-inf"), float("inf"))
        assert rolled.times.size and rolled.times[0] >= drop
        assert rolled.total_samples() == int(np.sum(t >= drop))
        backend.close()

    def test_query_rollup_includes_unmigrated_tail(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path, CANONICAL)
        t = np.arange(0.0, 50.0, 1.0)
        backend.write("web", "cpu", t, t * 2.0)
        backend.flush()
        rolled = backend.query_rollup("web", "cpu", 10.0, 20.0)
        assert np.array_equal(rolled.times, np.arange(10.0, 21.0))
        assert np.all(rolled.counts == 1)
        assert np.array_equal(rolled.means, rolled.times * 2.0)
        backend.close()


def _fill_trimming(backend, *, series=("web", "db"), cadence=0.5,
                   span=10_000.0, batch=2000):
    """:func:`_fill`'s stream, interleaved across series with a
    ``trim`` after every batch -- a store compacted while it ingests."""
    t = np.arange(0.0, span, cadence)
    raw = {}
    for i, comp in enumerate(series):
        rng = np.random.default_rng(100 + i)
        raw[(comp, "cpu")] = (t, np.cumsum(rng.standard_normal(t.size))
                              + 50.0 * i)
    rolled = 0
    for lo in range(0, t.size, batch):
        for (comp, metric), (_, v) in raw.items():
            backend.write(comp, metric, t[lo:lo + batch],
                          v[lo:lo + batch])
        rolled += backend.trim()["points_rolled"]
    assert rolled, "no trim migrated anything"
    return raw


class TestTrimDuringIngest:
    """Trims interleaved with ingest (a session compacting on its
    policy) end where one trim after the whole stream does."""

    def _pair(self, tmp_path, schedule=CANONICAL, **fill):
        once = _make_backend("sqlite", tmp_path, schedule, name="once")
        raw = _fill(once, **fill)
        once.trim()
        during = _make_backend("sqlite", tmp_path, schedule,
                               name="during")
        _fill_trimming(during, **fill)
        during.trim()
        return raw, once, during

    def test_rollups_match_one_final_trim(self, tmp_path):
        raw, once, during = self._pair(tmp_path)
        for key in raw:
            want = once.query_rollup(*key)
            got = during.query_rollup(*key)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.counts, want.counts)
            assert np.array_equal(got.mins, want.mins)
            assert np.array_equal(got.maxs, want.maxs)
            # Re-rolled means differ from direct ones only by rounding.
            np.testing.assert_allclose(got.means, want.means, rtol=1e-12)
        once.close()
        during.close()

    def test_no_lost_or_double_counted_samples(self, tmp_path):
        raw, once, during = self._pair(tmp_path)
        for key, (t, _) in raw.items():
            rolled = during.query_rollup(*key)
            assert rolled.total_samples() == t.size
            assert np.all(np.diff(rolled.times) > 0)
        assert during.trim()["points_rolled"] == 0
        once.close()
        during.close()

    def test_hot_horizon_reads_bit_identical(self, tmp_path):
        raw, once, during = self._pair(tmp_path)
        for key, (t, v) in raw.items():
            newest = t[-1]
            got = during.query(*key, newest - 1000.0, newest)
            hot = t >= newest - 1000.0
            assert np.array_equal(got.times, t[hot])
            assert np.array_equal(got.values, v[hot])
        once.close()
        during.close()

    def test_finite_horizon_matches_one_final_trim(self, tmp_path):
        sched = "100s:full,400s:10s,800s:40s"
        raw, once, during = self._pair(tmp_path, sched, span=2000.0,
                                       batch=100)
        drop = RetentionSchedule.parse(sched).drop_cutoff(
            max(t[-1] for t, _ in raw.values()))
        for key, (t, _) in raw.items():
            want = once.query_rollup(*key)
            got = during.query_rollup(*key)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.counts, want.counts)
            assert got.total_samples() == int(np.sum(t >= drop))
        once.close()
        during.close()

    def test_reopen_between_trims_keeps_ordering_guard(self, tmp_path):
        t = np.arange(0.0, 3000.0, 1.0)
        for lo in range(0, t.size, 500):
            # A fresh process per batch: the guard and the schedule's
            # anchor are rebuilt from what the last trim left on disk.
            backend = _make_backend("sqlite", tmp_path, CANONICAL)
            if lo:
                with pytest.raises(ValueError, match="out-of-order"):
                    backend.write("web", "cpu", [t[lo] - 10.0], [0.0])
            backend.write("web", "cpu", t[lo:lo + 500], t[lo:lo + 500])
            backend.trim()
            backend.close()
        reopened = _make_backend("sqlite", tmp_path, CANONICAL)
        rolled = reopened.query_rollup("web", "cpu")
        assert rolled.total_samples() == t.size
        assert reopened.newest_time("web", "cpu") == t[-1]
        reopened.close()


class TestRollupFallbacks:
    def test_memory_backend_serves_count_one_rollups(self):
        backend = MemoryBackend()
        t = np.arange(0.0, 10.0)
        backend.write("web", "cpu", t, t + 1.0)
        rolled = backend.query_rollup("web", "cpu",
                                      float("-inf"), float("inf"))
        assert rolled.key == MetricKey("web", "cpu")
        assert np.array_equal(rolled.times, t)
        assert np.array_equal(rolled.means, t + 1.0)
        assert np.array_equal(rolled.mins, rolled.maxs)
        assert rolled.total_samples() == t.size


# ---------------------------------------------------------------------------
# Spec / session / CLI seams


def _stream_spec(**overrides):
    base = dict(mode="stream", app="demo-chain", seed=3, duration=60.0,
                workload=WorkloadSpec("constant", rate=40.0),
                streaming=StreamingConfig(window=20.0, hop=10.0,
                                          retention=120.0))
    base.update(overrides)
    return RunSpec(**base)


class TestScheduleSpec:
    def test_round_trips_through_json_and_toml(self, tmp_path):
        spec = _stream_spec(storage=StorageSpec(
            "sqlite", str(tmp_path / "s.db"), schedule=CANONICAL))
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert loads_spec(spec_to_toml(spec), format="toml") == spec
        path = tmp_path / "run.json"
        from repro.api.spec import save_spec
        save_spec(spec, path)
        assert load_spec(path).storage.schedule == CANONICAL

    def test_unknown_storage_key_rejected(self):
        data = _stream_spec().to_dict()
        data["storage"] = {"kind": "memory", "scheduel": CANONICAL}
        with pytest.raises((TypeError, ValueError), match="scheduel"):
            RunSpec.from_dict(data)

    def test_invalid_schedule_fails_at_spec_build(self, tmp_path):
        with pytest.raises(ValueError, match="first tier"):
            StorageSpec("sqlite", str(tmp_path / "s.db"), schedule="1000s:1m")

    def test_parsed_schedule_property(self, tmp_path):
        spec = StorageSpec("sqlite", str(tmp_path / "s.db"),
                           schedule=CANONICAL)
        assert spec.parsed_schedule == RetentionSchedule.parse(CANONICAL)
        assert StorageSpec().parsed_schedule is None

    def test_full_horizon_must_cover_ring_retention(self, tmp_path):
        with pytest.raises(ValueError,
                           match="keeps full resolution for only"):
            _stream_spec(storage=StorageSpec(
                "sqlite", str(tmp_path / "s.db"),
                schedule="100s:full,inf:10s"))

    def test_replay_mode_skips_horizon_validation(self, tmp_path):
        # Replay reads whatever the recording kept; the live-ring
        # constraint only applies to stream/serve.
        spec = _stream_spec(mode="replay", storage=StorageSpec(
            "sqlite", str(tmp_path / "s.db"), schedule="100s:full,inf:10s"))
        assert spec.storage.parsed_schedule.full_horizon == 100.0

    def test_cli_store_schedule_lands_in_spec(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "spec.json"
        code = main(["spec", "stream", "--duration", "40",
                     "--store", str(tmp_path / "store.db"),
                     "--store-backend", "sqlite",
                     "--store-schedule", CANONICAL,
                     "-o", str(out)])
        assert code == 0
        assert load_spec(out).storage.schedule == CANONICAL

    def test_cli_rejects_invalid_schedule(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["stream", "--duration", "10",
                     "--store", str(tmp_path / "store.db"),
                     "--store-backend", "sqlite",
                     "--store-schedule", "1000s:1m"])
        assert code != 0
        assert "full resolution" in capsys.readouterr().err


class TestSessionTieredRetention:
    def test_session_compact_applies_schedule(self, tmp_path):
        spec = _stream_spec(duration=360.0, storage=StorageSpec(
            "sqlite", str(tmp_path / "store.db"),
            schedule="200s:full,inf:20s"))
        with build_pipeline(spec) as session:
            session.run()
            session.backend.flush()
            before = session.backend.disk_bytes()
            stats = session.compact()
            assert stats["points_rolled"] > 0
            assert session.backend.disk_bytes() < before

    def test_policy_retires_at_full_resolution_horizon(self, tmp_path):
        spec = _stream_spec(
            duration=40.0,
            journal=str(tmp_path / "ingest.journal"),
            checkpoint=str(tmp_path / "state.ckpt"),
            streaming=StreamingConfig(window=20.0, hop=10.0,
                                      retention=120.0,
                                      checkpoint_every_windows=1),
            storage=StorageSpec("sqlite", str(tmp_path / "store.db"),
                                schedule="400s:full,inf:60s"))
        with build_pipeline(spec) as session:
            session.run()
            assert session.policy.retire_horizon == 400.0

    def test_policy_retire_defaults_to_ring_retention(self, tmp_path):
        spec = _stream_spec(
            duration=40.0,
            journal=str(tmp_path / "ingest.journal"),
            checkpoint=str(tmp_path / "state.ckpt"),
            streaming=StreamingConfig(window=20.0, hop=10.0,
                                      retention=120.0,
                                      checkpoint_every_windows=1))
        with build_pipeline(spec) as session:
            session.run()
            assert session.policy.retire_horizon == 120.0


# ---------------------------------------------------------------------------
# Acceptance: footprint reduction with bit-identical hot horizon


class TestFootprintAcceptance:
    def test_canonical_schedule_shrinks_footprint_5x(self, tmp_path):
        plain = _make_backend("sqlite", tmp_path, name="plain")
        tiered = _make_backend("sqlite", tmp_path, CANONICAL,
                               name="tiered")
        raw = _fill(plain, span=20_000.0)
        _fill(tiered, span=20_000.0)
        plain.compact()   # VACUUM only: a fair baseline
        tiered.compact()
        # Every window inside the full-resolution horizon is
        # bit-identical to the unscheduled run.
        newest = max(t[-1] for t, _ in raw.values())
        for comp, _ in raw:
            for start in np.arange(newest - 1000.0, newest, 120.0):
                want = plain.query(comp, "cpu", start, start + 120.0)
                got = tiered.query(comp, "cpu", start, start + 120.0)
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.values, want.values)
        # Close first: the WAL sidecar holds pages until checkpoint.
        plain.close()
        tiered.close()
        full = (tmp_path / "plain.db").stat().st_size
        reduced = (tmp_path / "tiered.db").stat().st_size
        assert reduced * 5 <= full, \
            f"footprint only {full / reduced:.1f}x smaller"

    def test_trim_shrinks_open_store_footprint(self, tmp_path):
        # An open store: the vacuumed copy must not linger in the
        # -wal sidecar until close, so disk_bytes falls at trim time.
        tiered = _make_backend("sqlite", tmp_path, CANONICAL,
                               name="tiered")
        _fill(tiered, span=20_000.0)
        before = tiered.disk_bytes()
        tiered.trim()
        assert tiered.disk_bytes() * 5 <= before, \
            f"open footprint only {before / tiered.disk_bytes():.1f}x"
        wal = tmp_path / "tiered.db-wal"
        assert not wal.exists() or wal.stat().st_size == 0
        tiered.close()
