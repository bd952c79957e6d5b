"""Hot/cold tiered storage: numpy rings in RAM, segments on disk.

Long retentions do not fit in memory; the spill backend keeps the most
recent ``hot_points`` samples of every series in plain numpy buffers
and, whenever a hot buffer fills, freezes it into an immutable on-disk
``.npz`` *segment*.  An ``index.json`` in the backend directory records
every segment's key, time span and sample count, so a range query
touches only the segments that overlap the window -- and so a fresh
process can re-open a recorded directory and serve the same queries
without re-ingesting anything.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.metrics.timeseries import MetricKey, TimeSeries
from repro.persistence.backend import BackendBase, as_arrays
from repro.persistence.retention import (
    RetentionSchedule,
    RollupSeries,
    rollup_arrays,
)

INDEX_NAME = "index.json"
INDEX_VERSION = 1
#: The one on-disk segment format (recorded in every index).
SEGMENT_FORMAT = "npz"


class Segment:
    """One immutable cold run of rows of one series.

    ``resolution`` 0.0 means raw samples; positive means rollup
    buckets that wide (``n`` then counts stored *rows*, not the raw
    samples they summarize).  Indexes written before tiered retention
    existed simply have no ``resolution`` key and load as raw.
    """

    __slots__ = ("file", "start", "end", "n", "resolution")

    def __init__(self, file: str, start: float, end: float, n: int,
                 resolution: float = 0.0):
        self.file = file
        self.start = start
        self.end = end
        self.n = n
        self.resolution = resolution

    def as_dict(self) -> dict:
        out = {"file": self.file, "start": self.start,
               "end": self.end, "n": self.n}
        if self.resolution:
            out["resolution"] = self.resolution
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Segment":
        return cls(data["file"], float(data["start"]),
                   float(data["end"]), int(data["n"]),
                   float(data.get("resolution", 0.0)))


class _HotBuffer:
    """The in-RAM tail of one series: a list of appended chunks."""

    __slots__ = ("chunks", "n", "last_time")

    def __init__(self) -> None:
        self.chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self.n = 0
        self.last_time = float("-inf")

    def append(self, t: np.ndarray, v: np.ndarray) -> None:
        # Private copies: a bus flush hands out views of one array per
        # flush, which a held view would keep alive whole.
        self.chunks.append((t.copy(), v.copy()))
        self.n += int(t.size)
        self.last_time = float(t[-1])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.chunks:
            return np.empty(0), np.empty(0)
        return (np.concatenate([c[0] for c in self.chunks]),
                np.concatenate([c[1] for c in self.chunks]))

    def clear(self) -> None:
        self.chunks.clear()
        self.n = 0


def _write_segment(path: Path, arrays: dict) -> None:
    """Persist one segment's column arrays (raw: ``t``/``v``; rollup
    additionally ``vmin``/``vmax``/``n``)."""
    np.savez_compressed(path, **arrays)


def _read_segment(path: Path) -> dict:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def _as_rollup_columns(data: dict) -> tuple[np.ndarray, ...]:
    """A segment's columns as ``(t, mean, min, max, count)``, expanding
    raw samples to single-sample buckets."""
    t, v = data["t"], data["v"]
    return (t, v, data.get("vmin", v), data.get("vmax", v),
            data.get("n", np.ones(t.size)))


class SpillBackend(BackendBase):
    """Bounded-RAM storage backend with on-disk cold segments."""

    def __init__(self, directory, hot_points: int = 2048,
                 compact_min_points: int = 0,
                 schedule: str | RetentionSchedule | None = None):
        if hot_points < 8:
            raise ValueError("hot_points must be >= 8")
        if compact_min_points < 0:
            raise ValueError("compact_min_points must be >= 0")
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hot_points = hot_points
        self.compact_min_points = compact_min_points or hot_points
        """Segments smaller than this are merge candidates for
        :meth:`compact` (default: a full hot buffer's worth).  Small
        segments accumulate from partial tails spilled at every
        :meth:`close`, so a long-lived recorded directory fragments
        over restart cycles until compaction merges them."""
        if isinstance(schedule, str):
            schedule = RetentionSchedule.parse(schedule) \
                if schedule else None
        self.schedule = schedule
        """Tiered-retention policy :meth:`compact` applies (None keeps
        every segment at full resolution).  Policy, not data: a
        reopened directory rolls further only if its new backend is
        constructed with a schedule again."""
        self._hot: dict[MetricKey, _HotBuffer] = {}
        self._segments: dict[MetricKey, list[Segment]] = {}
        self._next_segment = 0
        self.spills = 0
        index_path = self.directory / INDEX_NAME
        if index_path.exists():
            self._load_index(index_path)

    # -- index ---------------------------------------------------------

    def _load_index(self, path: Path) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("version") != INDEX_VERSION:
            raise ValueError(
                f"unsupported spill index version {data.get('version')!r}"
            )
        declared = data.get("segment_format", SEGMENT_FORMAT)
        if declared != SEGMENT_FORMAT:
            # A recorded directory brings its own format and must fail
            # here, not at the first segment read.
            raise ValueError(
                f"unsupported spill segment format {declared!r} "
                f"(this build reads {SEGMENT_FORMAT!r} segments only)"
            )
        self._meta = dict(data.get("meta", {}))
        for entry in data["series"]:
            key = MetricKey(entry["component"], entry["metric"])
            segments = [Segment.from_dict(s)
                        for s in entry["segments"]]
            self._segments[key] = segments
            if segments:
                # Re-arm the out-of-order guard at the newest cold
                # sample, so a reopened backend rejects writes that
                # would land behind its existing segments (queries
                # assume globally time-ordered concatenation).
                buffer = _HotBuffer()
                buffer.last_time = segments[-1].end
                self._hot[key] = buffer
        self._next_segment = int(data.get("next_segment", 0))

    def _index_dict(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "segment_format": SEGMENT_FORMAT,
            "next_segment": self._next_segment,
            "meta": self._meta,
            "series": [
                {
                    "component": key.component,
                    "metric": key.metric,
                    "segments": [s.as_dict() for s in segments],
                }
                for key, segments in sorted(self._segments.items())
            ],
        }

    def _write_index(self) -> None:
        path = self.directory / INDEX_NAME
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._index_dict(), handle, indent=1, sort_keys=True)
        os.replace(tmp, path)

    # -- write path ----------------------------------------------------

    def write(self, component: str, metric: str, times, values) -> int:
        t, v = as_arrays(times, values)
        if not t.size:
            return 0
        key = MetricKey(component, metric)
        hot = self._hot.setdefault(key, _HotBuffer())
        if t[0] < hot.last_time:
            raise ValueError(
                f"out-of-order spill write at t={t[0]} for {key}"
            )
        hot.append(t, v)
        if hot.n >= self.hot_points:
            self._spill(key, hot)
        return int(t.size)

    def _spill(self, key: MetricKey, hot: _HotBuffer) -> None:
        t, v = hot.arrays()
        name = self._new_segment_name()
        _write_segment(self.directory / name, {"t": t, "v": v})
        self._segments.setdefault(key, []).append(
            Segment(name, float(t[0]), float(t[-1]), int(t.size))
        )
        hot.clear()
        self.spills += 1

    # -- read path -----------------------------------------------------

    def _series_arrays(self, key: MetricKey, start: float,
                       end: float) -> tuple[np.ndarray, np.ndarray]:
        parts_t: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        for segment in self._segments.get(key, ()):
            if segment.end < start or segment.start > end:
                continue
            data = _read_segment(self.directory / segment.file)
            parts_t.append(data["t"])
            parts_v.append(data["v"])
        hot = self._hot.get(key)
        if hot is not None and hot.n:
            t, v = hot.arrays()
            parts_t.append(t)
            parts_v.append(v)
        if not parts_t:
            return np.empty(0), np.empty(0)
        t = np.concatenate(parts_t)
        v = np.concatenate(parts_v)
        lo = int(np.searchsorted(t, start, side="left"))
        hi = int(np.searchsorted(t, end, side="right"))
        return t[lo:hi], v[lo:hi]

    def query(self, component: str, metric: str,
              start: float = float("-inf"),
              end: float = float("inf")) -> TimeSeries:
        """Samples in range; inside the full-resolution horizon these
        are the raw writes, beyond it each rollup bucket appears as
        one sample (bucket start, bucket mean)."""
        key = MetricKey(component, metric)
        t, v = self._series_arrays(key, start, end)
        return TimeSeries(key, t, v)

    def query_rollup(self, component: str, metric: str,
                     start: float = float("-inf"),
                     end: float = float("inf")) -> RollupSeries:
        """Like :meth:`query` but aggregate-aware: every row carries
        (mean, min, max, count); raw samples have ``count == 1``."""
        key = MetricKey(component, metric)
        parts: list[tuple[np.ndarray, ...]] = []
        for segment in self._segments.get(key, ()):
            if segment.end < start or segment.start > end:
                continue
            data = _read_segment(self.directory / segment.file)
            parts.append(_as_rollup_columns(data))
        hot = self._hot.get(key)
        if hot is not None and hot.n:
            t, v = hot.arrays()
            parts.append((t, v, v, v, np.ones(t.size)))
        if not parts:
            return RollupSeries(key)
        columns = [np.concatenate([p[i] for p in parts])
                   for i in range(5)]
        lo = int(np.searchsorted(columns[0], start, side="left"))
        hi = int(np.searchsorted(columns[0], end, side="right"))
        return RollupSeries(key, *(c[lo:hi] for c in columns))

    def disk_bytes(self) -> int:
        """On-disk footprint: every indexed segment plus the index."""
        total = 0
        for segments in self._segments.values():
            for segment in segments:
                path = self.directory / segment.file
                if path.exists():
                    total += path.stat().st_size
        index = self.directory / INDEX_NAME
        if index.exists():
            total += index.stat().st_size
        return total

    def keys(self) -> list[MetricKey]:
        known = set(self._segments) | {
            key for key, hot in self._hot.items() if hot.n
        }
        return sorted(known)

    def newest_time(self, component: str, metric: str) -> float | None:
        key = MetricKey(component, metric)
        hot = self._hot.get(key)
        # ``last_time`` survives spills and reopen re-arming, so it is
        # the newest sample whenever any write was seen or indexed.
        if hot is not None and hot.last_time != float("-inf"):
            return float(hot.last_time)
        segments = self._segments.get(key)
        return float(segments[-1].end) if segments else None

    def sample_count(self) -> int:
        cold = sum(segment.n for segments in self._segments.values()
                   for segment in segments)
        hot = sum(buffer.n for buffer in self._hot.values())
        return cold + hot

    def hot_sample_count(self) -> int:
        """Samples currently held in RAM (the spill pressure gauge)."""
        return sum(buffer.n for buffer in self._hot.values())

    # -- compaction ----------------------------------------------------

    def _new_segment_name(self) -> str:
        name = f"seg-{self._next_segment:06d}.{SEGMENT_FORMAT}"
        self._next_segment += 1
        return name

    def _roll_series(self, key: MetricKey, segments: list[Segment],
                     removed_files: list[str],
                     stats: dict) -> list[Segment]:
        """Migrate one series' segments across the schedule's tiers.

        Segments whose oldest row is due at a coarser resolution (or
        past the final horizon) are pooled, re-bucketed per tier
        region and rewritten as one segment per region; everything
        else is untouched.  Alignment + append-only writes seal every
        bucket below a cutoff, so running this twice rolls nothing
        twice.
        """
        newest = self.newest_time(key.component, key.metric)
        if newest is None or not segments:
            return segments
        schedule = self.schedule
        cuts = schedule.cutoffs(newest)
        drop_cutoff = schedule.drop_cutoff(newest)

        def _target(start: float) -> float:
            resolution = 0.0
            for cutoff, res in cuts:
                if start < cutoff:
                    resolution = res
            return resolution

        affected: list[Segment] = []
        keep: list[Segment] = []
        for segment in segments:
            due = (drop_cutoff is not None
                   and segment.start < drop_cutoff) \
                or _target(segment.start) > segment.resolution
            (affected if due else keep).append(segment)
        if not affected:
            return segments
        parts = [
            _as_rollup_columns(
                _read_segment(self.directory / s.file))
            for s in affected
        ]
        t, v, vmin, vmax, n = (
            np.concatenate([p[i] for p in parts]) for i in range(5)
        )
        if drop_cutoff is not None:
            lo = int(np.searchsorted(t, drop_cutoff, side="left"))
            stats["samples_dropped"] += int(n[:lo].sum())
            t, v, vmin, vmax, n = (a[lo:] for a in (t, v, vmin,
                                                    vmax, n))
        new_segments: list[Segment] = []

        def _emit(arrays: dict, resolution: float) -> None:
            name = self._new_segment_name()
            _write_segment(self.directory / name, arrays)
            ts = arrays["t"]
            new_segments.append(
                Segment(name, float(ts[0]), float(ts[-1]),
                        int(ts.size), resolution)
            )

        lo = 0
        for cutoff, res in reversed(cuts):  # oldest region first
            hi = int(np.searchsorted(t, cutoff, side="left"))
            if hi > lo:
                bt, bv, bmin, bmax, bn = rollup_arrays(
                    t[lo:hi], v[lo:hi], vmin[lo:hi], vmax[lo:hi],
                    n[lo:hi], resolution=res,
                )
                _emit({"t": bt, "v": bv, "vmin": bmin, "vmax": bmax,
                       "n": bn}, res)
                stats["samples_rolled"] += int(n[lo:hi].sum())
                stats["rollup_segments_written"] += 1
            lo = max(lo, hi)
        if lo < t.size:
            # Straddler remainder inside the full-resolution horizon.
            # The nesting invariant keeps rollup rows strictly older
            # than every raw row, so this tail is raw samples -- but a
            # corrupted directory must degrade, not mis-file
            # aggregates as samples.
            if np.all(n[lo:] == 1):
                _emit({"t": t[lo:], "v": v[lo:]}, 0.0)
            else:  # pragma: no cover - unreachable via public writes
                _emit({"t": t[lo:], "v": v[lo:], "vmin": vmin[lo:],
                       "vmax": vmax[lo:], "n": n[lo:]},
                      max(s.resolution for s in affected))
        stats["segments_rolled"] += len(affected)
        removed_files.extend(s.file for s in affected)
        return sorted(keep + new_segments,
                      key=lambda s: (s.start, s.end))

    def compact(self, retention: float | None = None) -> dict:
        """Drop, roll and merge cold segments.

        Up to three passes per series, mirroring the journal's
        retirement semantics:

        * **retention** -- with ``retention`` given, segments wholly
          older than (that series' newest sample - ``retention``) are
          dropped.  The anchor is per-series, so a series that went
          quiet never loses its only replayable history to a global
          clock that moved on without it.
        * **schedule** -- with a :attr:`schedule` set, rows older than
          each tier's aligned cutoff are re-bucketed to that tier's
          resolution (mean/min/max/count per bucket) and rows past a
          finite final horizon are dropped; reads keep serving full
          resolution inside the schedule's full horizon.
        * **merge** -- consecutive same-resolution runs of segments
          smaller than :attr:`compact_min_points` are rewritten as one
          segment, so a directory fragmented by many record/reopen
          cycles stops paying per-segment open cost on every range
          query.

        The rewritten index lands atomically before any source file is
        unlinked; a crash mid-compaction leaves at worst orphaned
        segment files that a later compaction run ignores.  Returns
        compaction stats.
        """
        stats = {
            "segments_dropped": 0,
            "samples_dropped": 0,
            "segments_merged": 0,
            "segments_written": 0,
            "segments_rolled": 0,
            "samples_rolled": 0,
            "rollup_segments_written": 0,
        }
        removed_files: list[str] = []
        if self.schedule is not None or retention is not None:
            # Migration passes are defined over the whole durable
            # history: spill hot tails first so a run that just ended
            # (its newest rows still in RAM) compacts everything, not
            # only what already crossed the spill threshold.
            for key, hot in sorted(self._hot.items()):
                if hot.n:
                    self._spill(key, hot)
        for key in sorted(self._segments):
            segments = self._segments[key]
            if retention is not None and segments:
                newest = self.newest_time(key.component, key.metric)
                cutoff = (newest if newest is not None
                          else segments[-1].end) - retention
                keep = [s for s in segments if s.end >= cutoff]
                for segment in segments:
                    if segment.end < cutoff:
                        stats["segments_dropped"] += 1
                        stats["samples_dropped"] += segment.n
                        removed_files.append(segment.file)
                segments = keep
            if self.schedule is not None:
                segments = self._roll_series(key, segments,
                                             removed_files, stats)
            merged: list[Segment] = []
            run: list[Segment] = []

            def _seal_run() -> None:
                if len(run) < 2:
                    merged.extend(run)
                    run.clear()
                    return
                parts = [
                    _read_segment(self.directory / s.file)
                    for s in run
                ]
                data = {
                    name: np.concatenate([p[name] for p in parts])
                    for name in parts[0]
                }
                name = self._new_segment_name()
                _write_segment(self.directory / name, data)
                t = data["t"]
                merged.append(Segment(name, float(t[0]), float(t[-1]),
                                      int(t.size), run[0].resolution))
                stats["segments_merged"] += len(run)
                stats["segments_written"] += 1
                removed_files.extend(s.file for s in run)
                run.clear()

            for segment in segments:
                if run and segment.resolution != run[0].resolution:
                    # Rollup buckets must not concatenate into a raw
                    # segment (or a differently-sized one): a merged
                    # segment keeps exactly one resolution.
                    _seal_run()
                if segment.n < self.compact_min_points:
                    run.append(segment)
                else:
                    _seal_run()
                    merged.append(segment)
            _seal_run()
            if merged:
                self._segments[key] = merged
            else:
                del self._segments[key]
        self._write_index()
        for file in removed_files:
            (self.directory / file).unlink(missing_ok=True)
        return stats

    # -- durability ----------------------------------------------------

    def flush(self) -> None:
        """Persist the segment index (hot tails stay in RAM)."""
        self._write_index()

    def close(self) -> None:
        """Spill every non-empty hot tail, then persist the index."""
        for key, hot in list(self._hot.items()):
            if hot.n:
                self._spill(key, hot)
        self._write_index()

    def set_metadata(self, meta: dict) -> None:
        super().set_metadata(meta)
        self._write_index()

