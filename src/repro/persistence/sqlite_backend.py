"""Durable point log on sqlite: batched appends, indexed range scans.

One ``series`` row per (component, metric) and one ``points`` row per
sample, indexed on ``(series_id, t)`` so range queries are a single
B-tree scan.  Writes go through ``executemany`` and are committed every
``commit_every`` points (plus on :meth:`flush`/:meth:`close`), the same
group-commit discipline a real TSDB applies to amortize fsync cost.
Run metadata (application, seed, call graph, ...) lives in a ``meta``
table as JSON, so a recorded database is self-describing.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np

from repro.metrics.timeseries import MetricKey, TimeSeries
from repro.persistence.backend import BackendBase, as_arrays
from repro.persistence.retention import (
    RetentionSchedule,
    RollupSeries,
    rollup_arrays,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS series (
    id INTEGER PRIMARY KEY,
    component TEXT NOT NULL,
    metric TEXT NOT NULL,
    UNIQUE (component, metric)
);
CREATE TABLE IF NOT EXISTS points (
    series_id INTEGER NOT NULL REFERENCES series(id),
    t REAL NOT NULL,
    v REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_points_series_t ON points (series_id, t);
CREATE TABLE IF NOT EXISTS rollups (
    series_id INTEGER NOT NULL REFERENCES series(id),
    resolution REAL NOT NULL,
    t REAL NOT NULL,
    mean REAL NOT NULL,
    vmin REAL NOT NULL,
    vmax REAL NOT NULL,
    n INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_rollups_series_t ON rollups (series_id, t);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
"""


class SqliteBackend(BackendBase):
    """Metric storage in a single sqlite database file.

    With a ``schedule`` (a tiered-retention string or
    :class:`~repro.persistence.retention.RetentionSchedule`),
    :meth:`trim` migrates points across tier horizons into the
    ``rollups`` table (one mean/min/max/count row per aligned bucket)
    and drops whole buckets past a finite final horizon.  The schema
    upgrade is additive: pre-rollup databases gain an empty ``rollups``
    table on open and stay readable everywhere.
    """

    def __init__(self, path=":memory:", commit_every: int = 50_000,
                 schedule: str | RetentionSchedule | None = None):
        if commit_every < 1:
            raise ValueError("commit_every must be >= 1")
        super().__init__()
        self.path = str(path)
        self.commit_every = commit_every
        if isinstance(schedule, str):
            schedule = RetentionSchedule.parse(schedule) \
                if schedule else None
        self.schedule = schedule
        # check_same_thread=False: in serve mode the HTTP handler
        # threads write the store, not the thread that opened it.
        # Access is serialized by the callers (the service lock),
        # which is the documented contract for disabling the
        # same-thread guard.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._ids: dict[MetricKey, int] = {}
        self._last_time: dict[MetricKey, float] = {}
        self._uncommitted = 0

    # -- internals -----------------------------------------------------

    def _series_id(self, component: str, metric: str) -> int:
        key = MetricKey(component, metric)
        sid = self._ids.get(key)
        if sid is None:
            row = self._conn.execute(
                "SELECT id FROM series WHERE component=? AND metric=?",
                (component, metric),
            ).fetchone()
            if row is None:
                cursor = self._conn.execute(
                    "INSERT INTO series (component, metric) VALUES (?, ?)",
                    (component, metric),
                )
                sid = int(cursor.lastrowid)
            else:
                sid = int(row[0])
            self._ids[key] = sid
        return sid

    # -- write path ----------------------------------------------------

    def write(self, component: str, metric: str, times, values) -> int:
        t, v = as_arrays(times, values)
        if not t.size:
            return 0
        sid = self._series_id(component, metric)
        key = MetricKey(component, metric)
        last = self._last_time.get(key)
        if last is None:
            # First write this process: recover the ordering guard
            # from the database, so appending to an existing file
            # cannot interleave an older timeline (the corruption
            # would otherwise only surface at read time).
            row = self._conn.execute(
                "SELECT MAX(t) FROM points WHERE series_id=?", (sid,)
            ).fetchone()
            last = float("-inf") if row[0] is None else float(row[0])
        if t[0] < last:
            raise ValueError(
                f"out-of-order sqlite write at t={t[0]} for {key} "
                f"(stored tail t={last})"
            )
        self._last_time[key] = float(t[-1])
        self._conn.executemany(
            "INSERT INTO points (series_id, t, v) VALUES (?, ?, ?)",
            ((sid, float(ti), float(vi)) for ti, vi in zip(t, v)),
        )
        self._uncommitted += int(t.size)
        if self._uncommitted >= self.commit_every:
            self.flush()
        return int(t.size)

    # -- read path -----------------------------------------------------

    def query(self, component: str, metric: str,
              start: float = float("-inf"),
              end: float = float("inf")) -> TimeSeries:
        """Samples in range; inside the full-resolution horizon these
        are the raw writes, beyond it each rollup bucket appears as
        one sample (bucket start, bucket mean).  Rollup buckets are
        strictly older than every remaining point (the migration
        invariant), so the concatenation stays time-ordered."""
        key = MetricKey(component, metric)
        row = self._conn.execute(
            "SELECT id FROM series WHERE component=? AND metric=?",
            (component, metric),
        ).fetchone()
        if row is None:
            return TimeSeries(key)
        rolled = self._conn.execute(
            "SELECT t, mean FROM rollups WHERE series_id=? "
            "AND t>=? AND t<=? ORDER BY t",
            (int(row[0]), float(start), float(end)),
        ).fetchall()
        rows = self._conn.execute(
            "SELECT t, v FROM points WHERE series_id=? "
            "AND t>=? AND t<=? ORDER BY rowid",
            (int(row[0]), float(start), float(end)),
        ).fetchall()
        if not rolled and not rows:
            return TimeSeries(key)
        arr = np.asarray(rolled + rows, dtype=float)
        return TimeSeries(key, arr[:, 0], arr[:, 1])

    def query_rollup(self, component: str, metric: str,
                     start: float = float("-inf"),
                     end: float = float("inf")) -> RollupSeries:
        """Like :meth:`query` but aggregate-aware: every row carries
        (mean, min, max, count); raw points have ``count == 1``."""
        key = MetricKey(component, metric)
        row = self._conn.execute(
            "SELECT id FROM series WHERE component=? AND metric=?",
            (component, metric),
        ).fetchone()
        if row is None:
            return RollupSeries(key)
        rolled = self._conn.execute(
            "SELECT t, mean, vmin, vmax, n FROM rollups "
            "WHERE series_id=? AND t>=? AND t<=? ORDER BY t",
            (int(row[0]), float(start), float(end)),
        ).fetchall()
        rows = self._conn.execute(
            "SELECT t, v, v, v, 1 FROM points WHERE series_id=? "
            "AND t>=? AND t<=? ORDER BY rowid",
            (int(row[0]), float(start), float(end)),
        ).fetchall()
        if not rolled and not rows:
            return RollupSeries(key)
        arr = np.asarray(rolled + rows, dtype=float)
        return RollupSeries(key, arr[:, 0], arr[:, 1], arr[:, 2],
                            arr[:, 3], arr[:, 4])

    def newest_time(self, component: str, metric: str) -> float | None:
        row = self._conn.execute(
            "SELECT id FROM series WHERE component=? AND metric=?",
            (component, metric),
        ).fetchone()
        if row is None:
            return None
        newest = self._conn.execute(
            "SELECT MAX(t) FROM points WHERE series_id=?",
            (int(row[0]),),
        ).fetchone()[0]
        if newest is None:
            newest = self._conn.execute(
                "SELECT MAX(t) FROM rollups WHERE series_id=?",
                (int(row[0]),),
            ).fetchone()[0]
        return None if newest is None else float(newest)

    def keys(self) -> list[MetricKey]:
        rows = self._conn.execute(
            "SELECT component, metric FROM series ORDER BY component, metric"
        ).fetchall()
        return [MetricKey(c, m) for c, m in rows]

    def series_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM series").fetchone()
        return int(row[0])

    def sample_count(self) -> int:
        """Stored rows: raw points plus rollup buckets (a bucket
        counts once however many samples it summarizes)."""
        points = self._conn.execute(
            "SELECT COUNT(*) FROM points").fetchone()[0]
        rolled = self._conn.execute(
            "SELECT COUNT(*) FROM rollups").fetchone()[0]
        return int(points) + int(rolled)

    def disk_bytes(self) -> int:
        """On-disk footprint of the database (plus WAL sidecars)."""
        import os

        if self.path == ":memory:":
            return 0
        total = 0
        for path in (self.path, self.path + "-wal",
                     self.path + "-shm"):
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    # -- metadata ------------------------------------------------------

    def set_metadata(self, meta: dict) -> None:
        super().set_metadata(meta)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, payload) VALUES ('run', ?)",
            (json.dumps(meta, sort_keys=True),),
        )
        self._conn.commit()

    def metadata(self) -> dict:
        row = self._conn.execute(
            "SELECT payload FROM meta WHERE key='run'"
        ).fetchone()
        if row is None:
            return {}
        return json.loads(row[0])

    # -- compaction ----------------------------------------------------

    def _apply_schedule(self) -> tuple[int, int, int]:
        """Migrate every series across the schedule's tiers.

        Runs in one transaction (committed by the caller), so a crash
        mid-migration rolls back to the untouched database -- never a
        half-rolled series.  Returns (points rolled, rollup buckets
        written, rows dropped past the final horizon).
        """
        schedule = self.schedule
        rolled = 0
        buckets = 0
        dropped = 0
        for (sid,) in self._conn.execute(
                "SELECT id FROM series").fetchall():
            newest = self.newest_time(
                *self._conn.execute(
                    "SELECT component, metric FROM series WHERE id=?",
                    (sid,)).fetchone())
            if newest is None:
                continue
            drop_cutoff = schedule.drop_cutoff(newest)
            if drop_cutoff is not None:
                for table in ("points", "rollups"):
                    cursor = self._conn.execute(
                        f"DELETE FROM {table} "
                        f"WHERE series_id=? AND t<?",
                        (sid, drop_cutoff),
                    )
                    dropped += cursor.rowcount
            lo = drop_cutoff if drop_cutoff is not None \
                else float("-inf")
            # Oldest (coarsest) region first; regions are disjoint.
            for cutoff, res in reversed(schedule.cutoffs(newest)):
                cutoff = max(lo, cutoff)
                prows = self._conn.execute(
                    "SELECT t, v, v, v, 1 FROM points "
                    "WHERE series_id=? AND t>=? AND t<? ORDER BY t",
                    (sid, lo, cutoff),
                ).fetchall()
                rrows = self._conn.execute(
                    "SELECT t, mean, vmin, vmax, n FROM rollups "
                    "WHERE series_id=? AND resolution<? "
                    "AND t>=? AND t<? ORDER BY t",
                    (sid, res, lo, cutoff),
                ).fetchall()
                if prows or rrows:
                    # Finer rollups are strictly older than raw points
                    # (the migration invariant), so concatenation in
                    # that order stays time-sorted.
                    arr = np.asarray(rrows + prows, dtype=float)
                    bt, bv, bmin, bmax, bn = rollup_arrays(
                        arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                        arr[:, 4], resolution=res,
                    )
                    self._conn.execute(
                        "DELETE FROM points "
                        "WHERE series_id=? AND t>=? AND t<?",
                        (sid, lo, cutoff),
                    )
                    self._conn.execute(
                        "DELETE FROM rollups WHERE series_id=? "
                        "AND resolution<? AND t>=? AND t<?",
                        (sid, res, lo, cutoff),
                    )
                    self._conn.executemany(
                        "INSERT INTO rollups "
                        "(series_id, resolution, t, mean, vmin, vmax, n)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?)",
                        ((sid, res, float(ti), float(vi), float(mi),
                          float(ma), int(ni))
                         for ti, vi, mi, ma, ni
                         in zip(bt, bv, bmin, bmax, bn)),
                    )
                    rolled += len(prows)
                    buckets += int(bt.size)
                lo = cutoff
        return rolled, buckets, dropped

    def trim(self, retention: float | None = None) -> dict:
        """Apply the retention schedule and horizon, then ``VACUUM``.

        With a :attr:`schedule` set, points older than each tier's
        aligned cutoff migrate into that tier's rollup buckets and
        whole buckets past a finite final horizon are dropped.  With
        ``retention`` given, every series additionally loses the rows
        older than (its *own* newest sample - ``retention``) -- the
        per-series anchor mirrors the journal's retirement semantics,
        so a quiet series never loses its only history to a global
        clock that moved on.  ``VACUUM`` then returns the freed pages
        to the filesystem (a plain DELETE only marks them reusable);
        in WAL mode the vacuumed copy sits in the ``-wal`` sidecar
        until a checkpoint, so one is forced.  Returns trim stats.
        """
        self.flush()
        deleted = 0
        rolled = 0
        buckets = 0
        if self.schedule is not None:
            rolled, buckets, dropped = self._apply_schedule()
            deleted += dropped
            self._conn.commit()
        if retention is not None:
            rows = self._conn.execute(
                "SELECT series_id, MAX(t) FROM points GROUP BY series_id"
            ).fetchall()
            for sid, newest in rows:
                if newest is None:
                    continue
                for table in ("points", "rollups"):
                    cursor = self._conn.execute(
                        f"DELETE FROM {table} WHERE series_id=? AND t<?",
                        (int(sid), float(newest) - retention),
                    )
                    deleted += cursor.rowcount
            self._conn.commit()
        # VACUUM must run outside any transaction (flush/commit above).
        self._conn.execute("VACUUM")
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"points_deleted": deleted,
                "points_rolled": rolled,
                "rollup_buckets_written": buckets}

    def compact(self, retention: float | None = None) -> dict:
        """Registry-facing alias of :meth:`trim` (the
        ``StorageBackend`` compaction protocol)."""
        return self.trim(retention)

    # -- durability ----------------------------------------------------

    def flush(self) -> None:
        self._conn.commit()
        self._uncommitted = 0

    def close(self) -> None:
        self.flush()
        self._conn.close()
