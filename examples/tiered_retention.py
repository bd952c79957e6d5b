"""Tiered retention: downsampled cold storage behind a hot horizon.

A monitoring store that keeps everything at full resolution grows
without bound; real TSDBs (Graphite, M3) age samples through
progressively coarser rollup tiers instead.  This walkthrough:

1. streams a long synthetic run into two sqlite stores -- one
   unscheduled, one with the canonical
   ``1000s:full,4000s:1m,inf:10m`` schedule;
2. trims the scheduled store and compares on-disk footprints;
3. shows reads inside the full-resolution horizon are *bit-identical*
   to the unscheduled store, while older ranges serve (mean, min,
   max, count) rollups that conserve every raw sample.

Run with:  PYTHONPATH=src python examples/tiered_retention.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.persistence import RetentionSchedule, SqliteBackend

SCHEDULE = "1000s:full,4000s:1m,inf:10m"
CADENCE = 0.5
SPAN = 20_000.0


def fill(backend):
    """A long, deterministic ingest stream: two drifting series."""
    t = np.arange(0.0, SPAN, CADENCE)
    for i, component in enumerate(("web", "db")):
        rng = np.random.default_rng(100 + i)
        v = np.cumsum(rng.standard_normal(t.size)) + 50.0 * i
        for lo in range(0, t.size, 2000):
            backend.write(component, "cpu", t[lo:lo + 2000],
                          v[lo:lo + 2000])
    backend.close()  # commit so the footprint is on disk
    return t


def main():
    tmp = Path(tempfile.mkdtemp(prefix="tiered-retention-"))
    schedule = RetentionSchedule.parse(SCHEDULE)
    print(f"schedule      {schedule.format()}")
    print(f"full horizon  {schedule.full_horizon:g}s of raw samples\n")

    plain_db, tiered_db = tmp / "plain.db", tmp / "tiered.db"
    t = fill(SqliteBackend(plain_db))
    fill(SqliteBackend(tiered_db, schedule=SCHEDULE))

    # Re-open and migrate: rows older than each tier's aligned cutoff
    # are re-bucketed to that tier's resolution, then VACUUM returns
    # the freed pages.  Trim the plain store too (VACUUM only), so
    # both footprints are measured the same way.
    plain = SqliteBackend(plain_db)
    plain.compact()
    plain.close()
    tiered = SqliteBackend(tiered_db, schedule=SCHEDULE)
    stats = tiered.compact()
    tiered.close()
    print(f"compacted     {stats['points_rolled']:,} samples into "
          f"{stats['rollup_buckets_written']:,} rollup buckets")
    full_bytes = plain_db.stat().st_size
    cold_bytes = tiered_db.stat().st_size
    print(f"footprint     {full_bytes:,} -> {cold_bytes:,} bytes "
          f"({full_bytes / cold_bytes:.1f}x smaller)\n")

    # Inside the full-resolution horizon nothing changed -- reads are
    # bit-identical to the unscheduled store.
    plain = SqliteBackend(plain_db)
    tiered = SqliteBackend(tiered_db, schedule=SCHEDULE)
    newest = float(t[-1])
    raw = plain.query("web", "cpu", newest - 1000.0, newest)
    hot = tiered.query("web", "cpu", newest - 1000.0, newest)
    assert np.array_equal(raw.times, hot.times)
    assert np.array_equal(raw.values, hot.values)
    print(f"hot horizon   [{newest - 1000:.0f}s, {newest:.0f}s]: "
          f"{len(hot)} raw samples, bit-identical")

    # Beyond it, aggregate-aware reads get rollup columns; the bucket
    # counts conserve every raw sample ever written.
    rolled = tiered.query_rollup("web", "cpu",
                                 float("-inf"), float("inf"))
    print(f"whole series  {len(rolled)} stored rows representing "
          f"{rolled.total_samples():,} raw samples "
          f"(wrote {t.size:,})")
    coarse = rolled.counts > 1
    print(f"rollups       {int(coarse.sum())} buckets, e.g. t={{"
          f"{rolled.times[0]:.0f}}} mean={rolled.means[0]:.2f} "
          f"min={rolled.mins[0]:.2f} max={rolled.maxs[0]:.2f} "
          f"n={int(rolled.counts[0])}")
    assert rolled.total_samples() == t.size
    plain.close()
    tiered.close()


if __name__ == "__main__":
    main()
