"""Tiered retention: on-disk footprint and cold-query cost.

Sizes what the retention schedule buys: the canonical
``1000s:full,4000s:1m,inf:10m`` ladder applied to a long synthetic
stream on the sqlite backend, reporting the scheduled vs
full-resolution on-disk footprint (the headline >= 5x reduction),
migration cost, and what cold reads pay afterwards (full-range
``query_rollup`` scans and hot-horizon raw range queries).

Writes ``BENCH_retention.json`` with the headline numbers.
"""

import json
import os
import time

import numpy as np

from repro.persistence import SqliteBackend

from conftest import print_table

SCHEDULE = "1000s:full,4000s:1m,inf:10m"
N_SERIES = 8
CADENCE = 0.5
SPAN = 20_000.0
BATCH = 2000

RESULTS_PATH = "BENCH_retention.json"
_results: dict = {}


def _fill(backend):
    t = np.arange(0.0, SPAN, CADENCE)
    for s in range(N_SERIES):
        rng = np.random.default_rng(100 + s)
        v = np.cumsum(rng.standard_normal(t.size))
        for lo in range(0, t.size, BATCH):
            backend.write(f"component_{s % 4}", f"metric_{s}",
                          t[lo:lo + BATCH], v[lo:lo + BATCH])
    backend.flush()
    return t


def test_retention_footprint_and_cold_queries(tmp_path):
    n_points = int(N_SERIES * SPAN / CADENCE)
    full_path = tmp_path / "full.db"
    tiered_path = tmp_path / "tiered.db"
    full = SqliteBackend(full_path)
    tiered = SqliteBackend(tiered_path, schedule=SCHEDULE)
    t = _fill(full)
    _fill(tiered)
    full.compact()  # VACUUM only: a fair baseline

    t0 = time.perf_counter()
    tiered.compact()
    compact_s = time.perf_counter() - t0

    # Close before measuring: sqlite holds pages in the WAL sidecar
    # until checkpoint.
    full.close()
    tiered.close()
    full_bytes = full_path.stat().st_size
    tiered_bytes = tiered_path.stat().st_size
    reduction = full_bytes / tiered_bytes

    reopened = SqliteBackend(tiered_path, schedule=SCHEDULE)
    t0 = time.perf_counter()
    represented = 0
    for s in range(N_SERIES):
        rolled = reopened.query_rollup(
            f"component_{s % 4}", f"metric_{s}",
            float("-inf"), float("inf"))
        represented += rolled.total_samples()
    cold_s = time.perf_counter() - t0
    assert represented == n_points  # nothing lost, nothing doubled

    newest = float(t[-1])
    t0 = time.perf_counter()
    for s in range(N_SERIES):
        ts = reopened.query(f"component_{s % 4}", f"metric_{s}",
                            newest - 1000.0, newest)
        assert len(ts) == 2001  # raw resolution inside the horizon
    hot_s = time.perf_counter() - t0
    reopened.close()

    _results["sqlite"] = {
        "full_bytes": full_bytes,
        "tiered_bytes": tiered_bytes,
        "footprint_reduction": round(reduction, 2),
        "compact_s": round(compact_s, 4),
        "cold_scan_ms": round(1000.0 * cold_s / N_SERIES, 3),
        "hot_query_ms": round(1000.0 * hot_s / N_SERIES, 3),
    }
    print_table(
        "Tiered retention footprint",
        ["backend", "full bytes", "tiered bytes", "reduction",
         "compact s", "cold scan ms"],
        [["sqlite", f"{full_bytes:,}", f"{tiered_bytes:,}",
          f"{reduction:.1f}x", round(compact_s, 3),
          round(1000.0 * cold_s / N_SERIES, 3)]],
    )
    # The acceptance floor: the canonical schedule must shrink the
    # store at least 5x on a long stream.
    assert reduction >= 5.0, f"only {reduction:.1f}x"
    with open(RESULTS_PATH, "w") as fh:
        json.dump({"name": "retention_footprint", "points": n_points,
                   "series": N_SERIES, "schedule": SCHEDULE,
                   "cpus": os.cpu_count(),
                   **_results}, fh, indent=2)
    print(f"results written to {RESULTS_PATH}")
