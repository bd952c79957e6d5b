"""Persistence backend throughput: write and scan rates vs in-memory.

Sizes the cost of durability: points/second through each
:class:`~repro.persistence.backend.StorageBackend` on the batched
write path (the ingestion-bus discipline), full-scan throughput for
``to_frame`` (what a replay pays), and range-query latency (what the
window store's backend fallback pays).  Uses plain ``perf_counter``
timing so it runs under vanilla pytest.

Writes ``BENCH_persistence.json`` with the headline numbers.
"""

import json
import os
import time

import numpy as np

from repro.persistence import MemoryBackend, SqliteBackend

from conftest import print_table

N_SERIES = 40
POINTS_PER_SERIES = 4000
BATCH = 200

RESULTS_PATH = "BENCH_persistence.json"
_results: dict = {}


def _batches():
    """Synthetic ingest stream: per-series batches in time order."""
    rng = np.random.default_rng(11)
    values = rng.random((N_SERIES, POINTS_PER_SERIES))
    out = []
    for start in range(0, POINTS_PER_SERIES, BATCH):
        t = 0.5 * np.arange(start, start + BATCH, dtype=float)
        for s in range(N_SERIES):
            out.append((f"component_{s % 8}", f"metric_{s}",
                        t, values[s, start:start + BATCH]))
    return out


def _make_backends(tmp_path):
    return {
        "memory": MemoryBackend(),
        "sqlite": SqliteBackend(tmp_path / "bench.db"),
    }


def test_backend_write_and_scan_throughput(tmp_path):
    batches = _batches()
    n_points = N_SERIES * POINTS_PER_SERIES
    rows = []
    for name, backend in _make_backends(tmp_path).items():
        t0 = time.perf_counter()
        for component, metric, t, v in batches:
            backend.write(component, metric, t, v)
        backend.flush()
        write_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        frame = backend.to_frame()
        scan_s = time.perf_counter() - t0
        assert frame.total_samples() == n_points

        t0 = time.perf_counter()
        for s in range(N_SERIES):
            ts = backend.query(f"component_{s % 8}", f"metric_{s}",
                               500.0, 600.0)
            assert len(ts) == 201
        query_s = time.perf_counter() - t0

        write_rate = n_points / write_s
        scan_rate = n_points / max(scan_s, 1e-9)
        _results[name] = {
            "write_points_per_sec": round(write_rate),
            "scan_points_per_sec": round(scan_rate),
            "range_query_ms": round(1000.0 * query_s / N_SERIES, 3),
        }
        rows.append([name, f"{write_rate:,.0f}", f"{scan_rate:,.0f}",
                     round(1000.0 * query_s / N_SERIES, 3)])
        backend.close()

    print_table(
        "Persistence backend throughput",
        ["backend", "write pts/s", "scan pts/s", "range query ms"],
        rows,
    )
    # Durability must stay within an order of magnitude of usable:
    # even the slowest backend has to absorb a healthy scrape load.
    for name, numbers in _results.items():
        assert numbers["write_points_per_sec"] > 10_000, name

    with open(RESULTS_PATH, "w") as fh:
        json.dump({"name": "persistence_throughput",
                   "points": n_points, "series": N_SERIES,
                   "cpus": os.cpu_count(),
                   **_results}, fh, indent=2)
    print(f"results written to {RESULTS_PATH}")

