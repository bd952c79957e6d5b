"""Parallel window-analysis scaling: executors and the SBD kernel.

Sizes the tentpole of the parallel subsystem: wall-clock of one full
window analysis (per-component reduce + re-cluster + dependency
extraction) under each :mod:`repro.parallel.executor` strategy,
across component counts and worker counts.  The per-window critical
path is the largest component, so speedup saturates near
``components / max_component_share`` -- and on a single-core runner
(``cpus: 1`` in the output) a process pool cannot beat serial at all;
read the numbers together with the recorded core count.

A separate microbenchmark times the batched SBD kernel against a
per-pair loop over the reference :func:`~repro.stats.correlation.sbd`
on the re-cluster hot shape (64 series x 240 points).

Writes ``BENCH_parallel.json`` with the headline numbers; CI uploads
it and ``benchmarks/check_regression.py`` gates it against the
committed baseline (including the ``_gates`` absolute floors, e.g.
``speedup_process@4 >= 1.5`` on hosts with four or more cores).
"""

import json
import os
import time

import numpy as np

from repro.api.registry import EXECUTORS
from repro.metrics.timeseries import MetricFrame, MetricKey, TimeSeries
from repro.core import StreamingConfig
from repro.stats.correlation import sbd, sbd_matrix
from repro.stats.timeseries_ops import znormalize
from repro.streaming import WindowAnalyzer
from repro.tracing.callgraph import CallGraph

from conftest import print_table

#: Component counts the executor sweep covers.
COMPONENT_COUNTS = (4, 8)

#: (kind, workers) strategies the sweep times.
STRATEGIES = (("serial", 1), ("process", 2), ("process", 4))

METRICS_PER_COMPONENT = 12
POINTS_PER_SERIES = 240

RESULTS_PATH = "BENCH_parallel.json"
_results: dict = {"name": "parallel_scaling",
                  "cpus": os.cpu_count(),
                  "metrics_per_component": METRICS_PER_COMPONENT,
                  "points_per_series": POINTS_PER_SERIES}


def _frame(components: int) -> MetricFrame:
    """Synthetic multi-component frame with clusterable structure."""
    rng = np.random.default_rng(17)
    frame = MetricFrame()
    t = 0.5 * np.arange(POINTS_PER_SERIES)
    for c in range(components):
        for m in range(METRICS_PER_COMPONENT):
            base = (1.0 + m % 4) * np.sin(t / (2.0 + c + 0.5 * (m % 3)))
            frame.add(TimeSeries(
                MetricKey(f"component_{c}", f"metric_{m}"),
                t, base + rng.normal(0.0, 0.2, POINTS_PER_SERIES),
            ))
    return frame


def _call_graph(components: int) -> CallGraph:
    graph = CallGraph()
    for c in range(components - 1):
        graph.record_call(f"component_{c}", f"component_{c + 1}", 5)
    return graph


def _fingerprint(analysis) -> dict:
    return {component: clustering.labels()
            for component, clustering in analysis.clusterings.items()}


def _identity(x):
    """Module-level warm-up task (process pools must pickle it)."""
    return x


def test_executor_scaling():
    rows = []
    for components in COMPONENT_COUNTS:
        frame = _frame(components)
        graph = _call_graph(components)
        span = float(frame.time_span()[1])
        timings: dict = {}
        reference = None
        for kind, workers in STRATEGIES:
            executor = EXECUTORS.create(kind, workers)
            analyzer = WindowAnalyzer(config=StreamingConfig(),
                                      seed=11, executor=executor)
            # One warm-up pass pays pool spin-up outside the timing
            # (pools are reused across windows in the engine too).
            if kind != "serial":
                executor.map(_identity, [0, 1])
            t0 = time.perf_counter()
            analysis = analyzer.analyze(frame, graph, 0.0, span,
                                        index=0)
            elapsed = time.perf_counter() - t0
            executor.close()
            label = "serial" if kind == "serial" \
                else f"{kind}@{workers}"
            timings[label] = elapsed
            if reference is None:
                reference = _fingerprint(analysis)
            else:
                # Distribution policy must not change the analysis.
                assert _fingerprint(analysis) == reference, label
        serial_s = timings["serial"]
        entry = {f"{label}_s": round(value, 4)
                 for label, value in timings.items()}
        for label, value in timings.items():
            if label != "serial":
                entry[f"speedup_{label}"] = round(serial_s / value, 3)
        _results[f"components_{components}"] = entry
        rows.append([components] + [round(v, 3)
                                    for v in timings.values()]
                    + [round(serial_s / timings["process@4"], 2)])

    print_table(
        f"Window-analysis scaling ({os.cpu_count()} cores)",
        ["components", "serial s", "process@2 s", "process@4 s",
         "speedup p@4"],
        rows,
    )
    if (os.cpu_count() or 1) >= 4:
        # The acceptance bars only apply where the hardware can
        # physically deliver them (CI perf-gate runners have >= 4
        # cores); single-core hosts record cpus=1 and the regression
        # gate downgrades the floor to a warning.
        speedup = _results["components_8"]["speedup_process@4"]
        assert speedup >= 1.5, (
            f"process@4 speedup {speedup} < 1.5x on a multi-core host"
        )


def test_sbd_kernel_batching():
    """Batched SBD matrix vs a per-pair loop over the reference.

    The re-cluster hot shape: 64 z-normalized series of 240 points.
    The batched kernel does one ``rfft`` over the stacked rows and one
    ``irfft`` per pair chunk instead of a transform round-trip per
    pair; the floor it must clear (2x) is far below the measured win.
    """
    rng = np.random.default_rng(23)
    n_series = 64
    series = np.stack([
        znormalize(np.sin(0.07 * np.arange(POINTS_PER_SERIES) + phase)
                   + rng.normal(0.0, 0.3, POINTS_PER_SERIES))
        for phase in rng.uniform(0.0, 6.28, n_series)
    ])

    sbd_matrix(series[:4])  # warm the FFT plan caches
    t0 = time.perf_counter()
    batched = sbd_matrix(series)
    batched_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference = np.zeros((n_series, n_series))
    for i in range(n_series):
        for j in range(i + 1, n_series):
            reference[i, j] = reference[j, i] = sbd(series[i], series[j])
    reference_s = time.perf_counter() - t0

    assert np.allclose(batched, reference, atol=1e-10)
    speedup = reference_s / max(batched_s, 1e-9)
    _results["sbd"] = {
        "n_series": n_series,
        "batched_s": round(batched_s, 4),
        "reference_s": round(reference_s, 4),
        "speedup_batched": round(speedup, 2),
    }
    print_table(
        f"SBD kernel ({n_series} x {POINTS_PER_SERIES})",
        ["kernel", "seconds"],
        [["batched", round(batched_s, 4)],
         ["per-pair reference", round(reference_s, 4)]],
    )
    # Single-threaded win, so this holds on any host (acceptance bar).
    assert speedup >= 2.0, f"batched SBD speedup {speedup} < 2x"

    with open(RESULTS_PATH, "w") as fh:
        json.dump(_results, fh, indent=2)
    print(f"results written to {RESULTS_PATH}")
