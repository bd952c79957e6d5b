"""The benchmark's metric names: units, directions, bounds.

Later issues cite these names, so they are fixed here once.
``BENCHMARK.json`` at the repo root repeats them for the driver
(``test_smoke.py`` checks the two agree); README.md says what each
one means and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import statistics

#: name -> (unit, better, bound).  ``bound`` is the share of the
#: baseline's median by which the metric may worsen before it counts
#: as a regression.  The seven timings have the widest bound the
#: driver allows: on the shared host this was built on, ten runs of
#: one commit spread by 0.04-0.18 of their median (README.md, open
#: finding 6), and a bound below the spread resolves nothing.  The
#: issue hoped for 0.08-0.15.  ``cluster_ari`` and ``edge_f1`` repeat
#: exactly on one seed; their bounds are for the driver, which
#: compares medians over ten different seeds.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ingest_points_per_s": ("points/s", "higher", 0.25),
    "ack_ms_p50": ("ms", "lower", 0.25),
    "insight_ms_p50": ("ms", "lower", 0.25),
    "query_ms_p50": ("ms", "lower", 0.25),
    "resume_s": ("s", "lower", 0.25),
    "server_cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "disk_mb": ("MB", "lower", 0.02),
    "cluster_ari": ("0-1", "higher", 0.05),
    "edge_f1": ("0-1", "higher", 0.10),
    "fail_share": ("share", "lower", 0.0),
}

#: Metrics the driver's ``BENCHMARK.json`` cannot carry: its contract
#: wants end-to-end metrics that are never 0, and ``fail_share`` is 0
#: on a healthy run.  The driver gets the same information through the
#: ``attempted``/``failed`` counts of every run's result line.
NOT_IN_DRIVER_FILE = ("fail_share",)

#: name -> (unit, better).  Times and work done for a fixed input are
#: better lower; shares of work avoided are better higher.
PER_LAYER: dict[str, tuple[str, str]] = {
    "obs.server.self_s": ("s", "lower"),
    "obs.server.requests": ("count", "lower"),
    "obs.server.bytes_in": ("bytes", "lower"),
    "obs.ingest.decode_s": ("s", "lower"),
    "obs.ingest.decode_calls": ("count", "lower"),
    "obs.ingest.batches_out": ("count", "lower"),
    "obs.ingest.points_per_batch": ("points", "higher"),
    "obs.ingest.gate_s": ("s", "lower"),
    "obs.ingest.rejected": ("count", "lower"),
    "obs.service.ingest_self_s": ("s", "lower"),
    "obs.service.duplicates": ("count", "lower"),
    "obs.service.backpressure_429": ("count", "lower"),
    "obs.service.ack_ms_p99": ("ms", "lower"),
    "obs.service.query_s": ("s", "lower"),
    "obs.service.queries": ("count", "lower"),
    "streaming.bus.publish_s": ("s", "lower"),
    "streaming.bus.publish_calls": ("count", "lower"),
    "streaming.bus.flush_self_s": ("s", "lower"),
    "streaming.bus.flushes": ("count", "lower"),
    "streaming.bus.points": ("points", "higher"),
    "streaming.bus.rejected_points": ("points", "lower"),
    "streaming.bus.shed_points": ("points", "lower"),
    "persistence.journal.append_s": ("s", "lower"),
    "persistence.journal.records": ("count", "lower"),
    "persistence.journal.bytes": ("bytes", "lower"),
    "persistence.journal.commit_s": ("s", "lower"),
    "persistence.journal.rotate_retire_s": ("s", "lower"),
    "streaming.window.ingest_s": ("s", "lower"),
    "streaming.window.ingest_calls": ("count", "lower"),
    "streaming.window.snapshot_s": ("s", "lower"),
    "streaming.window.snapshots": ("count", "lower"),
    "streaming.window.points_retained": ("points", "lower"),
    "streaming.window.evicted": ("points", "lower"),
    "persistence.sqlite_backend.write_s": ("s", "lower"),
    "persistence.sqlite_backend.write_calls": ("count", "lower"),
    "persistence.sqlite_backend.flush_s": ("s", "lower"),
    "persistence.sqlite_backend.disk_bytes": ("bytes", "lower"),
    "streaming.engine.offer_self_s": ("s", "lower"),
    "streaming.engine.offers": ("count", "lower"),
    "streaming.engine.skipped_windows": ("count", "lower"),
    "streaming.engine.insight_ms_p90": ("ms", "lower"),
    "streaming.analyzer.self_s": ("s", "lower"),
    "streaming.analyzer.windows": ("count", "higher"),
    "streaming.analyzer.reuse_share": ("share", "higher"),
    "streaming.drift.score_s": ("s", "lower"),
    "streaming.drift.components_scored": ("count", "lower"),
    "streaming.drift.drifted": ("count", "lower"),
    "clustering.reduction.reduce_s": ("s", "lower"),
    "clustering.reduction.components": ("count", "lower"),
    "stats.correlation.sbd_s": ("s", "lower"),
    "stats.correlation.sbd_calls": ("count", "lower"),
    "stats.correlation.sbd_pairs": ("count", "lower"),
    "causality.pairwise.extract_self_s": ("s", "lower"),
    "causality.pairwise.pairs_tested": ("count", "lower"),
    "causality.granger.test_s": ("s", "lower"),
    "causality.granger.tests": ("count", "lower"),
    "causality.granger.causal_share": ("share", "higher"),
    "core.incremental.merge_s": ("s", "lower"),
    "core.incremental.edges_reused": ("count", "higher"),
    "core.incremental.edges_retested": ("count", "lower"),
    "persistence.checkpoint.save_s": ("s", "lower"),
    "persistence.checkpoint.saves": ("count", "lower"),
    "persistence.checkpoint.bytes": ("bytes", "lower"),
    "persistence.checkpoint.restore_s": ("s", "lower"),
    "persistence.checkpoint.replayed_records": ("count", "lower"),
    "obs.query.publish_s": ("s", "lower"),
    "obs.query.render_bytes": ("bytes", "lower"),
    "bench.generator.build_s": ("s", "lower"),
    "bench.generator.body_bytes": ("bytes", "lower"),
    "bench.trace_overhead_share": ("share", "lower"),
    "bench.unattributed_share": ("share", "lower"),
    "bench.calib_spin_ms": ("ms", "lower"),
    "bench.reruns": ("count", "lower"),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0
    for identical values, whatever the median)."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return abs(q3 - q1) / abs(median) if median else float("inf")


def worse_by(name: str, base: float, value: float) -> float:
    """Share of ``base`` by which ``value`` is worse (negative when
    it is better)."""
    better = END_TO_END[name][1]
    change = base - value if better == "higher" else value - base
    if change == 0:
        return 0.0
    return change / abs(base) if base else float("inf")
