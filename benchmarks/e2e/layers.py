"""The traced run: per-layer self times and counts, from outside.

The same session the server child runs is built in this process with
``PipelineBuilder(...).mode("serve")``, the callables of each layer
are wrapped with the span recorder (``tracing.py``), and the first
third of the timed bodies is replayed over loopback.  The same pass
is then run with the wrappers off; the difference in round-trip time
is ``bench.trace_overhead_share``.  End-to-end metrics never come
from here.

Metric names are ``<module>.<metric>`` after the ``repro`` module a
number belongs to (``metrics.PER_LAYER``); README.md, "How the
metrics interact", says which end-to-end metric each should move and
on which workload.
"""

from __future__ import annotations

import os
import shutil
import time
from importlib import import_module
from pathlib import Path
from typing import Any

import harness
import tracing
import workloads as wl
from harness import Client, Driver
from workloads import Scale, Workload

#: Span names whose self time counts as analysis / persistence in the
#: workload-validity checks.
ANALYSIS_SPANS = ("clustering.reduction.reduce", "stats.correlation.sbd",
                  "causality.pairwise.extract", "causality.granger.test")
PERSISTENCE_SPANS = ("persistence.journal.append",
                     "persistence.journal.commit",
                     "persistence.journal.rotate_retire",
                     "persistence.sqlite_backend.write",
                     "persistence.sqlite_backend.flush",
                     "persistence.checkpoint.save")


def targets() -> list[tuple]:
    """``(owner, attribute, span name[, count])`` for every layer
    boundary the traced run crosses.  Methods are patched on the
    class (the bus and the engine hold bound methods of their
    subscribers); module-level functions on the module that imports
    them, which is where the caller looks them up."""
    # import_module, not ``import a.b as b``: repro.clustering
    # re-exports a function named like its kshape submodule.
    pairwise = import_module("repro.causality.pairwise")
    kshape = import_module("repro.clustering.kshape")
    model_selection = import_module("repro.clustering.model_selection")
    reduction = import_module("repro.clustering.reduction")
    service = import_module("repro.obs.service")
    persistence = import_module("repro.persistence")
    analyzer = import_module("repro.streaming.analyzer")
    from repro.obs.ingest import SourceGate
    from repro.obs.query import AnalysisView
    from repro.persistence import (
        CheckpointPolicy,
        IngestJournal,
        SqliteBackend,
    )
    from repro.streaming.bus import IngestionBus
    from repro.streaming.drift import DriftDetector
    from repro.streaming.engine import StreamingSieve
    from repro.streaming.window import WindowStore

    def batches(request, *_args, **_kwargs):
        return len(request.batches)

    def points(_result, _self, _component, _metric, times, _values):
        return len(times)

    def pairs(_result, x_rows, y_rows=None):
        return len(x_rows) * len(x_rows if y_rows is None else y_rows)

    def causal(result, *_args, **_kwargs):
        return float(result.is_causal(wl.GRANGER_ALPHA))

    def components(_result, _self, frame, *_args, **_kwargs):
        return len(frame.components)

    sbd = "stats.correlation.sbd"
    return [
        (service.OperationsService, "handle_ingest",
         "obs.service.ingest"),
        (service.OperationsService, "handle_query",
         "obs.service.query"),
        (service, "decode_payload", "obs.ingest.decode", batches),
        (SourceGate, "admit", "obs.ingest.gate"),
        (IngestionBus, "publish_points", "streaming.bus.publish", points),
        (IngestionBus, "flush", "streaming.bus.flush"),
        (IngestJournal, "append_batch", "persistence.journal.append"),
        (IngestJournal, "commit", "persistence.journal.commit"),
        (IngestJournal, "rotate", "persistence.journal.rotate_retire"),
        (IngestJournal, "retire", "persistence.journal.rotate_retire"),
        (WindowStore, "ingest", "streaming.window.ingest", points),
        (WindowStore, "snapshot", "streaming.window.snapshot"),
        (SqliteBackend, "write", "persistence.sqlite_backend.write"),
        (SqliteBackend, "flush", "persistence.sqlite_backend.flush"),
        (StreamingSieve, "offer", "streaming.engine.offer"),
        (analyzer.WindowAnalyzer, "analyze", "streaming.analyzer.analyze"),
        (DriftDetector, "drifted_components", "streaming.drift.score",
         components),
        (analyzer, "reduce_component_task",
         "clustering.reduction.reduce"),
        (kshape, "sbd_pairs", sbd, pairs),
        (reduction, "sbd_pairs", sbd, pairs),
        (model_selection, "_batched_sbd_matrix", sbd, pairs),
        (analyzer, "extract_dependencies", "causality.pairwise.extract"),
        (pairwise, "granger_test", "causality.granger.test", causal),
        (analyzer, "merge_dependency_graphs", "core.incremental.merge"),
        (CheckpointPolicy, "on_window", "persistence.checkpoint.save"),
        (persistence, "restore_engine", "persistence.checkpoint.restore"),
        (AnalysisView, "publish", "obs.query.publish"),
    ]


def _engine_counts(session: Any) -> dict[str, float]:
    """The stat structs the layers already keep, read at a boundary."""
    engine = session.engine
    bus = engine.bus.stats
    journal = engine.bus.journal
    return {
        "rejected_400": session.service.ingest_rejected,
        "duplicates": session.service.gate.duplicates,
        "backpressure": session.service.backpressure_responses,
        "bus_points": bus.points_published,
        "bus_rejected": bus.rejected_points,
        "bus_shed": bus.overflow_dropped + bus.overflow_downsampled,
        "bus_flushes": bus.flushes,
        "journal_records": journal.records_written,
        "skipped": engine.skipped_windows,
        "reused": engine.stats.components_reused,
        "reclustered": engine.stats.components_reclustered,
        "drifted": engine.stats.drift_escalations,
        "edges_reused": engine.stats.edges_reused,
        "edges_retested": engine.stats.edges_retested,
    }


def _replay(workload: Workload, bodies: list[bytes], scale: Scale,
            workdir: Path, recorder: tracing.Recorder | None) -> dict:
    """Warm up, then replay the first third of the timed requests
    (with the workload's mix and a short idle read block) against an
    in-process session.  Returns the driver, the session's counts
    over the replay and where the replay starts in the span list."""
    session = wl.builder(workload, str(workdir)).build()
    client = Client(session.server.port, session.server.host)
    try:
        driver = Driver(workload, bodies, client, recorder)
        warm = workload.warmup_requests
        for index in range(warm):
            driver.ingest(index)
        first_span = len(recorder.spans) if recorder else 0
        driver.ack_ms.clear()
        driver.insight_ms.clear()
        driver.bytes_in = driver.bytes_out = 0
        attempted_before = driver.attempted
        before = _engine_counts(session)
        started = time.perf_counter()
        for position in range(1, len(bodies) - warm + 1):
            driver.timed(position, warm + position - 1)
        get_bytes_before = driver.bytes_out
        hops = (len(bodies) - warm) // workload.requests_per_hop
        for _ in range(hops * workload.idle_reads_per_hop(scale)):
            driver.read()
        wall = time.perf_counter() - started
        after = _engine_counts(session)
        engine = session.engine
        state = {
            "points_retained": engine.windows.total_points(),
            "evicted": engine.windows.total_evicted(),
            "store_bytes": session.backend.disk_bytes()
            if session.backend is not None else 0,
            "journal_bytes": sum(
                path.stat().st_size for path in workdir.iterdir()
                if path.name.startswith("ingest.journal")),
            "checkpoint_bytes": (workdir / "engine.ckpt").stat().st_size,
        }
    finally:
        client.close()
        session.close()
    return {
        "driver": driver,
        "first_span": first_span,
        "wall": wall,
        "requests": driver.attempted - attempted_before,
        "read_bytes": driver.bytes_out - get_bytes_before,
        "delta": {key: after[key] - before[key] for key in after},
        "state": state,
    }


def traced_run(workload: Workload, seed: int, scale: Scale,
               trace_path: Path | None = None) -> dict:
    """One traced pass + one plain pass of the same requests."""
    os.sched_setaffinity(0, {harness.GENERATOR_CPU})
    warm = workload.warmup_requests
    third = (max(workload.timed_hops(scale) // 3, 1)
             * workload.requests_per_hop)
    _values, bodies, build_s = harness.generate(workload, seed,
                                                warm + third)
    recorder = tracing.Recorder()
    workdir = harness.fresh_workdir(workload.name + "-traced")
    try:
        with recorder.patched(targets()):
            traced = _replay(workload, bodies, scale, workdir, recorder)
            restore_from = len(recorder.spans)
            resumed = wl.builder(workload, str(workdir)).resume().build()
            resumed.close()
        shutil.rmtree(workdir)
        workdir.mkdir()
        plain = _replay(workload, bodies, scale, workdir, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = recorder.spans
    first = traced["first_span"]
    own = tracing.self_times(spans)
    replay = tracing.aggregate(spans, own, first, restore_from)
    restore = tracing.aggregate(spans, own, restore_from)
    problems = tracing.malformed(spans, own)
    if trace_path is not None:
        tracing.dump(spans, str(trace_path), {
            "workload": workload.name, "seed": seed,
            "workload_version": wl.WORKLOAD_VERSION,
            "replay_first_span": first,
            "restore_first_span": restore_from,
        })

    def span(name: str, field: str = "self_s") -> float:
        return replay.get(name, {}).get(field, 0.0)

    roots = ("ingest", "query", "duplicate", "torn")
    busy = sum(span(name, "total_s") for name in roots)
    delta, state = traced["delta"], traced["state"]
    driver = traced["driver"]
    decided = delta["reused"] + delta["reclustered"]
    tests = span("causality.granger.test", "calls")
    batches = span("obs.ingest.decode", "count")
    metrics = {
        "obs.server.self_s": sum(span(name) for name in roots),
        "obs.server.requests": traced["requests"],
        "obs.server.bytes_in": driver.bytes_in,
        "obs.ingest.decode_s": span("obs.ingest.decode"),
        "obs.ingest.decode_calls": span("obs.ingest.decode", "calls"),
        "obs.ingest.batches_out": batches,
        "obs.ingest.points_per_batch":
            delta["bus_points"] / batches if batches else 0.0,
        "obs.ingest.gate_s": span("obs.ingest.gate"),
        "obs.ingest.rejected": delta["rejected_400"],
        "obs.service.ingest_self_s": span("obs.service.ingest"),
        "obs.service.duplicates": delta["duplicates"],
        "obs.service.backpressure_429": delta["backpressure"],
        "obs.service.ack_ms_p99":
            harness.percentile(plain["driver"].ack_ms, 0.99),
        "obs.service.query_s": span("obs.service.query"),
        "obs.service.queries": span("obs.service.query", "calls"),
        "streaming.bus.publish_s": span("streaming.bus.publish"),
        "streaming.bus.publish_calls":
            span("streaming.bus.publish", "calls"),
        "streaming.bus.flush_self_s": span("streaming.bus.flush"),
        "streaming.bus.flushes": delta["bus_flushes"],
        "streaming.bus.points": delta["bus_points"],
        "streaming.bus.rejected_points": delta["bus_rejected"],
        "streaming.bus.shed_points": delta["bus_shed"],
        "persistence.journal.append_s": span("persistence.journal.append"),
        "persistence.journal.records": delta["journal_records"],
        "persistence.journal.bytes": state["journal_bytes"],
        "persistence.journal.commit_s": span("persistence.journal.commit"),
        "persistence.journal.rotate_retire_s":
            span("persistence.journal.rotate_retire"),
        "streaming.window.ingest_s": span("streaming.window.ingest"),
        "streaming.window.ingest_calls":
            span("streaming.window.ingest", "calls"),
        "streaming.window.snapshot_s": span("streaming.window.snapshot"),
        "streaming.window.snapshots":
            span("streaming.window.snapshot", "calls"),
        "streaming.window.points_retained": state["points_retained"],
        "streaming.window.evicted": state["evicted"],
        "persistence.sqlite_backend.write_s":
            span("persistence.sqlite_backend.write"),
        "persistence.sqlite_backend.write_calls":
            span("persistence.sqlite_backend.write", "calls"),
        "persistence.sqlite_backend.flush_s":
            span("persistence.sqlite_backend.flush"),
        "persistence.sqlite_backend.disk_bytes": state["store_bytes"],
        "streaming.engine.offer_self_s": span("streaming.engine.offer"),
        "streaming.engine.offers": span("streaming.engine.offer", "calls"),
        "streaming.engine.skipped_windows": delta["skipped"],
        "streaming.engine.insight_ms_p90":
            harness.percentile(plain["driver"].insight_ms, 0.90),
        "streaming.analyzer.self_s": span("streaming.analyzer.analyze"),
        "streaming.analyzer.windows":
            span("streaming.analyzer.analyze", "calls"),
        "streaming.analyzer.reuse_share":
            delta["reused"] / decided if decided else 0.0,
        "streaming.drift.score_s": span("streaming.drift.score"),
        "streaming.drift.components_scored":
            span("streaming.drift.score", "count"),
        "streaming.drift.drifted": delta["drifted"],
        "clustering.reduction.reduce_s":
            span("clustering.reduction.reduce"),
        "clustering.reduction.components":
            span("clustering.reduction.reduce", "calls"),
        "stats.correlation.sbd_s": span("stats.correlation.sbd"),
        "stats.correlation.sbd_calls":
            span("stats.correlation.sbd", "calls"),
        "stats.correlation.sbd_pairs":
            span("stats.correlation.sbd", "count"),
        "causality.pairwise.extract_self_s":
            span("causality.pairwise.extract"),
        "causality.pairwise.pairs_tested": tests / 2,
        "causality.granger.test_s": span("causality.granger.test"),
        "causality.granger.tests": tests,
        "causality.granger.causal_share":
            span("causality.granger.test", "count") / tests
            if tests else 0.0,
        "core.incremental.merge_s": span("core.incremental.merge"),
        "core.incremental.edges_reused": delta["edges_reused"],
        "core.incremental.edges_retested": delta["edges_retested"],
        "persistence.checkpoint.save_s":
            span("persistence.checkpoint.save"),
        "persistence.checkpoint.saves":
            span("persistence.checkpoint.save", "calls"),
        "persistence.checkpoint.bytes": state["checkpoint_bytes"],
        "persistence.checkpoint.restore_s":
            restore["persistence.checkpoint.restore"]["total_s"],
        "persistence.checkpoint.replayed_records":
            restore["streaming.window.ingest"]["calls"],
        "obs.query.publish_s": span("obs.query.publish"),
        "obs.query.render_bytes": traced["read_bytes"],
        "bench.generator.build_s": build_s,
        "bench.generator.body_bytes": len(bodies[0]),
        "bench.trace_overhead_share":
            (traced["wall"] - plain["wall"]) / plain["wall"],
        "bench.unattributed_share": 1.0 - busy / traced["wall"],
    }
    analysis_share = sum(span(name) for name in ANALYSIS_SPANS) / busy
    persistence_share = sum(span(name)
                            for name in PERSISTENCE_SPANS) / busy
    reuse = metrics["streaming.analyzer.reuse_share"]
    refresh = workload.full_refresh_windows > 0
    checks = {
        "span_tree_well_formed": not problems,
        "reuse_share_as_designed":
            reuse == 0.0 if refresh else reuse >= 0.9,
        "analysis_share_as_designed":
            analysis_share >= 0.70 if refresh else analysis_share <= 0.15,
        "persistence_share_as_designed":
            persistence_share >= 0.20 or not workload.durable,
        "unattributed_within_10_percent":
            metrics["bench.unattributed_share"] <= 0.10,
        "no_failed_operations":
            driver.failed == 0 and plain["driver"].failed == 0,
    }
    return {
        "metrics": metrics,
        "shares": {
            "analysis": analysis_share,
            "persistence": persistence_share,
            "by_span": {name: entry["self_s"] / busy
                        for name, entry in sorted(replay.items())},
        },
        "samples": {
            "traced_requests": traced["requests"],
            "acks": len(plain["driver"].ack_ms),
            "insights": len(plain["driver"].insight_ms),
            "spans": len(spans),
            "problems": problems,
        },
        "checks": checks,
        "attempted": driver.attempted + plain["driver"].attempted,
        "failed": driver.failed + plain["driver"].failed,
        "failures": driver.failures + plain["driver"].failures,
    }
