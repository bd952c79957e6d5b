"""Checkpoint/restore of streaming analysis state.

A checkpoint freezes everything the :class:`StreamingSieve` derived
from the stream so far -- the previous window's clusterings and
dependency graph (the incremental-reuse state), the drift detector's
frozen per-component baselines, the hop schedule and the lifetime
counters -- as one JSON document per window epoch.  Raw samples are
deliberately *not* part of it: they are replayed from the write-ahead
ingest journal (:mod:`repro.persistence.journal`), whose deterministic
re-ingestion rebuilds the window-store rings bit-identically.

The document is rewritten whole each epoch, but its encoding costs
what the window replaced.  The bulk of it is clusterings and drift
baselines, which are never mutated once built: a reused component
keeps the very same objects.  :class:`CheckpointPolicy` keeps each
one's JSON text by object identity from one save to the next and
re-encodes only new objects; the clocks, counters and dependency
graph are encoded afresh.  The assembled text is byte-identical to
``json.dumps(checkpoint_state(engine), sort_keys=True)``.

``restore_engine`` composes the two: fresh engine, journal replay,
checkpoint applied on top.  A restarted engine then continues
incrementally -- same reuse decisions, same drift scores, same Granger
re-tests -- instead of re-clustering the world from scratch, and (as
the crash-restart tests assert) produces exactly the windows an
uninterrupted run would have produced.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from repro.core.config import StreamingConfig
from repro.core.serialize import (
    clustering_from_dict,
    clustering_to_dict,
    graph_from_dict,
    graph_to_dict,
)
from repro.metrics.timeseries import MetricFrame
from repro.persistence.journal import replay_journal
from repro.streaming.analyzer import StreamingStats, WindowAnalysis
from repro.streaming.drift import MetricBaseline
from repro.streaming.engine import StreamingSieve
from repro.tracing.callgraph import CallGraph

CHECKPOINT_VERSION = 1

#: Config fields a restore validates against the checkpoint -- the ones
#: that change what the replayed rings and hop schedule look like.
_CONFIG_FINGERPRINT = ("window", "hop", "retention",
                       "max_points_per_series", "min_window_samples",
                       "full_refresh_windows", "adaptive_hop",
                       "hop_min", "hop_max")


def _head(engine: StreamingSieve, spec: dict | None) -> dict:
    """The engine's clocks, counters and identity: every top-level
    field of the checkpoint but ``previous`` and ``drift``."""
    config = engine.config
    head = {
        "version": CHECKPOINT_VERSION,
        "seed": engine.seed,
        "application": engine.application,
        "workload": engine.workload,
        "config": {name: getattr(config, name)
                   for name in _CONFIG_FINGERPRINT},
        "next_analysis": engine._next_analysis,
        "last_offer": engine.last_offer,
        "current_hop": engine.current_hop,
        "skipped_windows": engine.skipped_windows,
        "windows_since_refresh": engine.analyzer.windows_since_refresh,
        "stats": dataclasses.asdict(engine.stats),
    }
    if spec is not None:
        head["spec"] = spec
    return head


def _previous_head(previous: WindowAnalysis) -> dict:
    """The previous window's fields but its clusterings.  The graph
    is among them: ``merge_dependency_graphs`` builds a new one every
    window."""
    return {
        "index": previous.index,
        "start": previous.start,
        "end": previous.end,
        "reclustered": list(previous.reclustered),
        "reused": list(previous.reused),
        "reasons": dict(previous.recluster_reasons),
        "edges_retested": previous.edges_retested,
        "edges_reused": previous.edges_reused,
        "graph": graph_to_dict(previous.dependency_graph),
    }


def _baseline_to_dict(baseline) -> dict:
    """A drift baseline's frozen statistics.  The drift entry's third
    field, ``clustering``, is encoded on its own by
    :func:`~repro.core.serialize.clustering_to_dict`."""
    return {
        "metrics": {name: dataclasses.asdict(metric)
                    for name, metric in baseline.metrics.items()},
        "coherence": {str(index): value
                      for index, value in baseline.coherence.items()},
    }


def checkpoint_state(engine: StreamingSieve,
                     spec: dict | None = None) -> dict:
    """The engine's analysis state as a JSON-compatible dict.

    ``spec`` (a resolved :meth:`repro.api.spec.RunSpec.to_dict`
    payload) is embedded verbatim when given, so a later ``--resume``
    can revalidate that it continues the *same declared run* -- not
    just the same window geometry.  A checkpoint file holds exactly
    ``json.dumps(checkpoint_state(engine, spec), sort_keys=True)``."""
    previous = engine.analyzer.previous
    prev_payload = None
    if previous is not None:
        prev_payload = _previous_head(previous)
        prev_payload["clusterings"] = {
            component: clustering_to_dict(clustering)
            for component, clustering in previous.clusterings.items()
        }
    state = _head(engine, spec)
    state["previous"] = prev_payload
    state["drift"] = {
        component: {"clustering": clustering_to_dict(baseline.clustering),
                    **_baseline_to_dict(baseline)}
        for component, baseline in engine.drift.baseline_items()
    }
    return state


#: ``id(obj) -> (obj, its JSON text)``.  An entry holds its object, so
#: the id cannot be reused while the entry lives; lookups still check
#: ``is`` and treat any other object under that id as a miss.
_Fragments = dict[int, tuple[object, str]]


def _dumps(value) -> str:
    # json.dumps, not json.dump: dump always takes the pure-Python
    # encoder, dumps the C one -- same bytes, about half the time.
    return json.dumps(value, sort_keys=True)


def _members(items) -> str:
    """``json.dumps(dict(items), sort_keys=True)`` from ``(key, JSON
    text of the value)`` pairs: the same bytes, however each value's
    text was made."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}"
                           for key, text in sorted(items)) + "}"


class _Encoder:
    """One save's encoder, reusing the previous save's fragments.

    ``used`` collects every fragment this save looked up -- the cache
    the next save starts from."""

    def __init__(self, cache: _Fragments):
        self.cache = cache
        self.used: _Fragments = {}

    def _fragment(self, obj, encode) -> str:
        key = id(obj)
        hit = self.used.get(key) or self.cache.get(key)
        if hit is None or hit[0] is not obj:
            hit = (obj, encode(obj))
        self.used[key] = hit
        return hit[1]

    def clustering(self, clustering) -> str:
        return self._fragment(
            clustering, lambda c: _dumps(clustering_to_dict(c)))

    def baseline(self, baseline) -> str:
        """A drift entry; its clustering shares the text of the same
        object under ``previous`` (one encoding, not two)."""
        return self._fragment(baseline, lambda b: _members([
            ("clustering", self.clustering(b.clustering)),
            *((key, _dumps(value))
              for key, value in _baseline_to_dict(b).items()),
        ]))


def _encode_state(engine: StreamingSieve, spec: dict | None,
                  cache: _Fragments) -> tuple[str, _Fragments]:
    """The checkpoint document and the fragments it used.

    Byte-identical to ``_dumps(checkpoint_state(engine, spec))``:
    clusterings and drift baselines are never mutated once built (the
    analyzer replaces what it re-clusters, the drift detector replaces
    what it rebases), so an object's cached text stays its encoding.
    The small per-window parts are encoded afresh."""
    encoder = _Encoder(cache)
    previous = engine.analyzer.previous
    prev_text = "null"
    if previous is not None:
        prev_text = _members([
            *((key, _dumps(value))
              for key, value in _previous_head(previous).items()),
            ("clusterings", _members([
                (component, encoder.clustering(clustering))
                for component, clustering in previous.clusterings.items()
            ])),
        ])
    drift_text = _members([
        (component, encoder.baseline(baseline))
        for component, baseline in engine.drift.baseline_items()
    ])
    text = _members([
        *((key, _dumps(value))
          for key, value in _head(engine, spec).items()),
        ("previous", prev_text),
        ("drift", drift_text),
    ])
    return text, encoder.used


def _write_atomically(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def save_checkpoint(engine: StreamingSieve, path,
                    spec: dict | None = None) -> None:
    """Atomically write the engine's checkpoint to ``path``.

    The file holds ``json.dumps(checkpoint_state(engine, spec),
    sort_keys=True)``.  The write goes through a temp file + rename,
    so a crash mid-checkpoint leaves the previous checkpoint intact.
    The rename is not fsynced: like the ingest journal, a checkpoint
    that landed survives a SIGKILL of the process, not a power loss.
    ``spec`` is embedded as on :func:`checkpoint_state`.
    """
    _write_atomically(path, _encode_state(engine, spec, {})[0])


def load_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return state


def _restore_previous(state: dict) -> WindowAnalysis | None:
    payload = state["previous"]
    if payload is None:
        return None
    clusterings = {
        component: clustering_from_dict(component, data)
        for component, data in payload["clusterings"].items()
    }
    return WindowAnalysis(
        index=int(payload["index"]),
        start=float(payload["start"]),
        end=float(payload["end"]),
        # Raw samples are not checkpointed; the analyzer only reads
        # clusterings and the graph from its previous analysis.
        frame=MetricFrame(),
        call_graph=CallGraph(),
        clusterings=clusterings,
        dependency_graph=graph_from_dict(payload["graph"]),
        reclustered=list(payload["reclustered"]),
        reused=list(payload["reused"]),
        recluster_reasons=dict(payload["reasons"]),
        drift_readings={},
        edges_retested=int(payload["edges_retested"]),
        edges_reused=int(payload["edges_reused"]),
        application=state["application"],
        workload=state["workload"],
        seed=int(state["seed"]),
    )


def restore_engine(checkpoint, config: StreamingConfig,
                   journal_path=None, bus=None,
                   store_backend=None, journal=None,
                   telemetry=None) -> StreamingSieve:
    """Rebuild a streaming engine from checkpoint + ingest journal.

    ``checkpoint`` is a path or an already-loaded state dict.
    ``config`` must match the checkpointed run on every fingerprinted
    field (window geometry, retention, refresh cadence) -- a mismatch
    would make the replayed schedule diverge, so it raises.
    ``journal_path`` replays the recorded ingest stream to rebuild the
    window-store rings; ``journal``/``store_backend``/``bus`` wire the
    *resumed* run's fresh persistence, exactly as on
    :class:`StreamingSieve` itself.  ``telemetry``
    (:class:`repro.obs.Telemetry`) travels to the rebuilt engine; the
    restore itself lands in the ``repro_restore_seconds`` gauge.
    """
    restore_started = time.perf_counter()
    state = checkpoint if isinstance(checkpoint, dict) \
        else load_checkpoint(checkpoint)
    defaults = StreamingConfig()
    for name in _CONFIG_FINGERPRINT:
        # Older checkpoints predate some fingerprint fields (e.g. the
        # adaptive-hop bounds); absent keys compare against defaults.
        recorded = state["config"].get(name, getattr(defaults, name))
        if getattr(config, name) != recorded:
            raise ValueError(
                f"checkpoint/config mismatch on {name!r}: "
                f"{recorded!r} != {getattr(config, name)!r}"
            )
    engine = StreamingSieve(
        config=config,
        seed=int(state["seed"]),
        bus=bus,
        application=state["application"],
        workload=state["workload"],
        store_backend=store_backend,
        journal=journal,
        telemetry=telemetry,
    )

    if journal_path is not None:
        # Replay rebuilds the rings with the durable backend detached;
        # the backend is then teed *manually* with only the suffix it
        # is missing.  (Re-writing already-stored batches would trip
        # the backend's out-of-order guard, but a crash between the
        # journal append and sink delivery can equally leave the
        # backend short of the journal's tail -- the suffix write
        # heals that hole.)
        backend, engine.windows.backend = engine.windows.backend, None
        newest: dict[tuple[str, str], float] = {}
        try:
            for component, metric, times, values \
                    in replay_journal(journal_path):
                engine.windows.ingest(component, metric, times, values)
                if not times.size:
                    continue
                key = (component, metric)
                last = newest.get(key)
                if last is None:
                    stored = None if backend is None \
                        else backend.newest_time(component, metric)
                    last = float("-inf") if stored is None \
                        else float(stored)
                if backend is not None:
                    keep = int(np.searchsorted(times, last,
                                               side="right"))
                    if keep < times.size:
                        backend.write(component, metric,
                                      times[keep:], values[keep:])
                newest[key] = max(last, float(times[-1]))
        finally:
            engine.windows.backend = backend
        if newest:
            # The resumed driver re-publishes the horizon's (possibly
            # partially journaled) scrape cycle; the bus clip keeps
            # the already-journaled half from being journaled,
            # delivered and replayed a second time.
            engine.bus.arm_resume_clip(
                {key: last for key, last in newest.items()
                 if last != float("-inf")}
            )

    previous = _restore_previous(state)
    engine.analyzer.restore(previous,
                            int(state["windows_since_refresh"]))
    saved = {} if previous is None else state["previous"]["clusterings"]
    restored = {} if previous is None else previous.clusterings
    for component, payload in state["drift"].items():
        # The saved engine shared one clustering object between its
        # previous analysis and the drift baseline (it is never
        # mutated); restore one object where the checkpoint had one.
        if payload["clustering"] == saved.get(component):
            clustering = restored[component]
        else:
            clustering = clustering_from_dict(component,
                                              payload["clustering"])
        metrics = {
            name: MetricBaseline(**baseline)
            for name, baseline in payload["metrics"].items()
        }
        coherence = {int(index): float(value)
                     for index, value in payload["coherence"].items()}
        engine.drift.set_baseline(component, clustering, metrics,
                                  coherence)
    engine._next_analysis = state["next_analysis"]
    engine.last_offer = state.get("last_offer")
    engine.current_hop = float(state.get("current_hop")
                               or config.hop)
    engine.skipped_windows = int(state["skipped_windows"])
    engine.stats = StreamingStats(**state["stats"])
    if previous is not None:
        engine.history.append(previous)
    engine.telemetry.registry.gauge(
        "repro_restore_seconds",
        "Wall time of the last checkpoint + journal restore",
    ).set(time.perf_counter() - restore_started)
    return engine


class CheckpointPolicy:
    """Engine consumer that checkpoints every N analyzed windows.

    Subscribe it to a :class:`StreamingSieve`; with
    ``every=None`` the cadence comes from
    :attr:`repro.core.config.StreamingConfig.checkpoint_every_windows`
    (0 disables automatic checkpoints entirely).

    Each checkpoint epoch also bounds the durable state around it:

    * the window store's backend is flushed *before* the checkpoint
      lands (the ``writer_flush`` span), so every sample the
      checkpoint covers is on disk -- the un-durable window is at most
      one epoch;
    * the write-ahead ingest journal is rotated *after* it, and
      segments older than the retention horizon are retired -- a
      checkpoint plus the retained window makes them redundant for
      restart, so the journal stops growing unboundedly.  Disable via
      :attr:`~repro.core.config.StreamingConfig
      .journal_rotate_on_checkpoint` (or ``rotate_journal=False``) to
      keep the full history, e.g. for offline replay of a whole run.
    """

    def __init__(self, engine: StreamingSieve, path,
                 every: int | None = None,
                 rotate_journal: bool | None = None,
                 spec: dict | None = None,
                 retire_horizon: float | None = None):
        """``spec`` (a resolved run-spec dict) is embedded in every
        checkpoint this policy writes, so resumes revalidate against
        the declared run.  ``retire_horizon`` overrides the journal
        retirement anchor (default: the engine's ring retention); with
        a tiered-retention store it must cover the schedule's
        *full-resolution* horizon -- replay rebuilds raw samples, and
        rollups cannot stand in for them.  ``inf`` disables retirement
        entirely (the journal keeps the whole run).
        """
        self.engine = engine
        self.spec = spec
        self.retire_horizon = engine.config.retention \
            if retire_horizon is None else float(retire_horizon)
        if self.retire_horizon < engine.config.retention:
            raise ValueError(
                "retire_horizon must cover the ring retention "
                f"({self.retire_horizon:g} < "
                f"{engine.config.retention:g}): replay could not "
                "rebuild the rings"
            )
        self.path = Path(path)
        self.every = engine.config.checkpoint_every_windows \
            if every is None else every
        if self.every < 0:
            raise ValueError("checkpoint cadence must be >= 0")
        self.rotate_journal = \
            engine.config.journal_rotate_on_checkpoint \
            if rotate_journal is None else rotate_journal
        self.checkpoints_written = 0
        self._windows_seen = 0
        self._last_checkpoint_window = 0
        self._fragments: _Fragments = {}
        """The last save's encoded clusterings and drift baselines, so
        the next save re-encodes only what its windows replaced."""

        self.on_checkpoint = None
        """Optional ``callback(analysis, policy)`` fired after each
        checkpoint lands (the operations event log hooks in here)."""
        self._save_seconds = engine.telemetry.registry.histogram(
            "repro_checkpoint_save_seconds",
            "Wall time of one checkpoint save (incl. journal rotation)",
        )

    @property
    def windows_since_checkpoint(self) -> int:
        """Analyzed windows since the last checkpoint landed (the
        durability lag a health probe judges)."""
        return self._windows_seen - self._last_checkpoint_window

    def on_window(self, analysis) -> None:
        self._windows_seen += 1
        if not self.every or self._windows_seen % self.every:
            return
        tracer = self.engine.telemetry.tracer
        # Flush-on-checkpoint: the checkpoint must never describe
        # samples the durable store has not absorbed yet.
        with tracer.span("writer_flush"):
            self.engine.windows.flush_backend()
        with tracer.span("checkpoint") as span:
            text, self._fragments = _encode_state(
                self.engine, self.spec, self._fragments)
            _write_atomically(self.path, text)
            self.checkpoints_written += 1
            self._last_checkpoint_window = self._windows_seen
            journal = self.engine.bus.journal
            if journal is not None and self.rotate_journal \
                    and hasattr(journal, "rotate"):
                journal.rotate()
                # Anchor retirement at the stalest series, not the
                # global clock: a quiet series' ring keeps samples to
                # its own newest minus retention, and replay must
                # still rebuild them.  The horizon is the *full
                # resolution* one: under a tiered-retention schedule
                # the durable store keeps raw samples that far back,
                # and only the journal can re-create them.
                stalest = self.engine.windows.stalest_series_time()
                if stalest is not None \
                        and not math.isinf(self.retire_horizon):
                    journal.retire(stalest - self.retire_horizon)
        self._save_seconds.observe(span.elapsed)
        if self.on_checkpoint is not None:
            self.on_checkpoint(analysis, self)
