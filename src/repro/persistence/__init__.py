"""Durable persistence & replay: storage backends, journal, checkpoints.

The analysis pipeline is storage-agnostic: a
:class:`~repro.persistence.backend.StorageBackend` holds the series,
and everything above it (the metered
:class:`~repro.metrics.store.MetricsStore`, the streaming
:class:`~repro.streaming.window.WindowStore`, the ``repro record`` /
``repro replay`` CLI) delegates to whichever implementation is
plugged in:

* :class:`~repro.persistence.backend.MemoryBackend` -- the original
  in-RAM MetricFrame (default, zero overhead);
* :class:`~repro.persistence.sqlite_backend.SqliteBackend` -- durable
  point log with indexed range scans in one sqlite file, and the
  durable store that applies a tiered-retention schedule
  (:mod:`~repro.persistence.retention`) when it is trimmed.

Crash safety for streaming runs composes two pieces:

* :class:`~repro.persistence.journal.IngestJournal` -- a write-ahead
  log of every batch the ingestion bus flushes, replayable to rebuild
  the window-store rings bit-identically;
* :mod:`~repro.persistence.checkpoint` -- per-epoch snapshots of the
  analysis state (clusterings, dependency graph, drift baselines, hop
  schedule) so a restored engine continues incrementally.
  ``save_checkpoint`` writes one JSON document and returns nothing;
  ``checkpoint_state`` is that document as a dict.  The per-window
  ``CheckpointPolicy`` re-encodes only the clusterings and drift
  baselines a window replaced.

Neither piece fsyncs: what was journaled or checkpointed survives a
SIGKILL of the process, not a power loss.
"""

from repro.persistence.backend import (
    BackendBase,
    MemoryBackend,
    StorageBackend,
)
from repro.persistence.journal import (
    IngestJournal,
    journal_record_count,
    journal_segments,
    replay_journal,
)
from repro.persistence.retention import (
    RetentionSchedule,
    RollupSeries,
    Tier,
    format_duration,
    parse_duration,
    rollup_arrays,
)
from repro.persistence.sqlite_backend import SqliteBackend

#: Checkpoint symbols resolve lazily (PEP 562): checkpoint.py imports
#: the streaming engine, which imports the metrics store, which imports
#: this package -- an eager import here would close that cycle.
_CHECKPOINT_EXPORTS = (
    "CheckpointPolicy",
    "checkpoint_state",
    "load_checkpoint",
    "restore_engine",
    "save_checkpoint",
)


def __getattr__(name: str):
    if name in _CHECKPOINT_EXPORTS:
        from repro.persistence import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "BackendBase",
    "CheckpointPolicy",
    "IngestJournal",
    "MemoryBackend",
    "RetentionSchedule",
    "RollupSeries",
    "SqliteBackend",
    "StorageBackend",
    "Tier",
    "checkpoint_state",
    "format_duration",
    "journal_record_count",
    "journal_segments",
    "load_checkpoint",
    "parse_duration",
    "replay_journal",
    "restore_engine",
    "rollup_arrays",
    "save_checkpoint",
]
