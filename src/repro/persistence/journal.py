"""Write-ahead ingest journal for crash-safe streaming restarts.

Every batch the :class:`~repro.streaming.bus.IngestionBus` flushes is
appended here *before* it is delivered to subscribers, one JSON line
per (component, metric) batch.  A killed streaming process can then be
resumed losslessly: replaying the journal through a fresh
:class:`~repro.streaming.window.WindowStore` rebuilds the exact ring
state the dead process held (ingestion order and eviction are
deterministic), after which a checkpoint restores the analysis state
on top (:mod:`repro.persistence.checkpoint`).

JSON float serialization uses shortest-roundtrip ``repr``, so replayed
samples are bit-identical to the originals.  A crash can truncate the
final line; replay detects and discards exactly that partial record,
and re-opening a journal for appending first truncates such a torn
tail so new records never merge into it.

**Rotation.**  The journal is a sequence of files: the *active* file
(the given path) plus zero or more immutable rotated *segments*
(``<path>.000001``, ``.000002``, ...).  :meth:`IngestJournal.rotate`
seals the active file into the next segment -- the checkpoint policy
rotates at every checkpoint epoch -- and :meth:`IngestJournal.retire`
deletes segments whose newest sample is older than a cutoff.  Samples
past the window store's retention horizon are evicted during replay
anyway, so a checkpoint plus the retention span makes every older
segment redundant for restart: retiring them bounds the journal's
disk footprint without changing what a restore rebuilds.  Replay
(:func:`replay_journal`) spans segments in rotation order and then
the active file, so rotation is invisible to readers.

One deliberate asymmetry: a batch whose *delivery* failed (a
subscriber raised mid-flush) is dropped from delivery but kept in the
journal -- restoring from the journal resurrects it, which is
recovery of otherwise-lost data, not corruption.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterator

import numpy as np

#: A replayed record: (component, metric, times, values).
JournalRecord = tuple[str, str, np.ndarray, np.ndarray]

#: Zero-padded width of rotated-segment sequence numbers.
_SEQ_WIDTH = 6


def _repair_torn_tail(path: Path) -> None:
    """Truncate a partial final line left by a mid-write crash.

    Every complete record ends with a newline (records contain none
    internally), so any bytes after the last newline are a torn write;
    appending to them would merge the next record into garbage.
    """
    if not path.exists():
        return
    with open(path, "rb") as handle:
        data = handle.read()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1  # 0 when no newline at all
    with open(path, "rb+") as handle:
        handle.truncate(keep)


def journal_segments(path) -> list[Path]:
    """Rotated segment files of a journal, oldest first."""
    path = Path(path)
    pattern = re.compile(
        re.escape(path.name) + r"\.(\d{" + str(_SEQ_WIDTH) + r"})\Z"
    )
    if not path.parent.exists():
        return []
    found = []
    for candidate in path.parent.iterdir():
        match = pattern.fullmatch(candidate.name)
        if match is not None:
            found.append((int(match.group(1)), candidate))
    return [segment for _seq, segment in sorted(found)]


class IngestJournal:
    """Append-only batch log: rotated segments plus one active file."""

    def __init__(self, path, fsync: bool = False,
                 truncate: bool = False):
        """``fsync=True`` syncs on every :meth:`commit` -- durable
        against power loss, at the cost of one fsync per bus flush.
        ``truncate=True`` starts the journal fresh (a new run that is
        not resuming), deleting rotated segments of earlier runs; the
        default appends, after repairing any torn tail a crash left
        behind."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._segment_newest: dict[Path, float] = {}
        segments = journal_segments(self.path)
        if truncate:
            for segment in segments:
                segment.unlink()
            segments = []
            mode = "w"
        else:
            _repair_torn_tail(self.path)
            mode = "a"
        self._seq = 0 if not segments \
            else int(segments[-1].name.rsplit(".", 1)[1])
        self._fh = open(self.path, mode, encoding="utf-8")
        self.records_written = 0
        self.rotations = 0
        """Segments sealed so far by :meth:`rotate`."""

        self.segments_retired = 0
        """Stale segments deleted so far by :meth:`retire`."""

        self._active_records = 0
        self._active_newest = float("-inf")

    def append_batch(self, component: str, metric: str,
                     times, values) -> None:
        """Log one flushed batch (called by the bus ahead of delivery)."""
        t = np.asarray(times, dtype=float).reshape(-1)
        record = {
            "c": component,
            "m": metric,
            "t": t.tolist(),
            "v": np.asarray(values, dtype=float).reshape(-1).tolist(),
        }
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records_written += 1
        self._active_records += 1
        if t.size:
            self._active_newest = max(self._active_newest, float(t[-1]))

    def commit(self) -> None:
        """Push buffered lines to the OS (and to disk with ``fsync``)."""
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    # -- rotation ------------------------------------------------------

    def segments(self) -> list[Path]:
        """Current rotated segment files, oldest first."""
        return journal_segments(self.path)

    def rotate(self) -> Path | None:
        """Seal the active file into the next immutable segment.

        Returns the new segment's path, or None when the active file
        holds no records (rotation would only create empty segments).
        The active file is reopened fresh, so appends continue
        seamlessly; replay order is preserved because segments sort
        before the active file.
        """
        if not self._active_records:
            return None
        self.commit()
        self._fh.close()
        self._seq += 1
        segment = self.path.with_name(
            f"{self.path.name}.{self._seq:0{_SEQ_WIDTH}d}"
        )
        os.replace(self.path, segment)
        if self._active_newest != float("-inf"):
            self._segment_newest[segment] = self._active_newest
        self._fh = open(self.path, "w", encoding="utf-8")
        self._active_records = 0
        self._active_newest = float("-inf")
        self.rotations += 1
        return segment

    def retire(self, cutoff: float) -> int:
        """Delete segments whose samples are all strictly older than
        ``cutoff``.

        The caller picks the cutoff so retired data is provably
        redundant.  The checkpoint policy uses the *stalest* series'
        newest sample minus the retention span: ring eviction is
        per-series relative to that series' own newest sample (and
        keeps samples exactly at its cutoff, hence the strict
        comparison here), so everything any ring still retains lives
        in the surviving segments and a restore rebuilds the dead
        run's rings exactly.  Returns how many segments were deleted.
        """
        retired = 0
        for segment in self.segments():
            newest = self._segment_newest.get(segment)
            if newest is None:
                newest = _scan_newest(segment)
                self._segment_newest[segment] = newest
            if newest < cutoff:
                segment.unlink()
                self._segment_newest.pop(segment, None)
                retired += 1
        self.segments_retired += retired
        return retired

    def close(self) -> None:
        self.commit()
        self._fh.close()


def _scan_newest(segment: Path) -> float:
    """Newest sample timestamp in one journal file (-inf when none).

    Used for segments inherited from a dead run, whose newest times
    were cached only in that process's memory.
    """
    newest = float("-inf")
    for _component, _metric, times, _values in _replay_file(
            segment, tolerate_torn=True):
        if times.size:
            newest = max(newest, float(times[-1]))
    return newest


def _replay_file(path: Path,
                 tolerate_torn: bool) -> Iterator[JournalRecord]:
    """Yield the complete records of one journal file, in write order.

    With ``tolerate_torn`` a partial *final* line (the crash case) is
    skipped silently; a corrupt line in the middle of the file always
    raises, because everything after it would silently vanish
    otherwise.  The file is streamed with one line of lookahead --
    journals of long runs are large, so replay must not materialize
    them in memory.
    """
    if not path.exists():
        return

    def parse(number: int, stripped: str) -> JournalRecord:
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError:
            raise ValueError(
                f"corrupt journal record at {path}:{number}"
            ) from None
        return (record["c"], record["m"],
                np.asarray(record["t"], dtype=float),
                np.asarray(record["v"], dtype=float))

    with open(path, "r", encoding="utf-8") as handle:
        held: tuple[int, str] | None = None
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if held is not None:
                yield parse(*held)  # not last -> corruption raises
            held = (number, stripped)
        if held is not None:
            try:
                yield parse(*held)
            except ValueError:
                if not tolerate_torn:
                    raise
                return  # torn tail from a mid-write crash


def replay_journal(path) -> Iterator[JournalRecord]:
    """Yield every complete record of a journal, in write order.

    Spans rotated segments (oldest first) and then the active file, so
    rotation is invisible to readers.  Only the active file can end in
    a torn line (segments are sealed by a completed rotation), so only
    its final record is forgiven.
    """
    path = Path(path)
    for segment in journal_segments(path):
        yield from _replay_file(segment, tolerate_torn=False)
    yield from _replay_file(path, tolerate_torn=True)


def journal_record_count(path) -> int:
    """Complete records currently recoverable from a journal."""
    return sum(1 for _ in replay_journal(path))
