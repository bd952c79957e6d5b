"""Write-ahead ingest journal for crash-safe streaming restarts.

Every batch the :class:`~repro.streaming.bus.IngestionBus` flushes is
appended here *before* it is delivered to subscribers, one frame per
(component, metric) batch.  A killed streaming process can then be
resumed losslessly: replaying the journal through a fresh
:class:`~repro.streaming.window.WindowStore` rebuilds the exact ring
state the dead process held (ingestion order and eviction are
deterministic), after which a checkpoint restores the analysis state
on top (:mod:`repro.persistence.checkpoint`).

**Format.**  Each journal file is a 12-byte header (the magic
``SIEVEJNL`` and a ``u32`` format version) followed by one frame per
(component, metric) batch, all integers little-endian::

    u32 length        payload bytes
    u32 crc32         zlib CRC-32 of the payload
    payload:
      u16 component   UTF-8 byte length of the component name
      u16 metric      UTF-8 byte length of the metric name
      u32 points      n
      component, metric (UTF-8)
      n times, then n values (float64)

Samples are stored as raw IEEE-754 doubles, so replayed samples are
bit-identical to the originals (``-0.0``, ``inf`` and subnormals
included).  :meth:`IngestJournal.append_batches` logs one bus flush:
it encodes every batch of the flush as its own frame and hands them
all to the OS in one unbuffered write before the bus delivers any of
them (:meth:`~IngestJournal.append_batch` is its one-batch call).  It
is all or nothing: a batch it cannot encode (mismatched lengths, an
over-long name) writes nothing, and a failed write is cut back to the
end of the last complete frame before the error propagates, so the
bus's requeue journals the whole flush again exactly once.

**Torn versus corrupt.**  A crash can leave the final frame of the
active file incomplete.  Replay forgives exactly that -- a bad frame
with nothing after it, in the active file only -- and re-opening the
journal for appending truncates it so new frames never follow garbage.
A bad frame followed by further bytes (a CRC mismatch, or a length
that disagrees with the payload's own counts), or a bad final frame in
a sealed segment, raises ``ValueError``: everything after it would
silently vanish otherwise.

**One format.**  Journals written in the earlier JSON-lines format
(or any file without the header) are refused with ``ValueError`` and
left byte-for-byte untouched; a fresh (``truncate=True``) journal
replaces them.

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
subscriber raised mid-flush) is not delivered again but stays in the
journal -- restoring from the journal resurrects it, which is
recovery of otherwise-lost data, not corruption.

**Durability.**  Nothing is fsynced.  A frame is handed to the OS in
the unbuffered write that appends it, before the bus delivers its
batch, so a journaled point survives a SIGKILL of the process but not
a power loss or a kernel crash.  That is the ack contract: with the
service's default ``clock="ingest"`` an ingest request that carries
points flushes the bus before it is acknowledged, so acked means
journaled to the OS.  Checkpoints (:mod:`repro.persistence.checkpoint`)
match it: their temp-file rename is not fsynced either.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

#: A replayed record: (component, metric, times, values).
JournalRecord = tuple[str, str, np.ndarray, np.ndarray]

#: Zero-padded width of rotated-segment sequence numbers.
_SEQ_WIDTH = 6

_MAGIC = b"SIEVEJNL"
_VERSION = 1
_HEADER = _MAGIC + struct.pack("<I", _VERSION)

#: Frame prefix: payload length, payload CRC-32.
_FRAME = struct.Struct("<II")
#: Payload head: component bytes, metric bytes, point count.
_COUNTS = struct.Struct("<HHI")
#: Both, as a reader sees them at the start of every frame.
_PREFIX = struct.Struct("<IIHHI")

_F64 = np.dtype("<f8")

#: Longest component or metric name, in UTF-8 bytes, a frame can hold.
MAX_NAME_BYTES = 0xFFFF


def _encode_name(name: str) -> bytes:
    """UTF-8 bytes of a name; lone surrogates (which JSON can carry)
    round-trip instead of failing the write."""
    data = name.encode("utf-8", "surrogatepass")
    if len(data) > MAX_NAME_BYTES:
        raise ValueError(
            f"name of {len(data)} UTF-8 bytes exceeds the journal's "
            f"{MAX_NAME_BYTES}-byte limit"
        )
    return data


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

    def __init__(self, path, truncate: bool = False):
        """``truncate=True`` starts the journal fresh (a new run that is
        not resuming), deleting rotated segments of earlier runs; the
        default appends, after repairing any torn tail a crash left
        behind (and refuses a file that is not a journal of this
        format, leaving it untouched)."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._segment_newest: dict[Path, float] = {}
        segments = journal_segments(self.path)
        if truncate:
            for segment in segments:
                segment.unlink()
            segments = []
        # Resuming keeps everything up to the last complete frame (0
        # when there is none); a file of any other format raises here,
        # before anything is opened for writing.
        self._open(0 if truncate else _complete_length(self.path))
        self._seq = 0 if not segments \
            else int(segments[-1].name.rsplit(".", 1)[1])
        self.records_written = 0
        self.rotations = 0
        """Segments sealed so far by :meth:`rotate`."""

        self.segments_retired = 0
        """Stale segments deleted so far by :meth:`retire`."""

        self._active_records = 0
        self._active_newest = float("-inf")
        self._names: dict[tuple[str, str], tuple[int, int, bytes]] = {}
        """Per key: the UTF-8 byte lengths of its names and both names
        encoded, as every frame of the key carries them."""

    def _open(self, keep: int) -> None:
        """Open the active file for appending after its first ``keep``
        bytes; with ``keep == 0`` it starts over holding just the
        header.  Append mode keeps every write at the (possibly
        truncated) end of the file."""
        self._fh = open(self.path, "ab", buffering=0)
        self._fh.truncate(keep)
        self._size = keep
        if not keep:
            self._write(_HEADER)

    def _write(self, data: bytes) -> None:
        """Append ``data`` whole, or cut the file back and re-raise.

        A failed write (disk full, I/O error) may have landed part of
        a frame; truncating to the last complete frame keeps the file
        replayable, and the caller's retry appends cleanly after it.
        """
        try:
            view = memoryview(data)
            while view:
                view = view[self._fh.write(view):]
        except BaseException:
            os.ftruncate(self._fh.fileno(), self._size)
            raise
        self._size += len(data)

    def append_batches(self, batches) -> None:
        """Log one bus flush ahead of its delivery: one frame per
        ``(component, metric, times, values)`` batch, all in one write.

        All or nothing: a batch whose ``times`` and ``values`` differ
        in length, or with an over-long name, raises ``ValueError``
        before anything is written, and a failed write is cut back to
        the last complete frame."""
        parts: list = []
        records = 0
        newest = self._active_newest
        for component, metric, times, values in batches:
            t = np.ascontiguousarray(times, dtype=_F64).reshape(-1)
            v = np.ascontiguousarray(values, dtype=_F64).reshape(-1)
            n = t.size
            if n != v.size:
                raise ValueError("times and values must have equal length")
            names = self._names.get((component, metric))
            if names is None:
                c = _encode_name(component)
                m = _encode_name(metric)
                names = self._names[component, metric] = (len(c), len(m),
                                                           c + m)
            lc, lm, both = names
            head = _COUNTS.pack(lc, lm, n)
            crc = zlib.crc32(v, zlib.crc32(t, zlib.crc32(
                both, zlib.crc32(head))))
            parts += (_FRAME.pack(_COUNTS.size + lc + lm + 16 * n, crc),
                      head, both, t, v)
            records += 1
            if n:
                newest = max(newest, t.item(-1))
        self._write(b"".join(parts))
        self.records_written += records
        self._active_records += records
        self._active_newest = newest

    def append_batch(self, component: str, metric: str,
                     times, values) -> None:
        """:meth:`append_batches` of one batch."""
        self.append_batches(((component, metric, times, values),))

    def commit(self) -> None:
        """The bus's end-of-flush durability point.  There is nothing
        left to do: every frame reached the OS when it was appended,
        which is all the journal promises (see "Durability" above)."""

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
        self._open(0)
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
    for _end, (_component, _metric, times, _values) in _frames(
            segment, tolerate_torn=True):
        if times.size:
            newest = max(newest, float(times[-1]))
    return newest


def _check_header(path: Path, head: bytes, tolerate_torn: bool) -> bool:
    """Validate a file's first bytes; False for a torn (short) header.

    Anything that is not a prefix of this format's header raises --
    a JSON-lines journal of the earlier format with its own message.
    """
    if head == _HEADER:
        return True
    if len(head) < len(_HEADER) and _HEADER.startswith(head):
        if tolerate_torn:
            return False
        raise ValueError(f"torn journal header in {path}")
    if head.startswith(b"{"):
        raise ValueError(
            f"{path} is a JSON-lines ingest journal of an earlier "
            f"version; this version reads only the binary journal "
            f"format (start a fresh run, or resume with the version "
            f"that wrote it)"
        )
    if head.startswith(_MAGIC):
        version = int.from_bytes(head[len(_MAGIC):], "little")
        raise ValueError(
            f"unsupported journal format version {version} in {path} "
            f"(expected {_VERSION})"
        )
    raise ValueError(f"{path} is not an ingest journal")


def _frames(path: Path, tolerate_torn: bool
            ) -> Iterator[tuple[int, JournalRecord]]:
    """Yield ``(end offset, record)`` for each complete frame of one
    journal file, in write order (nothing for a missing or empty file).

    With ``tolerate_torn`` a bad *final* frame (the crash case) ends
    the file silently; a bad frame with more bytes after it always
    raises.  Reads one frame at a time -- journals of long runs are
    large, so replay must not materialize them in memory.
    """
    if not path.exists():
        return
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if not size or not _check_header(
                path, handle.read(len(_HEADER)), tolerate_torn):
            return
        offset = len(_HEADER)
        while offset < size:
            prefix = handle.read(_PREFIX.size)
            torn = len(prefix) < _PREFIX.size
            if not torn:
                length, crc, lc, lm, n = _PREFIX.unpack(prefix)
                if length != _COUNTS.size + lc + lm + 16 * n:
                    # A torn write leaves a *prefix* of a valid frame,
                    # whose counts always agree with its length.
                    raise ValueError(
                        f"corrupt journal frame at {path} offset {offset}"
                    )
                end = offset + _FRAME.size + length
                torn = end > size
            if torn:
                if tolerate_torn:
                    return
                raise ValueError(
                    f"torn journal frame at {path} offset {offset}"
                )
            body = handle.read(length - _COUNTS.size)
            if zlib.crc32(body, zlib.crc32(prefix[_FRAME.size:])) != crc:
                if tolerate_torn and end == size:
                    return  # a bad final frame: torn tail from a crash
                raise ValueError(
                    f"corrupt journal frame at {path} offset {offset}"
                )
            both = np.frombuffer(body, dtype=_F64, count=2 * n,
                                 offset=lc + lm).astype(float)
            yield end, (body[:lc].decode("utf-8", "surrogatepass"),
                        body[lc:lc + lm].decode("utf-8", "surrogatepass"),
                        both[:n], both[n:])
            offset = end


def _complete_length(path: Path) -> int:
    """Bytes of ``path`` up to the end of its last complete frame (0
    when it holds none).  Raises on corruption, as replay would."""
    keep = 0
    for keep, _record in _frames(path, tolerate_torn=True):
        pass
    return keep


def replay_journal(path) -> Iterator[JournalRecord]:
    """Yield every complete record of a journal, in write order.

    Spans rotated segments (oldest first) and then the active file, so
    rotation is invisible to readers.  Only the active file can end in
    a torn frame (segments are sealed by a completed rotation), so only
    its final frame is forgiven.
    """
    path = Path(path)
    for segment in journal_segments(path):
        for _end, record in _frames(segment, tolerate_torn=False):
            yield record
    for _end, record in _frames(path, tolerate_torn=True):
        yield record


def journal_record_count(path) -> int:
    """Complete records currently recoverable from a journal."""
    return sum(1 for _ in replay_journal(path))
