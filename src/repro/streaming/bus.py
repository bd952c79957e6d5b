"""The ingestion bus: batched point writes from collectors to windows.

Collectors (:class:`repro.metrics.collector.Collector` in push mode, or
anything else speaking the ``publish`` protocol) hand the bus one
scrape batch at a time.  The bus buffers points per (component, metric)
and periodically *flushes*: every buffered run of the flush is
converted into one pair of float64 arrays at once, and each
(component, metric) batch is delivered to every subscriber as a view
of them in a single vectorized call -- the same batching discipline a
real Telegraf -> InfluxDB hop applies to amortize per-write overhead.

Subscribers are either callables ``fn(component, metric, times,
values)`` or objects with that signature as an ``ingest`` method (a
:class:`~repro.streaming.window.WindowStore`, a
:class:`~repro.persistence.backend.StorageBackend`, ...).  They must
not write into the arrays they are handed.

A timestamp must be finite.  The HTTP decoders answer 400 for one;
an in-process publisher's non-finite timestamp is counted in
:attr:`BusStats.rejected_points` and never buffered (a run holding one
is rejected whole, like an unordered run), since it would empty the
key's ring or disable its ordering guard.

Two reliability features wrap the buffer:

* **write-ahead journal** -- with :meth:`attach_journal`, each flush
  is appended whole to an
  :class:`~repro.persistence.journal.IngestJournal` in one write
  *before* any of its batches reaches a subscriber, so a killed
  process can be resumed losslessly by replaying the journal.  A
  failed journal write requeues every batch of the flush and delivers
  none; the next flush journals each of them exactly once.  A failing
  subscriber does not hold up the other batches: they are all
  delivered, the failing batch is not retried (it is already
  journaled, and a subscriber that took it would see it twice), and
  the first error is re-raised after the loop.  That batch stays in
  the journal, so a restore brings it back;
* **backpressure** -- with ``max_pending`` set, a stalled consumer can
  no longer grow the buffers unboundedly: the configured overflow
  policy sheds load (``drop_oldest`` discards the globally oldest
  buffered points, ``downsample`` halves every buffered series keeping
  the newest samples), and the shed counts surface in
  :class:`BusStats`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import lt

import numpy as np

#: Valid overflow policies for a bounded bus.
OVERFLOW_POLICIES = ("drop_oldest", "downsample")

#: The item types of a run the decoders hand over.
_FLOAT = frozenset((float,))


def _finite(times: list) -> bool:
    """Every float of ``times`` is finite.  A finite sum proves it in
    one C-level pass; only a sum that is not (a non-finite item, or
    finite items whose sum overflows) needs the per-item test."""
    return math.isfinite(sum(times)) or all(map(math.isfinite, times))


@dataclass
class BusStats:
    """Ingestion-side observability counters."""

    points_published: int = 0
    batches_published: int = 0
    flushes: int = 0
    points_flushed: int = 0
    rejected_points: int = 0
    """Points dropped because they arrived out of order for their key
    or carried a non-finite timestamp."""

    overflow_dropped: int = 0
    """Points shed by the ``drop_oldest`` backpressure policy."""

    overflow_downsampled: int = 0
    """Points shed by the ``downsample`` backpressure policy."""

    overflow_events: int = 0
    """Times the ``max_pending`` bound was hit (shedding passes)."""

    journaled_batches: int = 0
    """Batches written to the attached write-ahead journal."""

    resume_clipped: int = 0
    """Re-published points dropped by the crash-resume overlap clip."""

    def as_dict(self) -> dict:
        return {
            "points_published": self.points_published,
            "batches_published": self.batches_published,
            "flushes": self.flushes,
            "points_flushed": self.points_flushed,
            "rejected_points": self.rejected_points,
            "overflow_dropped": self.overflow_dropped,
            "overflow_downsampled": self.overflow_downsampled,
            "overflow_events": self.overflow_events,
            "journaled_batches": self.journaled_batches,
            "resume_clipped": self.resume_clipped,
        }


@dataclass
class _Buffer:
    """Pending points of one (component, metric) key.

    ``start`` marks the live region: backpressure shedding advances it
    instead of popping from the list front (O(1) per shed point), and
    the dead prefix is compacted away once it dominates the list so a
    shedding bus holds bounded memory.  ``last_time`` carries the
    ordering guard independently of the list contents, so compaction
    cannot loosen the monotonicity check."""

    times: list = field(default_factory=list)
    values: list = field(default_factory=list)
    start: int = 0
    last_time: float = float("-inf")

    def __len__(self) -> int:
        return len(self.times) - self.start

    def compact(self) -> None:
        """Free the dead prefix when it outweighs the live region."""
        if self.start and self.start * 2 >= len(self.times):
            del self.times[:self.start]
            del self.values[:self.start]
            self.start = 0


class IngestionBus:
    """Buffers point writes and fans batches out to subscribers."""

    def __init__(self, flush_threshold: int = 4096,
                 max_pending: int = 0,
                 overflow_policy: str = "drop_oldest"):
        """``flush_threshold`` caps buffered points before an automatic
        flush (explicit :meth:`flush` calls still drive the cadence).
        ``max_pending`` (0 = unbounded) bounds the buffers even when
        flushing is stalled; ``overflow_policy`` picks what to shed."""
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow_policy!r}"
            )
        self.flush_threshold = flush_threshold
        self.max_pending = max_pending
        self.overflow_policy = overflow_policy
        self.stats = BusStats()
        self._buffers: dict[tuple[str, str], _Buffer] = {}
        self._high_water: dict[tuple[str, str], float] = {}
        """Per-key newest admitted timestamp, surviving flushes.  A
        flush discards the buffer (and its ``last_time``), but the
        downstream rings are append-only forever -- so the ordering
        guard must span the bus's whole lifetime, or a late sample
        arriving in a *later* flush cycle (an HTTP sender replaying
        old data) would corrupt delivery instead of being rejected."""

        self._pending = 0
        self._sinks: list = []
        self._journal = None
        self._resume_clip: dict[tuple[str, str], float] | None = None
        self._flush_seconds = None
        self._tracer = None

    # -- wiring --------------------------------------------------------

    def subscribe(self, sink) -> None:
        """Register a subscriber (callable or object with ``ingest``)."""
        if callable(sink):
            self._sinks.append(sink)
        elif hasattr(sink, "ingest"):
            self._sinks.append(sink.ingest)
        else:
            raise TypeError(
                "subscriber must be callable or expose .ingest()"
            )

    @property
    def subscriber_count(self) -> int:
        return len(self._sinks)

    def attach_journal(self, journal) -> None:
        """Write every flushed batch ahead of subscriber delivery.

        ``journal`` is an :class:`repro.persistence.journal.IngestJournal`
        (or anything with ``append_batches``/``commit``).
        """
        self._journal = journal

    def attach_telemetry(self, telemetry) -> None:
        """Time flushes into the given :class:`repro.obs.Telemetry`.

        Each non-empty flush is recorded as an ``ingest`` phase span
        (folded into the next window's trace) and observed by the
        ``repro_bus_flush_seconds`` histogram.  Lifetime counters are
        *not* duplicated here -- the engine samples :attr:`stats` via a
        scrape-time collector instead, keeping the publish path
        untouched.
        """
        self._tracer = telemetry.tracer
        self._flush_seconds = telemetry.registry.histogram(
            "repro_bus_flush_seconds",
            "Wall time of non-empty ingestion-bus flushes",
        )

    @property
    def journal(self):
        """The attached write-ahead journal, or None.

        Exposed so lifecycle hooks (checkpoint-epoch journal rotation)
        can reach the journal without threading it separately."""
        return self._journal

    def arm_resume_clip(self,
                        newest_by_key: dict[tuple[str, str], float]
                        ) -> None:
        """Drop re-published samples a resumed run already holds.

        Crash-resume support: the resumed driver re-simulates the
        partially journaled scrape cycle and re-publishes it; clipping
        at the bus keeps those duplicates out of the journal, the
        durable backend *and* the rings in one place (a second crash
        would otherwise replay them twice).  ``newest_by_key`` maps
        (component, metric) to the newest journaled timestamp; each
        entry self-disarms once publishing moves past it.
        """
        self._resume_clip = dict(newest_by_key) or None

    def _clip_resumed(self, component: str, metric: str, time) -> bool:
        """True when a re-published sample must be dropped."""
        if self._resume_clip is None:
            return False
        key = (component, metric)
        bound = self._resume_clip.get(key)
        if bound is None:
            return False
        if time <= bound:
            return True
        del self._resume_clip[key]
        if not self._resume_clip:
            self._resume_clip = None
        return False

    # -- publishing ----------------------------------------------------

    def _buffer(self, component: str, metric: str) -> _Buffer:
        """The key's pending buffer, seeded with its lifetime guard."""
        key = (component, metric)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = _Buffer(last_time=self._high_water.get(
                key, float("-inf")))
            self._buffers[key] = buffer
        return buffer

    def publish(self, component: str, time: float,
                metrics: dict[str, float]) -> None:
        """Accept one component scrape batch (the collector protocol)."""
        time = float(time)
        if not math.isfinite(time):
            self.stats.rejected_points += len(metrics)
            metrics = {}
        for metric, value in metrics.items():
            if self._clip_resumed(component, metric, time):
                self.stats.resume_clipped += 1
                continue
            buffer = self._buffer(component, metric)
            if time < buffer.last_time:
                self.stats.rejected_points += 1
                continue
            buffer.times.append(time)
            buffer.values.append(float(value))
            buffer.last_time = time
            self._high_water[(component, metric)] = time
            self._pending += 1
            self.stats.points_published += 1
        self.stats.batches_published += 1
        self._enforce_bounds()

    def publish_points(self, component: str, metric: str,
                       times, values) -> None:
        """Accept a pre-batched run of points for one metric.

        A run that is out of order within itself, or holds a
        non-finite timestamp, is rejected whole; an ordered run that
        starts behind the key's guard loses exactly its late head --
        what publishing it point by point would reject -- and the
        in-order tail is taken.

        Decoder output (lists holding only ``float``) is buffered as
        is; anything else goes through a float64 array first, so the
        buffered floats are the same either way."""
        if type(times) is not list or type(values) is not list \
                or {*map(type, times), *map(type, values)} != _FLOAT:
            times = np.asarray(times, dtype=float).reshape(-1).tolist()
            values = np.asarray(values, dtype=float).reshape(-1).tolist()
        size = len(times)
        if size != len(values):
            raise ValueError("times and values must have equal length")
        if size == 0:
            return
        if not _finite(times):
            self.stats.rejected_points += size
            return
        if self._resume_clip is not None:
            clipped = 0
            while clipped < size and self._clip_resumed(
                    component, metric, times[clipped]):
                clipped += 1
            if clipped:
                self.stats.resume_clipped += clipped
                if clipped == size:
                    return
                times, values = times[clipped:], values[clipped:]
                size -= clipped
        buffer = self._buffer(component, metric)
        if any(map(lt, times[1:], times)):
            self.stats.rejected_points += size
            return
        if times[0] < buffer.last_time:
            late = bisect_left(times, buffer.last_time)
            self.stats.rejected_points += late
            if late == size:
                return
            times, values = times[late:], values[late:]
            size -= late
        newest = times[-1]
        buffer.times += times
        buffer.values += values
        buffer.last_time = newest
        self._high_water[(component, metric)] = newest
        self._pending += size
        self.stats.points_published += size
        self.stats.batches_published += 1
        self._enforce_bounds()

    def _enforce_bounds(self) -> None:
        # A flush that can run drains everything, so try it first --
        # backpressure must only shed points a flush cannot deliver
        # (max_pending below the flush threshold, or a stalled flush
        # cadence), never data a healthy subscriber would have taken.
        if self._pending >= self.flush_threshold:
            self.flush()
        if self.max_pending and self._pending > self.max_pending:
            self.stats.overflow_events += 1
            self._shed()

    # -- backpressure --------------------------------------------------

    def _shed(self) -> None:
        """Bring pending points back under ``max_pending``."""
        if self.overflow_policy == "drop_oldest":
            self._shed_oldest()
        else:
            self._shed_downsample()

    def _shed_oldest(self) -> None:
        """Discard the globally oldest buffered points."""
        heap = [
            (buffer.times[buffer.start], key)
            for key, buffer in self._buffers.items()
            if len(buffer)
        ]
        heapq.heapify(heap)
        while self._pending > self.max_pending and heap:
            _oldest, key = heapq.heappop(heap)
            buffer = self._buffers[key]
            buffer.start += 1
            self._pending -= 1
            self.stats.overflow_dropped += 1
            if len(buffer):
                heapq.heappush(
                    heap, (buffer.times[buffer.start], key)
                )
        for buffer in self._buffers.values():
            buffer.compact()

    def _shed_downsample(self) -> None:
        """Halve every buffered series, keeping the newest samples."""
        while self._pending > self.max_pending:
            shed_any = False
            for buffer in self._buffers.values():
                live = len(buffer)
                if live < 2:
                    continue
                # Keep every second sample, anchored on the newest one
                # (last-value semantics survive the thinning).
                parity = (live - 1) % 2
                kept_t = buffer.times[buffer.start + parity::2]
                kept_v = buffer.values[buffer.start + parity::2]
                dropped = live - len(kept_t)
                buffer.times, buffer.values = kept_t, kept_v
                buffer.start = 0
                self._pending -= dropped
                self.stats.overflow_downsampled += dropped
                shed_any = True
            if not shed_any:
                break  # every buffer is a single point; nothing to thin

    # -- delivery ------------------------------------------------------

    @property
    def pending_points(self) -> int:
        """Points buffered but not yet delivered."""
        return self._pending

    def newest_ingested(self) -> float | None:
        """Newest timestamp ever admitted, across every key.

        Spans the bus's whole lifetime (the ordering high-water, not
        the transient buffers), so it covers points still pending a
        flush and points already delivered or shed.  None before any
        point was admitted.  Wall-clock serve polling schedules
        analysis off this: the engine's own horizon only advances on
        flush, which would deadlock a bus stuck at ``max_pending``
        below the flush threshold.
        """
        if not self._high_water:
            return None
        return max(self._high_water.values())

    def flush(self) -> int:
        """Deliver every buffered batch to every subscriber.

        With a journal attached, the whole flush is appended (and the
        journal committed) before any subscriber sees a batch of it --
        the write-ahead contract; the module docstring says what a
        failed journal write or a failing subscriber leaves behind.
        Returns the number of points delivered.  Empty flushes are
        cheap, so callers can flush on a timer without guarding.
        """
        if not self._pending:
            return 0
        if self._tracer is None:
            return self._flush_impl()
        with self._tracer.span("ingest") as span:
            delivered = self._flush_impl()
        self._flush_seconds.observe(span.elapsed)
        return delivered

    def _flush_impl(self) -> int:
        buffers, self._buffers = self._buffers, {}
        self._pending = 0
        items = [
            (key, buffer) for key, buffer in buffers.items() if len(buffer)
        ]
        times = np.array(list(chain.from_iterable(
            buffer.times[buffer.start:] for _key, buffer in items)),
            dtype=float)
        values = np.array(list(chain.from_iterable(
            buffer.values[buffer.start:] for _key, buffer in items)),
            dtype=float)
        batches = []
        end = 0
        for (component, metric), buffer in items:
            start, end = end, end + len(buffer)
            batches.append((component, metric,
                            times[start:end], values[start:end]))
        self.stats.flushes += 1
        if self._journal is not None:
            try:
                self._journal.append_batches(batches)
            except Exception:
                # A failed journal write (disk full, closed handle)
                # must not lose data: nothing was journaled or
                # delivered, so the whole flush is requeued.
                for key, buffer in items:
                    self._buffers[key] = buffer
                    self._pending += len(buffer)
                raise
            self.stats.journaled_batches += len(batches)
            self._journal.commit()
        delivered = 0
        failure: Exception | None = None
        for component, metric, t, v in batches:
            try:
                for sink in self._sinks:
                    sink(component, metric, t, v)
            except Exception as exc:
                # One bad subscriber/batch must not drop other keys'
                # points, and the failing batch is not retried (a
                # sink that already took it would receive it twice);
                # it stays in the journal, so a restore resurrects it.
                if failure is None:
                    failure = exc
                continue
            delivered += t.size
        self.stats.points_flushed += delivered
        if failure is not None:
            raise failure
        return delivered
