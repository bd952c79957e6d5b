"""Bounded per-metric ring buffers and the sharded window store.

The streaming engine must survive unbounded ingestion with bounded
memory.  Every metric gets a :class:`RingSeries`: a numpy-backed ring
holding at most ``max_points`` samples and at most ``retention``
seconds of history (whichever bound bites first).  A
:class:`WindowStore` shards the rings by component -- mirroring how the
analysis itself is per-component -- and can snapshot any time window
into the :class:`~repro.metrics.timeseries.MetricFrame` the batch
analysis steps already consume, so the windowed analyzer reuses the
exact Step-#2/#3 code paths.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.timeseries import MetricFrame, MetricKey, TimeSeries

#: Initial ring capacity (grows by doubling up to ``max_points``).
_INITIAL_CAPACITY = 64

_F64 = np.dtype(float)


def _vector(data) -> np.ndarray:
    """``data`` as a 1-d float64 array, as is when it already is one
    (every batch the bus delivers)."""
    if type(data) is np.ndarray and data.dtype is _F64 and data.ndim == 1:
        return data
    return np.asarray(data, dtype=float).reshape(-1)


class RingSeries:
    """Recent samples of one metric, bounded in count and age.

    Storage is a pair of numpy buffers with a live ``[start, end)``
    region.  Appends are vectorized; eviction advances ``start`` (O(1))
    and the buffer is compacted only when the dead prefix would block
    an insertion, keeping amortized cost constant per sample.
    """

    __slots__ = ("key", "retention", "max_points",
                 "_times", "_values", "_start", "_end", "evicted")

    def __init__(self, key: MetricKey, retention: float = 120.0,
                 max_points: int = 4096):
        if retention <= 0:
            raise ValueError("retention must be positive")
        if max_points < 8:
            raise ValueError("max_points must be >= 8")
        self.key = key
        self.retention = retention
        self.max_points = max_points
        capacity = min(_INITIAL_CAPACITY, max_points)
        self._times = np.empty(capacity, dtype=float)
        self._values = np.empty(capacity, dtype=float)
        self._start = 0
        self._end = 0
        self.evicted = 0
        """Samples dropped so far by either bound (observability)."""

    def __len__(self) -> int:
        return self._end - self._start

    def extend(self, times, values) -> None:
        """Bulk-append ordered samples, then enforce both bounds."""
        self._extend(_vector(times), _vector(values))

    def _extend(self, t: np.ndarray, v: np.ndarray) -> None:
        """:meth:`extend` on inputs already converted to 1-d float
        arrays (the window store converts each batch at most once).
        Bounds are read as Python floats: a numpy scalar operation
        costs several times more."""
        n = t.size
        if n != v.size:
            raise ValueError("times and values must have equal length")
        if n == 0:
            return
        if n > 1 and np.count_nonzero(t[1:] < t[:-1]):
            raise ValueError("ring writes require non-decreasing times")
        start, end = self._start, self._end
        held = end > start
        if held and t.item(0) < self._times.item(end - 1):
            raise ValueError(
                f"out-of-order ring write at t={t[0]} "
                f"(last t={self._times[end - 1]})"
            )
        max_points = self.max_points
        if n > max_points:
            # The batch alone overflows the ring: only its tail survives.
            self.evicted += n - max_points
            t, v = t[-max_points:], v[-max_points:]
            n = max_points

        # Age bound, relative to the newest incoming sample -- applied
        # to the stored samples and to the batch itself.  Both are
        # ordered, so nothing is older than the cutoff unless their
        # first sample is and the search can be skipped otherwise; the
        # negated tests keep a NaN cutoff (or oldest) searching.
        cutoff = t.item(-1) - self.retention
        if held and not self._times.item(start) >= cutoff:
            self.evict_before(cutoff)
            start = self._start
        if not t.item(0) >= cutoff:
            stale = int(t.searchsorted(cutoff, side="left"))
            self.evicted += stale
            t, v = t[stale:], v[stale:]
            n -= stale
        # Count bound: make room for the incoming batch.
        overflow = end - start + n - max_points
        if overflow > 0:
            start += overflow
            self.evicted += overflow

        live = end - start
        times, values = self._times, self._values
        if end + n > times.size:
            need = live + n
            if need > times.size:
                capacity = min(max(2 * times.size, need),
                               max(max_points, need))
                new_times = np.empty(capacity, dtype=float)
                new_values = np.empty(capacity, dtype=float)
            else:
                new_times, new_values = times, values
            new_times[:live] = times[start:end]
            new_values[:live] = values[start:end]
            times, values = new_times, new_values
            self._times, self._values = times, values
            start, end = 0, live
        times[end:end + n] = t
        values[end:end + n] = v
        self._start, self._end = start, end + n

    def append(self, time: float, value: float) -> None:
        """Single-sample convenience wrapper around :meth:`extend`."""
        self.extend([time], [value])

    def evict_before(self, cutoff: float) -> int:
        """Drop samples older than ``cutoff``; returns how many."""
        live = self._times[self._start:self._end]
        dropped = int(live.searchsorted(cutoff, side="left"))
        self._start += dropped
        self.evicted += dropped
        return dropped

    @property
    def times(self) -> np.ndarray:
        """Retained timestamps, oldest first (copy)."""
        return self._times[self._start:self._end].copy()

    @property
    def values(self) -> np.ndarray:
        """Retained values, oldest first (copy)."""
        return self._values[self._start:self._end].copy()

    def span(self) -> tuple[float, float]:
        """(oldest, newest) retained timestamp."""
        if not len(self):
            raise ValueError("ring holds no samples")
        return float(self._times[self._start]), \
            float(self._times[self._end - 1])

    def window(self, start: float, end: float) -> TimeSeries:
        """Retained samples with ``start <= t <= end`` as a TimeSeries.

        The returned series is always a private copy (stable however
        the ring advances).
        """
        live_t = self._times[self._start:self._end]
        lo = int(np.searchsorted(live_t, start, side="left"))
        hi = int(np.searchsorted(live_t, end, side="right"))
        lo += self._start
        hi += self._start
        return TimeSeries(self.key, self._times[lo:hi],
                          self._values[lo:hi])


class WindowStore:
    """Per-component shards of :class:`RingSeries` (the engine's memory).

    With a ``backend``
    (:class:`~repro.persistence.backend.StorageBackend`), every
    ingested batch is also written through to durable storage, and
    :meth:`snapshot` transparently serves windows that reach past the
    rings' retention from the backend instead -- long retentions
    survive restarts and windows can be replayed across runs while the
    hot analysis path stays on the in-RAM rings.
    """

    def __init__(self, retention: float = 120.0,
                 max_points_per_series: int = 4096,
                 backend=None):
        self.retention = retention
        self.max_points_per_series = max_points_per_series
        self.backend = backend
        self._shards: dict[str, dict[str, RingSeries]] = {}
        self.points_ingested = 0
        self.batches_ingested = 0
        self.backend_reads = 0
        """Series windows served from the backend instead of a ring."""

        self.backend_writes = 0
        """Batches written through to the durable backend."""

        self.first_time: float | None = None
        """Earliest timestamp ever ingested (survives eviction)."""

    # -- ingestion (the bus-subscriber protocol) -----------------------

    def ingest(self, component: str, metric: str, times, values) -> None:
        """Accept one flushed batch from the ingestion bus."""
        shard = self._shards.setdefault(component, {})
        ring = shard.get(metric)
        if ring is None:
            ring = RingSeries(MetricKey(component, metric),
                              retention=self.retention,
                              max_points=self.max_points_per_series)
            shard[metric] = ring
        t, v = _vector(times), _vector(values)
        if not t.size:
            return
        if self.backend is not None:
            self.backend.write(component, metric, t, v)
            self.backend_writes += 1
        ring._extend(t, v)
        self.points_ingested += t.size
        self.batches_ingested += 1
        first = t.item(0)
        if self.first_time is None or first < self.first_time:
            self.first_time = first

    # -- bookkeeping ---------------------------------------------------

    @property
    def components(self) -> list[str]:
        """Sorted component names currently sharded."""
        return sorted(self._shards)

    def metrics_of(self, component: str) -> list[str]:
        """Sorted metric names of one component's shard."""
        return sorted(self._shards.get(component, {}))

    def series(self, component: str, metric: str) -> RingSeries | None:
        """One ring, or None when unknown."""
        return self._shards.get(component, {}).get(metric)

    def series_count(self) -> int:
        """Number of live rings."""
        return sum(len(shard) for shard in self._shards.values())

    def total_points(self) -> int:
        """Samples currently retained across every ring."""
        return sum(len(ring) for shard in self._shards.values()
                   for ring in shard.values())

    def total_evicted(self) -> int:
        """Samples dropped so far by retention/count bounds."""
        return sum(ring.evicted for shard in self._shards.values()
                   for ring in shard.values())

    def latest_time(self) -> float | None:
        """Newest retained timestamp, or None when empty."""
        newest = None
        for shard in self._shards.values():
            for ring in shard.values():
                if len(ring):
                    last = ring.span()[1]
                    newest = last if newest is None else max(newest, last)
        return newest

    def stalest_series_time(self) -> float | None:
        """Newest timestamp of the *stalest* non-empty series.

        Ring eviction is per-series relative to that series' own
        newest sample, so a series that went quiet (vanished
        component, sparse exporter) retains old samples long after the
        global clock moved on.  Journal retirement must therefore be
        anchored here, not at :meth:`latest_time`: everything any ring
        still retains is newer than ``stalest - retention``.
        """
        stalest = None
        for shard in self._shards.values():
            for ring in shard.values():
                if len(ring):
                    last = ring.span()[1]
                    stalest = last if stalest is None \
                        else min(stalest, last)
        return stalest

    def evict_before(self, cutoff: float) -> int:
        """Force an age-based eviction pass over every ring."""
        return sum(ring.evict_before(cutoff)
                   for shard in self._shards.values()
                   for ring in shard.values())

    def flush_backend(self) -> None:
        """Make write-through storage durable (no-op without backend).

        The checkpoint policy calls it so every sample a checkpoint
        covers is flushed before the checkpoint lands.
        """
        if self.backend is not None:
            self.backend.flush()

    # -- analysis hand-off ---------------------------------------------

    def _series_window(self, ring: RingSeries, start: float,
                       end: float) -> TimeSeries:
        """One series' window, from the ring or the durable backend.

        The backend is consulted only when samples the window needs
        were already evicted from the ring -- i.e. the ring's retained
        data starts after ``start`` and something was dropped.
        """
        if self.backend is not None and ring.evicted \
                and (not len(ring) or start < ring.span()[0]):
            self.backend_reads += 1
            return self.backend.query(ring.key.component,
                                      ring.key.metric, start, end)
        return ring.window(start, end)

    def snapshot(self, start: float = float("-inf"),
                 end: float = float("inf")) -> MetricFrame:
        """Materialize ``[start, end]`` as a MetricFrame for analysis.

        Only non-empty series are included, so components that went
        silent simply vanish from the frame (and hence the analysis).
        """
        frame = MetricFrame()
        for shard in self._shards.values():
            for ring in shard.values():
                ts = self._series_window(ring, start, end)
                if len(ts):
                    frame.add(ts)
        return frame
