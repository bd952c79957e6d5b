"""Time-series value types shared by the whole pipeline.

A :class:`TimeSeries` is an append-friendly (timestamps, values) pair
tagged with the exporting component and metric name.  A
:class:`MetricFrame` is the collection Sieve's analysis steps consume:
every metric of every component over one measurement run, with helpers
for per-component views, variance filtering and grid alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.stats.interpolate import DEFAULT_GRID_INTERVAL, resample_to_grid
from repro.stats.timeseries_ops import DEFAULT_VARIANCE_THRESHOLD


@dataclass(frozen=True, order=True)
class MetricKey:
    """Identity of one monitored metric: which component exports what."""

    component: str
    metric: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.component}/{self.metric}"


class TimeSeries:
    """One monitored metric as an ordered sequence of (time, value) samples.

    Samples live in numpy buffers with amortized-doubling capacity, so
    both the single-sample :meth:`append` of the scraping path and the
    bulk :meth:`extend` of replay/streaming ingestion stay cheap.
    """

    __slots__ = ("key", "_times", "_values", "_n")

    def __init__(self, key: MetricKey,
                 times: Iterable[float] = (),
                 values: Iterable[float] = ()):
        self.key = key
        if not isinstance(times, np.ndarray):
            times = list(times)
        if not isinstance(values, np.ndarray):
            values = list(values)
        self._times = np.asarray(times, dtype=float).reshape(-1).copy()
        self._values = np.asarray(values, dtype=float).reshape(-1).copy()
        if self._times.size != self._values.size:
            raise ValueError("times and values must have equal length")
        if self._times.size > 1 and np.any(np.diff(self._times) < 0):
            raise ValueError("times must be non-decreasing")
        self._n = int(self._times.size)

    def _grow(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more samples."""
        need = self._n + extra
        capacity = self._times.size
        if need <= capacity:
            return
        new_capacity = max(need, 2 * capacity, 16)
        times = np.empty(new_capacity, dtype=float)
        values = np.empty(new_capacity, dtype=float)
        times[:self._n] = self._times[:self._n]
        values[:self._n] = self._values[:self._n]
        self._times, self._values = times, values

    def append(self, time: float, value: float) -> None:
        """Record one sample; samples must arrive in time order."""
        time = float(time)
        if self._n and time < self._times[self._n - 1]:
            raise ValueError(
                f"out-of-order sample at t={time} "
                f"(last t={self._times[self._n - 1]})"
            )
        self._grow(1)
        self._times[self._n] = time
        self._values[self._n] = float(value)
        self._n += 1

    def extend(self, times, values) -> None:
        """Bulk-append many samples in one vectorized operation.

        ``times`` must be non-decreasing and start no earlier than the
        last stored sample -- the same ordering contract as
        :meth:`append`, validated without a Python-level loop.
        """
        incoming_t = np.asarray(times, dtype=float).reshape(-1)
        incoming_v = np.asarray(values, dtype=float).reshape(-1)
        if incoming_t.size != incoming_v.size:
            raise ValueError("times and values must have equal length")
        if incoming_t.size == 0:
            return
        if np.any(np.diff(incoming_t) < 0):
            raise ValueError("extend() requires non-decreasing times")
        if self._n and incoming_t[0] < self._times[self._n - 1]:
            raise ValueError(
                f"out-of-order bulk write at t={incoming_t[0]} "
                f"(last t={self._times[self._n - 1]})"
            )
        self._grow(incoming_t.size)
        self._times[self._n:self._n + incoming_t.size] = incoming_t
        self._values[self._n:self._n + incoming_v.size] = incoming_v
        self._n += int(incoming_t.size)

    def __len__(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps as an array (copy)."""
        return self._times[:self._n].copy()

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array (copy)."""
        return self._values[:self._n].copy()

    @property
    def times_view(self) -> np.ndarray:
        """Sample timestamps as a read-only view (no copy).

        For hot read paths (window reduction, drift scoring) that only
        ever *read* the samples; callers must not mutate the view.
        """
        return self._times[:self._n]

    @property
    def values_view(self) -> np.ndarray:
        """Sample values as a read-only view (no copy; see
        :attr:`times_view`)."""
        return self._values[:self._n]

    def variance(self) -> float:
        """Sample variance; 0.0 for fewer than two samples."""
        if self._n < 2:
            return 0.0
        return float(np.var(self._values[:self._n]))

    def is_unvarying(self,
                     threshold: float = DEFAULT_VARIANCE_THRESHOLD) -> bool:
        """True when the series fails Sieve's variance pre-filter."""
        return self.variance() <= threshold

    def resampled(self, interval: float = DEFAULT_GRID_INTERVAL,
                  start: float | None = None,
                  end: float | None = None) -> np.ndarray:
        """Values interpolated onto an equidistant grid (grid dropped)."""
        _, values = resample_to_grid(self.times, self.values,
                                     interval=interval, start=start, end=end)
        return values

    def window(self, start: float, end: float) -> "TimeSeries":
        """Sub-series restricted to ``start <= t <= end``."""
        lo = int(np.searchsorted(self._times[:self._n], start, side="left"))
        hi = int(np.searchsorted(self._times[:self._n], end, side="right"))
        return TimeSeries(self.key, self._times[lo:hi], self._values[lo:hi])

    def last_value(self, default: float = 0.0) -> float:
        """Most recent sample value, or ``default`` when empty."""
        return float(self._values[self._n - 1]) if self._n else default

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"TimeSeries({self.key}, n={len(self)})"


class MetricFrame:
    """All metrics of one measurement run, keyed by (component, metric)."""

    def __init__(self) -> None:
        self._series: dict[MetricKey, TimeSeries] = {}

    def series(self, component: str, metric: str) -> TimeSeries:
        """Return (creating if needed) the series for a metric."""
        key = MetricKey(component, metric)
        if key not in self._series:
            self._series[key] = TimeSeries(key)
        return self._series[key]

    def add(self, ts: TimeSeries) -> None:
        """Insert a fully-built series; refuses duplicates."""
        if ts.key in self._series:
            raise KeyError(f"duplicate series {ts.key}")
        self._series[ts.key] = ts

    def __contains__(self, key: MetricKey) -> bool:
        return key in self._series

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())

    def get(self, key: MetricKey) -> TimeSeries | None:
        """Series for ``key`` or None."""
        return self._series.get(key)

    @property
    def components(self) -> list[str]:
        """Sorted component names present in the frame."""
        return sorted({key.component for key in self._series})

    def metrics_of(self, component: str) -> list[str]:
        """Sorted metric names exported by ``component``."""
        return sorted(
            key.metric for key in self._series if key.component == component
        )

    def component_view(self, component: str) -> dict[str, TimeSeries]:
        """``metric name -> series`` mapping for one component."""
        return {
            key.metric: ts
            for key, ts in self._series.items()
            if key.component == component
        }

    def varying_metrics_of(
        self, component: str,
        threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    ) -> dict[str, TimeSeries]:
        """Component view with unvarying metrics removed (Section 3.2)."""
        return {
            name: ts
            for name, ts in self.component_view(component).items()
            if not ts.is_unvarying(threshold)
        }

    def time_span(self) -> tuple[float, float]:
        """(earliest, latest) timestamp over all non-empty series."""
        starts, ends = [], []
        for ts in self._series.values():
            if len(ts):
                starts.append(ts.times[0])
                ends.append(ts.times[-1])
        if not starts:
            raise ValueError("frame holds no samples")
        return min(starts), max(ends)

    def total_samples(self) -> int:
        """Total number of samples across every series."""
        return sum(len(ts) for ts in self._series.values())


@dataclass
class RunMetadata:
    """Descriptive metadata attached to one measurement run."""

    application: str
    workload: str
    seed: int
    duration: float
    notes: str = ""
    extra: dict = field(default_factory=dict)
