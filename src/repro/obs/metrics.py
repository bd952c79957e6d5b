"""Process-local instrumentation primitives: counters, gauges, histograms.

The paper's thesis is that always-on monitoring must be cheap enough to
leave running; this module applies the same discipline to the engine's
*self*-telemetry.  A :class:`TelemetryRegistry` hands out named
instruments (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
whose mutation costs one dict write on the caller's thread -- no
locks on the counter hot path, no background threads -- and whose
state is read out by the exposition layer
(:mod:`repro.obs.exposition`) at scrape time.

Two properties keep the disabled path near-zero-cost:

* a registry built with ``enabled=False`` hands out a shared
  :data:`NULL_INSTRUMENT` whose mutators are empty methods, so
  instrumented call sites stay branch-free (``self._points.inc(n)``
  costs one attribute lookup and an empty call);
* *collector callbacks* (:meth:`TelemetryRegistry.add_collector`) move
  sampling of already-maintained stats structs (``BusStats``,
  journal and ring counters) entirely to scrape time -- the hot
  path pays nothing at all for those families.

Instruments support Prometheus-style labels: declare the label names
at registration and pass values at mutation time
(``counter.inc(1, reason="drift")``).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator

#: Default histogram bucket upper bounds, in seconds -- sized for the
#: engine's latencies (sub-ms ring appends up to multi-second windows).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                   0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: (labels, value) pairs as the exposition layer consumes them.
Sample = tuple[dict, float]


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(
            f"invalid instrument name {name!r} "
            f"(use [a-zA-Z0-9_], e.g. repro_bus_points_total)"
        )
    return name


class Instrument:
    """Base of every instrument: a name, help text and label names."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Iterable[str] = ()):
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple, float] = {}

    def _key(self, labels: dict) -> tuple:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> list[Sample]:
        """Current (labels, value) pairs, sorted by label values."""
        return [
            (dict(zip(self.labelnames, key)), value)
            for key, value in sorted(self._values.items())
        ]

    def value(self, **labels) -> float:
        """Current value of one label combination (0.0 if unseen)."""
        return self._values.get(self._key(labels), 0.0)


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels) -> None:
        """Install an externally maintained monotone total.

        For collector callbacks that *sample* an existing stats struct
        (``BusStats`` counts, ring eviction totals) instead of paying
        for double bookkeeping on the hot path.  The caller guarantees
        monotonicity; regressions are clamped so a scrape never shows
        a counter going backwards.
        """
        key = self._key(labels)
        if total >= self._values.get(key, 0.0):
            self._values[key] = float(total)


class Gauge(Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(Instrument):
    """Cumulative-bucket distribution (Prometheus semantics).

    Per label set it tracks the observation count per upper bound, the
    total sum and the total count; the exposition layer renders the
    standard ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Iterable[str] = (),
                 buckets: Iterable[float] | None = None):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets or DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds
        #: label key -> [per-bucket counts..., +Inf count, sum].
        self._dists: dict[tuple, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        dist = self._dists.get(key)
        if dist is None:
            dist = [0.0] * (len(self.buckets) + 2)
            self._dists[key] = dist
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                dist[index] += 1.0
        dist[-2] += 1.0  # +Inf (== total count)
        dist[-1] += value
        self._values[key] = dist[-2]  # count doubles as the "value"

    def distributions(self) -> list[tuple[dict, list[float], float, float]]:
        """(labels, cumulative bucket counts, sum, count) per label set."""
        out = []
        for key, dist in sorted(self._dists.items()):
            labels = dict(zip(self.labelnames, key))
            out.append((labels, dist[:-1], dist[-1], dist[-2]))
        return out

    def count(self, **labels) -> float:
        """Total observations of one label combination."""
        return self._values.get(self._key(labels), 0.0)

    def sum(self, **labels) -> float:
        dist = self._dists.get(self._key(labels))
        return dist[-1] if dist else 0.0


class NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry.

    Implements the union of every instrument's mutators as empty
    methods, so instrumented call sites never branch on enablement.
    """

    kind = "null"
    name = ""
    labelnames: tuple = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def set_total(self, total: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def samples(self) -> list[Sample]:
        return []


#: The one shared no-op instrument (stateless, so one is enough).
NULL_INSTRUMENT = NullInstrument()


class TelemetryRegistry:
    """One process-local table of named instruments.

    ``enabled=False`` turns every factory into a source of
    :data:`NULL_INSTRUMENT` and :meth:`collect` into a constant --
    the whole subsystem reduces to empty method calls.

    Factories are idempotent: asking for an existing name returns the
    registered instrument (kind and labels must match), so independent
    layers can instrument the same family without coordination.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}  # guarded-by: _lock
        self._collectors: list[Callable[[], None]] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    # -- instrument factories -------------------------------------------

    def _get_or_make(self, cls: type, name: str, help: str,
                     labelnames: Iterable[str], **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"{name!r} is already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"{name!r} is already registered with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()):
        return self._get_or_make(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()):
        return self._get_or_make(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] | None = None):
        return self._get_or_make(Histogram, name, help, labelnames,
                                 buckets=buckets)

    # -- collectors ------------------------------------------------------

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a scrape-time sampler.

        ``fn`` is invoked (in registration order) at the start of every
        :meth:`collect`, typically to copy an existing stats struct
        into gauges/counters -- the zero-hot-path-cost instrumentation
        pattern.  No-op on a disabled registry.
        """
        if self.enabled:
            with self._lock:
                self._collectors.append(fn)

    # -- read-out --------------------------------------------------------

    def collect(self) -> list[Instrument]:
        """Run collectors, then return every instrument (sorted)."""
        if not self.enabled:
            return []
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn()
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def get(self, name: str) -> Instrument | None:
        """A registered instrument by name (None when absent)."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self.collect())

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)
