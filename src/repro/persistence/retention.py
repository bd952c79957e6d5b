"""Tiered retention schedules and rollup aggregation.

Long retentions at full resolution are disk-bound; real TSDBs
(Graphite, M3, VictoriaMetrics) keep a recent horizon at full
resolution and progressively coarser *rollups* beyond it.  This module
supplies the policy half of that design:

* :class:`RetentionSchedule` parses Graphite/M3-style schedule strings
  (``"1000s:full,4000s:1m,inf:10m"``: full resolution for the newest
  1000 s, one-minute rollups to 4000 s, ten-minute rollups forever)
  and turns them into aligned migration cutoffs;
* :func:`rollup_arrays` aggregates samples -- or already-rolled
  buckets -- into (mean, min, max, count) per bucket;
* :class:`RollupSeries` is what aggregate-aware queries return.

The mechanism half lives in the durable store
(:meth:`~repro.persistence.sqlite_backend.SqliteBackend.trim`), which
applies a schedule when migrating points across tier horizons.

Two invariants make tier migration exact and idempotent:

* **Bucket alignment.**  Buckets are absolutely aligned
  (``floor(t / resolution) * resolution``; the bucket's timestamp is
  its start), and every migration cutoff is aligned *down* to the
  target tier's grid -- a bucket is either wholly migrated or wholly
  untouched, never split.
* **Nesting resolutions.**  Each tier's resolution must be an integer
  multiple of the previous tier's, so re-rolling existing buckets into
  a coarser tier (count-weighted mean, min of mins, max of maxes, sum
  of counts) recomputes exactly what a direct rollup of the raw
  samples would have produced.

Because backend writes are append-only (the out-of-order guard), every
bucket below a cutoff is sealed -- no new sample can ever land in it --
so running a migration twice rolls nothing twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.timeseries import MetricKey

#: Sentinel resolution meaning "full resolution" (raw samples).
FULL = 0.0

_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(text: str) -> float:
    """``"90s"``/``"1m"``/``"2h"``/``"1d"``/``"inf"`` -> seconds.

    A bare number is seconds.  Raises :class:`ValueError` on anything
    else (including negative or zero durations).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty duration")
    if text == "inf":
        return float("inf")
    unit = 1.0
    body = text
    if text[-1] in _UNITS:
        unit = _UNITS[text[-1]]
        body = text[:-1]
    try:
        seconds = float(body) * unit
    except ValueError:
        raise ValueError(f"invalid duration {text!r}") from None
    if not seconds > 0 or math.isnan(seconds):
        raise ValueError(f"duration must be positive, got {text!r}")
    return seconds


def format_duration(seconds: float) -> str:
    """Inverse of :func:`parse_duration`: the largest unit that
    divides ``seconds`` evenly (``90.0 -> "90s"``, ``600.0 -> "10m"``,
    ``inf -> "inf"``)."""
    if math.isinf(seconds):
        return "inf"
    for suffix in ("d", "h", "m"):
        unit = _UNITS[suffix]
        if seconds >= unit and seconds % unit == 0:
            return f"{seconds / unit:g}{suffix}"
    return f"{seconds:g}s"


@dataclass(frozen=True)
class Tier:
    """One retention tier: keep data newer than ``horizon`` (seconds
    of age) at ``resolution`` (seconds per bucket; :data:`FULL` = raw
    samples)."""

    horizon: float
    resolution: float = FULL

    def format(self) -> str:
        res = "full" if self.resolution == FULL \
            else format_duration(self.resolution)
        return f"{format_duration(self.horizon)}:{res}"


@dataclass(frozen=True)
class RetentionSchedule:
    """An ordered ladder of retention tiers.

    The first tier is always full resolution (its horizon is the
    *full-resolution horizon* every consumer of raw samples -- ring
    replay, journal retirement, bit-identical resume -- must respect).
    Later tiers carry strictly increasing horizons and strictly
    increasing, mutually nesting rollup resolutions; ``inf`` as the
    last horizon keeps that tier forever, a finite one drops data
    beyond it.
    """

    tiers: tuple[Tier, ...] = field(default=())

    def __post_init__(self) -> None:
        tiers = tuple(self.tiers)
        object.__setattr__(self, "tiers", tiers)
        if not tiers:
            raise ValueError("schedule needs at least one tier")
        if tiers[0].resolution != FULL:
            raise ValueError(
                "the first tier must be full resolution "
                "(e.g. '1000s:full'); a schedule that keeps no raw "
                "samples cannot serve the hot horizon"
            )
        for index, tier in enumerate(tiers):
            if not tier.horizon > 0:
                raise ValueError(
                    f"tier {tier.format()!r}: horizon must be positive"
                )
            if math.isinf(tier.horizon) and index != len(tiers) - 1:
                raise ValueError(
                    "'inf' is only valid as the last tier's horizon"
                )
            if index == 0:
                continue
            previous = tiers[index - 1]
            if tier.resolution == FULL:
                raise ValueError(
                    f"tier {tier.format()!r}: only the first tier may "
                    "be full resolution"
                )
            if math.isinf(tier.resolution):
                raise ValueError(
                    f"tier {tier.format()!r}: resolution must be finite"
                )
            if tier.horizon <= previous.horizon:
                raise ValueError(
                    f"tier horizons must be strictly increasing "
                    f"({tier.format()!r} does not extend "
                    f"{previous.format()!r})"
                )
            if tier.resolution <= previous.resolution:
                raise ValueError(
                    f"tier resolutions must be strictly increasing "
                    f"({tier.format()!r} does not coarsen "
                    f"{previous.format()!r})"
                )
            if previous.resolution != FULL \
                    and tier.resolution % previous.resolution != 0:
                raise ValueError(
                    f"tier resolution {format_duration(tier.resolution)} "
                    f"must be an integer multiple of "
                    f"{format_duration(previous.resolution)} so rollups "
                    "re-roll exactly"
                )
            if not math.isinf(tier.horizon) \
                    and tier.horizon - previous.horizon < tier.resolution:
                raise ValueError(
                    f"tier {tier.format()!r} spans less than one of its "
                    "own buckets"
                )

    @classmethod
    def parse(cls, text: str) -> "RetentionSchedule":
        """Parse ``"1000s:full,4000s:1m,inf:10m"``."""
        parts = [part.strip() for part in str(text).split(",")]
        tiers = []
        for part in parts:
            if not part:
                raise ValueError(
                    f"empty tier in schedule {text!r}"
                )
            if ":" not in part:
                raise ValueError(
                    f"tier {part!r} must be 'horizon:resolution' "
                    "(e.g. '1000s:full' or 'inf:10m')"
                )
            horizon_text, _, res_text = part.partition(":")
            horizon = parse_duration(horizon_text)
            resolution = FULL if res_text.strip() == "full" \
                else parse_duration(res_text)
            tiers.append(Tier(horizon, resolution))
        return cls(tuple(tiers))

    def format(self) -> str:
        """The canonical schedule string (round-trips through
        :meth:`parse`)."""
        return ",".join(tier.format() for tier in self.tiers)

    @property
    def full_horizon(self) -> float:
        """Seconds of age the schedule keeps at full resolution.

        Everything that needs raw samples -- ring replay after resume,
        write-ahead journal retirement -- must anchor on this, never
        on a coarser tier's horizon.
        """
        return self.tiers[0].horizon

    @property
    def final_horizon(self) -> float:
        """The oldest age retained at all (``inf`` = keep forever)."""
        return self.tiers[-1].horizon

    def cutoffs(self, newest: float) -> list[tuple[float, float]]:
        """Aligned migration cutoffs for a series whose newest sample
        is at ``newest``, finest tier first.

        Returns ``[(cutoff, resolution), ...]`` for every rollup tier:
        samples older than ``cutoff`` must be stored at least that
        coarsely.  Each cutoff is aligned down to its tier's bucket
        grid (buckets are never split) and the chain is monotone
        non-increasing, so tier regions nest cleanly.
        """
        out: list[tuple[float, float]] = []
        bound = float("inf")
        for index in range(1, len(self.tiers)):
            res = self.tiers[index].resolution
            raw = newest - self.tiers[index - 1].horizon
            cutoff = math.floor(min(raw, bound) / res) * res
            out.append((cutoff, res))
            bound = cutoff
        return out

    def drop_cutoff(self, newest: float) -> float | None:
        """Samples older than this are dropped outright (None = the
        last tier keeps forever).  Aligned to the last tier's grid so
        only whole buckets disappear."""
        last = self.tiers[-1]
        if math.isinf(last.horizon):
            return None
        raw = newest - last.horizon
        if last.resolution == FULL:
            return raw
        cut = math.floor(raw / last.resolution) * last.resolution
        cuts = self.cutoffs(newest)
        return min(cut, cuts[-1][0]) if cuts else cut


@dataclass(frozen=True)
class RollupSeries:
    """Aggregate-aware query result: one row per stored bucket (raw
    samples appear as single-sample buckets with ``count == 1`` and
    ``min == mean == max``).  ``times`` are bucket starts."""

    key: MetricKey
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    means: np.ndarray = field(default_factory=lambda: np.empty(0))
    mins: np.ndarray = field(default_factory=lambda: np.empty(0))
    maxs: np.ndarray = field(default_factory=lambda: np.empty(0))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return int(self.times.size)

    def total_samples(self) -> int:
        """Raw samples represented by this series (``sum(counts)``)."""
        return int(self.counts.sum())


def rollup_arrays(
    times: np.ndarray,
    means: np.ndarray,
    mins: np.ndarray | None = None,
    maxs: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    *,
    resolution: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate time-sorted rows into ``resolution``-wide buckets.

    Rows are raw samples when ``mins``/``maxs``/``counts`` are omitted,
    or already-rolled buckets (count-weighted re-roll) when given.
    Returns ``(times, means, mins, maxs, counts)`` with one row per
    non-empty bucket; bucket timestamps are the aligned bucket starts.
    Re-bucketing rows already on the target grid is the identity.
    """
    if not resolution > 0:
        raise ValueError("rollup resolution must be positive")
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(means, dtype=float).reshape(-1)
    if not t.size:
        empty = np.empty(0)
        return empty, empty.copy(), empty.copy(), empty.copy(), \
            empty.copy()
    lo = np.asarray(mins, dtype=float).reshape(-1) \
        if mins is not None else v
    hi = np.asarray(maxs, dtype=float).reshape(-1) \
        if maxs is not None else v
    n = np.asarray(counts, dtype=float).reshape(-1) \
        if counts is not None else np.ones(t.size)
    if not (t.size == v.size == lo.size == hi.size == n.size):
        raise ValueError("rollup arrays must have equal length")
    buckets = np.floor(t / resolution) * resolution
    starts = np.flatnonzero(np.r_[True, np.diff(buckets) != 0])
    bucket_n = np.add.reduceat(n, starts)
    bucket_mean = np.add.reduceat(v * n, starts) / bucket_n
    # A bucket fed by exactly one source row keeps its mean verbatim:
    # ``(v * n) / n`` can wobble an ulp for odd counts, and identity
    # re-bucketing must be bit-exact for compaction to be idempotent.
    single = np.diff(np.r_[starts, t.size]) == 1
    bucket_mean[single] = v[starts[single]]
    return (
        buckets[starts],
        bucket_mean,
        np.minimum.reduceat(lo, starts),
        np.maximum.reduceat(hi, starts),
        bucket_n,
    )
