"""Behaviour-drift detection against frozen cluster baselines.

Reuse keyed on the metric set alone has a blind spot: components whose
*metric set* is unchanged keep their clusters and representatives, so a
slow behavioural drift is invisible until the next full analysis.  This
module closes that gap for the windowed analyzer.

Whenever a component is (re)clustered, the detector *rebases*: it
freezes, per clustered metric, the location/spread of the raw samples
the clustering saw, and keeps the cluster centroids as the reference
shapes.  Each subsequent window is then scored against that baseline on
two axes:

* **location/spread shift** -- how many baseline standard deviations
  the fresh window's mean (or spread) moved.  This catches level
  shifts, the dominant footprint of degradations and load-pattern
  changes, and is immune to the noise-decorrelation problem below.
* **shape distance** -- SBD between the fresh window of each cluster
  *representative* and the frozen centroid
  (:meth:`repro.clustering.reduction.Cluster.distance_to`).  Raw SBD
  between two windows of a *noise-like* stationary metric is high even
  without drift (independent noise decorrelates), so the term is
  weighted by the centroid's lag-1 autocorrelation: only clusters whose
  baseline shape is coherent (trends, periodicities) can flag shape
  drift.

A component drifts when any of its metrics crosses either threshold.
The windowed analyzer then escalates *only those components* to a full
re-cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.reduction import ComponentClustering
from repro.metrics.timeseries import MetricFrame, TimeSeries

#: Fresh windows with fewer samples than this are not scored.
DEFAULT_MIN_SAMPLES = 8


@dataclass(frozen=True)
class MetricBaseline:
    """Frozen sample statistics of one metric at rebase time.

    Cumulative counters (monotone non-decreasing exports such as
    ``net_in_bytes_total``) grow without bound, so their raw mean
    "drifts" even under perfectly stationary load.  They are detected
    at rebase time and scored on *first differences* -- the per-scrape
    rate, which is stationary when the load is -- exactly the
    ``rate()`` transform every monitoring rule engine applies.
    """

    mean: float
    std: float
    n: int
    counter: bool = False

    @property
    def scale(self) -> float:
        """Denominator for standardized shifts.

        Floored at 5% of the baseline mean magnitude and an absolute
        epsilon, so near-constant (or all-zero) baselines do not turn
        measurement noise into huge z-scores.
        """
        return max(self.std, 0.05 * abs(self.mean), 1e-2)


@dataclass
class DriftReading:
    """Drift evidence for one metric in one window."""

    component: str
    metric: str
    location_shift: float
    """|fresh mean - baseline mean| in baseline scales."""

    spread_shift: float
    """|fresh std - baseline std| in baseline scales."""

    shape_distance: float = 0.0
    """Coherence-weighted SBD to the cluster centroid (representatives
    only; 0.0 for other members)."""

    @property
    def stat_score(self) -> float:
        return max(self.location_shift, self.spread_shift)


@dataclass
class _ComponentBaseline:
    clustering: ComponentClustering
    metrics: dict[str, MetricBaseline] = field(default_factory=dict)
    coherence: dict[int, float] = field(default_factory=dict)
    """Per-cluster-index lag-1 autocorrelation of the centroid."""


def _is_counter(values: np.ndarray) -> bool:
    """Monotone non-decreasing with net growth -> cumulative counter."""
    if values.size < 3:
        return False
    diffs = np.diff(values)
    span = float(values[-1] - values[0])
    if span <= 0.0:
        return False
    tolerance = 1e-9 * max(abs(float(values[-1])), 1.0)
    return bool(np.all(diffs >= -tolerance))


def _drift_samples(values: np.ndarray, counter: bool) -> np.ndarray:
    """The sample stream drift statistics are computed over."""
    return np.diff(values) if counter else values


def _lag1_autocorr(values: np.ndarray) -> float:
    """Lag-1 autocorrelation, clipped to [0, 1] (noise gate)."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return 0.0
    centered = v - v.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 1e-12:
        return 0.0
    return float(np.clip(np.dot(centered[1:], centered[:-1]) / denom,
                         0.0, 1.0))


def score_baseline(component: str, baseline: _ComponentBaseline,
                   view: dict[str, TimeSeries],
                   min_samples: int = DEFAULT_MIN_SAMPLES,
                   ) -> list[DriftReading]:
    """Score one fresh component window against a frozen baseline.

    Module-level and pure -- a deterministic function of the frozen
    baseline and the fresh samples -- so shard executors can run the
    per-component shape checks on worker processes and merge readings
    identically to an inline pass.
    """
    readings: list[DriftReading] = []
    representatives = {
        cluster.representative: cluster
        for cluster in baseline.clustering.clusters
    }
    for metric, frozen in baseline.metrics.items():
        ts = view.get(metric)
        if ts is None or len(ts) < min_samples:
            continue
        # Read-only view: scoring derives fresh arrays (diff, mean,
        # std, z-normalized copies) and never mutates the samples, so
        # the property copy would be pure overhead.
        values = ts.values_view
        samples = _drift_samples(values, frozen.counter)
        scale = frozen.scale
        reading = DriftReading(
            component=component,
            metric=metric,
            location_shift=abs(float(samples.mean()) - frozen.mean)
            / scale,
            spread_shift=abs(float(samples.std()) - frozen.std) / scale,
        )
        cluster = representatives.get(metric)
        if cluster is not None and values.size >= min_samples:
            coherence = baseline.coherence.get(cluster.index, 0.0)
            if coherence > 0.0:
                reading.shape_distance = \
                    coherence * cluster.distance_to(values)
        readings.append(reading)
    return readings


#: A shard-executor payload: one component's drift-scoring input.
ScorePayload = tuple[str, _ComponentBaseline, dict[str, TimeSeries], int]


def score_baseline_task(
        payload: ScorePayload) -> tuple[str, list[DriftReading]]:
    """Shard-executor task wrapper around :func:`score_baseline`."""
    component, baseline, view, min_samples = payload
    return component, score_baseline(component, baseline, view,
                                     min_samples)


class DriftDetector:
    """Scores fresh windows against frozen clustering baselines."""

    def __init__(self, threshold: float = 6.0,
                 shape_threshold: float = 0.75,
                 min_samples: int = DEFAULT_MIN_SAMPLES):
        if threshold <= 0 or shape_threshold <= 0:
            raise ValueError("drift thresholds must be positive")
        self.threshold = threshold
        self.shape_threshold = shape_threshold
        self.min_samples = min_samples
        self._baselines: dict[str, _ComponentBaseline] = {}

    # -- baseline management -------------------------------------------

    def rebase(self, component: str, clustering: ComponentClustering,
               view: dict[str, TimeSeries]) -> None:
        """Freeze the baseline of a freshly (re)clustered component.

        Every exported metric is baselined, *including* the ones the
        variance pre-filter dropped from clustering: a flat-lined
        metric that starts moving is drift evidence the clusters
        themselves cannot carry.
        """
        baseline = _ComponentBaseline(clustering=clustering)
        for metric, ts in view.items():
            if len(ts) < 3:
                continue
            values = ts.values_view
            counter = _is_counter(values)
            samples = _drift_samples(values, counter)
            baseline.metrics[metric] = MetricBaseline(
                mean=float(samples.mean()), std=float(samples.std()),
                n=int(samples.size), counter=counter,
            )
        for cluster in clustering.clusters:
            baseline.coherence[cluster.index] = \
                _lag1_autocorr(cluster.centroid)
        self._baselines[component] = baseline

    def forget(self, component: str) -> None:
        """Drop a component's baseline (it left the topology)."""
        self._baselines.pop(component, None)

    def has_baseline(self, component: str) -> bool:
        return component in self._baselines

    # -- checkpoint support --------------------------------------------

    def baseline_items(self):
        """Frozen baseline per component, for checkpointing.

        Yields ``(component, baseline)`` pairs in component order;
        :mod:`repro.persistence.checkpoint` turns them into JSON and
        :meth:`set_baseline` restores them exactly.  A baseline is
        never mutated once installed -- :meth:`rebase` and
        :meth:`set_baseline` replace it whole -- so the checkpoint
        may cache its encoding by object identity.
        """
        for component in sorted(self._baselines):
            yield component, self._baselines[component]

    def set_baseline(self, component: str,
                     clustering: ComponentClustering,
                     metrics: dict[str, MetricBaseline],
                     coherence: dict[int, float]) -> None:
        """Install a previously frozen baseline (checkpoint restore)."""
        self._baselines[component] = _ComponentBaseline(
            clustering=clustering,
            metrics=dict(metrics),
            coherence=dict(coherence),
        )

    # -- scoring -------------------------------------------------------

    def score_component(self, component: str,
                        view: dict[str, TimeSeries]) -> list[DriftReading]:
        """Drift readings of one component's fresh window."""
        baseline = self._baselines.get(component)
        if baseline is None:
            return []
        return score_baseline(component, baseline, view,
                              self.min_samples)

    def is_drifted(self, readings: list[DriftReading]) -> bool:
        """Whether any reading crosses a configured threshold."""
        return any(
            r.stat_score > self.threshold
            or r.shape_distance > self.shape_threshold
            for r in readings
        )

    def drifted_components(
        self, frame: MetricFrame, executor=None,
    ) -> tuple[list[str], dict[str, list[DriftReading]]]:
        """Score every baselined component present in ``frame``.

        Returns the drifted component names plus all readings (for
        observability -- quiet components report their scores too).
        ``executor`` (a shard executor with an order-preserving
        ``map``) fans the per-component scoring out to workers;
        components are scored independently, so the merged result is
        identical to the inline pass.
        """
        payloads: list[ScorePayload] = [
            (component, self._baselines[component],
             frame.component_view(component), self.min_samples)
            for component in frame.components
            if component in self._baselines
        ]
        if executor is None:
            scored = [score_baseline_task(payload)
                      for payload in payloads]
        else:
            scored = executor.map(score_baseline_task, payloads)
        drifted: list[str] = []
        all_readings: dict[str, list[DriftReading]] = {}
        for component, readings in scored:
            all_readings[component] = readings
            if self.is_drifted(readings):
                drifted.append(component)
        return drifted, all_readings
