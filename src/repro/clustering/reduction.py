"""End-to-end per-component metric reduction (Sieve Step #2).

For one component this runs the full Section 3.2 pipeline:

1. drop unvarying metrics (variance <= 0.002);
2. interpolate gaps (cubic spline) and resample every series onto the
   common 500 ms grid;
3. z-normalize;
4. sweep k with name-seeded k-Shape, keep the best silhouette;
5. elect a representative per cluster -- the member with the smallest
   SBD to the cluster centroid.

The output :class:`ComponentClustering` carries the cluster metadata
(memberships, representatives, per-cluster distances) that both case
studies consume: autoscaling reads the representatives; RCA compares
memberships across application versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.model_selection import DEFAULT_MAX_K, select_k
from repro.metrics.timeseries import TimeSeries
from repro.stats.correlation import sbd, sbd_pairs
from repro.stats.interpolate import DEFAULT_GRID_INTERVAL, align_series
from repro.stats.timeseries_ops import (
    DEFAULT_VARIANCE_THRESHOLD,
    znormalize,
)


@dataclass
class Cluster:
    """One cluster of similarly-behaving metrics of a component."""

    index: int
    metrics: list[str]
    representative: str
    centroid: np.ndarray = field(repr=False)
    distances: dict[str, float] = field(default_factory=dict, repr=False)
    """SBD of every member to the centroid."""

    def __len__(self) -> int:
        return len(self.metrics)

    def metric_set(self) -> frozenset[str]:
        """Members as a frozen set (RCA similarity computations)."""
        return frozenset(self.metrics)

    def distance_to(self, values: np.ndarray) -> float:
        """Shape distance (SBD) of a fresh sample window to the centroid.

        ``values`` is a raw sample window of any member metric; it is
        z-normalized here.  Unequal lengths are reconciled by linear
        resampling onto the longer index grid, so windows of different
        spans remain comparable.  The streaming drift detector uses
        this to ask "does this cluster's shape still describe fresh
        data?" (values near 0: same shape; near 1: unrelated).
        """
        fresh = znormalize(np.asarray(values, dtype=float))
        centroid = np.asarray(self.centroid, dtype=float)
        if fresh.size < 2 or centroid.size < 2:
            return 0.0
        if fresh.size != centroid.size:
            target = max(fresh.size, centroid.size)
            grid = np.linspace(0.0, 1.0, target)
            if fresh.size < target:
                fresh = np.interp(grid,
                                  np.linspace(0.0, 1.0, fresh.size), fresh)
            else:
                centroid = np.interp(
                    grid, np.linspace(0.0, 1.0, centroid.size), centroid)
        return sbd(fresh, centroid)


@dataclass
class ComponentClustering:
    """Result of reducing one component's metrics."""

    component: str
    clusters: list[Cluster]
    silhouette: float
    k_scores: dict[int, float]
    filtered_metrics: list[str]
    """Metrics dropped by the variance filter."""

    total_metrics: int
    """Metrics before any reduction."""

    @property
    def representatives(self) -> list[str]:
        """The representative metric of each cluster."""
        return [cluster.representative for cluster in self.clusters]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> dict[str, int]:
        """metric name -> cluster index (clustered metrics only)."""
        return {
            metric: cluster.index
            for cluster in self.clusters
            for metric in cluster.metrics
        }

    def cluster_of(self, metric: str) -> Cluster | None:
        """The cluster containing ``metric`` (None if filtered/unknown)."""
        for cluster in self.clusters:
            if metric in cluster.metrics:
                return cluster
        return None


def _prepare_series(
    view: dict[str, TimeSeries],
    interval: float,
    variance_threshold: float,
) -> tuple[list[str], np.ndarray, list[str]]:
    """Filter, align and z-normalize a component's metric series."""
    kept: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    filtered: list[str] = []
    for name, ts in sorted(view.items()):
        if len(ts) < 4 or ts.is_unvarying(variance_threshold):
            filtered.append(name)
            continue
        # Read-only views: alignment and z-normalization allocate
        # their own outputs, so the copies the ``times``/``values``
        # properties make would be pure overhead.
        kept[name] = (ts.times_view, ts.values_view)
    if not kept:
        return [], np.empty((0, 0)), filtered

    _grid, aligned = align_series(kept, interval=interval)
    names = sorted(aligned)
    matrix = np.vstack([znormalize(aligned[name]) for name in names])

    # Alignment can flatten a boundary-dominated series; re-filter.
    flat = matrix.std(axis=1) <= 1e-9
    if flat.any():
        filtered.extend(np.asarray(names, dtype=object)[flat].tolist())
        names = [n for n, f in zip(names, flat) if not f]
        matrix = matrix[~flat]
    return names, matrix, filtered


def reduce_component(
    component: str,
    view: dict[str, TimeSeries],
    interval: float = DEFAULT_GRID_INTERVAL,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    max_k: int = DEFAULT_MAX_K,
    seed: int = 0,
) -> ComponentClustering:
    """Run the Step #2 pipeline for one component."""
    total = len(view)
    names, matrix, filtered = _prepare_series(
        view, interval, variance_threshold
    )

    if len(names) == 0:
        return ComponentClustering(
            component=component, clusters=[], silhouette=0.0, k_scores={},
            filtered_metrics=filtered, total_metrics=total,
        )
    if len(names) == 1:
        only = Cluster(index=0, metrics=list(names), representative=names[0],
                       centroid=matrix[0], distances={names[0]: 0.0})
        return ComponentClustering(
            component=component, clusters=[only], silhouette=0.0,
            k_scores={1: 0.0}, filtered_metrics=filtered,
            total_metrics=total,
        )

    selection = select_k(matrix, names=names, max_k=max_k, seed=seed)
    result = selection.result

    clusters: list[Cluster] = []
    for cluster_idx in sorted(np.unique(result.labels)):
        member_idx = np.flatnonzero(result.labels == cluster_idx)
        members = [names[i] for i in member_idx]
        centroid = result.centroids[cluster_idx]
        if not centroid.any():  # k == 1 fast path never ran refinement
            centroid = matrix[member_idx].mean(axis=0)
        member_dists, _ = sbd_pairs(matrix[member_idx],
                                    centroid[None, :])
        distances = {
            names[i]: float(member_dists[pos, 0])
            for pos, i in enumerate(member_idx)
        }
        representative = min(distances, key=distances.get)
        clusters.append(Cluster(
            index=int(cluster_idx),
            metrics=members,
            representative=representative,
            centroid=centroid,
            distances=distances,
        ))

    return ComponentClustering(
        component=component,
        clusters=clusters,
        silhouette=selection.silhouette,
        k_scores=selection.scores,
        filtered_metrics=filtered,
        total_metrics=total,
    )


#: A shard-executor payload: one component's full reduction input.
ReducePayload = tuple[str, dict[str, TimeSeries], float, float, int, int]


def reduce_payload(
    component: str,
    view: dict[str, TimeSeries],
    interval: float = DEFAULT_GRID_INTERVAL,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    max_k: int = DEFAULT_MAX_K,
    seed: int = 0,
) -> ReducePayload:
    """Package one component's reduction as a picklable task payload."""
    return (component, view, interval, variance_threshold, max_k, seed)


def reduce_component_task(
    payload: ReducePayload,
) -> tuple[str, ComponentClustering]:
    """Shard-executor task: run Step #2 for one payload.

    Module-level and pure (the clustering is a deterministic function
    of the payload, seeded per component name), so process pools can
    pickle it and parallel results merge identically to serial runs.
    """
    component, view, interval, variance_threshold, max_k, seed = payload
    return component, reduce_component(
        component,
        view,
        interval=interval,
        variance_threshold=variance_threshold,
        max_k=max_k,
        seed=seed,
    )

