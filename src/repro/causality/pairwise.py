"""Call-graph-restricted pairwise dependency extraction.

The naive approach -- compare every component against every other using
every metric -- scales quadratically twice over.  Sieve restricts the
comparison (paper Section 3.3) to:

* component pairs that *communicate* (edges of the Step-#1 call graph);
* the *representative metrics* of each component (Step #2).

For each call-graph edge (A -> B), every representative of A is tested
against every representative of B in both directions.  When both
directions are significant for the same metric pair, the relation is a
symptom of a hidden common cause and is filtered out ("an indicator of
such a situation is that both metrics will Granger-cause each other",
Section 3.3).
"""

from __future__ import annotations

import numpy as np

from repro.causality.depgraph import DependencyGraph, MetricRelation
from repro.causality.granger import (
    DEFAULT_ALPHA,
    DEFAULT_LAGS,
    granger_test,
    make_stationary,
)
from repro.clustering.reduction import ComponentClustering
from repro.metrics.timeseries import MetricFrame
from repro.stats.interpolate import DEFAULT_GRID_INTERVAL, align_series
from repro.tracing.callgraph import CallGraph


def _representative_series(
    frame: MetricFrame,
    clusterings: dict[str, ComponentClustering],
    interval: float,
) -> dict[tuple[str, str], np.ndarray]:
    """Aligned, stationarity-normalized series of every representative.

    All representatives are aligned onto one common grid so any pair
    can be compared; stationarity transforms are cached per metric
    (the ADF test is the expensive part of the Granger procedure).
    """
    raw: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    keys: dict[str, tuple[str, str]] = {}
    for component, clustering in clusterings.items():
        for metric in clustering.representatives:
            ts = frame.series(component, metric)
            if len(ts) < 8:
                continue
            flat_name = f"{component}\x00{metric}"
            raw[flat_name] = (ts.times, ts.values)
            keys[flat_name] = (component, metric)
    if not raw:
        return {}
    _grid, aligned = align_series(raw, interval=interval)

    out: dict[tuple[str, str], np.ndarray] = {}
    for flat_name, values in aligned.items():
        stationary, _diff = make_stationary(values)
        # Equalize lengths: differencing shortens by one.
        out[keys[flat_name]] = stationary
    min_len = min(v.size for v in out.values())
    return {key: v[v.size - min_len:] for key, v in out.items()}


def extract_dependencies(
    frame: MetricFrame,
    call_graph: CallGraph,
    clusterings: dict[str, ComponentClustering],
    alpha: float = DEFAULT_ALPHA,
    lags=DEFAULT_LAGS,
    interval: float = DEFAULT_GRID_INTERVAL,
    filter_bidirectional: bool = True,
) -> DependencyGraph:
    """Sieve Step #3: build the dependency graph.

    Only call-graph neighbours are compared.  Set
    ``filter_bidirectional=False`` to keep mutually-causal metric pairs
    (the ablation benchmark measures how many spurious relations this
    admits).
    """
    graph = DependencyGraph(components=clusterings.keys())
    pairs = [
        (caller, callee)
        for caller, callee in call_graph.communicating_pairs()
        if caller in clusterings and callee in clusterings
    ]
    if not pairs:
        # A fully reused streaming window: no alignment, no ADF pass.
        return graph
    # All representatives, however few pairs remain: the common-length
    # trim makes every tested input depend on every one of them.
    series = _representative_series(frame, clusterings, interval)

    for caller, callee in pairs:
        for m_caller in clusterings[caller].representatives:
            key_a = (caller, m_caller)
            if key_a not in series:
                continue
            for m_callee in clusterings[callee].representatives:
                key_b = (callee, m_callee)
                if key_b not in series:
                    continue
                forward = granger_test(series[key_a], series[key_b],
                                       lags=lags, pre_differenced=True)
                backward = granger_test(series[key_b], series[key_a],
                                        lags=lags, pre_differenced=True)
                fwd = forward.is_causal(alpha)
                bwd = backward.is_causal(alpha)
                if filter_bidirectional and fwd and bwd:
                    continue  # hidden-common-cause symptom
                if fwd:
                    graph.add_relation(MetricRelation(
                        source_component=caller, source_metric=m_caller,
                        target_component=callee, target_metric=m_callee,
                        lag=forward.lag, p_value=forward.p_value,
                        f_statistic=forward.f_statistic,
                    ))
                if bwd:
                    graph.add_relation(MetricRelation(
                        source_component=callee, source_metric=m_callee,
                        target_component=caller, target_metric=m_caller,
                        lag=backward.lag, p_value=backward.p_value,
                        f_statistic=backward.f_statistic,
                    ))
    return graph


def naive_pair_count(n_components: int, metrics_per_component: int) -> int:
    """Search space of the naive all-pairs/all-metrics comparison.

    Used by the ablation benchmark to report the reduction factor the
    call-graph restriction and metric reduction buy.
    """
    if n_components < 0 or metrics_per_component < 0:
        raise ValueError("counts must be non-negative")
    pairs = n_components * (n_components - 1)
    return pairs * metrics_per_component * metrics_per_component
