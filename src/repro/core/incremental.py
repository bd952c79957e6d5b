"""Incremental reuse helpers (the paper's §9 future work).

"An interesting research challenge for the future would be to integrate
Sieve into the continuous integration pipeline of an application
development.  In this scenario, the dependency graph can be updated
incrementally, which would speed up the analytics part."

:class:`~repro.streaming.analyzer.WindowAnalyzer` is that incremental
update: per window it re-clusters only the components that moved and
re-tests only the Granger comparisons touching them.  The batch
:class:`~repro.core.sieve.Sieve` is the same analyzer run once, over a
single window holding the whole recorded run.  This module holds the
three pure helpers behind the reuse decision:

* :func:`changed_metric_components` -- components whose exported metric
  set differs from what the previous clusterings cover (metrics that
  appeared or disappeared: the typical footprint of a deployed update);
* :func:`restricted_call_graph` -- the call-graph edges with at least
  one changed end, the only ones worth re-testing;
* :func:`merge_dependency_graphs` -- fresh relations overlaid on the
  reusable part of the previous graph.
"""

from __future__ import annotations

from repro.causality.depgraph import DependencyGraph
from repro.tracing.callgraph import CallGraph


def changed_metric_components(clusterings: dict, frame) -> list[str]:
    """Components of ``frame`` whose metric set differs from what the
    given clusterings cover."""
    changed = []
    for component in frame.components:
        clustering = clusterings.get(component)
        if clustering is None:
            changed.append(component)
            continue
        seen_before = {
            metric
            for cluster in clustering.clusters
            for metric in cluster.metrics
        } | set(clustering.filtered_metrics)
        if set(frame.metrics_of(component)) != seen_before:
            changed.append(component)
    return changed


def restricted_call_graph(call_graph: CallGraph,
                          components: set[str]) -> CallGraph:
    """Only the call-graph edges touching ``components``."""
    out = CallGraph()
    for node in call_graph.components:
        out.add_component(node)
    for caller, callee, count in call_graph.edges():
        if caller in components or callee in components:
            out.record_call(caller, callee, count)
    return out


def merge_dependency_graphs(
    previous: DependencyGraph,
    fresh: DependencyGraph,
    changed: set[str],
    components,
) -> tuple[DependencyGraph, int]:
    """Overlay ``fresh`` relations onto the reusable part of ``previous``.

    Relations of ``previous`` touching a ``changed`` component are
    superseded by the fresh extraction, and relations whose endpoints
    are no longer among ``components`` (a component left the topology)
    are dropped rather than carried forward.  Returns the merged graph
    and the number of reused relations.
    """
    merged = DependencyGraph(components=components)
    current = set(components)
    edges_reused = 0
    for relation in previous.relations:
        if relation.source_component in changed \
                or relation.target_component in changed:
            continue
        if relation.source_component not in current \
                or relation.target_component not in current:
            continue
        merged.add_relation(relation)
        edges_reused += 1
    for relation in fresh.relations:
        merged.add_relation(relation)
    return merged, edges_reused
