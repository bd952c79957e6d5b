"""The dependency graph Sieve extracts (paper Sections 3.3, 4).

Vertices are components.  A *metric relation* records that one metric
of one component Granger-causes a metric of a neighbouring component,
with its lag and significance; component-level edges aggregate the
relations between a component pair.  Both case studies consume this
object: autoscaling picks "the metric that appears the most in Granger
Causality relations" (Section 4.1), RCA diffs the graphs of two
application versions (Section 4.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True)
class MetricRelation:
    """One Granger-causal relation between metrics of two components."""

    source_component: str
    source_metric: str
    target_component: str
    target_metric: str
    lag: int
    """Lag in grid steps (1 step = 500 ms by default)."""

    p_value: float
    f_statistic: float = 0.0

    @property
    def source_key(self) -> tuple[str, str]:
        return (self.source_component, self.source_metric)

    @property
    def target_key(self) -> tuple[str, str]:
        return (self.target_component, self.target_metric)


class DependencyGraph:
    """Component dependency graph with metric-level annotations."""

    def __init__(self, components=()):
        self._relations: list[MetricRelation] = []
        self._components: set[str] = set(components)

    def add_component(self, name: str) -> None:
        """Register a component (vertices may have no edges)."""
        self._components.add(name)

    def add_relation(self, relation: MetricRelation) -> None:
        """Insert one Granger-causal metric relation."""
        self._components.add(relation.source_component)
        self._components.add(relation.target_component)
        self._relations.append(relation)

    @property
    def components(self) -> list[str]:
        return sorted(self._components)

    @property
    def relations(self) -> list[MetricRelation]:
        return list(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def relations_between(self, source: str,
                          target: str) -> list[MetricRelation]:
        """All relations from ``source`` to ``target`` components."""
        return [
            r for r in self._relations
            if r.source_component == source and r.target_component == target
        ]

    def component_edge_set(self) -> set[tuple[str, str]]:
        """Directed component-level edges as a set (graph comparisons)."""
        return {
            (r.source_component, r.target_component)
            for r in self._relations
        }

    def metric_edge_set(self) -> set[tuple[str, str, str, str]]:
        """Metric-level relations as (src comp, src metric, dst comp,
        dst metric) tuples (streaming-vs-batch convergence checks)."""
        return {
            (r.source_component, r.source_metric,
             r.target_component, r.target_metric)
            for r in self._relations
        }

    def component_edges(self) -> list[tuple[str, str, int]]:
        """Component-level edges: (source, target, #metric relations)."""
        counts = Counter(
            (r.source_component, r.target_component) for r in self._relations
        )
        return sorted(
            (src, dst, count) for (src, dst), count in counts.items()
        )

    def metric_appearances(self) -> Counter:
        """How often every (component, metric) appears in relations.

        The autoscaling engine picks its guiding metric as the most
        frequent entry of this counter (Section 4.1, rule step #1).
        """
        counter: Counter = Counter()
        for r in self._relations:
            counter[r.source_key] += 1
            counter[r.target_key] += 1
        return counter

    def most_connected_metric(self, component: str | None = None
                              ) -> tuple[str, str] | None:
        """The (component, metric) appearing in the most relations.

        With ``component`` set, only that component's metrics compete
        (useful when a scaling rule must guide a specific component).
        """
        appearances = self.metric_appearances()
        if component is not None:
            appearances = Counter({
                key: count for key, count in appearances.items()
                if key[0] == component
            })
        if not appearances:
            return None
        # Deterministic tie-break by name.
        best = max(sorted(appearances), key=lambda key: appearances[key])
        return best

    def edges_of_metric(self, component: str,
                        metric: str) -> list[MetricRelation]:
        """Relations touching one metric."""
        key = (component, metric)
        return [
            r for r in self._relations
            if r.source_key == key or r.target_key == key
        ]

    def to_networkx(self) -> nx.MultiDiGraph:
        """Metric relations as a component-level multigraph."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self._components)
        for r in self._relations:
            graph.add_edge(
                r.source_component, r.target_component,
                source_metric=r.source_metric,
                target_metric=r.target_metric,
                lag=r.lag, p_value=r.p_value,
            )
        return graph

    def summary(self) -> dict:
        """Compact description (benchmark output, logging)."""
        return {
            "components": len(self._components),
            "metric_relations": len(self._relations),
            "component_edges": len(self.component_edges()),
        }


def edge_jaccard(a: DependencyGraph, b: DependencyGraph,
                 level: str = "component") -> float:
    """Jaccard similarity of two dependency graphs' edge sets.

    ``level`` selects the granularity: ``"component"`` compares the
    directed component edges, ``"metric"`` the full metric relations.
    Two empty graphs count as identical (1.0).
    """
    if level == "component":
        ea, eb = a.component_edge_set(), b.component_edge_set()
    elif level == "metric":
        ea, eb = a.metric_edge_set(), b.metric_edge_set()
    else:
        raise ValueError(f"unknown comparison level {level!r}")
    union = ea | eb
    if not union:
        return 1.0
    return len(ea & eb) / len(union)
