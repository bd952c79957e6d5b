"""The directed call graph between microservice components.

Vertices are components; an edge points from caller to callee (paper
Section 3.1).  Edges carry observed connection counts, so sporadic
misattributed connections can be filtered with a count threshold.  Sieve
uses the call graph to restrict the pairwise Granger comparison to
components that actually communicate (Section 3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class CallGraph:
    """Directed caller -> callee graph with connection counts.

    Stored as ``caller -> {callee: count}``; the outer dict also lists
    every known component, in the order it was first seen (a caller
    before its callee), which is the node order of :meth:`to_networkx`.
    """

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, int]] = {}

    def add_component(self, name: str) -> None:
        """Register a component even before any call is seen."""
        self._succ.setdefault(name, {})

    def record_call(self, caller: str, callee: str, count: int = 1) -> None:
        """Record ``count`` observed connections from caller to callee."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if caller == callee:
            return  # loopback chatter carries no inter-component structure
        callees = self._succ.setdefault(caller, {})
        self._succ.setdefault(callee, {})
        callees[callee] = callees.get(callee, 0) + count

    @property
    def components(self) -> list[str]:
        """All known components, sorted."""
        return sorted(self._succ)

    def callees(self, component: str) -> list[str]:
        """Components that ``component`` calls, sorted."""
        return sorted(self._succ.get(component, ()))

    def callers(self, component: str) -> list[str]:
        """Components that call ``component``, sorted."""
        return sorted(u for u, callees in self._succ.items()
                      if component in callees)

    def edges(self) -> list[tuple[str, str, int]]:
        """All (caller, callee, count) edges, sorted."""
        return sorted(
            (u, v, count)
            for u, callees in self._succ.items()
            for v, count in callees.items()
        )

    def has_edge(self, caller: str, callee: str) -> bool:
        """True when at least one caller -> callee connection was seen."""
        return callee in self._succ.get(caller, ())

    def call_count(self, caller: str, callee: str) -> int:
        """Observed connections from caller to callee (0 if none)."""
        return int(self._succ.get(caller, {}).get(callee, 0))

    def filtered(self, min_count: int = 1) -> "CallGraph":
        """Copy without edges below ``min_count`` connections."""
        out = CallGraph()
        out._succ = {
            u: {v: count for v, count in sorted(callees.items())
                if count >= min_count}
            for u, callees in self._succ.items()
        }
        return out

    def communicating_pairs(self) -> list[tuple[str, str]]:
        """All (caller, callee) pairs -- the Granger search space."""
        return [(u, v) for u, v, _count in self.edges()]

    def to_networkx(self) -> nx.DiGraph:
        """A copy as a networkx digraph (for analysis / drawing)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        for u, callees in self._succ.items():
            for v, count in callees.items():
                graph.add_edge(u, v, count=count)
        return graph

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, component: str) -> bool:
        return component in self._succ
