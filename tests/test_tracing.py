"""Tests for call-graph capture and tracing overhead models."""

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing import (
    TRACING_TECHNIQUES,
    CallGraph,
    ServiceDiscovery,
    SyscallEvent,
    SysdigTracer,
    completion_time_factor,
)


class TestCallGraph:
    def test_record_and_query(self):
        graph = CallGraph()
        graph.record_call("a", "b", 3)
        graph.record_call("a", "b", 2)
        assert graph.call_count("a", "b") == 5
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_callees_and_callers(self):
        graph = CallGraph()
        graph.record_call("web", "db")
        graph.record_call("web", "cache")
        graph.record_call("lb", "web")
        assert graph.callees("web") == ["cache", "db"]
        assert graph.callers("web") == ["lb"]
        assert graph.callees("ghost") == []

    def test_self_calls_ignored(self):
        graph = CallGraph()
        graph.record_call("a", "a")
        assert graph.edges() == []

    def test_filtered_threshold(self):
        graph = CallGraph()
        graph.record_call("a", "b", 1)
        graph.record_call("a", "c", 10)
        filtered = graph.filtered(min_count=5)
        assert filtered.has_edge("a", "c")
        assert not filtered.has_edge("a", "b")
        # Nodes survive filtering even without edges.
        assert "b" in filtered

    def test_communicating_pairs(self):
        graph = CallGraph()
        graph.record_call("a", "b")
        graph.record_call("b", "c")
        assert graph.communicating_pairs() == [("a", "b"), ("b", "c")]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            CallGraph().record_call("a", "b", 0)

    def test_to_networkx(self):
        graph = CallGraph()
        graph.record_call("a", "b", 4)
        nx_graph = graph.to_networkx()
        assert nx_graph["a"]["b"]["count"] == 4


class _NxCallGraph:
    """The reference model: the call graph as an ``nx.DiGraph``."""

    def __init__(self):
        self.graph = nx.DiGraph()

    def add_component(self, name):
        self.graph.add_node(name)

    def record_call(self, caller, callee, count):
        if count < 1:
            raise ValueError("count must be >= 1")
        if caller == callee:
            return
        if self.graph.has_edge(caller, callee):
            self.graph[caller][callee]["count"] += count
        else:
            self.graph.add_edge(caller, callee, count=count)

    def filtered(self, min_count):
        out = _NxCallGraph()
        out.graph.add_nodes_from(self.graph.nodes)
        for u, v, count in sorted(self.graph.edges(data="count")):
            if count >= min_count:
                out.record_call(u, v, count)
        return out


_NAMES = st.sampled_from(["a", "b", "c", "d", "e"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _NAMES),
    st.tuples(st.just("call"), _NAMES, _NAMES, st.integers(-1, 5)),
), max_size=40)


def _assert_matches(graph, model):
    g = model.graph
    names = ["a", "b", "c", "d", "e", "ghost"]
    assert graph.components == sorted(g.nodes)
    assert len(graph) == g.number_of_nodes()
    assert graph.edges() == sorted(g.edges(data="count"))
    for u in names:
        assert (u in graph) == (u in g)
        assert graph.callees(u) == (sorted(g.successors(u))
                                    if u in g else [])
        assert graph.callers(u) == (sorted(g.predecessors(u))
                                    if u in g else [])
        for v in names:
            assert graph.has_edge(u, v) == g.has_edge(u, v)
            assert graph.call_count(u, v) == (
                g[u][v]["count"] if g.has_edge(u, v) else 0)
    exported = graph.to_networkx()
    assert list(exported.nodes) == list(g.nodes)
    assert list(exported.edges(data="count")) == list(g.edges(data="count"))


class TestCallGraphModel:
    @given(_OPS, st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_networkx_digraph(self, ops, min_count):
        graph, model = CallGraph(), _NxCallGraph()
        for op in ops:
            if op[0] == "add":
                graph.add_component(op[1])
                model.add_component(op[1])
                continue
            _, caller, callee, count = op
            if count < 1:
                with pytest.raises(ValueError):
                    graph.record_call(caller, callee, count)
                with pytest.raises(ValueError):
                    model.record_call(caller, callee, count)
            else:
                graph.record_call(caller, callee, count)
                model.record_call(caller, callee, count)
        _assert_matches(graph, model)
        _assert_matches(graph.filtered(min_count),
                        model.filtered(min_count))
        _assert_matches(pickle.loads(pickle.dumps(graph)), model)


class TestServiceDiscovery:
    def test_register_and_resolve(self):
        disco = ServiceDiscovery()
        addr = disco.register("web")
        assert disco.resolve(addr) == "web"
        assert disco.address_of("web") == addr

    def test_register_idempotent(self):
        disco = ServiceDiscovery()
        assert disco.register("web") == disco.register("web")

    def test_unknown_address(self):
        assert ServiceDiscovery().resolve("10.9.9.9") is None


class TestSysdigTracer:
    def test_builds_call_graph_from_sink(self):
        tracer = SysdigTracer()
        tracer.register_components(["front", "back"])
        tracer.sink(0.0, "front", "back", 5)
        tracer.sink(0.1, "front", "back", 3)
        graph = tracer.call_graph()
        assert graph.call_count("front", "back") == 8

    def test_min_count_filters_sporadic_edges(self):
        tracer = SysdigTracer()
        tracer.sink(0.0, "a", "b", 1)
        tracer.sink(0.0, "c", "d", 10)
        graph = tracer.call_graph(min_count=2)
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("c", "d")

    def test_unresolved_addresses_counted_and_dropped(self):
        tracer = SysdigTracer()
        tracer.register_components(["known"])
        addr = tracer.discovery.address_of("known")
        tracer.record_syscalls([
            SyscallEvent(0.0, addr, "203.0.113.7"),  # outside the cluster
            SyscallEvent(0.0, addr, addr),
        ])
        assert tracer.unresolved_connections == 1
        assert tracer.observed_connections == 2

    def test_event_retention_capped(self):
        tracer = SysdigTracer(keep_events=10)
        for i in range(50):
            tracer.sink(float(i), "a", "b", 1)
        assert len(tracer.events) == 10
        assert tracer.call_graph().call_count("a", "b") == 50


class TestOverheadModel:
    def test_paper_ordering(self):
        """Figure 5: native < tcpdump < sysdig < ptrace."""
        base = 0.00028
        factors = {
            name: completion_time_factor(tech, base)
            for name, tech in TRACING_TECHNIQUES.items()
        }
        assert factors["native"] == pytest.approx(1.0)
        assert factors["native"] < factors["tcpdump"] \
            < factors["sysdig"] < factors["ptrace"]

    def test_paper_magnitudes(self):
        base = 0.00028
        assert completion_time_factor(
            TRACING_TECHNIQUES["tcpdump"], base) == pytest.approx(1.07)
        assert completion_time_factor(
            TRACING_TECHNIQUES["sysdig"], base) == pytest.approx(1.22)

    def test_ptrace_context_switch_cost_dominates(self):
        tech = TRACING_TECHNIQUES["ptrace"]
        overhead = tech.request_overhead(0.00028)
        switching = tech.syscalls_per_request * tech.context_switch_cost
        assert switching > 0.5 * overhead

    def test_only_sysdig_and_ptrace_have_context(self):
        assert TRACING_TECHNIQUES["sysdig"].provides_process_context
        assert not TRACING_TECHNIQUES["tcpdump"].provides_process_context
        assert not TRACING_TECHNIQUES["native"].provides_process_context

    def test_invalid_base_time(self):
        with pytest.raises(ValueError):
            completion_time_factor(TRACING_TECHNIQUES["native"], 0.0)
