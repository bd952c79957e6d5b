"""Tests for Granger causality and dependency-graph extraction."""

import numpy as np
import pytest

from repro.causality import (
    DependencyGraph,
    MetricRelation,
    extract_dependencies,
    granger_test,
)
from repro.causality.granger import make_stationary
from repro.causality.pairwise import naive_pair_count
from repro.clustering import reduce_component
from repro.metrics.timeseries import MetricFrame
from repro.tracing import CallGraph


def _var_pair(n=400, lag=2, coupling=0.8, seed=0):
    """x drives y with the given lag; y does not drive x."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    y = np.zeros(n)
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + rng.normal()
        driver = x[t - lag] if t >= lag else 0.0
        y[t] = 0.4 * y[t - 1] + coupling * driver + rng.normal()
    return x, y


class TestGrangerTest:
    def test_detects_true_causality(self):
        x, y = _var_pair()
        result = granger_test(x, y, lags=(1, 2, 3))
        assert result.is_causal()
        assert result.p_value < 0.001

    def test_no_reverse_causality(self):
        x, y = _var_pair()
        result = granger_test(y, x, lags=(1, 2, 3))
        assert not result.is_causal(alpha=0.01)

    def test_independent_series_not_causal(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        assert not granger_test(a, b).is_causal(alpha=0.01)

    def test_lag_selection_prefers_true_lag(self):
        x, y = _var_pair(lag=2, coupling=1.5)
        result = granger_test(x, y, lags=(1, 2))
        assert result.lag == 2

    def test_nonstationary_inputs_differenced(self):
        """Monotone counters must not produce spurious causality."""
        rng = np.random.default_rng(2)
        a = np.cumsum(np.abs(rng.normal(3, 1, size=400)))
        b = np.cumsum(np.abs(rng.normal(5, 1, size=400)))
        result = granger_test(a, b)
        assert result.differenced
        assert not result.is_causal(alpha=0.01)

    def test_spurious_regression_without_differencing(self):
        """The Granger-Newbold effect our ADF handling protects against:
        independent random walks look 'causal' if taken at face value."""
        rng = np.random.default_rng(3)
        spurious_hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = np.cumsum(rng.normal(size=300))
            b = np.cumsum(rng.normal(size=300))
            raw = granger_test(a, b, pre_differenced=True)  # skip guard
            if raw.is_causal(alpha=0.05):
                spurious_hits += 1
        protected_hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = np.cumsum(rng.normal(size=300))
            b = np.cumsum(rng.normal(size=300))
            if granger_test(a, b).is_causal(alpha=0.05):
                protected_hits += 1
        assert protected_hits < spurious_hits

    def test_make_stationary(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(size=300)
        walk = np.cumsum(rng.normal(size=300))
        out_noise, diffed_noise = make_stationary(noise)
        out_walk, diffed_walk = make_stationary(walk)
        assert not diffed_noise and out_noise.size == 300
        assert diffed_walk and out_walk.size == 299

    def test_input_validation(self):
        with pytest.raises(ValueError):
            granger_test(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            granger_test(np.ones(20), np.ones(21))


class TestDependencyGraph:
    def _relation(self, src="a", sm="m1", dst="b", dm="m2", lag=1, p=0.01):
        return MetricRelation(src, sm, dst, dm, lag, p)

    def test_add_and_query(self):
        graph = DependencyGraph()
        graph.add_relation(self._relation())
        assert len(graph) == 1
        assert graph.components == ["a", "b"]
        assert len(graph.relations_between("a", "b")) == 1
        assert graph.relations_between("b", "a") == []

    def test_component_edges_aggregate(self):
        graph = DependencyGraph()
        graph.add_relation(self._relation(sm="m1"))
        graph.add_relation(self._relation(sm="m2"))
        graph.add_relation(self._relation(src="c"))
        assert ("a", "b", 2) in graph.component_edges()
        assert ("c", "b", 1) in graph.component_edges()

    def test_most_connected_metric(self):
        graph = DependencyGraph()
        graph.add_relation(self._relation(sm="hub"))
        graph.add_relation(self._relation(sm="hub", dst="c"))
        graph.add_relation(self._relation(src="d", sm="other"))
        assert graph.most_connected_metric() == ("a", "hub")

    def test_most_connected_metric_scoped(self):
        graph = DependencyGraph()
        graph.add_relation(self._relation(sm="hub"))
        graph.add_relation(self._relation(sm="hub", dst="c"))
        assert graph.most_connected_metric(component="b") == ("b", "m2")
        assert graph.most_connected_metric(component="ghost") is None

    def test_empty_graph(self):
        graph = DependencyGraph(components=["a"])
        assert graph.most_connected_metric() is None
        assert graph.summary()["metric_relations"] == 0
        assert graph.components == ["a"]

    def test_edges_of_metric(self):
        graph = DependencyGraph()
        relation = self._relation()
        graph.add_relation(relation)
        assert graph.edges_of_metric("a", "m1") == [relation]
        assert graph.edges_of_metric("a", "nope") == []

    def test_to_networkx(self):
        graph = DependencyGraph()
        graph.add_relation(self._relation(lag=2))
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_edges() == 1
        _, _, data = next(iter(nx_graph.edges(data=True)))
        assert data["lag"] == 2


def _coupled_frame(seed=0, n=300, interval=0.5):
    """Two components whose metrics are genuinely lag-coupled.

    The load must be *bursty* (weak autocorrelation): a smooth periodic
    load is predictable from either side, making every relation
    bidirectional -- which the extraction correctly filters out.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n) * interval
    load = np.abs(rng.normal(5.0, 2.0, n)) + 1.0
    frame = MetricFrame()
    for i, noise_scale in enumerate((0.2, 0.3)):
        values = load * (1 + 0.1 * i) + rng.normal(0, noise_scale, n)
        name = f"front_rate_{i}"
        for time, value in zip(t, values):
            frame.series("front", name).append(time, value)
    lagged = np.roll(load, 2)
    lagged[:2] = load[0]
    for i, noise_scale in enumerate((0.2, 0.3)):
        values = lagged * (2 + 0.1 * i) + rng.normal(0, noise_scale, n)
        name = f"back_rate_{i}"
        for time, value in zip(t, values):
            frame.series("back", name).append(time, value)
    # An independent metric that should not pick up relations.
    indep = rng.normal(5, 1, n)
    for time, value in zip(t, indep):
        frame.series("back", "independent_gauge").append(time, value)
    return frame


def _reduce(frame):
    """Step #2 for every component of ``frame``."""
    return {
        component: reduce_component(
            component, frame.component_view(component), seed=0)
        for component in frame.components
    }


class TestExtractDependencies:
    def test_finds_dependency_along_call_edge(self):
        frame = _coupled_frame()
        call_graph = CallGraph()
        call_graph.record_call("front", "back", 100)
        clusterings = _reduce(frame)
        graph = extract_dependencies(frame, call_graph, clusterings)
        assert any(
            r.source_component == "front" and r.target_component == "back"
            for r in graph.relations
        )

    def test_call_graph_restricts_search(self):
        frame = _coupled_frame()
        empty_graph = CallGraph()  # no communication observed
        clusterings = _reduce(frame)
        graph = extract_dependencies(frame, empty_graph, clusterings)
        assert len(graph) == 0

    def test_nothing_to_test_skips_series_preparation(self, monkeypatch):
        # A fully reused streaming window hands over a call graph whose
        # pairs were all restricted away: the alignment + ADF pass over
        # every representative must not run for an empty answer.
        from repro.causality import pairwise

        frame = _coupled_frame()
        clusterings = _reduce(frame)
        elsewhere = CallGraph()
        elsewhere.record_call("front", "cache", 100)  # one end unknown

        def unexpected(*_args, **_kwargs):
            raise AssertionError("prepared series with nothing to test")

        monkeypatch.setattr(pairwise, "_representative_series", unexpected)
        for call_graph in (CallGraph(), elsewhere):
            graph = extract_dependencies(frame, call_graph, clusterings)
            assert len(graph) == 0
            assert set(graph.components) == {"front", "back"}

    def test_bidirectional_filter_reduces_relations(self):
        frame = _coupled_frame()
        call_graph = CallGraph()
        call_graph.record_call("front", "back", 100)
        clusterings = _reduce(frame)
        kept = extract_dependencies(frame, call_graph, clusterings,
                                    filter_bidirectional=True)
        unfiltered = extract_dependencies(frame, call_graph, clusterings,
                                          filter_bidirectional=False)
        assert len(unfiltered) >= len(kept)

    def test_naive_pair_count(self):
        # 15 components x ~60 metrics: the scale argument of the paper.
        assert naive_pair_count(15, 60) == 15 * 14 * 3600
        with pytest.raises(ValueError):
            naive_pair_count(-1, 5)
