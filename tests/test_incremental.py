"""Tests for incremental re-analysis (paper §9 future work).

A deployed update that adds a metric to one component of a three-tier
app must re-cluster only that component, re-test only the call-graph
edges touching it and carry every other clustering and relation over
from the previous window of the :class:`WindowAnalyzer`.
"""

import pytest

from repro.core import Sieve, StreamingConfig
from repro.core.incremental import changed_metric_components
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import WindowAnalyzer
from repro.workload import constant_rate


def _spec(name, extra_metric=False, **kwargs):
    custom = ()
    if extra_metric:
        custom = ((f"{name}_update_marker",
                   lambda comp, now: comp.total_request_rate() * 1.3),)
    defaults = dict(
        kind="generic",
        endpoints=(EndpointSpec("op", service_time=0.02),),
        concurrency=16,
        custom_metrics=custom,
    )
    defaults.update(kwargs)
    return ComponentSpec(name=name, **defaults)


def _app(update_backend=False):
    return Application("demo", [
        _spec("front", calls=(CallSpec("mid", delay=0.4),)),
        _spec("mid", calls=(CallSpec("back", delay=0.4),)),
        _spec("back", extra_metric=update_backend),
    ])


def _load(update_backend=False, seed=4):
    return Sieve(_app(update_backend)).load(
        constant_rate(40.0), duration=60.0, seed=seed)


def _two_windows(baseline, rerun):
    """Analyze ``baseline`` then ``rerun`` as consecutive windows."""
    analyzer = WindowAnalyzer(StreamingConfig(), seed=3)
    first = analyzer.analyze(baseline.frame, baseline.call_graph,
                             0.0, 60.0, index=0)
    second = analyzer.analyze(rerun.frame, rerun.call_graph,
                              60.0, 120.0, index=1)
    return first, second


@pytest.fixture(scope="module")
def baseline():
    return _load(seed=3)


@pytest.fixture(scope="module")
def same_version():
    return _load()


@pytest.fixture(scope="module")
def new_version():
    return _load(update_backend=True)


@pytest.fixture(scope="module")
def updated(baseline, new_version):
    """The previous window, then one of the updated backend."""
    return _two_windows(baseline, new_version)


@pytest.fixture(scope="module")
def unchanged(baseline, same_version):
    """The previous window, then one of the same version."""
    return _two_windows(baseline, same_version)


class TestChangedMetricComponents:
    def test_no_change_detected_for_same_version(self, unchanged,
                                                 same_version):
        first, _second = unchanged
        assert changed_metric_components(first.clusterings,
                                         same_version.frame) == []

    def test_update_detected(self, updated, new_version):
        first, _second = updated
        assert changed_metric_components(first.clusterings,
                                         new_version.frame) == ["back"]


class TestIncrementalWindow:
    def test_metric_set_change_reclusters_only_that_component(
            self, updated):
        _first, second = updated
        assert second.recluster_reasons == {"back": "metric-set"}
        assert second.reclustered == ["back"]
        assert second.reused == ["front", "mid"]

    def test_reuses_untouched_components(self, updated):
        first, second = updated
        # Reused clusterings are the same objects (no recomputation).
        assert second.clusterings["front"] is first.clusterings["front"]
        assert second.clusterings["mid"] is first.clusterings["mid"]
        assert second.clusterings["back"] \
            is not first.clusterings["back"]

    def test_merged_graph_covers_all_components(self, updated):
        first, second = updated
        assert set(second.clusterings) == {"front", "mid", "back"}
        # front->mid relations (untouched pair) come from the old graph.
        old_front_mid = first.dependency_graph.relations_between(
            "front", "mid")
        new_front_mid = second.dependency_graph.relations_between(
            "front", "mid")
        assert [r.source_metric for r in new_front_mid] \
            == [r.source_metric for r in old_front_mid]
        assert second.edges_reused == len(old_front_mid) + len(
            first.dependency_graph.relations_between("mid", "front")
        )

    def test_no_change_means_full_reuse(self, unchanged):
        first, second = unchanged
        assert second.reclustered == []
        assert second.edges_retested == 0
        assert len(second.dependency_graph) == len(first.dependency_graph)

    def test_result_usable_downstream(self, updated):
        """The updated window supports the same queries as a full one."""
        _first, second = updated
        result = second.to_sieve_result()
        assert result.total_representatives() > 0
        assert result.reduction_factor() > 1.0
        result.summary()

