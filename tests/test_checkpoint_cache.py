"""The checkpoint writer's fragment cache.

``CheckpointPolicy`` keeps each clustering's and drift baseline's JSON
text by object identity, so a save re-encodes only the objects its
window replaced.  These tests drive a synthetic three-component stream
through every kind of window -- initial, reused, drift, metric-set,
full refresh, a vanished component, and a restore from checkpoint +
journal -- and pin two things: every file is byte-identical to
``json.dumps(checkpoint_state(...), sort_keys=True)`` (the independent
oracle), and the number of fresh encodings per save is what the
window changed, counted rather than timed.
"""

import collections
import json

import numpy as np
import pytest

from repro.core import StreamingConfig
from repro.persistence import (
    CheckpointPolicy,
    IngestJournal,
    checkpoint_state,
    restore_engine,
)
from repro.persistence import checkpoint as checkpoint_module
from repro.streaming import StreamingSieve
from repro.tracing.callgraph import CallGraph

#: Window 4 sees ``back`` drift, window 9 is the scheduled refresh,
#: window 11 sees ``mid`` grow a metric, window 16 has lost ``front``.
DRIFT_AT, QUEUE_FROM, FRONT_UNTIL = 30.0, 62.0, 80.0
CONFIG = StreamingConfig(window=10.0, hop=5.0, retention=60.0,
                         min_window_samples=8, full_refresh_windows=9)
COMPONENTS = 3


class _Feed:
    """A seeded stream of front -> mid -> back, one scrape per 0.5 s."""

    def __init__(self):
        self.rng = np.random.default_rng(5)
        self.step = 0
        self.graph = CallGraph()
        self.graph.record_call("front", "mid")
        self.graph.record_call("mid", "back")

    def _noisy(self, value):
        return float(value + 0.1 * self.rng.standard_normal())

    def _points(self, t):
        wave = self._noisy
        points = {}
        if t < FRONT_UNTIL:
            points["front"] = {"cpu": wave(np.sin(t / 3)),
                               "mem": wave(np.cos(t / 5)),
                               "req": wave(2 * np.sin(t / 3))}
        points["mid"] = {"cpu": wave(np.sin(t / 3 - 0.5)),
                         "mem": wave(np.cos(t / 7))}
        if t >= QUEUE_FROM:
            points["mid"]["queue"] = wave(np.sin(t / 2))
        points["back"] = {"cpu": wave(np.sin(t / 3 - 1)),
                          "gauge": wave(50.0 if t >= DRIFT_AT else 1.0),
                          "io": wave(np.cos(t / 4))}
        return points

    def run(self, engine, until):
        """Feed ``engine`` up to simulated time ``until``; the windows
        it analyzed."""
        analyses = []
        while self.step * 0.5 < until:
            t = self.step * 0.5
            for component, metrics in self._points(t).items():
                engine.bus.publish(component, t, metrics)
            analysis = engine.offer(t, self.graph)
            if analysis is not None:
                analyses.append(analysis)
            self.step += 1
        return analyses


def _oracle(policy) -> bytes:
    return json.dumps(checkpoint_state(policy.engine, spec=policy.spec),
                      sort_keys=True).encode("utf-8")


def _engine(tmp_path):
    journal = IngestJournal(tmp_path / "ingest.journal")
    engine = StreamingSieve(config=CONFIG, seed=3, journal=journal,
                            application="demo", workload="stream")
    return engine, journal


def _policy(engine, tmp_path, every=1):
    policy = CheckpointPolicy(engine, tmp_path / "state.ckpt",
                              every=every,
                              spec={"mode": "stream", "seed": 3})
    engine.subscribe(policy)
    return policy


def _count_encodings(patch) -> collections.Counter:
    """Count the writer's fresh encodings: clusterings, baselines."""
    calls = collections.Counter()
    for attr, name in (("clustering_to_dict", "clustering"),
                       ("_baseline_to_dict", "baseline")):
        encode = getattr(checkpoint_module, attr)

        def counting(obj, encode=encode, name=name):
            calls[name] += 1
            return encode(obj)

        patch.setattr(checkpoint_module, attr, counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    return _count_encodings(monkeypatch)


def _watch(policy, calls, saves):
    """Record each save's fresh-encoding counts and its bytes against
    the oracle; the oracle's own encodings are not counted."""

    def on_checkpoint(analysis, policy):
        counts = (calls["clustering"], calls["baseline"])
        written = policy.path.read_bytes()
        saves.append((analysis, counts, written == _oracle(policy)))
        calls.clear()

    policy.on_checkpoint = on_checkpoint


def _kind(analysis, before):
    reasons = set(analysis.recluster_reasons.values())
    if reasons:
        return "+".join(sorted(reasons))
    if before is not None \
            and set(before.clusterings) - set(analysis.clusterings):
        return "vanished"
    return "reused"


class TestEveryWindowKind:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """Saves across a crash: ``(analysis, (clusterings, baselines)
        encoded, bytes equal the oracle)`` per save, before and after
        the restore."""
        tmp = tmp_path_factory.mktemp("fragments")
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_encodings(patch)
            feed = _Feed()
            engine, journal = _engine(tmp)
            policy = _policy(engine, tmp)
            before, after = [], []
            _watch(policy, calls, before)
            feed.run(engine, 72.5)  # windows 0-12
            journal.close()  # the crash: the journal was written whole
            restored = restore_engine(tmp / "state.ckpt", CONFIG,
                                      journal_path=tmp / "ingest.journal")
            # One object per checkpointed clustering: the drift
            # baseline is the previous analysis's clustering itself.
            previous = restored.analyzer.previous.clusterings
            baselines = dict(restored.drift.baseline_items())
            assert sorted(baselines) == sorted(previous)
            assert all(baselines[c].clustering is previous[c]
                       for c in previous)
            resumed = _policy(restored, tmp)
            _watch(resumed, calls, after)
            feed.run(restored, 120.0)
            restored.close()
        return before, after

    def test_every_save_is_the_canonical_document(self, run):
        before, after = run
        assert [ok for _a, _c, ok in before + after] \
            == [True] * len(before + after)

    def test_run_covers_every_window_kind(self, run):
        before, after = run
        analyses = [a for a, _c, _ok in before + after]
        kinds = {_kind(a, b) for a, b
                 in zip(analyses, [None] + analyses[:-1])}
        assert {"initial", "reused", "drift", "refresh", "metric-set",
                "vanished"} <= kinds

    def test_encodes_only_what_the_window_replaced(self, run):
        before, after = run
        analyses = [a for a, _c, _ok in before + after]
        counts = [c for _a, c, _ok in before + after]
        for analysis, previous, (clusterings, baselines) \
                in zip(analyses[1:], analyses[:-1], counts[1:]):
            if analysis is after[0][0]:
                continue  # the first save after the restore, below
            fresh = len(analysis.reclustered)
            kind = _kind(analysis, previous)
            # One encoding per re-clustered component: its clustering
            # text serves both ``previous`` and ``drift``.
            assert (clusterings, baselines) == (fresh, fresh), kind
        assert counts[0] == (COMPONENTS, COMPONENTS)
        drift = next(c for a, c, _ok in before
                     if a.recluster_reasons == {"back": "drift"})
        assert drift == (1, 1)

    def test_first_save_after_restore_is_a_full_miss(self, run):
        _before, after = run
        first, second = after[0], after[1]
        assert not first[0].reclustered
        # Nothing restored is cached yet, but each clustering is one
        # object shared by ``previous`` and ``drift``: encoded once.
        assert first[1] == (COMPONENTS, COMPONENTS)
        assert not second[0].reclustered
        assert second[1] == (0, 0)


class TestCacheLifetime:
    def test_cache_spans_an_unsaved_window(self, tmp_path, counted):
        feed = _Feed()
        engine, journal = _engine(tmp_path)
        policy = _policy(engine, tmp_path, every=2)
        saves = []
        _watch(policy, counted, saves)
        analyses = feed.run(engine, 120.0)
        journal.close()
        assert len(saves) == len(analyses) // 2
        assert all(ok for _a, _c, ok in saves)
        # A save encodes what either of its two windows replaced and
        # the later one still holds.
        for (analysis, counts, _ok), unsaved in zip(saves,
                                                     analyses[0::2]):
            replaced = (set(analysis.reclustered)
                        | set(unsaved.reclustered)) \
                & set(analysis.clusterings)
            assert counts == (len(replaced), len(replaced))

    def test_cache_holds_only_the_live_state(self, tmp_path):
        feed = _Feed()
        engine, journal = _engine(tmp_path)
        policy = _policy(engine, tmp_path)
        sizes = []
        policy.on_checkpoint = \
            lambda analysis, policy: sizes.append(len(policy._fragments))
        analyses = feed.run(engine, 260.0)
        journal.close()
        assert len(analyses) >= 50
        assert max(sizes) <= 2 * COMPONENTS
        # front is gone: its clustering and baseline left the cache.
        assert sizes[-1] == 2 * (COMPONENTS - 1)

    def test_a_stale_entry_under_a_live_id_is_a_miss(self, tmp_path,
                                                     counted):
        feed = _Feed()
        engine, journal = _engine(tmp_path)
        policy = _policy(engine, tmp_path)
        saves = []
        _watch(policy, counted, saves)
        feed.run(engine, 20.0)
        clustering = engine.analyzer.previous.clusterings["mid"]
        baseline = dict(engine.drift.baseline_items())["back"]
        # What an id-only cache would serve once the objects it
        # remembered were freed and their addresses reused.
        policy._fragments[id(clustering)] = (object(), '"stale"')
        policy._fragments[id(baseline)] = (object(), '"stale"')
        feed.run(engine, 25.0)  # one more, fully reused, window
        journal.close()
        analysis, counts, ok = saves[-1]
        assert not analysis.reclustered
        assert ok
        assert counts == (1, 1)

    def test_drift_text_is_shared_by_identity_only(self, tmp_path,
                                                   counted):
        feed = _Feed()
        engine, journal = _engine(tmp_path)
        policy = _policy(engine, tmp_path)
        saves = []
        _watch(policy, counted, saves)
        feed.run(engine, 20.0)
        # Freeze ``back`` against another component's clustering: its
        # drift entry must not borrow the text of ``previous``'s
        # ``back`` clustering just because the component name matches.
        back = dict(engine.drift.baseline_items())["back"]
        engine.drift.set_baseline(
            "back", engine.analyzer.previous.clusterings["front"],
            back.metrics, back.coherence)
        policy.on_window(engine.latest())
        journal.close()
        analysis, counts, ok = saves[-1]
        assert ok
        assert counts == (0, 1)  # the new baseline; front's text cached
