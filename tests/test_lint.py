"""Tests for ``repro lint``, the repo-invariant static analyzer.

Every rule gets fixture snippets both ways: a known-positive that must
fire and a known-negative that must stay quiet.  On top of the rules:
suppression and baseline round-trips, fixer application, the CLI
(including the deliberate-regression fixture the CI gate relies on),
and the meta-test that the live tree lints clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    Baseline,
    Finding,
    LintConfig,
    Linter,
    Rule,
    RULES,
    all_rules,
    apply_fixes,
    lint_paths,
    register_rule,
    render_json,
    render_rule_list,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
LIVE_TREE = REPO_ROOT / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run_lint(tmp_path: Path, files: dict[str, str], *,
             rules=None, baseline=None, config=None):
    write_tree(tmp_path, files)
    return Linter(rules=rules, baseline=baseline, config=config) \
        .run([tmp_path])


def rule_ids(result) -> list[str]:
    return [finding.rule for finding in result.active]


# -- RL001 guarded-by -------------------------------------------------------


GUARDED_POSITIVE = """
    import threading

    class Service:
        def __init__(self):
            self._stats_lock = threading.Lock()
            self.requests = 0  # guarded-by: _stats_lock

        def bump(self):
            self.requests += 1
"""

GUARDED_NEGATIVE = """
    import threading

    class Service:
        def __init__(self):
            self._stats_lock = threading.Lock()
            self.requests = 0  # guarded-by: _stats_lock

        def bump(self):
            with self._stats_lock:
                self.requests += 1

        def snapshot(self):
            with self._stats_lock:
                return {"requests": self.requests}
"""


class TestGuardedBy:
    def test_positive_unlocked_touch(self, tmp_path):
        result = run_lint(tmp_path, {"svc.py": GUARDED_POSITIVE},
                          rules=["RL001"])
        assert rule_ids(result) == ["RL001"]
        assert "requests" in result.active[0].message
        assert result.active[0].symbol == "Service.bump"

    def test_negative_locked_touch(self, tmp_path):
        result = run_lint(tmp_path, {"svc.py": GUARDED_NEGATIVE},
                          rules=["RL001"])
        assert result.ok

    def test_init_is_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"svc.py": GUARDED_NEGATIVE},
                          rules=["RL001"])
        assert result.ok  # the annotated assignment itself is in __init__

    def test_nested_function_resets_lock_context(self, tmp_path):
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: _lock

                def attach(self):
                    with self._lock:
                        def sample():
                            return self.count
                        return sample
        """
        result = run_lint(tmp_path, {"svc.py": source}, rules=["RL001"])
        # The closure runs later, off-thread: holding the lock at
        # definition time proves nothing.
        assert rule_ids(result) == ["RL001"]

    def test_wrong_lock_does_not_count(self, tmp_path):
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.count = 0  # guarded-by: _a

                def bump(self):
                    with self._b:
                        self.count += 1
        """
        result = run_lint(tmp_path, {"svc.py": source}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]


# -- RL002 no-blocking-under-lock -------------------------------------------


class TestNoBlockingUnderLock:
    def test_positive_sleep_under_lock(self, tmp_path):
        source = """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        time.sleep(1.0)
        """
        result = run_lint(tmp_path, {"poller.py": source}, rules=["RL002"])
        assert rule_ids(result) == ["RL002"]
        assert "time.sleep" in result.active[0].message

    def test_negative_sleep_outside_lock(self, tmp_path):
        source = """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        pending = True
                    time.sleep(1.0)
                    return pending
        """
        result = run_lint(tmp_path, {"poller.py": source}, rules=["RL002"])
        assert result.ok

    def test_negative_str_join_is_not_blocking(self, tmp_path):
        source = """
            import threading

            class Names:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.names = []

                def render(self):
                    with self._lock:
                        return ", ".join(self.names)
        """
        result = run_lint(tmp_path, {"names.py": source}, rules=["RL002"])
        assert result.ok


# -- RL003 lock-order -------------------------------------------------------


class TestLockOrder:
    def test_positive_lexical_cycle(self, tmp_path):
        source = """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        """
        result = run_lint(tmp_path, {"pair.py": source}, rules=["RL003"])
        assert rule_ids(result) == ["RL003"]
        assert "lock-order cycle" in result.active[0].message

    def test_negative_consistent_order(self, tmp_path):
        source = """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
        """
        result = run_lint(tmp_path, {"pair.py": source}, rules=["RL003"])
        assert result.ok

    def test_positive_cycle_through_method_call(self, tmp_path):
        source = """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def helper(self):
                    with self._b:
                        pass

                def forward(self):
                    with self._a:
                        self.helper()

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        """
        result = run_lint(tmp_path, {"pair.py": source}, rules=["RL003"])
        assert rule_ids(result) == ["RL003"]

    def test_negative_rlock_reentry_is_not_a_cycle(self, tmp_path):
        source = """
            import threading

            class Reentrant:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
        """
        result = run_lint(tmp_path, {"re.py": source}, rules=["RL003"])
        assert result.ok


# -- RL010 determinism ------------------------------------------------------


class TestDeterminism:
    def in_analysis_path(self, tmp_path, body, name="streaming/analyzer.py"):
        return run_lint(tmp_path, {name: body}, rules=["RL010"])

    def test_positive_wall_clock(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            import time

            def analyze():
                return time.time()
        """)
        assert rule_ids(result) == ["RL010"]
        assert "wall clock" in result.active[0].message

    def test_positive_global_random(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            import random

            def jitter(xs):
                random.shuffle(xs)
                return xs
        """)
        assert rule_ids(result) == ["RL010"]

    def test_positive_numpy_default_rng(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """)
        assert rule_ids(result) == ["RL010"]

    def test_negative_seeded_rngs(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            import random

            import numpy as np

            def noise(n, seed):
                rng = np.random.default_rng(seed)
                state = np.random.RandomState(seed)
                local = random.Random(seed)
                return rng.random(n), state.rand(n), local.random()
        """)
        assert result.ok

    def test_positive_set_iteration(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            def components(frame):
                return [c for c in set(frame.keys())]
        """)
        assert rule_ids(result) == ["RL010"]
        assert "sorted" in result.active[0].message

    def test_negative_sorted_set_iteration(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            def components(frame):
                return [c for c in sorted(set(frame.keys()))]
        """)
        assert result.ok

    def test_negative_outside_analysis_path(self, tmp_path):
        result = run_lint(tmp_path, {"obs/server.py": """
            import time

            def now():
                return time.time()
        """}, rules=["RL010"])
        assert result.ok

    def test_negative_local_helper_named_time(self, tmp_path):
        result = self.in_analysis_path(tmp_path, """
            def time():
                return 0.0

            def analyze():
                return time()
        """)
        assert result.ok


# -- RL020 registry-only ----------------------------------------------------


class TestRegistryOnly:
    def test_positive_stray_backend_construction(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/driver.py": """
            from repro.persistence.sqlite_backend import SqliteBackend

            def open_store(path):
                return SqliteBackend(path)
        """}, rules=["RL020"])
        assert rule_ids(result) == ["RL020"]
        assert "registry" in result.active[0].message

    def test_negative_defining_module(self, tmp_path):
        result = run_lint(tmp_path, {"persistence/sqlite_backend.py": """
            class SqliteBackend:
                pass

            def reopen(path):
                return SqliteBackend(path)
        """}, rules=["RL020"])
        assert result.ok

    def test_negative_registry_module(self, tmp_path):
        result = run_lint(tmp_path, {"api/registry.py": """
            def _sqlite_backend(path, **options):
                from repro.persistence.sqlite_backend import SqliteBackend

                return SqliteBackend(path, **options)
        """}, rules=["RL020"])
        assert result.ok

    def test_negative_tests_are_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"tests/test_backend.py": """
            from repro.persistence.sqlite_backend import SqliteBackend

            def test_roundtrip(tmp_path):
                backend = SqliteBackend(tmp_path / "db")
                assert backend is not None
        """}, rules=["RL020"])
        assert result.ok


# -- RL021 frozen-spec ------------------------------------------------------


class TestFrozenSpec:
    def test_positive_unfrozen_spec(self, tmp_path):
        result = run_lint(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass
            class RetrySpec:
                attempts: int = 3
        """}, rules=["RL021"])
        assert rule_ids(result) == ["RL021"]
        assert result.active[0].fix is not None

    def test_positive_frozen_false(self, tmp_path):
        result = run_lint(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass(frozen=False)
            class RetrySpec:
                attempts: int = 3
        """}, rules=["RL021"])
        assert rule_ids(result) == ["RL021"]

    def test_negative_frozen_spec(self, tmp_path):
        result = run_lint(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RetrySpec:
                attempts: int = 3
        """}, rules=["RL021"])
        assert result.ok

    def test_negative_non_spec_class(self, tmp_path):
        result = run_lint(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass
            class MutableScratch:
                count: int = 0
        """}, rules=["RL021"])
        assert result.ok

    def test_fixer_freezes_the_spec(self, tmp_path):
        target = write_tree(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass
            class RetrySpec:
                attempts: int = 3
        """}) / "api/extra.py"
        linter = Linter(rules=["RL021"])
        result = linter.run([tmp_path])
        assert not result.ok
        applied = apply_fixes(result.active)
        assert sum(applied.values()) == 1
        assert "@dataclass(frozen=True)" in target.read_text()
        assert linter.run([tmp_path]).ok


# -- RL022 no-print ---------------------------------------------------------


class TestNoPrint:
    def test_positive_print_in_library(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/bus.py": """
            def debug(x):
                print(x)
        """}, rules=["RL022"])
        assert rule_ids(result) == ["RL022"]

    def test_negative_print_at_the_edge(self, tmp_path):
        result = run_lint(tmp_path, {"cli.py": """
            def cmd(x):
                print(x)
        """}, rules=["RL022"])
        assert result.ok


# -- RL000 unused-suppression -----------------------------------------------


class TestUnusedSuppression:
    def test_positive_dead_suppression(self, tmp_path):
        result = run_lint(tmp_path, {"clean.py": """
            def fine():
                return 1  # repro-lint: disable=RL022
        """})
        assert rule_ids(result) == ["RL000"]
        assert result.active[0].fix is not None

    def test_positive_unknown_rule(self, tmp_path):
        result = run_lint(tmp_path, {"clean.py": """
            def fine():
                return 1  # repro-lint: disable=RL999
        """})
        assert rule_ids(result) == ["RL000"]
        assert "unknown" in result.active[0].message

    def test_negative_live_suppression(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL010
        """})
        assert result.ok
        assert len(result.suppressed) == 1

    def test_fixer_removes_dead_comment(self, tmp_path):
        target = write_tree(tmp_path, {"clean.py": """
            def fine():
                return 1  # repro-lint: disable=RL022
        """}) / "clean.py"
        result = Linter().run([tmp_path])
        applied = apply_fixes(result.active)
        assert sum(applied.values()) == 1
        assert "repro-lint" not in target.read_text()
        assert Linter().run([tmp_path]).ok

    def test_unselected_rules_are_not_judged(self, tmp_path):
        # Running only RL001 cannot decide whether an RL010
        # suppression is dead.
        result = run_lint(tmp_path, {"clean.py": """
            def fine():
                return 1  # repro-lint: disable=RL010
        """}, rules=["RL000", "RL001"])
        assert result.ok


# -- suppressions -----------------------------------------------------------


class TestSuppression:
    def test_line_suppression(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL010 -- telemetry
        """}, rules=["RL010"])
        assert result.ok
        assert len(result.suppressed) == 1

    def test_disable_all(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=all
        """}, rules=["RL010"])
        assert result.ok

    def test_other_rule_not_suppressed(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL022
        """}, rules=["RL010"])
        assert rule_ids(result) == ["RL010"]

    def test_comment_in_string_is_not_a_suppression(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                note = "# repro-lint: disable=RL010"
                return time.time(), note
        """}, rules=["RL010"])
        assert rule_ids(result) == ["RL010"]


# -- baseline ---------------------------------------------------------------


class TestBaseline:
    def test_round_trip(self, tmp_path):
        files = {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """}
        first = run_lint(tmp_path, files, rules=["RL010"])
        assert not first.ok

        baseline_path = tmp_path / "baseline.json"
        baseline = Baseline.from_findings(first.active, path=baseline_path)
        baseline.save()
        reloaded = Baseline.load(baseline_path)
        assert len(reloaded) == 1

        second = Linter(rules=["RL010"], baseline=reloaded).run([tmp_path])
        assert second.ok
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_baseline_survives_line_moves(self, tmp_path):
        files = {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """}
        first = run_lint(tmp_path, files, rules=["RL010"])
        baseline = Baseline.from_findings(first.active)

        moved = {"streaming/analyzer.py": """
            import time

            # an unrelated comment pushing everything down


            def stamp():
                return time.time()
        """}
        second = run_lint(tmp_path, moved, rules=["RL010"],
                          baseline=baseline)
        assert second.ok
        assert len(second.baselined) == 1

    def test_new_finding_is_not_masked(self, tmp_path):
        files = {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """}
        first = run_lint(tmp_path, files, rules=["RL010"])
        baseline = Baseline.from_findings(first.active)

        grown = {"streaming/analyzer.py": """
            import random
            import time

            def stamp():
                return time.time()

            def jitter(xs):
                random.shuffle(xs)
        """}
        second = run_lint(tmp_path, grown, rules=["RL010"],
                          baseline=baseline)
        assert not second.ok
        assert len(second.active) == 1
        assert "random.shuffle" in second.active[0].message

    def test_stale_entries_reported(self, tmp_path):
        files = {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """}
        first = run_lint(tmp_path, files, rules=["RL010"])
        baseline = Baseline.from_findings(first.active)

        fixed = {"streaming/analyzer.py": """
            def stamp(t):
                return t
        """}
        second = run_lint(tmp_path, fixed, rules=["RL010"],
                          baseline=baseline)
        assert second.ok
        assert len(second.stale_baseline) == 1

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"not": "a baseline"}))
        with pytest.raises(ValueError, match="not a lint baseline"):
            Baseline.load(path)


# -- engine / registry ------------------------------------------------------


class TestEngine:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            Linter(rules=["RL999"])

    def test_parse_error_is_a_finding(self, tmp_path):
        result = run_lint(tmp_path, {"broken.py": "def oops(:\n"})
        assert rule_ids(result) == ["RL-PARSE"]

    def test_custom_rule_registration(self, tmp_path):
        @register_rule
        class NoTodoRule(Rule):
            id = "RL901"
            name = "no-todo-test-rule"
            description = "test-only rule"

            def check_file(self, ctx, config, project):
                for line_no, line in enumerate(ctx.lines, start=1):
                    if "TODO" in line:
                        yield Finding(
                            path=ctx.path, line=line_no, col=0,
                            rule=self.id, message="TODO found",
                            symbol=ctx.symbol_at(line_no),
                        )

        try:
            result = run_lint(
                tmp_path, {"todo.py": "x = 1  # TODO later\n"},
                rules=["RL901"])
            assert rule_ids(result) == ["RL901"]
        finally:
            RULES.unregister("RL901")

    def test_rule_listing_names_every_builtin(self):
        listing = render_rule_list()
        for rule_id in ("RL000", "RL001", "RL002", "RL003", "RL010",
                        "RL020", "RL021", "RL022"):
            assert rule_id in listing
        assert "RL011" not in listing

    def test_pickled_payloads_in_parallel_pass_every_rule(self, tmp_path):
        # The process executor pickles every payload by design.
        result = run_lint(tmp_path, {"parallel/executor.py": """
            import pickle

            def pack(array):
                return pickle.dumps(array)
        """})
        assert result.ok

    def test_json_report_shape(self, tmp_path):
        result = run_lint(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """}, rules=["RL010"])
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["active"][0]["rule"] == "RL010"
        assert payload["active"][0]["fingerprint"]

    def test_config_is_policy(self, tmp_path):
        # Widening the analysis path is a config change, not a rule
        # change.
        config = LintConfig(analysis_paths=("widget/*.py",))
        result = run_lint(tmp_path, {"widget/logic.py": """
            import time

            def stamp():
                return time.time()
        """}, rules=["RL010"], config=config)
        assert not result.ok


# -- CLI --------------------------------------------------------------------


class TestCli:
    def seeded_violation(self, tmp_path) -> Path:
        """The deliberate-regression fixture the CI gate must catch."""
        return write_tree(tmp_path, {"streaming/analyzer.py": """
            import time

            def stamp():
                return time.time()
        """})

    def test_cli_fails_on_seeded_violation(self, tmp_path, capsys):
        tree = self.seeded_violation(tmp_path)
        code = main(["lint", str(tree),
                     "--baseline", str(tmp_path / "baseline.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL010" in out
        assert "FAIL" in out

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"fine.py": "x = 1\n"})
        code = main(["lint", str(tree),
                     "--baseline", str(tmp_path / "baseline.json")])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_json_report_artifact(self, tmp_path, capsys):
        tree = self.seeded_violation(tmp_path)
        report = tmp_path / "lint-report.json"
        code = main(["lint", str(tree), "--format", "json",
                     "--output", str(report),
                     "--baseline", str(tmp_path / "baseline.json")])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["active"][0]["rule"] == "RL010"

    def test_cli_write_and_honor_baseline(self, tmp_path, capsys):
        tree = self.seeded_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(tree), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main(["lint", str(tree),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_cli_rule_selection(self, tmp_path, capsys):
        tree = self.seeded_violation(tmp_path)
        code = main(["lint", str(tree), "--rules", "RL020",
                     "--baseline", str(tmp_path / "baseline.json")])
        assert code == 0  # RL010 not selected: the violation is unseen
        code = main(["lint", str(tree), "--rules", "bogus",
                     "--baseline", str(tmp_path / "baseline.json")])
        assert code == 2
        capsys.readouterr()

    def test_cli_fix(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"api/extra.py": """
            from dataclasses import dataclass

            @dataclass
            class RetrySpec:
                attempts: int = 3
        """})
        code = main(["lint", str(tree), "--fix",
                     "--baseline", str(tmp_path / "baseline.json")])
        assert code == 0
        assert "applied 1 fix" in capsys.readouterr().out
        assert "@dataclass(frozen=True)" in \
            (tree / "api/extra.py").read_text()


# -- the live tree ----------------------------------------------------------


class TestLiveTree:
    def test_repro_lint_runs_clean_on_the_live_tree(self):
        """The acceptance meta-test: the shipped tree has zero debt.

        The committed baseline is *empty* -- RL001/RL010/RL020 hold
        everywhere, not as grandfathered legacy findings.
        """
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert len(baseline) == 0
        result = lint_paths([LIVE_TREE], baseline=baseline)
        assert result.ok, "\n" + render_text(result)
        assert not result.stale_baseline
        assert result.files_checked > 100

    def test_live_guarded_by_annotations_exist(self):
        """The convention is actually in use, not just supported."""
        annotated = [
            path for path in LIVE_TREE.rglob("*.py")
            if "# guarded-by:" in path.read_text(encoding="utf-8")
        ]
        names = {path.name for path in annotated}
        assert {"service.py", "health.py", "query.py"} <= names

    def test_every_rule_has_fixture_coverage(self):
        """Meta: each registered builtin appears in this test file."""
        source = Path(__file__).read_text(encoding="utf-8")
        for cls in all_rules():
            assert f'"{cls.id}"' in source, cls.id
