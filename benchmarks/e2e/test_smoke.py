"""Smoke test of the e2e benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One ``--quick`` suite (a few minutes) must produce every metric
``BENCHMARK.json`` names, for all four workloads, with finite values
and passing checks; every trace must be a well-formed span tree; and
a result compared with itself must be all ``same``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics as mt  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads(
    (HERE.parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return out, json.loads((out / "result.json").read_text())


def test_benchmark_json_names_the_metrics_of_metrics_py():
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(end_to_end) == \
        set(mt.END_TO_END) - set(mt.NOT_IN_DRIVER_FILE)
    for name, entry in end_to_end.items():
        assert (entry["unit"], entry["better"], entry["bound"]) \
            == mt.END_TO_END[name]
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in BENCHMARK["per_layer"]}
    assert per_layer == mt.PER_LAYER


def test_quick_suite_produces_every_metric(quick):
    _, result = quick
    assert result["comparable"] is False
    assert result["problems"] == []
    for workload in BENCHMARK["workloads"]:
        entry = result["workloads"][workload["name"]]
        for metric in BENCHMARK["end_to_end"]:
            assert math.isfinite(
                entry["end_to_end"][metric["name"]]["median"])
        for metric in BENCHMARK["per_layer"]:
            assert math.isfinite(
                entry["per_layer"][metric["name"]]["value"])


def test_traces_are_well_formed_span_trees(quick):
    out, result = quick
    for workload in result["workloads"]:
        _meta, spans = tracing.load(str(out / f"trace-{workload}.json"))
        assert spans
        assert tracing.malformed(spans) == []
        assert tracing.self_times(spans).min() >= -1e-6


def test_a_result_compared_with_itself_is_all_same(quick):
    _, result = quick
    rows = compare.compare(result, result)
    assert len(rows) == len(mt.END_TO_END) * len(result["workloads"])
    assert {row["verdict"] for row in rows} == {"same"}
