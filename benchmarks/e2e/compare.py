#!/usr/bin/env python3
"""Compare two ``result.json`` files of the e2e benchmark.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py --self-check [--repeats N] ...

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A (A is always the base), the metric's bound
and a verdict by the rules of the ``choosing-metrics`` guide:

* ``unresolved`` -- the spread between either side's own runs
  (quartile distance over median) is wider than the bound, unless
  every run of B reads better than every run of A;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B wins at least nine tenths of the run pairs and the
  medians differ by more than the distance between A's quartiles;
* ``same`` -- anything else.

``--self-check`` runs two full suites of the checked-out code and
exits non-zero when any pair of medians disagrees beyond its bound,
when a metric that must resolve on this machine is ``unresolved``, or
when ``cluster_ari``, ``edge_f1`` or ``fail_share`` does not repeat
exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as mt  # noqa: E402
import workloads as wl  # noqa: E402

#: Must not be ``unresolved`` in a self-check on this machine.
MUST_RESOLVE = ("ingest_points_per_s", "insight_ms_p50", "server_cpu_s",
                "peak_rss_mb", "disk_mb")

#: Must repeat exactly in a self-check: both sets run the same seed.
MUST_REPEAT = ("cluster_ari", "edge_f1", "fail_share")


def verdict(name: str, base: list[float], change: list[float]) -> str:
    bound = mt.END_TO_END[name][2]
    if base == change:
        return "same"
    q1, base_median, q3 = mt.quartiles(base)
    change_median = mt.quartiles(change)[1]
    worse = mt.worse_by(name, base_median, change_median)
    clear_of_noise = abs(change_median - base_median) > q3 - q1
    if mt.spread(base) > bound or mt.spread(change) > bound:
        every_run_better = all(mt.worse_by(name, a, b) < 0
                               for a in base for b in change)
        if every_run_better and clear_of_noise:
            return "better"
        return "unresolved"
    if worse > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(mt.worse_by(name, a, b) < 0 for a, b in pairs)
    if worse < 0 and clear_of_noise and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(first: dict, second: dict) -> list[dict]:
    """Rows for every (workload, metric) both results hold."""
    rows = []
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for name in mt.END_TO_END:
            a = entry["end_to_end"][name]
            b = other["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name,
                "unit": a["unit"], "bound": a["bound"],
                "a": (a["median"], a["q1"], a["q3"]),
                "b": (b["median"], b["q1"], b["q3"]),
                "ratio": b["median"] / a["median"]
                if a["median"] else float("nan"),
                "disagreement": abs(mt.worse_by(name, a["median"],
                                                b["median"])),
                "verdict": verdict(name, a["values"], b["values"]),
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':15s}{'metric':22s}{'unit':>9s}"
          f"{'A median [q1, q3]':>38s}{'B median [q1, q3]':>38s}"
          f"{'B/A':>8s}{'bound':>7s}  verdict")
    for row in rows:
        a = "{:.4f} [{:.4f}, {:.4f}]".format(*row["a"])
        b = "{:.4f} [{:.4f}, {:.4f}]".format(*row["b"])
        print(f"{row['workload']:15s}{row['metric']:22s}"
              f"{row['unit']:>9s}{a:>38s}{b:>38s}"
              f"{row['ratio']:8.3f}{row['bound']:7.2f}  "
              f"{row['verdict']}")
    print("B/A is B's median over A's median (base: A)")


def self_check(args: argparse.Namespace) -> int:
    import run

    scale = wl.Scale.quick() if args.quick \
        else wl.Scale(seconds=args.seconds)
    repeats = 1 if args.quick else args.repeats
    results = []
    for label in ("A", "B"):
        print(f"--- self-check set {label}", flush=True)
        report = run.run_suite(list(wl.WORKLOADS), repeats, args.seed,
                               scale, Path(args.out) / f"self-check-{label}")
        if report["problems"]:
            print(f"set {label} failed checks: {report['problems']}")
            return 1
        results.append(report)
    rows = compare(*results)
    print_rows(rows)
    failures = [
        f"{row['workload']}.{row['metric']}: the two sets disagree by "
        f"{row['disagreement']:.3f} of A, beyond the bound "
        f"{row['bound']}"
        for row in rows if row["disagreement"] > row["bound"]
    ] + [
        f"{row['workload']}.{row['metric']}: does not repeat exactly"
        for row in rows
        if row["metric"] in MUST_REPEAT and row["a"] != row["b"]
    ] + [
        f"{row['workload']}.{row['metric']}: unresolved"
        for row in rows
        if row["verdict"] == "unresolved"
        and row["metric"] in MUST_RESOLVE
    ]
    for failure in failures:
        print(failure)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULT.json")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=wl.Scale().seconds)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if len(args.files) != 2:
        parser.error("give two result.json files, or --self-check")
    loaded = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    for label, result in zip("AB", loaded):
        if not result.get("comparable", True):
            print(f"note: {label} is a --quick result, "
                  "not comparable with a full run")
    rows = compare(*loaded)
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
