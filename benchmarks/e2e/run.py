#!/usr/bin/env python3
"""The repo's one benchmark: socket to insight, end to end and layer
by layer.

Two ways in, one set of runs behind them:

* the suite (what a person runs)::

      python benchmarks/e2e/run.py [--workloads a,b] [--repeats N]
                                   [--seed S] [--seconds S] [--quick]
                                   [--out DIR]

  runs every workload ``--repeats`` times round-robin (w1 w2 w3 w4,
  w1 ...), then one traced run per workload, prints every metric by
  name with its unit, checks the outputs and writes
  ``<out>/result.json`` plus one ``trace-<workload>.json``.  Exit
  code 1 when a correctness check fails.

* one run (what the driver of ``BENCHMARK.json`` runs)::

      python benchmarks/e2e/run.py --workload NAME --seed N
                                   --seconds S --trace 0|1

  ``--trace 0`` is one socket run and prints the end-to-end metrics,
  ``--trace 1`` is the traced run and prints the per-layer metrics;
  the last line of stdout is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics``.

See README.md beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS"):
    # One BLAS thread: set before numpy loads, inherited by children.
    os.environ[_name] = "1"

import harness  # noqa: E402
import layers  # noqa: E402
import metrics as mt  # noqa: E402
import workloads as wl  # noqa: E402


DISTURBED_ABOVE = 1.15
MAX_RERUNS = 2


class NoiseGuard:
    """A fixed pure-Python spin before and after every run; a run
    whose spin is more than 15% above the session minimum was
    disturbed and is run again, at most twice."""

    def __init__(self, max_reruns: int = MAX_RERUNS) -> None:
        self.max_reruns = max_reruns
        self.minimum = math.inf

    def run(self, fn):
        """``(result, record)`` of the first undisturbed attempt, or
        of the last one allowed."""
        attempts = []
        while True:
            before = harness.spin()
            result = fn()
            after = harness.spin()
            self.minimum = min(self.minimum, before, after)
            disturbed = max(before, after) \
                > DISTURBED_ABOVE * self.minimum
            attempts.append({"spin_before_ms": before,
                             "spin_after_ms": after,
                             "disturbed": disturbed})
            if not disturbed or len(attempts) > self.max_reruns:
                break
        return result, {"attempts": attempts,
                        "reruns": len(attempts) - 1}


def _finite(values: dict[str, float]) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values.values())


# -- one run, for the driver ------------------------------------------


def single_main(args: argparse.Namespace) -> int:
    workload = wl.WORKLOADS[args.workload]
    scale = wl.Scale(seconds=args.seconds)
    # The driver budgets its runs in advance, so one run is one
    # attempt here: a disturbed run is reported, not run again.
    guard = NoiseGuard(max_reruns=0)
    if args.trace:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result, noise = guard.run(lambda: layers.traced_run(
            workload, args.seed, scale,
            out / f"trace-{workload.name}.json"))
        result["metrics"]["bench.calib_spin_ms"] = guard.minimum
        result["metrics"]["bench.reruns"] = noise["reruns"]
        units = {name: unit for name, (unit, _) in mt.PER_LAYER.items()}
    else:
        result, noise = guard.run(
            lambda: harness.socket_run(workload, args.seed, scale))
        units = {name: unit
                 for name, (unit, _, _) in mt.END_TO_END.items()
                 if name not in mt.NOT_IN_DRIVER_FILE}
    values = {name: result["metrics"][name] for name in units}
    correct = all(result["checks"].values()) and _finite(values)
    for name, value in values.items():
        print(f"{name:46s} {value:16.6f} {units[name]}")
    for name, passed in result["checks"].items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    for failure in result["failures"]:
        print(f"failed operation: {failure}")
    print(f"noise guard: {noise}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


# -- the suite --------------------------------------------------------


def _summarize(name: str, values: list[float]) -> dict:
    unit, better, bound = mt.END_TO_END[name]
    q1, median, q3 = mt.quartiles(values)
    spread = mt.spread(values)
    return {"unit": unit, "better": better, "bound": bound,
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "status": "unresolved" if spread > bound else "ok",
            "values": values}


def run_suite(names: list[str], repeats: int, seed: int,
              scale: wl.Scale, out: Path) -> dict:
    """Every socket run and traced run of one suite; writes the
    result and trace files and returns the result."""
    out.mkdir(parents=True, exist_ok=True)
    guard = NoiseGuard()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"[run {repeat + 1}/{repeats}] {name} ...",
                  flush=True)
            result, noise = guard.run(lambda name=name: harness.socket_run(
                wl.WORKLOADS[name], seed, scale))
            result["noise"] = noise
            runs[name].append(result)
    traces = {}
    for name in names:
        print(f"[traced] {name} ...", flush=True)
        result, noise = guard.run(lambda name=name: layers.traced_run(
            wl.WORKLOADS[name], seed, scale, out / f"trace-{name}.json"))
        result["noise"] = noise
        traces[name] = result

    report: dict = {
        "fingerprint": harness.fingerprint(seed),
        "comparable": scale.comparable,
        "scale": vars(scale),
        "repeats": repeats,
        "workloads": {},
        "checks": {},
    }
    for name in names:
        traced = traces[name]
        reruns = traced["noise"]["reruns"] + sum(
            run["noise"]["reruns"] for run in runs[name])
        traced["metrics"]["bench.calib_spin_ms"] = guard.minimum
        traced["metrics"]["bench.reruns"] = reruns
        checks = dict(traced["checks"])
        for check in runs[name][0]["checks"]:
            checks[check] = all(run["checks"][check]
                                for run in runs[name])
        checks["metrics_finite"] = _finite(traced["metrics"]) and all(
            _finite(run["metrics"]) for run in runs[name])
        report["workloads"][name] = {
            "why": wl.WORKLOADS[name].why,
            "end_to_end": {
                metric: _summarize(
                    metric, [run["metrics"][metric]
                             for run in runs[name]])
                for metric in mt.END_TO_END},
            "per_layer": {
                metric: {"value": traced["metrics"][metric],
                         "unit": mt.PER_LAYER[metric][0]}
                for metric in mt.PER_LAYER},
            "shares": traced["shares"],
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "runs": [{key: run[key] for key in
                      ("samples", "noise", "checks", "failures")}
                     for run in runs[name]],
            "traced": {key: traced[key] for key in
                       ("samples", "noise", "failures")},
        }
        for check, passed in checks.items():
            report["checks"][f"{name}.{check}"] = passed
    report["problems"] = sorted(
        check for check, passed in report["checks"].items()
        if not passed)
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n=== {name}: {entry['why']}")
        print(f"{'end-to-end metric':24s}{'unit':>10s}{'median':>14s}"
              f"{'q1':>14s}{'q3':>14s}{'spread':>9s}{'bound':>7s}"
              "  status")
        for metric, row in entry["end_to_end"].items():
            print(f"{metric:24s}{row['unit']:>10s}"
                  f"{row['median']:14.4f}{row['q1']:14.4f}"
                  f"{row['q3']:14.4f}{row['spread']:9.3f}"
                  f"{row['bound']:7.2f}  {row['status']}")
        print(f"operations attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        print(f"{'per-layer metric (one traced run)':46s}"
              f"{'value':>16s}  unit")
        for metric, row in entry["per_layer"].items():
            print(f"{metric:46s}{row['value']:16.6f}  {row['unit']}")
    print()
    for check, passed in report["checks"].items():
        print(f"check {check}: {'pass' if passed else 'FAIL'}")
    if not report["comparable"]:
        print("quick run: numbers are not comparable with a full run")


def suite_main(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads \
        else list(wl.WORKLOADS)
    unknown = [name for name in names if name not in wl.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; "
              f"known: {list(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.quick:
        scale, repeats = wl.Scale.quick(), 1
    else:
        scale, repeats = wl.Scale(seconds=args.seconds), args.repeats
    report = run_suite(names, repeats, args.seed, scale, Path(args.out))
    print_report(report)
    print(f"\nwrote {Path(args.out) / 'result.json'}")
    return 1 if report["problems"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="",
                        help="comma list (default: all four)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=wl.Scale().seconds,
                        help="nominal length of the timed loop; it "
                             "picks a fixed request count")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size, not comparable")
    parser.add_argument("--out", default=str(harness.OUT))
    parser.add_argument("--workload", choices=list(wl.WORKLOADS),
                        help="one run of this workload (driver mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = the traced run")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")
    if not (harness.SRC / "repro").is_dir():
        print(f"no program to measure: {harness.SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    return single_main(args) if args.workload else suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
