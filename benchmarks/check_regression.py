#!/usr/bin/env python
"""Benchmark-regression gate: compare results against baselines.

Compares freshly produced benchmark JSON files (``BENCH_*.json``)
against the committed baselines in ``benchmarks/baselines/`` and
fails when a time-like metric got more than ``--factor`` slower (or a
rate-like metric more than ``--factor`` lower).  CI runs it hard on
pushes and ``--warn-only`` on pull requests, so a PR shows the
regression without blocking on runner noise.

Two kinds of gate run per file:

* **Relative** -- every metric key shared with the baseline, classified
  by suffix (lower-is-better: ``*_s``, ``*_ms``, ``*_seconds``;
  higher-is-better: ``*_per_sec``, ``*_per_s``, ``speedup*``;
  everything else is informational), fails when it moved
  more than ``--factor`` the wrong way.
* **Absolute floors** -- a baseline may carry a ``_gates`` metadata
  block (keys starting with ``_`` are never treated as metrics)::

      "_gates": {
        "components_8.speedup_process@4":
          {"floor": 1.5, "higher_is_better": true, "min_cpus": 4}
      }

  The dotted path is looked up in the *current* results and must meet
  the floor outright -- no relative slack.  A gate with ``min_cpus``
  only *fails* on hosts whose recorded ``cpus`` meets it; smaller
  hosts (laptops, 1-core containers) get a warning line instead, so
  the multi-core speedup floor is enforced exactly where the hardware
  can deliver it.

Baselines were recorded on one reference machine; a 2x default factor
absorbs normal machine-to-machine spread while still catching real
algorithmic regressions.  Refresh a baseline by re-running the
benchmark and copying the JSON into ``benchmarks/baselines/``
(keeping the ``_gates`` block).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

LOWER_IS_BETTER = ("_s", "_ms", "_seconds")
HIGHER_IS_BETTER = ("_per_sec", "_per_s")


def _leaves(node, prefix=""):
    """Flatten nested dicts to {dotted.path: numeric value}.

    Keys starting with ``_`` (e.g. the ``_gates`` metadata block) are
    metadata, not metrics, and are skipped at every nesting level.
    """
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if str(key).startswith("_"):
                continue
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_leaves(value, path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


def _direction(path: str) -> str | None:
    key = path.rsplit(".", 1)[-1]
    if "speedup" in key or key.endswith(HIGHER_IS_BETTER):
        return "higher"
    if key.endswith(LOWER_IS_BETTER):
        return "lower"
    return None


def compare(baseline: dict, current: dict,
            factor: float) -> tuple[list[str], int]:
    """Returns (report lines, number of regressions)."""
    lines, regressions = [], 0
    base_leaves = _leaves(baseline)
    curr_leaves = _leaves(current)
    for path in sorted(base_leaves):
        direction = _direction(path)
        if direction is None or path not in curr_leaves:
            continue
        base, curr = base_leaves[path], curr_leaves[path]
        if base <= 0.0:
            continue
        ratio = curr / base
        if direction == "lower":
            regressed = ratio > factor
            trend = f"{ratio:.2f}x slower" if ratio > 1.0 \
                else f"{1.0 / ratio:.2f}x faster"
        else:
            regressed = ratio < 1.0 / factor
            trend = f"{1.0 / ratio:.2f}x lower" if ratio < 1.0 \
                else f"{ratio:.2f}x higher"
        marker = "REGRESSION" if regressed else "ok"
        lines.append(f"  {marker:>10}  {path:<48} "
                     f"{base:>12.4f} -> {curr:>12.4f}  ({trend})")
        regressions += int(regressed)
    return lines, regressions


def check_gates(baseline: dict, current: dict) -> tuple[list[str], int]:
    """Apply the baseline's ``_gates`` absolute floors to ``current``.

    Returns (report lines, number of hard failures).  A gate whose
    ``min_cpus`` exceeds the current run's recorded ``cpus`` degrades
    to a warning line -- the floor describes multi-core behaviour a
    small host cannot physically exhibit.
    """
    gates = baseline.get("_gates", {})
    if not isinstance(gates, dict):
        return [f"  malformed _gates block: {type(gates).__name__}"], 1
    curr_leaves = _leaves(current)
    cpus = int(curr_leaves.get("cpus", 0))
    lines, failures = [], 0
    for path in sorted(gates):
        gate = gates[path]
        floor = float(gate["floor"])
        higher = bool(gate.get("higher_is_better", True))
        min_cpus = int(gate.get("min_cpus", 0))
        bound = f"{'>=' if higher else '<='} {floor:g}"
        curr = curr_leaves.get(path)
        if curr is None:
            lines.append(f"  {'GATE FAIL':>10}  {path:<48} "
                         f"missing from results (need {bound})")
            failures += 1
            continue
        met = curr >= floor if higher else curr <= floor
        if met:
            marker = "gate ok"
        elif min_cpus and cpus < min_cpus:
            marker = "gate warn"
            bound += f" needs >= {min_cpus} cpus, have {cpus}"
        else:
            marker = "GATE FAIL"
            failures += 1
        lines.append(f"  {marker:>10}  {path:<48} "
                     f"{curr:>12.4f}  (floor {bound})")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", metavar="RESULT.json",
                        help="freshly produced benchmark JSON files")
    parser.add_argument("--baselines",
                        default=str(Path(__file__).parent / "baselines"),
                        help="directory holding committed baselines")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown factor (default 2.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (PR mode)")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baselines)
    total_regressions = 0
    for result_path in map(Path, args.results):
        baseline_path = baseline_dir / result_path.name
        if not result_path.exists():
            print(f"{result_path}: missing result file", file=sys.stderr)
            total_regressions += 1
            continue
        if not baseline_path.exists():
            print(f"{result_path.name}: no baseline committed; "
                  f"skipping (add one under {baseline_dir})")
            continue
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(result_path) as fh:
            current = json.load(fh)
        lines, regressions = compare(baseline, current, args.factor)
        gate_lines, gate_failures = check_gates(baseline, current)
        total_regressions += regressions + gate_failures
        print(f"{result_path.name} vs {baseline_path} "
              f"(factor {args.factor:g}x):")
        print("\n".join(lines) if lines else "  (no gated metrics)")
        if gate_lines:
            print("\n".join(gate_lines))

    if total_regressions:
        verdict = f"{total_regressions} benchmark regression(s)"
        if args.warn_only:
            print(f"WARNING: {verdict} (warn-only mode, not failing)")
            return 0
        print(f"FAIL: {verdict}", file=sys.stderr)
        return 1
    print("benchmark gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
