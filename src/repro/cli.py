"""Command-line interface: ``python -m repro <command>``.

The CLI is a *thin adapter* over the public pipeline API
(:mod:`repro.api`): each subcommand parses its flags into a
declarative :class:`~repro.api.spec.RunSpec` -- or loads one from a
``--spec run.toml``/``run.json`` file, with explicitly passed flags
overriding the file -- and delegates to
:func:`~repro.api.session.build_pipeline`.  No bus, backend, executor
or consumer is constructed here; every policy name resolves through
the plugin registries, so registered extensions are immediately
reachable from the command line.

Subcommands mirror the paper's workflows:

* ``pipeline`` -- run Load -> Reduce -> Identify on an application;
* ``stream`` -- the streaming analysis engine against a live
  co-simulated application (crash-safe with ``--journal`` /
  ``--checkpoint``, resumable with ``--resume``);
* ``serve`` -- the same engine as an HTTP service: ``POST /ingest``
  feeds the bus, ``GET /api/...`` serves the latest analysis (same
  journal/checkpoint/resume semantics as ``stream``);
* ``record`` -- capture a live run into a durable storage backend;
* ``replay`` -- re-analyze a recorded backend from disk (Table 3);
* ``rca`` -- the OpenStack correct/faulty root-cause comparison;
* ``trace-overhead`` -- the Figure 5 tracing-technique comparison;
* ``catalog`` -- list an application model's components;
* ``spec`` -- emit the fully resolved spec of any invocation, for
  reproducibility: re-feeding it via ``--spec`` reproduces the run
  bit-identically.

Every run-mode flag is a row of one table (``_FLAGS``) that names the
:class:`RunSpec` field it sets; its type and default are the spec's,
never restated here.  Flags are registered with
``default=argparse.SUPPRESS`` so one parse tells typed flags from
untyped ones -- which is what lets a ``--spec`` file be overridden by
exactly the flags on the command line.  The few places where a bare
subcommand deliberately differs from ``RunSpec()`` (``serve`` labels
its run ``http``, ``stream``/``serve`` checkpoint every window, ...)
are listed once, in ``_CLI_DEFAULTS``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.api import (
    APPLICATIONS,
    BACKENDS,
    EXECUTORS,
    WORKLOADS,
    RunSpec,
    build_pipeline,
    load_spec,
    spec_to_json,
    spec_to_toml,
)
from repro.api.spec import RUN_MODES, SERVICE_CLOCKS


# -- the flag table ---------------------------------------------------------
#
# One row per flag: (flag, RunSpec path, help[, metavar | choices]).
# A string fourth element is the metavar; a registry or a sequence is
# the choice list (registries are read when the parser is built, so
# plugins registered after import are reachable).  Everything else is
# derived: the dest from the flag name, the value type and
# ``store_true``-ness from the ``RunSpec()`` default found at the path
# (``extra.*`` knobs: from the mode's entry in ``_CLI_DEFAULTS``).
#
# No row states a default.  Every flag is registered with
# ``default=argparse.SUPPRESS``, so the parsed namespace holds exactly
# the flags the user typed; :func:`_spec_from_args` writes those over
# the base spec (a ``--spec`` file, or the RunSpec defaults with the
# mode's ``_CLI_DEFAULTS`` applied) and the spec supplies the rest.
# Adding a flag is one row here plus its name in the ``_MODE_FLAGS``
# tuples of the modes that take it.

_FLAGS: dict[str, tuple] = {row[0]: row for row in (
    ("--app", "app",
     "application model to run (serve mode has no simulator, so there "
     "it is a free-form run label recorded on every analysis)",
     APPLICATIONS),
    ("--seed", "seed", None),
    ("--duration", "duration", "simulated seconds of load"),
    ("--snapshot", "snapshot",
     "write the analysis snapshot as JSON", "PATH"),
    ("--workload", "workload.kind", None, WORKLOADS),
    ("--rate", "workload.rate",
     "request rate of rate-shaped workloads"),
    ("--compare", "compare",
     "also run the batch analysis and report streaming-vs-batch "
     "convergence"),
    ("--executor", "streaming.executor",
     "where per-component analysis shards run (process = a process "
     "pool, true parallelism; identical results to serial on the same "
     "seed)", EXECUTORS),
    ("--workers", "streaming.executor_workers",
     "pool size of the process executor "
     "(0 = all cores; 1 falls back to serial)", "N"),
    # analysis windows
    ("--window", "streaming.window", "analysis window span, seconds"),
    ("--hop", "streaming.hop", "analysis cadence, seconds"),
    ("--retention", "streaming.retention",
     "ring-buffer retention, seconds"),
    ("--adaptive-hop", "streaming.adaptive_hop",
     "scale the analysis cadence with drift pressure (quiet systems "
     "analyze less often), bounded by --hop-min/--hop-max"),
    ("--hop-min", "streaming.hop_min",
     "lower bound of the adaptive cadence (0 = --hop)"),
    ("--hop-max", "streaming.hop_max",
     "upper bound of the adaptive cadence (0 = 4x --hop)"),
    # persistence
    ("--journal", "journal",
     "write-ahead ingest journal (makes the run replayable after a "
     "crash)", "PATH"),
    ("--checkpoint", "checkpoint",
     "checkpoint analysis state to PATH", "PATH"),
    ("--checkpoint-every", "streaming.checkpoint_every_windows",
     "checkpoint every N analyzed windows", "N"),
    ("--resume", "resume",
     "restore state from --checkpoint (and replay --journal) before "
     "streaming"),
    ("--store", "storage.path",
     "write ingested samples through to a durable store backend at "
     "PATH", "PATH"),
    ("--store-backend", "storage.kind",
     "backend kind behind --store", BACKENDS),
    ("--store-retention", "storage.retention",
     "compaction horizon of --compact / Session.compact(), seconds "
     "(0 keeps everything)"),
    ("--store-schedule", "storage.schedule",
     "tiered-retention schedule applied by --compact, e.g. "
     "'1000s:full,4000s:1m,inf:10m' (full resolution for the newest "
     "1000s, then mean/min/max/count rollups; empty = full resolution "
     "everywhere)", "SCHEDULE"),
    # record / replay name the same storage target differently
    ("--backend", "storage.kind", None, BACKENDS),
    ("--out", "storage.path",
     "sqlite database file to record into (overwritten)", "PATH"),
    ("--path", "storage.path",
     "recorded sqlite database file", "PATH"),
    # self-telemetry
    ("--telemetry", "telemetry.enabled",
     "collect self-telemetry (metrics + per-window phase spans); "
     "merged into the end-of-run summary"),
    ("--telemetry-port", "telemetry.port",
     "serve /metrics (Prometheus), /metrics.json, /traces and /healthz "
     "on PORT while streaming (implies --telemetry)", "PORT"),
    ("--telemetry-host", "telemetry.host",
     "bind address of --telemetry-port", "HOST"),
    # the operations service
    ("--port", "service.port",
     "serve /ingest, /api/... and /metrics on PORT (0 = ephemeral; "
     "printed at startup)", "PORT"),
    ("--host", "service.host", "bind address of --port", "HOST"),
    ("--clock", "service.clock",
     "schedule analysis hops off ingest watermarks (deterministic) or "
     "the wall clock (a poller thread)", SERVICE_CLOCKS),
    ("--poll-interval", "service.poll_interval",
     "wall seconds between analysis offers for --clock wall "
     "(0 = --hop)"),
    ("--event-history", "service.event_history",
     "operational events retained behind /api/events", "N"),
    ("--topology", "service.topology",
     "declare one static deployment edge (repeatable); HTTP ingest has "
     "no tracer to observe calls", "CALLER:CALLEE[:COUNT]"),
    # case-study knobs (RunSpec.extra)
    ("--iterations", "extra.iterations",
     "Rally boot_and_delete iterations"),
    ("--threshold", "extra.threshold", None, (0.0, 0.5, 0.6, 0.7)),
    ("--requests", "extra.requests", None),
    # The one flag with no spec path: it paces cmd_stream's printing,
    # not the run, so it is parsed (an integer) and never written.
    ("--progress", None,
     "print a backpressure progress line (bus shedding) every N "
     "windows (0 = off)", "N"),
)}

_COMMON = ("--seed", "--duration")
_PARALLEL = ("--executor", "--workers")
_WORKLOAD = ("--workload", "--rate")
_WINDOW = ("--window", "--hop", "--retention", "--adaptive-hop",
           "--hop-min", "--hop-max")
_PERSISTENCE = ("--journal", "--checkpoint", "--checkpoint-every",
                "--resume", "--store", "--store-backend",
                "--store-retention", "--store-schedule")
_TELEMETRY = ("--telemetry", "--telemetry-port", "--telemetry-host")

#: The flags of each mode, in ``--help`` order.
_MODE_FLAGS: dict[str, tuple[str, ...]] = {
    "pipeline": ("--app", "--snapshot", *_COMMON),
    "stream": ("--app", *_WINDOW, *_WORKLOAD, "--compare",
               *_PERSISTENCE, *_TELEMETRY, "--progress", *_PARALLEL,
               *_COMMON),
    "serve": ("--app", "--port", "--host", "--clock", "--poll-interval",
              "--event-history", "--topology", *_WINDOW, *_PERSISTENCE,
              *_TELEMETRY, *_PARALLEL, *_COMMON),
    "record": ("--app", "--backend", "--out", *_WORKLOAD,
               "--store-retention", "--store-schedule", *_COMMON),
    "replay": ("--backend", "--path", "--seed", *_PARALLEL),
    "rca": ("--iterations", "--threshold", *_COMMON),
    "trace-overhead": ("--requests", "--seed"),
    "catalog": ("--app",),
}

#: The only places where a bare subcommand resolves to something other
#: than ``RunSpec``'s own defaults.
_CLI_DEFAULTS: dict[str, dict] = {
    # A streamed run given --checkpoint/--store means them: checkpoint
    # every window, store in sqlite (storage stays off without a path).
    "stream": {"streaming": {"checkpoint_every_windows": 1},
               "storage": {"kind": "sqlite"}},
    # The subcommand *is* the request for the operations surface (a
    # --spec file that explicitly disables it still errors out).
    "serve": {"app": "http",
              "streaming": {"checkpoint_every_windows": 1},
              "storage": {"kind": "sqlite"},
              "service": {"enabled": True}},
    "record": {"storage": {"kind": "sqlite"}},
    "replay": {"storage": {"kind": "sqlite"}},
    # The RCA case study is defined on the OpenStack model.
    "rca": {"app": "openstack",
            "extra": {"iterations": 15, "threshold": 0.5}},
    "trace-overhead": {"extra": {"requests": 10_000}},
}


def _merge(base: dict, overrides: dict) -> dict:
    """Recursively overlay ``overrides`` onto ``base`` (in place)."""
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def _mode_defaults(mode: str) -> dict:
    """What a bare ``repro <mode>`` resolves to, as a spec dict."""
    return _merge(RunSpec().to_dict(),
                  {"mode": mode, **_CLI_DEFAULTS.get(mode, {})})


def _at(data: dict, path: str) -> Any:
    """The value at a dotted ``path`` of a nested dict."""
    for key in path.split("."):
        data = data[key]
    return data


def _add_flags(parser: argparse.ArgumentParser, mode: str) -> None:
    """Register ``mode``'s rows of the flag table on ``parser``."""
    defaults = _mode_defaults(mode)
    for flag in _MODE_FLAGS[mode]:
        _, path, help_, *shape = _FLAGS[flag]
        default = _at(defaults, path) if path else 0
        kwargs: dict[str, Any] = {"default": argparse.SUPPRESS,
                                  "help": help_}
        if isinstance(default, bool):
            kwargs["action"] = "store_true"
        elif isinstance(default, list):
            kwargs["action"] = "append"
        elif not isinstance(default, str):
            kwargs["type"] = type(default)
        if shape and isinstance(shape[0], str):
            kwargs["metavar"] = shape[0]
        elif shape and not (flag == "--app" and mode == "serve"):
            # (serve's --app is a label, not a registered model.)
            choices = shape[0]
            kwargs["choices"] = choices.names() \
                if hasattr(choices, "names") else choices
        parser.add_argument(flag, **kwargs)


def _add_spec_file(parser) -> None:
    parser.add_argument("--spec", metavar="PATH",
                        help="load a RunSpec file (.toml or .json); "
                             "explicitly passed flags override it")


def _add_compact(parser) -> None:
    parser.add_argument("--compact", action="store_true",
                        default=False,
                        help="compact the durable store after the run "
                             "(roll up per --store-schedule, drop "
                             "samples past the --store-retention "
                             "horizon, then VACUUM sqlite)")


# -- flags -> RunSpec ------------------------------------------------------


def _parse_topology(edges) -> list:
    """``caller:callee[:count]`` CLI edges -> ServiceSpec topology."""
    parsed = []
    for edge in edges or []:
        parts = str(edge).split(":")
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise ValueError(
                f"topology edge must be CALLER:CALLEE[:COUNT], "
                f"got {edge!r}"
            )
        if len(parts) == 3:
            parsed.append([parts[0], parts[1], int(parts[2])])
        else:
            parsed.append([parts[0], parts[1]])
    return parsed


def _spec_from_args(args, mode: str) -> RunSpec:
    """Resolve the declarative spec of one invocation.

    The base is the ``--spec`` file when one is given, else the mode's
    defaults; every flag present in ``args`` (i.e. typed) overrides it.
    """
    spec_path = getattr(args, "spec", None)
    if spec_path:
        data = load_spec(spec_path).to_dict()
        if data["mode"] != mode:
            raise ValueError(
                f"--spec file declares mode {data['mode']!r}, "
                f"but the {mode!r} subcommand was invoked"
            )
    else:
        data = _mode_defaults(mode)
    for flag in _MODE_FLAGS[mode]:
        path, dest = _FLAGS[flag][1], flag[2:].replace("-", "_")
        if path is None or not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if flag == "--topology":
            value = _parse_topology(value)
        head, _, leaf = path.rpartition(".")
        (_at(data, head) if head else data)[leaf] = value
    # The historical CLI contract: a window wider than the retention
    # flag silently widens retention to cover it.
    streaming = data["streaming"]
    streaming["retention"] = max(streaming["retention"],
                                 streaming["window"])
    return RunSpec.from_dict(data)


# -- subcommands -----------------------------------------------------------


def _guarded(args, mode: str):
    """Resolve flags (+ any --spec file) into ``(spec, session, 0)``.

    User errors -- a bad value, a missing file, a busy port -- print
    to stderr and become ``(None, None, 2)``.
    """
    try:
        spec = _spec_from_args(args, mode)
        return spec, build_pipeline(spec), 0
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return None, None, 2


def cmd_pipeline(args) -> int:
    spec, session, code = _guarded(args, "pipeline")
    if code:
        return code
    with session:
        result = session.run()
    summary = result.summary()
    for key, value in summary.items():
        print(f"{key:>18}: {value}")
    hub = result.dependency_graph.most_connected_metric()
    if hub is not None:
        print(f"{'guiding metric':>18}: {hub[0]}/{hub[1]}")
    if spec.snapshot:
        print(f"{'snapshot':>18}: written to {spec.snapshot}")
    return 0


def _print_window(analysis) -> None:
    s = analysis.summary()
    reasons = ", ".join(
        f"{reason}:{len(names)}"
        for reason, names in sorted(s["reasons"].items())
    ) or "-"
    print(f"window {s['window']:>3}  "
          f"[{s['span'][0]:>7.1f}, {s['span'][1]:>7.1f}]  "
          f"metrics={s['metrics']:>4}  reps={s['representatives']:>3}  "
          f"relations={s['relations']:>4}  "
          f"recluster={s['reclustered']:>2} ({reasons})  "
          f"reuse={s['reused']:>2}  "
          f"analysis={s['analysis_ms']:>8.1f}ms")


def _progress_line(session) -> str:
    """One backpressure line: bus shedding."""
    engine = session.engine
    bus = engine.bus.stats
    return (f"progress: windows={engine.stats.windows} "
            f"points={bus.points_flushed} "
            f"dropped={bus.overflow_dropped} "
            f"downsampled={bus.overflow_downsampled} "
            f"overflow_events={bus.overflow_events}")


def cmd_stream(args) -> int:
    spec, session, code = _guarded(args, "stream")
    if code:
        return code
    config = spec.streaming
    progress_every = int(getattr(args, "progress", 0) or 0)

    def on_window(analysis) -> None:
        _print_window(analysis)
        if progress_every and analysis.index % progress_every == 0:
            print(_progress_line(session))

    try:
        if session.resumed:
            print(f"resumed from {spec.checkpoint} "
                  f"(window {session.engine.stats.windows}, "
                  f"{session.engine.windows.total_points()} "
                  f"points replayed)")
        print(f"streaming {spec.app} for {session.remaining():.0f}s "
              f"(window={config.window:.0f}s hop={config.hop:.0f}s "
              f"retention={config.retention:.0f}s "
              f"executor={config.executor})")
        server = session.telemetry.server \
            if session.telemetry is not None else None
        if server is not None:
            print(f"telemetry: {server.url}/metrics  "
                  f"(also /metrics.json /traces /healthz)")
        outcome = session.run(on_window=on_window)
        print()
        summary = dict(outcome.summary)
        telemetry = summary.pop("telemetry", None)
        for key, value in summary.items():
            print(f"{key:>24}: {value}")
        bus = session.engine.bus.stats
        print(f"{'backpressure':>24}: "
              f"dropped={bus.overflow_dropped} "
              f"downsampled={bus.overflow_downsampled} "
              f"overflow_events={bus.overflow_events}")
        if telemetry:
            phases = telemetry.get("phase_seconds") or {}
            line = "  ".join(f"{name}={seconds:.3f}s"
                             for name, seconds in phases.items())
            print(f"{'phase seconds':>24}: {line or '-'}")
        if spec.compare and outcome.final is not None:
            print(f"{'stream reps (final)':>24}: "
                  f"{outcome.final.total_representatives()}")
            print(f"{'batch reps':>24}: "
                  f"{outcome.batch.total_representatives()}")
            print(f"{'edge jaccard':>24}: {outcome.edge_jaccard:.3f}")
        if getattr(args, "compact", False):
            for key, value in session.compact().items():
                print(f"{'compact ' + key:>24}: {value}")
    finally:
        session.close()
    return 0


def cmd_serve(args) -> int:
    spec, session, code = _guarded(args, "serve")
    if code:
        return code
    config = spec.streaming
    try:
        if session.resumed:
            print(f"resumed from {spec.checkpoint} "
                  f"(window {session.engine.stats.windows}, "
                  f"{session.engine.windows.total_points()} "
                  f"points replayed)")
        print(f"serving {spec.app} at {session.url} "
              f"for {spec.duration:.0f}s "
              f"(window={config.window:.0f}s hop={config.hop:.0f}s "
              f"clock={spec.service.clock})")
        print("ingest:  POST /ingest  "
              "(JSON batches or text exposition)")
        print("queries: GET /api/windows /api/clusters /api/drift "
              "/api/rca /api/scaling /api/events?since=N")
        print("scrape:  GET /metrics /metrics.json /traces /healthz")
        try:
            outcome = session.run(on_window=_print_window)
        except KeyboardInterrupt:
            session.stop()
            print("\ninterrupted; shutting down")
            return 0
        print()
        summary = dict(outcome.summary)
        summary.pop("telemetry", None)
        for key, value in summary.items():
            print(f"{key:>24}: {value}")
        for key, value in outcome.service.items():
            print(f"{'service ' + key:>24}: {value}")
    finally:
        session.close()
    return 0


def cmd_record(args) -> int:
    _spec, session, code = _guarded(args, "record")
    if code:
        return code
    try:
        outcome = session.run()
        if getattr(args, "compact", False):
            for key, value in session.compact().items():
                print(f"compact {key}: {value}")
        print(f"recorded {outcome.samples} samples across "
              f"{outcome.series} series "
              f"to {outcome.backend}:{outcome.path}")
    finally:
        session.close()
    return 0


def cmd_replay(args) -> int:
    spec, session, code = _guarded(args, "replay")
    if code:
        return code
    try:
        outcome = session.run()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        session.close()
    print(f"replayed {outcome.application}/{outcome.workload} "
          f"from {outcome.source}")
    for key, value in outcome.result.summary().items():
        print(f"{key:>18}: {value}")
    print(f"\n{'resource':>18}  {'all metrics':>14}  "
          f"{'representatives':>15}  {'saving':>7}")
    for key, before, after, saving in outcome.costs:
        print(f"{key:>18}  {before:>14.1f}  {after:>15.1f}  "
              f"{saving:>6.1f}%")
    return 0


def cmd_rca(args) -> int:
    _spec, session, code = _guarded(args, "rca")
    if code:
        return code
    with session:
        report = session.run()
    print(f"{'rank':>4}  {'component':<22} {'novelty':>8}  key metrics")
    for candidate in report.final_ranking:
        highlights = [m for m in candidate.metrics
                      if "ERROR" in m or "DOWN" in m or "fail" in m]
        print(f"{candidate.rank:>4}  {candidate.component:<22} "
              f"{candidate.novelty_score:>8}  "
              f"{', '.join(highlights[:3]) or '-'}")
    return 0


def cmd_trace_overhead(args) -> int:
    _spec, session, code = _guarded(args, "trace-overhead")
    if code:
        return code
    with session:
        results = session.run()
    native = results["native"].completion_time
    print(f"{'technique':<10} {'time [s]':>10} {'slowdown':>10}")
    for name, outcome in results.items():
        print(f"{name:<10} {outcome.completion_time:>10.3f} "
              f"{outcome.completion_time / native:>10.3f}")
    return 0


def cmd_catalog(args) -> int:
    spec, session, code = _guarded(args, "catalog")
    if code:
        return code
    with session:
        application = session.run()
    print(f"{spec.app}: {len(application.specs)} components")
    for spec_ in application.specs:
        calls = ", ".join(c.target for c in spec_.calls) or "-"
        print(f"  {spec_.name:<20} kind={spec_.kind:<13} "
              f"endpoints={len(spec_.endpoints)}  calls: {calls}")
    return 0


def cmd_spec(args) -> int:
    """Emit the fully resolved spec of a (hypothetical) invocation."""
    try:
        spec = _spec_from_args(args, args.spec_mode)
    except (ValueError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        return 2
    out = getattr(args, "output", None)
    fmt = getattr(args, "format", None)
    if fmt is None:
        # Case-insensitive, matching load_spec's suffix dispatch --
        # an emitted run.TOML must parse back as TOML, not JSON.
        fmt = "toml" if out and out.lower().endswith(".toml") \
            else "json"
    text = spec_to_toml(spec) if fmt == "toml" else spec_to_json(spec)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"spec written to {out}")
    else:
        print(text)
    return 0


def cmd_lint(args) -> int:
    """Run the repo-invariant static analyzer (``repro lint``).

    Exit codes: 0 clean (baselined findings allowed), 1 active
    findings or stale baseline entries, 2 usage errors.  Imported
    lazily: the analyzer is devtooling and must not load with the
    runtime pipeline.
    """
    from pathlib import Path

    from repro.devtools.lint import (
        Baseline,
        Linter,
        apply_fixes,
        render_json,
        render_rule_list,
        render_text,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    rules = None
    if args.rules:
        rules = [rule_id.strip()
                 for rule_id in args.rules.split(",") if rule_id.strip()]
    baseline_path = Path(args.baseline)
    try:
        baseline = Baseline.load(baseline_path)
        linter = Linter(rules=rules, baseline=baseline)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    paths = args.paths or ["src/repro"]
    try:
        result = linter.run(paths)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.fix:
        fixed = apply_fixes(result.active + result.baselined)
        if fixed:
            total = sum(fixed.values())
            print(f"applied {total} fix(es) in {len(fixed)} file(s)")
            result = linter.run(paths)
    if args.write_baseline:
        from repro.devtools.lint.baseline import Baseline as _B

        recorded = _B.from_findings(result.active + result.baselined,
                                    path=baseline_path)
        recorded.save()
        print(f"baseline with {len(recorded)} finding(s) written to "
              f"{baseline_path}")
        return 0
    report = render_json(result) if args.format == "json" \
        else render_text(result, verbose=args.verbose) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        # The human-readable verdict still lands on stdout.
        print(render_text(result, verbose=False))
    else:
        print(report, end="")
    return 0 if result.ok and not result.stale_baseline else 1


# -- parser ----------------------------------------------------------------

#: Run-mode subcommand -> (handler, ``--help`` summary), in help order.
_COMMANDS = {
    "pipeline": (cmd_pipeline,
                 "run the full Sieve pipeline on an application"),
    "stream": (cmd_stream,
               "run the streaming analysis engine on a live application"),
    "serve": (cmd_serve,
              "run the engine as an HTTP service: POST /ingest feeds "
              "the bus, GET /api/... serves the latest analysis"),
    "record": (cmd_record,
               "capture a live run into a durable storage backend"),
    "replay": (cmd_replay,
               "re-analyze a recorded backend and meter the replay"),
    "rca": (cmd_rca, "OpenStack correct-vs-faulty root cause analysis"),
    "trace-overhead": (cmd_trace_overhead,
                       "Figure 5 tracing-overhead comparison"),
    "catalog": (cmd_catalog, "list an application model's components"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser (every run-mode flag comes from the flag table)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sieve reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode, (func, summary) in _COMMANDS.items():
        p_mode = sub.add_parser(mode, help=summary)
        _add_flags(p_mode, mode)
        if mode not in ("rca", "trace-overhead", "catalog"):
            _add_spec_file(p_mode)
        if mode in ("stream", "record"):
            _add_compact(p_mode)
        p_mode.set_defaults(func=func)

    p_lint = sub.add_parser(
        "lint",
        help="statically check the repo's own invariants (lock "
             "discipline, determinism, registry wiring)")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    p_lint.add_argument("--output", metavar="PATH",
                        help="write the report here (text verdict "
                             "still prints)")
    p_lint.add_argument("--baseline", metavar="PATH",
                        default="lint-baseline.json",
                        help="accepted-legacy-findings file "
                             "(default: ./lint-baseline.json)")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline")
    p_lint.add_argument("--fix", action="store_true",
                        help="apply available automatic fixes first")
    p_lint.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.add_argument("-v", "--verbose", action="store_true",
                        help="also show baselined findings")
    p_lint.set_defaults(func=cmd_lint)

    p_spec = sub.add_parser(
        "spec",
        help="emit the resolved run spec of an invocation "
             "(re-feed via --spec to reproduce it bit-identically)")
    spec_sub = p_spec.add_subparsers(dest="spec_mode", required=True)
    for mode in RUN_MODES:
        p_mode = spec_sub.add_parser(mode)
        _add_flags(p_mode, mode)
        _add_spec_file(p_mode)
        p_mode.add_argument("-o", "--output", metavar="PATH",
                            help="write the spec here instead of "
                                 "stdout (.toml selects TOML)")
        p_mode.add_argument("--format", choices=("json", "toml"),
                            help="output format (default: by --out "
                                 "suffix, else json)")
        p_mode.set_defaults(func=cmd_spec, spec_mode=mode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
