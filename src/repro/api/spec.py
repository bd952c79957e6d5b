"""Declarative, serializable run specifications.

A :class:`RunSpec` says *everything* about one pipeline run -- the
application, the workload, the analysis tunables
(:class:`~repro.core.config.SieveConfig` /
:class:`~repro.core.config.StreamingConfig`) and the storage /
executor / consumer policy -- as one frozen dataclass tree that
round-trips losslessly through JSON or TOML.  Feeding the same spec to
:func:`repro.api.build_pipeline` reproduces the same run bit-for-bit,
which is why ``repro spec`` emits the resolved spec of any CLI
invocation and why checkpoints embed the spec they were taken under.

Every string-keyed policy field (``workload.kind``, ``storage.kind``,
``streaming.executor``, consumer kinds) resolves through the plugin
registries of :mod:`repro.api.registry`, so a spec file can name
third-party extensions exactly like builtins.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.persistence.retention import RetentionSchedule
    from repro.tracing.callgraph import CallGraph

from repro.api.registry import (
    APPLICATIONS,
    BACKENDS,
    CONSUMERS,
    EXPORTERS,
    WORKLOADS,
)
from repro.core.config import StreamingConfig
from repro.core.serialize import (
    streaming_config_from_dict,
    streaming_config_to_dict,
)

#: Schema version written into every serialized spec.
SPEC_VERSION = 1

#: Valid :attr:`RunSpec.mode` values (one per pipeline entry point).
RUN_MODES = ("pipeline", "stream", "record", "replay",
             "rca", "trace-overhead", "catalog", "serve")

#: Modes that instantiate an application model by name.
_APP_MODES = ("pipeline", "stream", "record", "rca", "catalog")


@dataclass(frozen=True)
class WorkloadSpec:
    """Which load generator drives the run (resolved by registry)."""

    kind: str = "random"
    rate: float = 25.0
    """Request rate for rate-shaped workloads (constant, ramp)."""

    options: dict = field(default_factory=dict)
    """Extra keyword arguments for the registered factory."""

    def __post_init__(self) -> None:
        if self.kind not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.kind!r} "
                f"(registered: {', '.join(WORKLOADS.names())})"
            )
        if self.rate < 0:
            raise ValueError("rate must be non-negative")


@dataclass(frozen=True)
class StorageSpec:
    """Where ingested series are durably stored (resolved by registry).

    ``kind="memory"`` (with an empty path) means no durable store --
    the in-RAM rings are the only copy, the pre-persistence behaviour.
    """

    kind: str = "memory"
    path: str = ""
    retention: float = 0.0
    """Compaction horizon in seconds for :meth:`Session.compact`:
    samples older than (per-series newest - retention) may be dropped
    when compaction runs.  0 keeps everything."""

    schedule: str = ""
    """Tiered-retention schedule applied by compaction, e.g.
    ``"1000s:full,4000s:1m,inf:10m"`` (full resolution for the newest
    1000 s, one-minute mean/min/max/count rollups to 4000 s, ten-minute
    rollups forever).  Empty keeps everything at full resolution.  The
    policy half of the split: backends supply the rollup mechanism."""

    options: dict = field(default_factory=dict)
    """Extra keyword arguments for the registered backend factory
    (e.g. ``commit_every`` for sqlite)."""

    def __post_init__(self) -> None:
        if self.kind not in BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.kind!r} "
                f"(registered: {', '.join(BACKENDS.names())})"
            )
        if self.retention < 0:
            raise ValueError("retention must be >= 0")
        if self.schedule:
            # Parse errors surface at spec build time, not at the
            # first compaction hours into a run.
            from repro.persistence.retention import RetentionSchedule

            RetentionSchedule.parse(self.schedule)

    @property
    def parsed_schedule(self) -> "RetentionSchedule | None":
        """The :class:`~repro.persistence.retention.RetentionSchedule`
        this spec declares (None when unscheduled)."""
        if not self.schedule:
            return None
        from repro.persistence.retention import RetentionSchedule

        return RetentionSchedule.parse(self.schedule)

    @property
    def enabled(self) -> bool:
        """Whether this spec names an actual storage target.

        An empty path means "no store": the kind field alone (which
        always carries a default) must not conjure a backend up.
        """
        return bool(self.path)


@dataclass(frozen=True)
class TelemetrySpec:
    """Self-telemetry policy of one run (the ``obs`` layer's wiring).

    Off by default -- the engine then runs with no-op instruments.
    ``enabled=True`` turns collection on without serving; a positive
    ``port`` additionally starts the HTTP scrape endpoint (and implies
    collection, since serving dead metrics helps no one).  ``port=0``
    with ``enabled=True`` is the tests' shape: collect, serve on an
    ephemeral port only if asked at runtime.
    """

    enabled: bool = False
    port: int = 0
    """Scrape-endpoint port (0 = do not serve).  Sessions started from
    a spec with ``port>0`` bind ``host:port`` and expose ``/metrics``,
    ``/metrics.json``, ``/traces``, ``/healthz`` and
    ``/export/<name>``."""

    host: str = "127.0.0.1"
    span_history: int = 64
    """Per-window traces retained by the span tracer."""

    exporters: tuple = ()
    """Extra exporter names (resolved via the EXPORTERS registry) to
    serve at ``/export/<name>`` beyond the built-in prometheus/json."""

    options: dict = field(default_factory=dict)
    """Extra keyword arguments for registered exporter factories."""

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.span_history < 1:
            raise ValueError("span_history must be >= 1")
        object.__setattr__(self, "exporters", tuple(self.exporters))
        for name in self.exporters:
            if name not in EXPORTERS:
                raise ValueError(
                    f"unknown exporter {name!r} "
                    f"(registered: {', '.join(EXPORTERS.names())})"
                )

    @property
    def active(self) -> bool:
        """Whether this spec turns telemetry collection on."""
        return self.enabled or self.port > 0


#: Valid :attr:`ServiceSpec.clock` values (who schedules analysis).
SERVICE_CLOCKS = ("ingest", "wall")


@dataclass(frozen=True)
class ServiceSpec:
    """The live operations surface of one run (``POST /ingest`` +
    ``GET /api/...`` on the telemetry server).

    Off by default.  In ``serve`` mode the engine has *no* simulator
    driver: samples arrive over HTTP and analysis hops are scheduled
    off ingest watermarks (``clock="ingest"``, deterministic -- the
    bit-identical-to-in-process guarantee) or off the wall clock
    (``clock="wall"``, a poller offers the newest ingested timestamp
    every ``poll_interval`` seconds).  In ``stream`` mode an enabled
    service only exposes the query surface; ingest answers 409 because
    the co-simulation driver owns the bus.
    """

    enabled: bool = False
    port: int = 0
    """Port the operations routes are served on (0 = ephemeral).
    The service shares the telemetry server, so this is the same
    listener as ``/metrics``; ``telemetry.port`` wins when both are
    set and positive."""

    host: str = "127.0.0.1"
    clock: str = "ingest"
    poll_interval: float = 0.0
    """Wall-clock seconds between analysis offers for
    ``clock="wall"`` (0 = the streaming hop)."""

    event_history: int = 256
    """Operational events retained behind ``/api/events``."""

    view_history: int = 64
    """Window summaries retained behind ``/api/windows``."""

    topology: tuple = ()
    """Static deployment edges ``(caller, callee[, count])`` carried
    into every analysis offer -- HTTP ingest has no tracer to observe
    calls, so the communication topology is declared."""

    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.clock not in SERVICE_CLOCKS:
            raise ValueError(
                f"unknown service clock {self.clock!r} "
                f"(expected one of {SERVICE_CLOCKS})"
            )
        if self.poll_interval < 0:
            raise ValueError("poll_interval must be >= 0")
        if self.event_history < 1:
            raise ValueError("event_history must be >= 1")
        if self.view_history < 1:
            raise ValueError("view_history must be >= 1")
        edges = []
        for edge in self.topology:
            edge = tuple(edge)
            if len(edge) == 2:
                edge = (*edge, 1)
            if len(edge) != 3 or not all(
                    isinstance(part, str) for part in edge[:2]):
                raise ValueError(
                    f"topology edge must be (caller, callee[, count]), "
                    f"got {edge!r}"
                )
            edges.append((edge[0], edge[1], int(edge[2])))
        object.__setattr__(self, "topology", tuple(edges))

    @property
    def active(self) -> bool:
        """Whether this spec turns the operations surface on."""
        return self.enabled or self.port > 0

    def build_call_graph(self) -> "CallGraph":
        """The declared topology as a
        :class:`~repro.tracing.callgraph.CallGraph`."""
        from repro.tracing.callgraph import CallGraph

        graph = CallGraph()
        for caller, callee, count in self.topology:
            graph.record_call(caller, callee, count)
        return graph


@dataclass(frozen=True)
class ConsumerSpec:
    """One subscribed window consumer (resolved by registry)."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CONSUMERS:
            raise ValueError(
                f"unknown consumer {self.kind!r} "
                f"(registered: {', '.join(CONSUMERS.names())})"
            )


@dataclass(frozen=True)
class RunSpec:
    """The complete declarative description of one pipeline run."""

    mode: str = "stream"
    app: str = "sharelatex"
    seed: int = 1
    duration: float = 120.0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    storage: StorageSpec = field(default_factory=StorageSpec)
    journal: str = ""
    """Write-ahead ingest journal path ('' = no journal)."""

    checkpoint: str = ""
    """Checkpoint file path ('' = no checkpointing).  The cadence is
    :attr:`streaming.checkpoint_every_windows
    <repro.core.config.StreamingConfig.checkpoint_every_windows>` --
    note its default is 0 (manual checkpoints only), so set it (or use
    :meth:`~repro.api.session.PipelineBuilder.checkpoint`, which
    defaults to every window) when declaring a path here."""

    resume: bool = False
    """Restore state from :attr:`checkpoint` before streaming."""

    consumers: tuple[ConsumerSpec, ...] = ()
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    service: ServiceSpec = field(default_factory=ServiceSpec)
    compare: bool = False
    """Stream mode: also run the batch analysis and report
    streaming-vs-batch convergence."""

    snapshot: str = ""
    """Pipeline mode: write the analysis snapshot JSON here."""

    extra: dict = field(default_factory=dict)
    """Mode-specific knobs (rca: iterations/threshold;
    trace-overhead: requests)."""

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r} (expected one of {RUN_MODES})"
            )
        if self.mode in _APP_MODES and self.app not in APPLICATIONS:
            raise ValueError(
                f"unknown application {self.app!r} "
                f"(registered: {', '.join(APPLICATIONS.names())})"
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode in ("record", "replay") and not self.storage.enabled:
            raise ValueError(
                f"mode {self.mode!r} needs a storage path "
                f"(spec.storage.path)"
            )
        if self.resume and not self.journal:
            raise ValueError(
                "resume needs a journal (the ingest log to replay)"
            )
        if self.resume and not self.checkpoint:
            raise ValueError("resume needs a checkpoint path")
        if self.mode == "serve" and not self.service.active:
            raise ValueError(
                "serve mode needs an active service spec "
                "(service.enabled or service.port > 0)"
            )
        if self.storage.enabled and self.storage.schedule \
                and self.mode in ("stream", "serve"):
            full = self.storage.parsed_schedule.full_horizon
            if full < self.streaming.retention:
                raise ValueError(
                    f"storage.schedule keeps full resolution for only "
                    f"{full:g}s but streaming.retention is "
                    f"{self.streaming.retention:g}s; windows falling "
                    "back from an evicted ring to the store would "
                    "silently read rollups instead of raw samples"
                )

    @property
    def sieve(self) -> SieveConfig:
        """The batch-analysis tunables (nested in streaming)."""
        return self.streaming.sieve

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """This spec as a fully resolved JSON/TOML-compatible dict."""
        return {
            "version": SPEC_VERSION,
            "mode": self.mode,
            "app": self.app,
            "seed": self.seed,
            "duration": self.duration,
            "workload": dataclasses.asdict(self.workload),
            "streaming": streaming_config_to_dict(self.streaming),
            "storage": dataclasses.asdict(self.storage),
            "journal": self.journal,
            "checkpoint": self.checkpoint,
            "resume": self.resume,
            "consumers": [dataclasses.asdict(c) for c in self.consumers],
            "telemetry": {
                **dataclasses.asdict(self.telemetry),
                "exporters": list(self.telemetry.exporters),
            },
            "service": {
                **dataclasses.asdict(self.service),
                "topology": [list(edge)
                             for edge in self.service.topology],
            },
            "compare": self.compare,
            "snapshot": self.snapshot,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`; partial dicts keep defaults,
        unknown keys raise (a typo must not silently run defaults)."""
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} "
                f"(expected {SPEC_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec field(s): {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = dict(data)
        if "workload" in kwargs:
            kwargs["workload"] = _sub_spec(WorkloadSpec,
                                           kwargs["workload"])
        if "streaming" in kwargs:
            kwargs["streaming"] = streaming_config_from_dict(
                kwargs["streaming"])
        if "storage" in kwargs:
            kwargs["storage"] = _sub_spec(StorageSpec, kwargs["storage"])
        if "consumers" in kwargs:
            kwargs["consumers"] = tuple(
                _sub_spec(ConsumerSpec, c) for c in kwargs["consumers"]
            )
        if "telemetry" in kwargs:
            kwargs["telemetry"] = _sub_spec(TelemetrySpec,
                                            kwargs["telemetry"])
        if "service" in kwargs:
            kwargs["service"] = _sub_spec(ServiceSpec,
                                          kwargs["service"])
        for name in ("seed",):
            if name in kwargs:
                kwargs[name] = int(kwargs[name])
        for name in ("duration",):
            if name in kwargs:
                kwargs[name] = float(kwargs[name])
        return cls(**kwargs)


def _sub_spec(cls: type, data: Any) -> Any:
    """Build a nested spec dataclass from a (partial) dict."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} payload must be a table/dict")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): "
            f"{', '.join(sorted(unknown))}"
        )
    return cls(**data)


# -- file formats ----------------------------------------------------------


def spec_to_json(spec: RunSpec, indent: int = 1) -> str:
    """The resolved spec as pretty JSON."""
    return json.dumps(spec.to_dict(), indent=indent, sort_keys=True)


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is valid TOML basic-string escaping.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise TypeError(f"cannot emit {type(value).__name__} as TOML")


def _emit_toml_table(lines: list[str], table: dict, prefix: str) -> None:
    scalars = {k: v for k, v in table.items()
               if not isinstance(v, dict)
               and not (isinstance(v, list) and v
                        and all(isinstance(i, dict) for i in v))}
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    arrays = {k: v for k, v in table.items()
              if isinstance(v, list) and v
              and all(isinstance(i, dict) for i in v)}
    if prefix and (scalars or not (subtables or arrays)):
        lines.append(f"[{prefix}]")
    for key in sorted(scalars):
        lines.append(f"{key} = {_toml_scalar(scalars[key])}")
    if scalars:
        lines.append("")
    for key in sorted(subtables):
        sub = subtables[key]
        path = f"{prefix}.{key}" if prefix else key
        if not sub:
            lines.append(f"[{path}]")
            lines.append("")
            continue
        _emit_toml_table(lines, sub, path)
    for key in sorted(arrays):
        path = f"{prefix}.{key}" if prefix else key
        for item in arrays[key]:
            lines.append(f"[[{path}]]")
            flat = {k: v for k, v in item.items()
                    if not isinstance(v, dict)}
            for k in sorted(flat):
                lines.append(f"{k} = {_toml_scalar(flat[k])}")
            for k in sorted(set(item) - set(flat)):
                _emit_toml_table(lines, item[k], f"{path}.{k}")
            lines.append("")


def spec_to_toml(spec: RunSpec) -> str:
    """The resolved spec as a TOML document.

    The emitter covers exactly the value shapes :meth:`RunSpec.to_dict`
    produces (scalars, lists of scalars, nested tables, and the
    ``consumers`` array of tables); it is not a general TOML writer.
    """
    data = spec.to_dict()
    lines: list[str] = []
    top_scalars = {k: v for k, v in data.items()
                   if not isinstance(v, (dict, list))
                   or (isinstance(v, list)
                       and not any(isinstance(i, dict) for i in v))}
    for key in sorted(top_scalars):
        lines.append(f"{key} = {_toml_scalar(top_scalars[key])}")
    lines.append("")
    _emit_toml_table(
        lines,
        {k: v for k, v in data.items() if k not in top_scalars},
        "",
    )
    return "\n".join(lines).rstrip() + "\n"


def loads_spec(text: str, format: str = "json") -> RunSpec:
    """Parse a spec document (``format``: ``"json"`` or ``"toml"``)."""
    if format == "json":
        return RunSpec.from_dict(json.loads(text))
    if format == "toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - Python 3.10
            raise RuntimeError(
                "TOML specs need Python >= 3.11 (tomllib); "
                "use a JSON spec instead"
            ) from exc
        return RunSpec.from_dict(tomllib.loads(text))
    raise ValueError(f"unknown spec format {format!r}")


def _format_of(path: Path) -> str:
    return "toml" if path.suffix.lower() == ".toml" else "json"


def load_spec(path: str | Path) -> RunSpec:
    """Load a spec file (``.toml`` -> TOML, anything else -> JSON)."""
    path = Path(path)
    return loads_spec(path.read_text(encoding="utf-8"),
                      _format_of(path))


def save_spec(spec: RunSpec, path: str | Path) -> None:
    """Write the resolved spec to ``path`` (format by suffix)."""
    path = Path(path)
    text = spec_to_toml(spec) if _format_of(path) == "toml" \
        else spec_to_json(spec)
    path.write_text(text, encoding="utf-8")
