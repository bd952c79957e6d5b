"""String-keyed plugin registries: name -> factory, one mechanism.

Every policy choice the pipeline offers -- where series are stored,
where shards execute, which consumers watch the window stream, what
load is generated, which application model is driven -- used to be an
``if/elif`` ladder somewhere (``cli.py``, ``engine.py``,
``executor.py``).  This module replaces those ladders
with registries: a :class:`Registry` maps a short string key to a
factory callable, the built-in implementations are pre-registered, and
third-party extensions plug in with one call::

    from repro.api import register_backend

    @register_backend("redis")
    def open_redis(path, **options):
        return RedisBackend(path, **options)

A registered name immediately works everywhere the key is accepted --
``RunSpec`` fields, ``--store``/``--executor``/``--backend`` CLI
flags, ``StreamingConfig.executor`` -- because all of them resolve
through the same registry.

This module deliberately imports nothing from the rest of the package
at module scope (built-in factories import lazily inside their
bodies), so any layer -- including ``repro.core.config`` validation --
may consult a registry without creating an import cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

Factory = Callable[..., Any]


class Registry:
    """One named factory table (e.g. all storage backends)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Factory] = {}

    # -- registration ---------------------------------------------------

    def register(self, name: str, factory: Factory | None = None,
                 *, replace: bool = False
                 ) -> Factory | Callable[[Factory], Factory]:
        """Register ``factory`` under ``name``.

        Usable directly (``registry.register("x", make_x)``) or as a
        decorator (``@registry.register("x")``).  Re-registering an
        existing name raises unless ``replace=True`` -- silent
        shadowing of a builtin is almost always a bug.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def _add(fn: Factory) -> Factory:
            if not replace and name in self._factories:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"(pass replace=True to override)"
                )
            self._factories[name] = fn
            return fn

        return _add if factory is None else _add(factory)

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests)."""
        self._factories.pop(name, None)

    # -- resolution -----------------------------------------------------

    def get(self, name: str) -> Factory:
        """The factory registered under ``name`` (ValueError if none)."""
        try:
            return self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r} "
                f"(registered: {', '.join(self.names()) or 'none'})"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve ``name`` and invoke its factory."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: Storage backends: ``factory(path, **options) -> StorageBackend``.
BACKENDS = Registry("storage backend")

#: Shard executors: ``factory(workers=None) -> ShardExecutor``.
EXECUTORS = Registry("executor")

#: Window consumers: ``factory(engine, **options) -> consumer``.
CONSUMERS = Registry("consumer")

#: Workloads: ``factory(duration, seed, rate, **options) -> callable``.
WORKLOADS = Registry("workload")

#: Application models: ``factory(**options) -> Application``.
APPLICATIONS = Registry("application")

#: Telemetry exporters: ``factory(**options) -> exporter`` -- an
#: object with a ``content_type`` attribute and a ``render(telemetry)
#: -> str`` method, served at ``/export/<name>``.
EXPORTERS = Registry("exporter")

#: Every registry by its spec-facing key, for introspection tools.
REGISTRIES = {
    "backend": BACKENDS,
    "executor": EXECUTORS,
    "consumer": CONSUMERS,
    "workload": WORKLOADS,
    "application": APPLICATIONS,
    "exporter": EXPORTERS,
}

# The public registration entry points (also re-exported by repro.api).
register_backend = BACKENDS.register
register_executor = EXECUTORS.register
register_consumer = CONSUMERS.register
register_workload = WORKLOADS.register
register_application = APPLICATIONS.register
register_exporter = EXPORTERS.register


# -- built-in backends ----------------------------------------------------


@BACKENDS.register("memory")
def _memory_backend(path: Any = None, **options: Any) -> Any:
    """Volatile in-RAM frame; ``path`` is accepted and ignored."""
    from repro.persistence.backend import MemoryBackend

    return MemoryBackend(**options)


@BACKENDS.register("sqlite")
def _sqlite_backend(path: Any, **options: Any) -> Any:
    from repro.persistence.sqlite_backend import SqliteBackend

    return SqliteBackend(path, **options)


# -- built-in executors ---------------------------------------------------


@EXECUTORS.register("serial")
def _serial_executor(workers: int | None = None) -> Any:
    from repro.parallel.executor import ShardExecutor

    return ShardExecutor()


@EXECUTORS.register("process")
def _process_executor(workers: int | None = None) -> Any:
    from repro.parallel.executor import (
        ProcessShardExecutor,
        ShardExecutor,
        default_workers,
    )

    resolved = workers or default_workers()
    # A one-worker pool cannot overlap anything; fall back to serial.
    return ShardExecutor() if resolved == 1 \
        else ProcessShardExecutor(resolved)


# -- built-in workloads ---------------------------------------------------


@WORKLOADS.register("random")
def _random_workload(duration: float, seed: int, rate: float,
                     **options: Any) -> Any:
    from repro.workload import RandomWorkload

    return RandomWorkload(duration=duration, seed=seed, **options)


@WORKLOADS.register("constant")
def _constant_workload(duration: float, seed: int, rate: float,
                       **options: Any) -> Any:
    from repro.workload import constant_rate

    return constant_rate(rate)


@WORKLOADS.register("ramp")
def _ramp_workload(duration: float, seed: int, rate: float,
                   *, start_rate: float = 0.0, **options: Any) -> Any:
    """Linear ramp from ``start_rate`` up to the spec's ``rate``."""
    from repro.workload import ramp_rate

    return ramp_rate(start_rate, rate, duration)


# -- built-in consumers ---------------------------------------------------


@CONSUMERS.register("rca")
def _rca_consumer(engine: Any, *, percentile: float = 90.0,
                  latency_threshold: float = 1.0,
                  rank_threshold: float = 0.5, **options: Any) -> Any:
    """Auto-triggered window-diff RCA on drift + SLA coincidence."""
    from repro.autoscaling.sla import SLACondition
    from repro.streaming.consumers import WindowDiffRCA

    return WindowDiffRCA(
        engine,
        sla=SLACondition(percentile=percentile,
                         threshold=latency_threshold),
        threshold=rank_threshold,
        **options,
    )


@CONSUMERS.register("scaling")
def _scaling_consumer(engine: Any, *, component: str,
                      scale_up: float, scale_down: float,
                      guide_component: str | None = None,
                      **options: Any) -> Any:
    """Autoscaling rule re-bound to the live guiding metric."""
    from repro.streaming.consumers import LiveScalingPolicy

    return LiveScalingPolicy.from_options(
        component=component, scale_up=scale_up, scale_down=scale_down,
        guide_component=guide_component, **options,
    )


# -- built-in applications ------------------------------------------------


@APPLICATIONS.register("sharelatex")
def _sharelatex(**options: Any) -> Any:
    from repro.apps import build_sharelatex_application

    return build_sharelatex_application(**options)


@APPLICATIONS.register("openstack")
def _openstack(**options: Any) -> Any:
    from repro.apps import build_openstack_application

    return build_openstack_application(**options)


# -- built-in telemetry exporters -------------------------------------------


@EXPORTERS.register("prometheus")
def _prometheus_exporter(**options: Any) -> Any:
    from repro.obs.exposition import PrometheusExporter

    return PrometheusExporter(**options)


@EXPORTERS.register("json")
def _json_exporter(**options: Any) -> Any:
    from repro.obs.exposition import JsonExporter

    return JsonExporter(**options)
