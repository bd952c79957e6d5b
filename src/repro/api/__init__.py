"""The public pipeline API: declare a run once, bind policy by name.

Sieve's value is a *pipeline* (load -> reduce -> identify, plus the
streaming / persistence / parallel layers), and this package is its
single public entry point -- the RAFDA-style separation of application
logic from distribution policy, made concrete:

* :class:`~repro.api.spec.RunSpec` -- a frozen, serializable
  description of one run (app + workload + configs + storage /
  executor / consumer policy) that round-trips through JSON or TOML;
* :func:`~repro.api.session.build_pipeline` /
  :class:`~repro.api.session.PipelineBuilder` -- turn a spec into a
  running batch, streaming, record or replay
  :class:`~repro.api.session.Session`;
* :mod:`~repro.api.registry` -- string-keyed plugin registries
  (``register_backend`` / ``register_executor`` /
  ``register_consumer`` / ``register_workload`` /
  ``register_application`` / ``register_exporter``) through which
  every policy name in a spec, a config or a CLI flag resolves.

The ten-line library quickstart::

    from repro.api import PipelineBuilder

    session = (PipelineBuilder("sharelatex").mode("stream")
               .workload("constant", rate=30.0)
               .storage("sqlite", "run.db")
               .executor("process", workers=4)
               .duration(120).seed(1).build())
    outcome = session.run()
    print(outcome.summary)
    session.close()

Everything here is importable lazily; only the (dependency-free)
registry module loads eagerly, so low-level layers may resolve names
through :mod:`repro.api.registry` without import cycles.
"""

from repro.api.registry import (
    APPLICATIONS,
    BACKENDS,
    CONSUMERS,
    EXECUTORS,
    EXPORTERS,
    REGISTRIES,
    WORKLOADS,
    Registry,
    register_application,
    register_backend,
    register_consumer,
    register_executor,
    register_exporter,
    register_workload,
)

#: Symbols resolved lazily (PEP 562): spec and session pull in the
#: analysis stack, which itself consults the registry above.
_LAZY_EXPORTS = {
    "ConsumerSpec": "repro.api.spec",
    "RUN_MODES": "repro.api.spec",
    "RunSpec": "repro.api.spec",
    "SPEC_VERSION": "repro.api.spec",
    "ServiceSpec": "repro.api.spec",
    "StorageSpec": "repro.api.spec",
    "TelemetrySpec": "repro.api.spec",
    "WorkloadSpec": "repro.api.spec",
    "load_spec": "repro.api.spec",
    "loads_spec": "repro.api.spec",
    "save_spec": "repro.api.spec",
    "spec_to_json": "repro.api.spec",
    "spec_to_toml": "repro.api.spec",
    "BatchSession": "repro.api.session",
    "CatalogSession": "repro.api.session",
    "PipelineBuilder": "repro.api.session",
    "RCASession": "repro.api.session",
    "RecordOutcome": "repro.api.session",
    "RecordSession": "repro.api.session",
    "ReplayOutcome": "repro.api.session",
    "ReplaySession": "repro.api.session",
    "ServeOutcome": "repro.api.session",
    "ServeSession": "repro.api.session",
    "Session": "repro.api.session",
    "StreamOutcome": "repro.api.session",
    "StreamSession": "repro.api.session",
    "TraceOverheadSession": "repro.api.session",
    "build_pipeline": "repro.api.session",
    "run_spec": "repro.api.session",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "APPLICATIONS",
    "BACKENDS",
    "CONSUMERS",
    "EXECUTORS",
    "EXPORTERS",
    "REGISTRIES",
    "WORKLOADS",
    "Registry",
    "register_application",
    "register_backend",
    "register_consumer",
    "register_executor",
    "register_exporter",
    "register_workload",
    *sorted(_LAZY_EXPORTS),
]
