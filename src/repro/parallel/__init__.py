"""Parallel sharded analysis: the shard executors.

The streaming pipeline is agnostic to *where* its shards run (RAFDA's
separation of application logic from distribution policy):
:mod:`repro.parallel.executor` holds the :class:`ShardExecutor`
strategies -- ``serial`` (inline) and ``process`` (a process pool) --
that fan per-component window work (re-reduce + re-cluster, drift
shape checks) out to workers and merge results deterministically.

Pick a strategy via :attr:`repro.core.config.StreamingConfig.executor`
(or ``--executor`` on the CLI); ``serial == process`` on the same seed
is a tested invariant.
"""

from repro.parallel.executor import (
    EXECUTOR_KINDS,
    ProcessShardExecutor,
    ShardExecutor,
    default_workers,
)

__all__ = [
    "EXECUTOR_KINDS",
    "ProcessShardExecutor",
    "ShardExecutor",
    "default_workers",
]
