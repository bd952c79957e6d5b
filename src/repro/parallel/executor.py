"""Shard executors: where per-component analysis work actually runs.

Sieve's windowed analysis is embarrassingly parallel across components:
every component's re-reduce/re-cluster (and every drift shape check) is
a pure function of that component's own samples and the run seed.  A
:class:`ShardExecutor` pins down the *distribution policy* for that
fan-out -- inline or on a process pool -- while the analysis pipeline
stays oblivious to which one is plugged in (the RAFDA separation of
application logic from distribution policy).

The contract every strategy honours:

* ``map(fn, payloads)`` returns results **in payload order**, so the
  caller's merge is deterministic regardless of completion order;
* ``fn`` and every payload/result must be picklable for the process
  strategy (module-level task functions, plain-data payloads);
* per-payload work is independent -- executors never share state
  between tasks.

Because results are merged in submission order and every task is a
pure seeded function, ``serial`` and ``process`` produce bit-identical
analyses (asserted by the determinism tests).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

#: Valid executor strategy names, in escalation order.
EXECUTOR_KINDS = ("serial", "process")

#: Below this many payloads the process executor runs inline -- the fixed
#: dispatch cost (pickling, wakeups) dwarfs any overlap win.
MIN_PARALLEL_PAYLOADS = 2


def default_workers() -> int:
    """Worker count when the caller does not pin one (all cores)."""
    return max(os.cpu_count() or 1, 1)


class ShardExecutor:
    """Base strategy: run shard tasks inline, in submission order.

    Also the ``serial`` strategy itself -- and the documented fallback
    that the ``process`` registry factory
    (:data:`repro.api.registry.EXECUTORS`) returns for any pool sized
    at one worker, where a pool only adds dispatch overhead.
    """

    kind = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.tasks_dispatched = 0
        """Payloads handed to :meth:`map` over this executor's lifetime."""

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Iterable[Any],
    ) -> list[Any]:
        """Apply ``fn`` to every payload; results in payload order."""
        items = payloads if isinstance(payloads, Sequence) else list(payloads)
        self.tasks_dispatched += len(items)
        return self._run(fn, items)

    def _run(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        return [fn(item) for item in items]

    def close(self) -> None:
        """Release pooled workers (inline strategies: no-op)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> dict:
        """Executor identity for summaries and benchmark records."""
        return {
            "executor": self.kind,
            "executor_workers": self.workers,
            "tasks_dispatched": self.tasks_dispatched,
        }


class ProcessShardExecutor(ShardExecutor):
    """Shards on a process pool -- true parallelism for CPU-bound work.

    Task functions must be module-level and payloads picklable.  The
    pool is created lazily on first use and reused across windows
    (worker warm-up is paid once per engine, not once per window).
    Batches smaller than :data:`MIN_PARALLEL_PAYLOADS` run inline.
    Work is dispatched with ``chunksize=1`` so components spread
    across workers even when their costs are skewed (the per-window
    critical path is the largest component).
    """

    kind = "process"

    def __init__(self, workers: int | None = None):
        super().__init__(workers or default_workers())
        self._pool: ProcessPoolExecutor | None = None

    def _run(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        if len(items) < MIN_PARALLEL_PAYLOADS:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            return list(self._pool.map(fn, items, chunksize=1))
        except BrokenProcessPool:
            # A worker died mid-map.  Drop the broken pool so the next
            # map starts a fresh one instead of failing forever.
            self._pool.shutdown(wait=False)
            self._pool = None
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

