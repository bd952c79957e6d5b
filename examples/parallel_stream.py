"""Parallel sharded analysis, end to end.

The streaming engine fans per-component window work (re-reduce +
re-cluster, drift shape checks) out to a shard executor.  This
walkthrough:

1. streams the same co-simulated chain under the ``serial`` and
   ``process`` executors and shows the analyses are identical
   (distribution policy never changes the result);
2. prints per-strategy wall-clock so the dispatch-overhead trade-off
   is visible (on a single-core host the pool cannot win -- see the
   README's "Scaling" section for sizing guidance).

Run with:  PYTHONPATH=src python examples/parallel_stream.py
"""

import time

from repro.causality.depgraph import edge_jaccard
from repro.core import StreamingConfig
from repro.simulator import (
    Application,
    CallSpec,
    ComponentSpec,
    EndpointSpec,
)
from repro.streaming import SimulationStreamDriver, StreamingSieve
from repro.workload import constant_rate

DURATION = 60.0


def build_app() -> Application:
    spec = dict(kind="generic",
                endpoints=(EndpointSpec("op", service_time=0.02),),
                concurrency=16)
    return Application("demo", [
        ComponentSpec(name="front", calls=(CallSpec("mid", delay=0.4),),
                      **spec),
        ComponentSpec(name="mid", calls=(CallSpec("back", delay=0.4),),
                      **spec),
        ComponentSpec(name="back", **spec),
    ])


def stream(executor: str):
    config = StreamingConfig(window=20.0, hop=10.0, retention=120.0,
                             executor=executor, executor_workers=2)
    engine = StreamingSieve(config=config, seed=3, application="demo")
    driver = SimulationStreamDriver(build_app(), constant_rate(40.0),
                                    config=config, seed=3,
                                    record_frame=False, engine=engine)
    start = time.perf_counter()
    windows = driver.run(DURATION)
    elapsed = time.perf_counter() - start
    driver.close()
    return windows, elapsed


def main() -> None:
    # Distribution policy never changes the analysis.
    reference, serial_s = stream("serial")
    print(f"serial : {len(reference)} windows in {serial_s:.2f}s")
    windows, elapsed = stream("process")
    assert len(windows) == len(reference)
    for mine, ref in zip(windows, reference):
        assert mine.reclustered == ref.reclustered
        jaccard = edge_jaccard(mine.dependency_graph,
                               ref.dependency_graph,
                               level="metric")
        assert jaccard == 1.0
    print(f"process: identical windows in {elapsed:.2f}s "
          f"(edge Jaccard 1.0 vs serial)")


if __name__ == "__main__":
    main()
