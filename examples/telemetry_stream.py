"""Self-telemetry, end to end: instrument, scrape, diagnose.

The streaming engine can observe *itself* the way it observes the
application under study: counters and histograms for every hot path
(bus flushes, ring appends, re-cluster fan-outs, journal writes),
per-window span traces that break each analyzed window into its
phases, and a health surface an orchestrator can probe.  This
walkthrough:

1. builds a streaming session with telemetry on and an HTTP scrape
   endpoint on an ephemeral port (the ``repro stream
   --telemetry-port`` wiring, minus the CLI);
2. scrapes ``/metrics`` (Prometheus text format), ``/healthz`` and
   ``/traces`` while the engine runs;
3. shows the per-window phase breakdown -- where did the analysis
   time actually go -- and the end-of-run telemetry summary;
4. re-runs with telemetry off and shows the windows are reproduced
   identically: observation never changes the analysis.

Run with:  PYTHONPATH=src python examples/telemetry_stream.py
"""

import json
import urllib.request

from repro.api import PipelineBuilder
from repro.causality.depgraph import edge_jaccard


def _build(telemetry: bool):
    builder = (PipelineBuilder("sharelatex").mode("stream")
               .workload("constant", rate=30.0)
               .streaming(window=15.0, hop=10.0, retention=120.0)
               .duration(40.0).seed(1))
    if telemetry:
        builder = builder.telemetry()
    return builder.build()


def main() -> None:
    # 1. Telemetry on, scrape endpoint on an ephemeral port.
    session = _build(telemetry=True)
    server = session.telemetry.serve()
    print(f"scrape endpoint: {server.url}/metrics")

    outcome = session.run()

    # 2. Scrape while the session (and its server) is still open.
    text = urllib.request.urlopen(f"{server.url}/metrics").read().decode()
    families = sorted(line.split()[2] for line in text.splitlines()
                      if line.startswith("# TYPE"))
    print(f"\n{len(families)} instrument families exposed, e.g.:")
    for family in families[:6]:
        print(f"  {family}")

    with urllib.request.urlopen(f"{server.url}/healthz") as response:
        health = json.loads(response.read())
    print(f"\nhealthz: {'ok' if health['healthy'] else 'FAILING'} "
          f"({', '.join(health['probes']) or 'no probes'})")

    # 3. Where did each window's time go?
    traces = json.loads(
        urllib.request.urlopen(f"{server.url}/traces").read())
    last = traces[-1]
    print(f"\nwindow {last['index']} phase breakdown "
          f"({last['total_seconds'] * 1e3:.1f} ms total):")
    for phase, seconds in last["phases"].items():
        print(f"  {phase:<12} {seconds * 1e3:>8.1f} ms")

    summary = outcome.summary["telemetry"]
    print(f"\nlifetime phase totals over "
          f"{summary['instruments']} instruments:")
    for phase, seconds in summary["phase_seconds"].items():
        print(f"  {phase:<12} {seconds:>8.3f} s")

    telemetered = outcome.analyses
    session.close()

    # 4. Observation changes nothing: same seed, telemetry off.
    session = _build(telemetry=False)
    plain = session.run().analyses
    session.close()
    jaccard = edge_jaccard(telemetered[-1].dependency_graph,
                           plain[-1].dependency_graph)
    print(f"\ntelemetry on vs off: {len(telemetered)} windows each, "
          f"final-window edge Jaccard {jaccard:.3f}")
    assert jaccard == 1.0


if __name__ == "__main__":
    main()
