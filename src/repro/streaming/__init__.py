"""Streaming analysis engine: Sieve as a continuously running service.

The batch pipeline (:class:`repro.core.sieve.Sieve`) analyzes one
completed :class:`~repro.simulator.app.LoadedRun` as a single window
of this subpackage's analyzer.  The subpackage turns load -> reduce ->
identify into an online loop over live ingestion, the deployment model
the paper's Telegraf -> InfluxDB collector implies and its §9 names as
future work:

* :mod:`repro.streaming.bus` -- batched point ingestion, fanned out to
  subscribers in vectorized flushes;
* :mod:`repro.streaming.window` -- bounded per-component ring-buffer
  windows (retention by age and count);
* :mod:`repro.streaming.drift` -- behaviour-drift detection against
  frozen cluster baselines, closing the blind spot of reuse keyed on
  the metric set alone;
* :mod:`repro.streaming.analyzer` -- windowed reduce + identify with
  incremental reuse and drift-triggered re-clustering (the one
  analysis path, batch included);
* :mod:`repro.streaming.engine` -- the tick-driven engine gluing bus,
  windows, analyzer and consumers together;
* :mod:`repro.streaming.consumers` -- live case-study consumers
  (autoscaling guide re-election, window-diff RCA);
* :mod:`repro.streaming.driver` -- lock-step co-simulation of an
  application and the engine, with an exact batch result for the same
  trace as the convergence reference.
"""

from repro.streaming.analyzer import (
    StreamingStats,
    WindowAnalysis,
    WindowAnalyzer,
)
from repro.streaming.bus import BusStats, IngestionBus
from repro.streaming.consumers import (
    LiveScalingPolicy,
    RebindEvent,
    TriggeredRCAReport,
    WindowDiffRCA,
)
from repro.streaming.drift import DriftDetector, DriftReading
from repro.streaming.driver import SimulationStreamDriver
from repro.streaming.engine import StreamingSieve
from repro.streaming.window import RingSeries, WindowStore

__all__ = [
    "BusStats",
    "DriftDetector",
    "DriftReading",
    "IngestionBus",
    "LiveScalingPolicy",
    "RebindEvent",
    "RingSeries",
    "SimulationStreamDriver",
    "StreamingSieve",
    "StreamingStats",
    "TriggeredRCAReport",
    "WindowAnalysis",
    "WindowAnalyzer",
    "WindowDiffRCA",
    "WindowStore",
]
