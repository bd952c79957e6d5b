"""The Sieve platform core: the three-step pipeline of the paper.

:class:`~repro.core.sieve.Sieve` orchestrates

1. **Load** the application under a workload while recording metrics
   and the call graph (:mod:`repro.simulator`, :mod:`repro.tracing`);
2. **Reduce** each component's metrics to representative metrics via
   k-Shape (:mod:`repro.clustering`);
3. **Identify dependencies** between communicating components via
   Granger causality (:mod:`repro.causality`).

Steps 2 and 3 run through :class:`~repro.streaming.analyzer.WindowAnalyzer`
as one full-retention window, so batch and streaming share one analysis
path; :mod:`repro.core.incremental` holds its reuse helpers.

The tunables live in :class:`~repro.core.config.SieveConfig`; the
outcome is a :class:`~repro.core.results.SieveResult` consumed by the
autoscaling and RCA engines.
"""

from repro.core.config import SieveConfig, StreamingConfig
from repro.core.results import SieveResult
from repro.core.serialize import (
    AnalysisSnapshot,
    from_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot,
)
from repro.core.sieve import Sieve

__all__ = [
    "AnalysisSnapshot",
    "Sieve",
    "SieveConfig",
    "SieveResult",
    "StreamingConfig",
    "from_snapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot",
]
