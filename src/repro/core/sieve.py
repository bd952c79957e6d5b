"""The Sieve pipeline orchestrator (paper Figure 1)."""

from __future__ import annotations

from repro.core.config import SieveConfig, StreamingConfig
from repro.core.results import SieveResult
from repro.simulator.app import Application, LoadedRun
from repro.simulator.faults import FaultPlan


class Sieve:
    """Runs Load -> Reduce -> Identify-dependencies for one application.

    Steps 2 and 3 are the streaming analysis applied once: a recorded
    run is analyzed as a single full-retention window of a fresh
    :class:`~repro.streaming.analyzer.WindowAnalyzer`, so batch and
    streamed results come from the same code.

    >>> from repro.apps import build_sharelatex_application
    >>> from repro.workload import constant_rate
    >>> sieve = Sieve(build_sharelatex_application())
    >>> result = sieve.run(constant_rate(20.0), duration=60.0, seed=1)
    >>> result.total_representatives() < result.total_metrics()
    True
    """

    def __init__(self, application: Application,
                 config: SieveConfig | None = None,
                 executor=None):
        """``executor`` (a
        :class:`repro.parallel.executor.ShardExecutor`) fans the
        per-component reductions of :meth:`analyze` out to workers;
        None keeps them inline.  The caller owns its lifecycle."""
        self.application = application
        self.config = config or SieveConfig()
        self.executor = executor

    # -- Step 1 -----------------------------------------------------------

    def load(self, workload_fn, duration: float, seed: int = 0,
             fault_plan: FaultPlan | None = None,
             workload_name: str = "custom") -> LoadedRun:
        """Load the application, recording metrics and the call graph."""
        cfg = self.config
        run = self.application.load(
            workload_fn,
            duration=duration,
            seed=seed,
            dt=cfg.simulation_dt,
            scrape_interval=cfg.grid_interval,
            fault_plan=fault_plan,
            workload_name=workload_name,
            warmup=cfg.warmup,
        )
        run.call_graph = run.tracer.call_graph(
            min_count=cfg.callgraph_min_connections
        )
        return run

    # -- Steps 2 and 3 -----------------------------------------------------

    def analyze(self, run: LoadedRun, seed: int = 0) -> SieveResult:
        """Reduce metrics and extract dependencies from a recorded run."""
        # Local import: repro.streaming's package init imports the
        # stream driver, which imports this module.
        from repro.streaming.analyzer import WindowAnalyzer

        analyzer = WindowAnalyzer(StreamingConfig(sieve=self.config),
                                  seed=seed, executor=self.executor)
        window = analyzer.analyze(run.frame, run.call_graph,
                                  0.0, run.duration)
        return SieveResult(run=run, clusterings=window.clusterings,
                           dependency_graph=window.dependency_graph)

    # -- the full pipeline ---------------------------------------------------

    def run(self, workload_fn, duration: float, seed: int = 0,
            fault_plan: FaultPlan | None = None,
            workload_name: str = "custom") -> SieveResult:
        """Execute all three steps and return the result."""
        loaded = self.load(workload_fn, duration, seed=seed,
                           fault_plan=fault_plan,
                           workload_name=workload_name)
        return self.analyze(loaded, seed=seed)
