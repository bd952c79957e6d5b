"""All Sieve tunables in one place, with the paper's defaults."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SieveConfig:
    """Configuration of the three-step Sieve pipeline.

    Every default is the value the paper states (Section 3) or, where
    the paper is silent, a documented standard choice.
    """

    # -- Step 1: loading ------------------------------------------------
    grid_interval: float = 0.5
    """Metric discretization interval, seconds (Section 3.2 uses 500 ms
    instead of the k-Shape paper's 2 s)."""

    simulation_dt: float = 0.1
    """Fluid-simulation step, seconds."""

    warmup: float = 5.0
    """Seconds simulated before metric collection starts."""

    callgraph_min_connections: int = 2
    """Connections needed before a call-graph edge is trusted."""

    # -- Step 2: reduction ----------------------------------------------
    variance_threshold: float = 0.002
    """Unvarying-metric filter threshold (Section 3.2: var <= 0.002)."""

    max_clusters: int = 7
    """Upper bound of the k sweep (Section 3.2: "seven clusters per
    component was sufficient")."""

    kshape_max_iterations: int = 30

    # -- Step 3: dependencies --------------------------------------------
    granger_alpha: float = 0.05
    """Significance level for the Granger F-test (standard choice; the
    paper only says "below a critical value")."""

    granger_lags: tuple[int, ...] = (1, 2)
    """Candidate lags in grid steps; 1 step = the paper's 500 ms."""

    filter_bidirectional: bool = True
    """Drop mutually-causal metric pairs (hidden-common-cause symptom)."""

    extra: dict = field(default_factory=dict, compare=False)
    """Free-form extension knobs for experiments."""

    def __post_init__(self) -> None:
        if self.grid_interval <= 0 or self.simulation_dt <= 0:
            raise ValueError("intervals must be positive")
        if not 0 < self.granger_alpha < 1:
            raise ValueError("granger_alpha must lie in (0, 1)")
        if self.max_clusters < 1:
            raise ValueError("max_clusters must be >= 1")
        if not self.granger_lags:
            raise ValueError("need at least one candidate lag")


@dataclass(frozen=True)
class StreamingConfig:
    """Configuration of the streaming analysis engine.

    The engine runs Sieve's reduce + identify steps over a rolling
    window of freshly ingested samples (see :mod:`repro.streaming`).
    Components whose metric population and behaviour are unchanged
    reuse their previous clustering; metric-set changes and detected
    behaviour drift escalate to a re-cluster of just those components.
    """

    window: float = 20.0
    """Span of each analysis window, seconds of ingested data."""

    hop: float = 10.0
    """Cadence between consecutive window analyses, seconds (the
    *initial* cadence when :attr:`adaptive_hop` is enabled)."""

    adaptive_hop: bool = False
    """Scale the analysis cadence with drift pressure: a window whose
    re-clusters include a drift escalation halves the live hop (down
    to :attr:`hop_min`), a fully reused window stretches it by 25%
    (up to :attr:`hop_max`), so quiet systems analyze less often and
    drifting ones are watched closely.  Off by default -- the fixed
    :attr:`hop` cadence is the reproducible baseline."""

    hop_min: float = 0.0
    """Lower bound of the adaptive cadence, seconds (0 = :attr:`hop`,
    i.e. adaptation only ever slows analysis down)."""

    hop_max: float = 0.0
    """Upper bound of the adaptive cadence, seconds (0 = four times
    :attr:`hop`)."""

    retention: float = 120.0
    """How long the per-metric ring buffers keep samples, seconds."""

    max_points_per_series: int = 4096
    """Hard per-series sample bound (older samples are evicted), so a
    misbehaving exporter cannot grow the window store unboundedly."""

    min_window_samples: int = 32
    """Total samples a window must hold before it is analyzed."""

    drift_threshold: float = 6.0
    """Standardized location/spread shift (in baseline standard
    deviations) above which a metric counts as drifted."""

    drift_shape_threshold: float = 0.75
    """Coherence-weighted shape distance (SBD) above which a cluster
    representative counts as drifted."""

    full_refresh_windows: int = 0
    """Force a full re-cluster every N windows (0 = rely purely on
    metric-set changes and drift detection)."""

    history: int = 32
    """Window analyses the engine keeps for consumers (RCA diffs)."""

    bus_max_pending: int = 0
    """Backpressure cap on points buffered in the ingestion bus before
    the overflow policy sheds load (0 = unbounded, the default)."""

    bus_overflow_policy: str = "drop_oldest"
    """What to shed when ``bus_max_pending`` is exceeded:
    ``"drop_oldest"`` discards the oldest buffered points,
    ``"downsample"`` halves every buffered series (keeping every other
    sample) until the cap holds."""

    checkpoint_every_windows: int = 0
    """Auto-checkpoint cadence of
    :class:`repro.persistence.checkpoint.CheckpointPolicy` (0 = only
    checkpoint when explicitly asked)."""

    executor: str = "serial"
    """Shard-executor strategy for per-component window work
    (re-reduce + re-cluster, drift shape checks): ``"serial"`` runs
    inline, ``"process"`` on a process pool (true parallelism; same
    clusterings as serial -- tested).  See
    :mod:`repro.parallel.executor`."""

    executor_workers: int = 0
    """Pool size of the process executor (0 = all cores).  A pool
    sized at one worker falls back to the serial executor."""

    journal_rotate_on_checkpoint: bool = True
    """Rotate the write-ahead ingest journal at checkpoint epochs and
    retire segments older than the retention horizon (a checkpoint
    plus the retained window makes older segments redundant for
    restart), so the journal no longer grows unboundedly."""

    sieve: SieveConfig = field(default_factory=SieveConfig)
    """The batch-analysis tunables applied inside every window."""

    def hop_bounds(self) -> tuple[float, float]:
        """Resolved (min, max) cadence of the adaptive hop."""
        lo = self.hop_min or self.hop
        hi = self.hop_max or 4.0 * self.hop
        return lo, hi

    def __post_init__(self) -> None:
        if self.window <= 0 or self.hop <= 0 or self.retention <= 0:
            raise ValueError("window, hop and retention must be positive")
        if self.hop_min < 0 or self.hop_max < 0:
            raise ValueError("hop bounds must be >= 0 (0 = default)")
        lo, hi = self.hop_bounds()
        if self.adaptive_hop and not lo <= self.hop <= hi:
            raise ValueError(
                f"adaptive cadence needs hop_min <= hop <= hop_max, "
                f"got {lo} <= {self.hop} <= {hi}"
            )
        if self.retention < self.window:
            raise ValueError("retention must cover at least one window")
        if self.max_points_per_series < 8:
            raise ValueError("max_points_per_series must be >= 8")
        if self.drift_threshold <= 0 or self.drift_shape_threshold <= 0:
            raise ValueError("drift thresholds must be positive")
        if self.full_refresh_windows < 0:
            raise ValueError("full_refresh_windows must be >= 0")
        if self.history < 2:
            raise ValueError("history must keep at least two windows")
        if self.bus_max_pending < 0:
            raise ValueError("bus_max_pending must be >= 0")
        if self.bus_overflow_policy not in ("drop_oldest", "downsample"):
            raise ValueError(
                f"unknown bus_overflow_policy "
                f"{self.bus_overflow_policy!r}"
            )
        if self.checkpoint_every_windows < 0:
            raise ValueError("checkpoint_every_windows must be >= 0")
        # The executor choice resolves through the plugin registry,
        # so a third-party strategy registered via repro.api passes
        # validation exactly like a builtin.  The import is local: the
        # registry module is a leaf, but this module loads far too
        # early to import it at module scope.
        from repro.api.registry import EXECUTORS

        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} "
                f"(registered: {', '.join(EXECUTORS.names())})"
            )
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
