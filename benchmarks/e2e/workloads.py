"""Workload definitions and the seeded input generator.

Every workload sends the same *shape* of data -- 8 components x 24
metrics, three planted shape families per component, family 0 of
component ``i`` a lag-2 copy of family 0 of component ``i-1`` -- and
differs in wire format, window geometry, refresh policy, durable
store and traffic mix, so that each one loads a different set of
layers (see README.md, "Workloads").

The generator is a pure function of ``(workload, seed, seconds)``:
the server child only ever sees the generated request bodies and the
generated spec file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOAD_VERSION = "e2e-2"

COMPONENTS = 8
FAMILIES = 3
METRICS_PER_FAMILY = 8
SCRAPE_INTERVAL = 0.5
SCRAPES_PER_REQUEST = 8
POINTS_PER_REQUEST = (COMPONENTS * FAMILIES * METRICS_PER_FAMILY
                      * SCRAPES_PER_REQUEST)
REQUEST_SPAN = SCRAPE_INTERVAL * SCRAPES_PER_REQUEST
SOURCE = "gen-0"

#: Metric-name stems of the three planted families; developers name
#: related metrics consistently, which is what k-Shape's Jaro
#: initialization relies on.
FAMILY_STEMS = ("load_rate", "queue_depth", "cache_ratio")

#: Granger significance the benchmark's spec runs with.  At the
#: default 0.05 the ~290 chance tests per window admit a dozen
#: spurious edges that differ by seed, and ``edge_f1`` would measure
#: the seed; at this level only the planted edges pass, so the metric
#: is a guard that any loss of detection power moves.  The work done
#: per test does not depend on the level.
GRANGER_ALPHA = 1e-6


@dataclass(frozen=True)
class Scale:
    """How much one run does.  Work is fixed in requests: ``seconds``
    only picks the number of timed hops through each workload's
    sizing (``hops_per_10s``), so the same arguments always mean the
    same work."""

    seconds: float = 10.0
    cold_starts: int = 3
    resume_cycles: int = 3
    idle_reads: int = 1000
    """``GET``s of one run on the workloads that do not interleave
    their reads, dealt out evenly behind the timed hops."""
    comparable: bool = True

    @classmethod
    def quick(cls) -> "Scale":
        """The smoke-test size: every phase once, numbers not
        comparable with a full run's."""
        return cls(seconds=2.0, cold_starts=1, resume_cycles=1,
                   idle_reads=40, comparable=False)


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``hops_per_10s`` is the sizing that turns
    ``--seconds`` into a fixed request count."""

    name: str
    why: str
    wire: str
    """``"json"`` (pre-batched point runs) or ``"text"`` (Prometheus
    exposition, one sample per line)."""
    window: float
    hop: float
    hops_per_10s: int
    """Hops of the timed loop at the default ``--seconds 10`` (sized
    on the 2-core box this was built on so that the loop takes about
    that long and a whole run, with its cold starts, resume cycles
    and reference, fits the driver's budget)."""
    full_refresh_windows: int = 0
    durable: bool = False
    """sqlite store with the sync writer, plus the read/duplicate/torn
    traffic mix."""
    topology_extra: tuple[int, ...] = (3,)
    """Offsets ``d`` of the decoy topology edges ``c[i] -> c[i+d]``
    declared beside the planted chain (more offsets = more Granger)."""

    @property
    def requests_per_hop(self) -> int:
        return int(round(self.hop / REQUEST_SPAN))

    @property
    def warmup_requests(self) -> int:
        """Requests until two windows exist (untimed), plus half a
        hop: windows then fall mid-segment and every kill lands
        between two checkpoints, with a journal tail to replay."""
        per_window = int(round(self.window / REQUEST_SPAN))
        return (per_window + self.requests_per_hop + 1
                + self.requests_per_hop // 2)

    def timed_hops(self, scale: Scale) -> int:
        """Hops (one window each) of the timed loop: fixed work for a
        run of nominally ``scale.seconds``.  A hop is the unit every
        timing is taken over, so there are never fewer than four."""
        return max(4, int(round(self.hops_per_10s * scale.seconds / 10.0)))

    def timed_requests(self, scale: Scale) -> int:
        return self.timed_hops(scale) * self.requests_per_hop

    def idle_reads_per_hop(self, scale: Scale) -> int:
        """Whole cycles of the five read routes, at least one."""
        return max(1, scale.idle_reads // self.timed_hops(scale) // 5) * 5

    def tail_requests(self, scale: Scale) -> list[int]:
        """Requests held back for after each kill/resume cycle: one
        hop in all.  The requests before the hop's window boundary are
        spread over the earlier cycles, so the journal tail past the
        last checkpoint grows from kill to kill; the last cycle gets
        the rest and closes the window (a resumed service's query API
        is blank until it analyzes a window of its own)."""
        per_hop = self.requests_per_hop
        share, extra = divmod(per_hop - per_hop // 2 - 1,
                              max(scale.resume_cycles - 1, 1))
        early = [share + (cycle < extra)
                 for cycle in range(scale.resume_cycles - 1)]
        return [*early, per_hop - sum(early)]

    def total_requests(self, scale: Scale) -> int:
        return (self.warmup_requests + self.timed_requests(scale)
                + self.requests_per_hop)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ingest_json",
        why="pre-batched JSON runs over stationary data: every window "
            "after warm-up is reused, so decode, bus, journal and "
            "rings do the work and clustering/Granger almost none",
        wire="json", window=120.0, hop=60.0, hops_per_10s=40,
    ),
    Workload(
        name="ingest_text",
        why="the same points as Prometheus text, one sample per line: "
            "1536 single-point batches per request load decode and "
            "bus.publish where the JSON path loads bus.flush",
        wire="text", window=120.0, hop=60.0, hops_per_10s=16,
    ),
    Workload(
        name="analysis_full",
        why="tumbling windows with a full refresh every window: "
            "k-Shape/SBD and Granger dominate and ingest is the "
            "minority, the reverse of ingest_json",
        wire="json", window=60.0, hop=60.0, hops_per_10s=10,
        full_refresh_windows=1, topology_extra=(2, 3, 4, 5),
    ),
    Workload(
        name="durable_mixed",
        why="JSON into a sqlite store with reads, replayed seqs and "
            "torn payloads interleaved: the only workload with store "
            "writes and queries beside ingest",
        wire="json", window=120.0, hop=60.0, hops_per_10s=24,
        durable=True,
    ),
)}


def component_name(index: int) -> str:
    return f"c{index}"


def metric_names() -> list[str]:
    """The 24 metric names of one component, family-major."""
    return [f"{stem}_{j}" for stem in FAMILY_STEMS
            for j in range(METRICS_PER_FAMILY)]


def planted_labels() -> dict[str, int]:
    """metric -> planted family index (the clustering ground truth)."""
    return {name: index // METRICS_PER_FAMILY
            for index, name in enumerate(metric_names())}


def planted_edges() -> set[tuple[str, str]]:
    """Directed component edges the data really carries."""
    return {(component_name(i - 1), component_name(i))
            for i in range(1, COMPONENTS)}


def topology(workload: Workload) -> list[tuple[str, str, int]]:
    """The declared call graph: the planted chain plus decoy edges
    between components whose signals are only weakly related."""
    edges = [(a, b, 1) for a, b in sorted(planted_edges())]
    for offset in workload.topology_extra:
        edges.extend(
            (component_name(i), component_name((i + offset) % COMPONENTS),
             1)
            for i in range(COMPONENTS)
        )
    return edges


def _ar1(noise: np.ndarray, phi: float) -> np.ndarray:
    """Unit-variance AR(1) along the last axis, driven by ``noise``
    (a plain loop: importing scipy.signal for it would cost every run
    half a second)."""
    out = np.empty_like(noise)
    gain = math.sqrt(1.0 - phi * phi)
    previous = np.zeros(noise.shape[:-1])
    for k in range(noise.shape[-1]):
        previous = phi * previous + gain * noise[..., k]
        out[..., k] = previous
    return out


def make_series(seed: int, scrapes: int) -> np.ndarray:
    """Values ``[component, metric, scrape]`` for one run.

    Family 0 is a chain: white noise in component 0, then
    ``z_i[k] = 0.8 z_{i-1}[k-2] + 0.6 e_i[k]`` -- the lag-2 dependency
    Granger should find, and nothing else for it to find: with a
    white head the chain has no autocorrelation for an indirect path
    to ride on at the tested lags (1, 2).  Families 1 and 2 are
    independent AR(1) processes with different spectra.  Every metric
    is ``offset + scale * (latent + small noise)``, so the three
    families are three shapes under z-normalization.  All processes
    are stationary: after warm-up the drift detector stays quiet.

    Noise is drawn scrape-major, so a longer run of the same seed
    starts with the same samples.
    """
    rng = np.random.default_rng(seed)
    per_component = FAMILIES * METRICS_PER_FAMILY
    scale = rng.uniform(0.5, 4.0, (COMPONENTS, per_component, 1))
    offset = rng.uniform(10.0, 100.0, (COMPONENTS, per_component, 1))
    burn = 64
    n = scrapes + burn
    draws = rng.standard_normal(
        (n, COMPONENTS, FAMILIES + per_component))
    noise = np.ascontiguousarray(
        np.moveaxis(draws[:, :, :FAMILIES], 0, -1))
    jitter = 0.05 * np.ascontiguousarray(
        np.moveaxis(draws[burn:, :, FAMILIES:], 0, -1))
    latent = np.empty((COMPONENTS, FAMILIES, n))
    latent[0, 0] = noise[0, 0]
    for i in range(1, COMPONENTS):
        latent[i, 0, :2] = noise[i, 0, :2]
        latent[i, 0, 2:] = (0.8 * latent[i - 1, 0, :-2]
                            + 0.6 * noise[i, 0, 2:])
    latent[:, 1] = _ar1(noise[:, 1], 0.8)
    latent[:, 2] = _ar1(noise[:, 2], -0.4)
    shape = np.repeat(latent[:, :, burn:], METRICS_PER_FAMILY, axis=1)
    return offset + scale * (shape + jitter)


def request_times(index: int) -> list[float]:
    """Data-time stamps of the scrapes request ``index`` carries."""
    first = index * SCRAPES_PER_REQUEST
    return [(first + k) * SCRAPE_INTERVAL
            for k in range(SCRAPES_PER_REQUEST)]


def request_watermark(index: int) -> float:
    return request_times(index)[-1]


def json_body(values: np.ndarray, index: int) -> bytes:
    """Request ``index`` as a sequenced JSON envelope of point runs."""
    times = request_times(index)
    lo = index * SCRAPES_PER_REQUEST
    hi = lo + SCRAPES_PER_REQUEST
    names = metric_names()
    batches = [
        {"component": component_name(c), "metric": names[m],
         "times": times, "values": values[c, m, lo:hi].tolist()}
        for c in range(COMPONENTS) for m in range(len(names))
    ]
    return json.dumps({"source": SOURCE, "seq": index,
                       "batches": batches},
                      separators=(",", ":")).encode("ascii")


def text_body(values: np.ndarray, index: int) -> bytes:
    """Request ``index`` as Prometheus text, scrape-major like a
    forwarding scraper sends it."""
    times = request_times(index)
    lo = index * SCRAPES_PER_REQUEST
    block = values[:, :, lo:lo + SCRAPES_PER_REQUEST].tolist()
    names = metric_names()
    lines = [
        f'{names[m]}{{component="{component_name(c)}"}} '
        f"{block[c][m][k]!r} {times[k]!r}"
        for k in range(SCRAPES_PER_REQUEST)
        for c in range(COMPONENTS) for m in range(len(names))
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def request_headers(workload: Workload, index: int) -> dict[str, str]:
    if workload.wire == "text":
        return {"Content-Type": "text/plain",
                "X-Repro-Source": SOURCE, "X-Repro-Seq": str(index)}
    return {"Content-Type": "application/json"}


def build_bodies(workload: Workload, values: np.ndarray,
                 count: int) -> list[bytes]:
    encode = text_body if workload.wire == "text" else json_body
    return [encode(values, index) for index in range(count)]


def builder(workload: Workload, workdir: str = "", port: int = 0):
    """The ``PipelineBuilder`` every session of this workload starts
    from: the README's production invocation (ingest clock, journal,
    checkpoint every window, serial executor, sync writer, declared
    topology).  Without a ``workdir`` nothing is persisted -- the
    reference engine's shape, whose windows must not depend on
    journal, checkpoint or store."""
    from repro.api import PipelineBuilder

    built = (PipelineBuilder("e2e").mode("serve")
             .streaming(window=workload.window, hop=workload.hop,
                        retention=2.0 * workload.window,
                        full_refresh_windows=workload.full_refresh_windows)
             .sieve(granger_alpha=GRANGER_ALPHA)
             .service(port=port, clock="ingest", view_history=4096,
                      event_history=4096,
                      topology=tuple(topology(workload)))
             .duration(3600).seed(1))
    if workdir:
        built = (built.journal(f"{workdir}/ingest.journal")
                 .checkpoint(f"{workdir}/engine.ckpt"))
        if workload.durable:
            built = built.storage("sqlite", f"{workdir}/store.db",
                                  writer="sync")
    return built
